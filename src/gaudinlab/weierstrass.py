"""Weierstrass p, zeta, sigma on the lattice Z + tau Z (periods 1 and tau).

Two independent evaluation routes are provided:

* the primary route goes through the Jacobi theta function theta1 with nome
  q = exp(i pi tau):

      sigma(z) = exp(eta1 z^2) theta1(pi z) / (pi theta1'(0))
      zeta(z)  = 2 eta1 z + pi theta1'(pi z) / theta1(pi z)
      p(z)     = -2 eta1 - pi^2 d/dw [theta1'/theta1](w)|_{w = pi z}

  with eta1 = -(pi^2/6) theta1'''(0)/theta1'(0).  Arguments are first
  reduced to the centred fundamental cell; the quasi-periodicity laws
  restore the values at the original point, so accuracy is uniform in |z|.

* `LatticeSumOracle` evaluates the same three functions from symmetrised
  truncated lattice sums.  Lattice points are grouped in +/- pairs, which
  makes every partial sum absolutely convergent, and the truncation tail is
  corrected analytically through the outside-disc power sums S_{2k}(R),
  built from Eisenstein-type constants that come from exponentially
  convergent one-dimensional cosecant series.  The oracle shares no code
  with the theta route and serves as its in-repo correctness check.

Quasi-periods are eta1 = zeta(1/2) and eta2 = zeta(tau/2); the Legendre
combination tau*eta1 - eta2 = pi*i is verified, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PoleError

__all__ = [
    "EllipticCache",
    "build_cache",
    "weierstrass_eval",
    "sigma_eval",
    "zeta_eval",
    "reduce_to_cell",
    "lattice_distance",
    "quasi_periodicity_check",
    "kernel_phi",
    "LatticeSumOracle",
    "POLE_TOL",
]

# Below this distance from a lattice point (after cell reduction) double
# precision has no usable digits left in p and zeta.
POLE_TOL = 1e-10


@dataclass(frozen=True)
class EllipticCache:
    """Immutable per-tau data: nome powers for theta1 and quasi-periods."""

    tau: complex
    eta1: complex
    eta2: complex
    truncation: int                      # number of theta series terms
    coeffs: np.ndarray = field(repr=False)   # (-1)^n q^{(n+1/2)^2}
    odd: np.ndarray = field(repr=False)      # 2n + 1
    theta1_prime0: complex = field(repr=False)

    @property
    def nome(self) -> complex:
        return np.exp(1j * np.pi * self.tau)


def _theta_terms(tau: complex):
    """Coefficient arrays for theta1; cutoff keeps the tail below 1e-16
    for arguments reduced to the fundamental cell."""
    im = float(np.imag(tau))
    nmax = int(np.ceil(np.sqrt(46.0 / (np.pi * im)))) + 6
    n = np.arange(nmax)
    q = np.exp(1j * np.pi * tau)
    coeffs = (-1.0) ** n * q ** ((n + 0.5) ** 2)
    return coeffs, 2.0 * n + 1.0


def build_cache(tau: complex) -> EllipticCache:
    tau = complex(tau)
    if not np.isfinite(tau) or np.imag(tau) <= 0:
        raise PoleError(f"modulus must satisfy Im(tau) > 0, got {tau}")
    coeffs, odd = _theta_terms(tau)
    th1p0 = 2.0 * np.sum(coeffs * odd)
    th1ppp0 = -2.0 * np.sum(coeffs * odd ** 3)
    eta1 = -(np.pi ** 2 / 6.0) * th1ppp0 / th1p0
    cache = EllipticCache(tau=tau, eta1=complex(eta1), eta2=0j,
                          truncation=len(odd), coeffs=coeffs, odd=odd,
                          theta1_prime0=complex(th1p0))
    # eta2 = zeta(tau/2), evaluated with the generic machinery (tau/2 is in
    # the cell, no reduction involved); the Legendre relation is a test, not
    # an input.
    eta2 = _zeta_incell(cache, tau / 2.0)
    object.__setattr__(cache, "eta2", complex(eta2))
    return cache


def reduce_to_cell(cache: EllipticCache, z: complex):
    """Write z = z0 + n1 + n2*tau with z0 in the centred fundamental cell."""
    z = complex(z)
    n2 = int(np.round(np.imag(z) / np.imag(cache.tau)))
    zp = z - n2 * cache.tau
    n1 = int(np.round(np.real(zp)))
    return zp - n1, n1, n2


def lattice_distance(cache: EllipticCache, z: complex) -> float:
    """Distance from z to the nearest lattice point (cell-reduced)."""
    z0, _, _ = reduce_to_cell(cache, z)
    cands = [z0, z0 - 1, z0 + 1, z0 - cache.tau, z0 + cache.tau,
             z0 - 1 - cache.tau, z0 + 1 + cache.tau,
             z0 - 1 + cache.tau, z0 + 1 - cache.tau]
    return min(abs(c) for c in cands)


def _theta_ratios(cache: EllipticCache, w: complex):
    s = np.sin(cache.odd * w)
    c = np.cos(cache.odd * w)
    t1 = 2.0 * np.sum(cache.coeffs * s)
    t1p = 2.0 * np.sum(cache.coeffs * cache.odd * c)
    t1pp = -2.0 * np.sum(cache.coeffs * cache.odd ** 2 * s)
    return t1, t1p, t1pp


def _zeta_incell(cache, z0):
    t1, t1p, _ = _theta_ratios(cache, np.pi * z0)
    return 2.0 * cache.eta1 * z0 + np.pi * t1p / t1


def _eval_reduced(cache, z0):
    t1, t1p, t1pp = _theta_ratios(cache, np.pi * z0)
    lam = t1p / t1
    wp = -2.0 * cache.eta1 - np.pi ** 2 * (t1pp / t1 - lam * lam)
    ze = 2.0 * cache.eta1 * z0 + np.pi * lam
    sig = np.exp(cache.eta1 * z0 * z0) * t1 / (np.pi * cache.theta1_prime0)
    return wp, ze, sig


def weierstrass_eval(cache: EllipticCache, z: complex):
    """(p(z), zeta(z), sigma(z)); raises PoleError within POLE_TOL of the
    lattice where p and zeta blow up.  Use sigma_eval for sigma alone."""
    z0, n1, n2 = reduce_to_cell(cache, z)
    if abs(z0) < POLE_TOL:
        raise PoleError(f"z = {z} is within {POLE_TOL} of a lattice point")
    wp, ze, sig = _eval_reduced(cache, z0)
    if n1 == 0 and n2 == 0:
        return wp, ze, sig
    eta = 2.0 * n1 * cache.eta1 + 2.0 * n2 * cache.eta2
    omega = n1 + n2 * cache.tau
    sign = -1.0 if (n1 % 2 or n2 % 2) else 1.0
    # sigma grows like exp(|z|^2) and saturates to inf far outside the cell
    with np.errstate(over="ignore", invalid="ignore"):
        sig = sign * sig * np.exp(eta * (z0 + omega / 2.0))
    return wp, ze + eta, sig


def sigma_eval(cache: EllipticCache, z: complex) -> complex:
    """sigma(z); entire, so no pole error (sigma vanishes on the lattice)."""
    z0, n1, n2 = reduce_to_cell(cache, z)
    t1, _, _ = _theta_ratios(cache, np.pi * z0)
    sig = np.exp(cache.eta1 * z0 * z0) * t1 / (np.pi * cache.theta1_prime0)
    if n1 == 0 and n2 == 0:
        return sig
    eta = 2.0 * n1 * cache.eta1 + 2.0 * n2 * cache.eta2
    omega = n1 + n2 * cache.tau
    sign = -1.0 if (n1 % 2 or n2 % 2) else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return sign * sig * np.exp(eta * (z0 + omega / 2.0))


def zeta_eval(cache: EllipticCache, z: complex) -> complex:
    return weierstrass_eval(cache, z)[1]


def quasi_periodicity_check(cache: EllipticCache, z: complex, l: int) -> float:
    """Residual of the sigma and zeta quasi-periodicity laws over 2*omega_l.

    Returns max of |sigma(z+2w_l) + sigma(z) e^{2 eta_l (z + w_l... )}|/|sigma(z)|
    and |zeta(z+2w_l) - zeta(z) - 2 eta_l|, with 2*omega_1 = 1, 2*omega_2 = tau.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    period = 1.0 if l == 1 else cache.tau
    eta = cache.eta1 if l == 1 else cache.eta2
    s0 = sigma_eval(cache, z)
    s1 = sigma_eval(cache, z + period)
    rs = abs(s1 + s0 * np.exp(2.0 * eta * (z + period / 2.0))) / abs(s0)
    z0 = zeta_eval(cache, z)
    z1 = zeta_eval(cache, z + period)
    rz = abs(z1 - z0 - 2.0 * eta)
    return max(rs, rz)


def kernel_phi(cache: EllipticCache, u: complex, z: complex, pole: complex):
    """Twisted sigma-quotient kernel and its two log-derivatives.

    value    = sigma(u + z - pole) / (sigma(u) sigma(z - pole)) * exp(-u zeta(z))
    dlog_du  = zeta(u + z - pole) - zeta(u) - zeta(z)
    dlog_dz  = zeta(u + z - pole) - zeta(z - pole) + u p(z)

    Doubly periodic in z; carries an essential singularity at z = 0 that the
    genus-one transition function removes; simple pole at z = pole with
    residue exp(-u zeta(pole)).
    """
    for point, what in ((u, "u"), (z, "z"), (z - pole, "z - pole"),
                        (u + z - pole, "u + z - pole")):
        if lattice_distance(cache, point) < POLE_TOL:
            raise PoleError(f"kernel_phi: {what} is on the lattice (u={u}, z={z}, pole={pole})")
    wp_z, zeta_z, sig_z = weierstrass_eval(cache, z)
    zeta_u = zeta_eval(cache, u)
    zeta_s = zeta_eval(cache, u + z - pole)
    zeta_zp = zeta_eval(cache, z - pole)
    value = (sigma_eval(cache, u + z - pole)
             / (sigma_eval(cache, u) * sigma_eval(cache, z - pole))
             * np.exp(-u * zeta_z))
    dlog_du = zeta_s - zeta_u - zeta_z
    dlog_dz = zeta_s - zeta_zp + u * wp_z
    return value, dlog_du, dlog_dz


# ---------------------------------------------------------------------------
# independent oracle: symmetrised lattice sums with analytic tail corrections
# ---------------------------------------------------------------------------

def _cosecant_row_sums(x: complex):
    """sum_{m in Z} (m+x)^{-2k} for k = 2, 3, 4 in closed cosecant form."""
    c2 = 1.0 / np.sin(np.pi * x) ** 2
    s4 = np.pi ** 4 * (c2 ** 2 - (2.0 / 3.0) * c2)
    s6 = np.pi ** 6 * (c2 ** 3 - c2 ** 2 + (2.0 / 15.0) * c2)
    s8 = np.pi ** 8 * (c2 ** 4 - (4.0 / 3.0) * c2 ** 3
                       + (2.0 / 5.0) * c2 ** 2 - (4.0 / 315.0) * c2)
    return s4, s6, s8


def _eisenstein_constants(tau: complex):
    """G4, G6, G8 for Z + tau Z by row reduction; exponentially convergent."""
    G4 = 2.0 * np.pi ** 4 / 90.0
    G6 = 2.0 * np.pi ** 6 / 945.0
    G8 = 2.0 * np.pi ** 8 / 9450.0
    n = 1
    while np.pi * n * np.imag(tau) < 200.0:
        s4, s6, s8 = _cosecant_row_sums(n * tau)
        G4 += 2.0 * s4
        G6 += 2.0 * s6
        G8 += 2.0 * s8
        n += 1
    return G4, G6, G8


class LatticeSumOracle:
    """Evaluate p, zeta, sigma by paired lattice sums over |w| <= R.

    Valid for z inside (a modest multiple of) the fundamental cell; the
    truncation tail is corrected through the outside-disc sums S_{2k}(R) up
    to k = 4, which leaves an error of order |z/R|^8 per point.
    """

    def __init__(self, tau: complex, radius: float | None = None):
        self.tau = complex(tau)
        if np.imag(self.tau) <= 0:
            raise PoleError("Im(tau) must be positive")
        cellrad = abs(0.5 + self.tau / 2.0) + 0.5
        R = float(radius) if radius else max(40.0, 30.0 * cellrad)
        self.radius = R
        nmax = int(np.ceil(R / np.imag(self.tau))) + 1
        mmax = int(np.ceil(R + nmax * abs(np.real(self.tau)))) + 1
        mm, nn = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1))
        w = mm + nn * self.tau
        half = (nn > 0) | ((nn == 0) & (mm > 0))
        self.w = w[half & (np.abs(w) <= R)]          # one point per +/- pair
        G4, G6, G8 = _eisenstein_constants(self.tau)
        self.S4 = G4 - 2.0 * np.sum(self.w ** -4.0)   # full-lattice outside-disc sums
        self.S6 = G6 - 2.0 * np.sum(self.w ** -6.0)
        self.S8 = G8 - 2.0 * np.sum(self.w ** -8.0)

    def zeta(self, z: complex) -> complex:
        z = complex(z)
        w = self.w
        s = np.sum(2.0 * z ** 3 / (w * w * (z * z - w * w)))
        return 1.0 / z + s - z ** 3 * self.S4 - z ** 5 * self.S6 - z ** 7 * self.S8

    def wp(self, z: complex) -> complex:
        z = complex(z)
        w2 = self.w * self.w
        s = np.sum(2.0 * z * z * (3.0 * w2 - z * z) / (w2 * (z * z - w2) ** 2))
        return (1.0 / z ** 2 + s
                + 3.0 * z ** 2 * self.S4 + 5.0 * z ** 4 * self.S6 + 7.0 * z ** 6 * self.S8)

    def sigma(self, z: complex) -> complex:
        z = complex(z)
        u = z * z / (self.w * self.w)
        s = np.sum(np.log1p(-u) + u)
        return z * np.exp(s - z ** 4 * self.S4 / 4.0
                          - z ** 6 * self.S6 / 6.0 - z ** 8 * self.S8 / 8.0)

    def eta1(self) -> complex:
        return self.zeta(0.5)

    def eta2(self) -> complex:
        return self.zeta(self.tau / 2.0)
