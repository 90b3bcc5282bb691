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
  Every evaluation goes through one private array core (`_core`), which
  treats a whole array of arguments in one pass; the scalar functions are
  thin wrappers over it, and `kernel_table` evaluates the twisted kernel
  for all (u, pole) pairs at one or many points z with a single call
  (`kernel_at_known_z` only its u side, at a point whose z side is known).

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
from typing import NamedTuple

import numpy as np

from .errors import PoleError, ResonanceError

__all__ = [
    "EllipticCache",
    "build_cache",
    "weierstrass_eval",
    "sigma_eval",
    "zeta_eval",
    "lattice_distance",
    "in_centred_cell",
    "quasi_periodicity_check",
    "kernel_table",
    "kernel_at_known_z",
    "KernelTable",
    "LatticeSumOracle",
    "POLE_TOL",
]

# Below this distance from a lattice point (after cell reduction) double
# precision has no usable digits left in p and zeta.
POLE_TOL = 1e-10


@dataclass(frozen=True)
class EllipticCache:
    """Immutable per-tau data: theta1 series weights and quasi-periods."""

    tau: complex
    eta1: complex
    eta2: complex
    odd: np.ndarray = field(repr=False)      # 2n + 1
    theta1_prime0: complex = field(repr=False)
    # rows: the weights of sin, cos, sin in theta1, theta1', theta1''
    weights: np.ndarray = field(repr=False)
    # offsets from a cell-reduced point to the lattice points around the cell
    near: np.ndarray = field(repr=False)


def _theta_terms(tau: complex):
    """Coefficient arrays for theta1; cutoff keeps the tail below 1e-16
    for arguments reduced to the fundamental cell.  PoleError, before any
    series term is evaluated, for a modulus whose largest term overflows."""
    im = float(np.imag(tau))
    nmax = int(np.ceil(np.sqrt(46.0 / (np.pi * im)))) + 6
    # theta1 takes sin and cos of pi z0 (2n + 1), with |Im z0| up to Im(tau)/2
    # (eta2 = zeta(tau/2) reaches it); they overflow once that imaginary
    # part passes log(float max), at Im(tau) = 34.76 for the 7 terms there
    limit = 2.0 * np.log(np.finfo(float).max) / (np.pi * (2 * nmax - 1))
    if im > limit:
        raise PoleError(f"modulus tau = {tau} is out of range: the theta series "
                        f"overflows past Im(tau) = {limit:.4g}")
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
    cache = EllipticCache(tau=tau, eta1=complex(eta1), eta2=0j, odd=odd,
                          theta1_prime0=complex(th1p0),
                          weights=np.array([2.0 * coeffs, 2.0 * coeffs * odd,
                                            -2.0 * coeffs * odd ** 2]),
                          near=np.array([0, -1, 1, -tau, tau, -1 - tau, 1 + tau,
                                         -1 + tau, 1 - tau]))
    # eta2 = zeta(tau/2), evaluated with the generic machinery: tau/2
    # reduces with n2 = round(1/2) = 0, so the placeholder eta2 is not used.
    # The Legendre relation is a test, not an input.
    object.__setattr__(cache, "eta2", complex(_core(cache, tau / 2.0)[1]))
    return cache


def _cell(cache: EllipticCache, z):
    """Elementwise z = z0 + n1 + n2*tau with z0 in the centred fundamental
    cell, and the distance from z to the nearest lattice point.  A
    non-finite argument raises ValueError before any arithmetic."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError(f"non-finite argument to an elliptic function: {z}")
    n2 = (z.imag / cache.tau.imag).round()
    zp = z - n2 * cache.tau
    n1 = zp.real.round()
    z0 = zp - n1
    dist = np.abs(z0[..., None] + cache.near).min(axis=-1)
    return z0, n1, n2, dist


def _core(cache: EllipticCache, z):
    """(p, zeta, sigma, lattice distance) at every entry of the array z.

    Each argument is reduced to the centred cell.  theta1 and its first two
    derivatives at pi*z0 take one sin/cos outer product over the series
    terms and one matrix product each; the quasi-periodicity laws carry
    zeta and sigma back from z0 to z.  p and zeta are NaN within POLE_TOL of
    the lattice (callers guard with the distance); sigma grows like
    exp(|z|^2) and saturates to inf far outside the cell.
    """
    z0, n1, n2, dist = _cell(cache, z)
    w = np.multiply.outer(np.pi * z0, cache.odd)
    sin, cos = np.sin(w), np.cos(w)
    t1 = sin @ cache.weights[0]
    t1p = cos @ cache.weights[1]
    t1pp = sin @ cache.weights[2]
    on_lattice = dist < POLE_TOL
    t1_safe = np.where(on_lattice, 1.0, t1)
    lam = t1p / t1_safe
    wp = -2.0 * cache.eta1 - np.pi ** 2 * (t1pp / t1_safe - lam * lam)
    eta = 2.0 * n1 * cache.eta1 + 2.0 * n2 * cache.eta2
    ze = 2.0 * cache.eta1 * z0 + np.pi * lam + eta
    wp = np.where(on_lattice, np.nan, wp)
    ze = np.where(on_lattice, np.nan, ze)
    omega = n1 + n2 * cache.tau
    sign = np.where((n1 % 2 != 0) | (n2 % 2 != 0), -1.0, 1.0)
    sig = np.exp(cache.eta1 * z0 * z0) * t1 / (np.pi * cache.theta1_prime0)
    with np.errstate(over="ignore", invalid="ignore"):
        sig = sign * sig * np.exp(eta * (z0 + omega / 2.0))
    return wp, ze, sig, dist


def lattice_distance(cache: EllipticCache, z):
    """Distance from z to the nearest lattice point (cell-reduced)."""
    return _cell(cache, z)[3][()]


def in_centred_cell(cache: EllipticCache, z):
    """Whether z lies in the centred fundamental cell, the one that the
    elliptic functions reduce their arguments to."""
    _, n1, n2, _ = _cell(cache, z)
    return ((n1 == 0) & (n2 == 0))[()]


def weierstrass_eval(cache: EllipticCache, z):
    """(p(z), zeta(z), sigma(z)); raises PoleError within POLE_TOL of the
    lattice where p and zeta blow up.  Use sigma_eval for sigma alone."""
    wp, ze, sig, dist = _core(cache, z)
    if np.any(dist < POLE_TOL):
        raise PoleError(f"z = {z} is within {POLE_TOL} of a lattice point")
    return wp[()], ze[()], sig[()]


def sigma_eval(cache: EllipticCache, z):
    """sigma(z); entire, so no pole error (sigma vanishes on the lattice)."""
    return _core(cache, z)[2][()]


def zeta_eval(cache: EllipticCache, z):
    return weierstrass_eval(cache, z)[1]


def quasi_periodicity_check(cache: EllipticCache, z, l: int) -> float:
    """Residual of the sigma and zeta quasi-periodicity laws over 2*omega_l.

    Returns the max, over both laws and every entry of the array z, of
    |sigma(z + 2w_l) + sigma(z) e^{2 eta_l (z + w_l)}| / |sigma(z)| and
    |zeta(z + 2w_l) - zeta(z) - 2 eta_l|, with 2*omega_1 = 1, 2*omega_2 = tau.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    z = np.asarray(z, dtype=complex)
    period = 1.0 if l == 1 else cache.tau
    eta = cache.eta1 if l == 1 else cache.eta2
    s0 = sigma_eval(cache, z)
    s1 = sigma_eval(cache, z + period)
    rs = abs(s1 + s0 * np.exp(2.0 * eta * (z + period / 2.0))) / abs(s0)
    z0 = zeta_eval(cache, z)
    z1 = zeta_eval(cache, z + period)
    rz = abs(z1 - z0 - 2.0 * eta)
    return float(max(np.max(rs), np.max(rz)))


class KernelTable(NamedTuple):
    """The twisted kernel over arguments u (..., R) and poles (P,): arrays
    value, dlog_du and dlog_dz of shape (..., R, P), plus zeta(z), of z's
    shape, and zeta(z - pole), of z's shape followed by P, from the same
    evaluation."""

    value: np.ndarray
    dlog_du: np.ndarray
    dlog_dz: np.ndarray
    zeta_z: np.ndarray
    zeta_zp: np.ndarray


def _shifted(us, z, poles):
    """u + z - pole over (..., R, P), added in that order."""
    return (us[..., None] + z[..., None, None]) - poles


def _u_side(us, z, poles, shifted, ze, sig, dist, zeta_z, sig_zp):
    """The kernel's u side from the array core's zeta, sigma and lattice
    distance over u and then u + z - pole (flattened, in that order):
    ResonanceError when a u is within POLE_TOL of the lattice, then
    PoleError when a u + z - pole is, each naming the offending arguments;
    then (value, dlog_du, zeta(u + z - pole)) with zeta(z) and
    sigma(z - pole) given, shaped as kernel_table's."""
    c = us.size
    near = dist < POLE_TOL
    if near.any():
        k = int(np.argmax(near))
        if k < c:
            raise ResonanceError(f"kernel: u = {us.ravel()[k]} is on the lattice")
        *at, r, pole = np.unravel_index(k - c, shifted.shape)
        u_at = np.broadcast_to(us, shifted.shape[:-1])[(*at, r)]
        z_at = np.broadcast_to(z, shifted.shape[:-2])[tuple(at)]
        raise PoleError(f"kernel: u + z - pole is on the lattice "
                        f"(u = {u_at}, z = {z_at}, pole = {poles[pole]})")
    zeta_u, sig_u = ze[:c].reshape(us.shape), sig[:c].reshape(us.shape)
    zeta_s, sig_s = ze[c:].reshape(shifted.shape), sig[c:].reshape(shifted.shape)
    u, zeta_zc = us[..., None], zeta_z[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        value = sig_s / (sig_u[..., None] * sig_zp[..., None, :]) * np.exp(-u * zeta_zc)
    if not np.isfinite(value).all():
        raise ValueError(f"kernel: a sigma quotient overflows "
                         f"(largest |u| = {np.abs(us).max():.3g})")
    return value, zeta_s - zeta_u[..., None] - zeta_zc, zeta_s


def kernel_table(cache: EllipticCache, us, z, poles) -> KernelTable:
    """Twisted sigma-quotient kernel and its two log-derivatives for every
    u in `us` and every pole in `poles` at the point z:

    value    = sigma(u + z - pole) / (sigma(u) sigma(z - pole)) * exp(-u zeta(z))
    dlog_du  = zeta(u + z - pole) - zeta(u) - zeta(z)
    dlog_dz  = zeta(u + z - pole) - zeta(z - pole) + u p(z)

    Doubly periodic in z; carries an essential singularity at z = 0 that the
    genus-one transition function removes; simple pole at z = pole with
    residue exp(-u zeta(pole)).

    `us` has shape (..., R), one group of roots per leading index, and z
    broadcasts against the leading axes, so each group may have its own
    point.  z, z - pole and u are evaluated at their own shapes and
    u + z - pole at the broadcast one, in one call of the array core under
    one lattice guard: PoleError when z, z - pole or u + z - pole is within
    POLE_TOL of the lattice, ResonanceError (a PoleError) when u is, each
    naming the offending arguments.  An entry has the same bits in any
    table, except in a one-entry table whose z has fewer axes than the
    groups (numpy rounds a one-element complex product of operands of
    unequal rank its own way).  A sigma quotient that is not representable
    raises ValueError.
    """
    us = np.asarray(us, dtype=complex)
    z = np.asarray(z, dtype=complex)
    poles = np.asarray(poles, dtype=complex)
    zp = z[..., None] - poles
    shifted = _shifted(us, z, poles)
    wp, ze, sig, dist = _core(cache, np.concatenate(
        (z.ravel(), zp.ravel(), us.ravel(), shifted.ravel())))
    a = z.size
    b = a + zp.size
    near = dist[:b] < POLE_TOL
    if near.any():
        k = int(np.argmax(near))
        if k < a:
            raise PoleError(f"kernel: z = {z.ravel()[k]} is on the lattice")
        *at, pole = np.unravel_index(k - a, zp.shape)
        raise PoleError(f"kernel: z = {z[tuple(at)]} is at the pole {poles[pole]}")
    zeta_z, wp_z = ze[:a].reshape(z.shape), wp[:a].reshape(z.shape)
    zeta_zp, sig_zp = ze[a:b].reshape(zp.shape), sig[a:b].reshape(zp.shape)
    value, dlog_du, zeta_s = _u_side(us, z, poles, shifted, ze[b:], sig[b:], dist[b:],
                                     zeta_z, sig_zp)
    dlog_dz = zeta_s - zeta_zp[..., None, :] + us[..., None] * wp_z[..., None, None]
    return KernelTable(value, dlog_du, dlog_dz, zeta_z, zeta_zp)


def kernel_at_known_z(cache: EllipticCache, us, z, poles, zeta_z, sigma_zp):
    """(value, dlog_du) of kernel_table(cache, us, z, poles), bit for bit,
    for a point z whose zeta(z) and sigma(z - pole) (z's shape, then the
    poles') are known: one call of the array core over u and u + z - pole,
    under kernel_table's ResonanceError and PoleError guard of those
    arguments.  z itself is not checked: the caller keeps it off the
    lattice and off the poles."""
    us = np.asarray(us, dtype=complex)
    z = np.asarray(z, dtype=complex)
    shifted = _shifted(us, z, poles)
    _, ze, sig, dist = _core(cache, np.concatenate((us.ravel(), shifted.ravel())))
    return _u_side(us, z, poles, shifted, ze, sig, dist, np.asarray(zeta_z), sigma_zp)[:2]


def kernel_phi(cache: EllipticCache, u: complex, z: complex, pole: complex):
    """Twisted sigma-quotient kernel and its two log-derivatives at one u
    and one pole; `kernel_table` gives the formulas.  Uncalled: kept for the
    benchmark's tracing, which binds it by name (ROADMAP item 1)."""
    table = kernel_table(cache, [u], z, [pole])
    return table.value[0, 0], table.dlog_du[0, 0], table.dlog_dz[0, 0]


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

    def __init__(self, tau: complex):
        self.tau = complex(tau)
        if np.imag(self.tau) <= 0:
            raise PoleError("Im(tau) must be positive")
        # 30 radii of the fundamental cell, and at least 40
        R = max(40.0, 30.0 * (abs(0.5 + self.tau / 2.0) + 0.5))
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
