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
  thin wrappers over it; p is evaluated only for the callers that read it.
  The twisted kernel has one z side (`kernel_z_side`: z and z - pole) and
  one u side (`kernel_at_known_z`: u and u + (z - pole), no p), each one
  call; `kernel_table` is both, for all (u, pole) pairs at one or many
  points z.

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
    "kernel_table",
    "kernel_z_side",
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
    """Immutable per-tau data: theta1 series table and quasi-periods."""

    tau: complex
    eta1: complex
    eta2: complex
    # (2T, 3): the weights of the powers b^0 .. b^(T-1), b^0 .. b^-(T-1) of
    # b = exp(2 pi i z0) in the theta1 sums of _core (see _series_table)
    table: np.ndarray = field(repr=False)
    # offsets from a cell-reduced point to the lattice points around the cell
    near: np.ndarray = field(repr=False)


def _theta_terms(tau: complex):
    """Coefficient arrays for theta1; cutoff keeps the tail below 1e-16
    for arguments reduced to the fundamental cell.  PoleError, before any
    series term is evaluated, for a modulus whose largest term overflows."""
    im = float(np.imag(tau))
    nmax = int(np.ceil(np.sqrt(46.0 / (np.pi * im)))) + 6
    # with |Im z0| up to Im(tau)/2 (eta2 = zeta(tau/2) reaches it), theta1's
    # terms sin and cos of pi z0 (2n + 1) grow up to exp((2n + 1) pi Im(tau)
    # / 2), and the powers b^n of b = exp(2 pi i z0) that _core sums them
    # from up to exp(2n pi Im(tau) / 2); the last term passes float max
    # past Im(tau) = 34.76 for the 7 terms there, the largest power later
    limit = 2.0 * np.log(np.finfo(float).max) / (np.pi * (2 * nmax - 1))
    if im > limit:
        raise PoleError(f"modulus tau = {tau} is out of range: the theta series "
                        f"overflows past Im(tau) = {limit:.4g}")
    n = np.arange(nmax)
    q = np.exp(1j * np.pi * tau)
    coeffs = (-1.0) ** n * q ** ((n + 0.5) ** 2)
    return coeffs, 2.0 * n + 1.0


def _series_table(coeffs, odd, th1p0):
    """The (2T, 3) table of _core's theta sums.

    With x = pi z0, b = e^(2ix) and sin((2n+1)x) = sin x sum_{|k| <= n} b^k,
    theta1 = 2 sum_n c_n sin((2n+1)x) is sin x S(b) with S = sum_{|k| < T}
    W_|k| b^k, W_k = 2 sum_{n >= k} c_n, and theta1'' (terms -2 c_n
    (2n+1)^2 in place of 2 c_n) is sin x S2(b) likewise; theta1'/theta1 =
    cot x + S'/S with S' = dS/dx = sum 2ik W_|k| b^k.  Rows: b^0 .. b^(T-1),
    then b^0 .. b^-(T-1), with b^0's weight split between the halves.
    Columns, all over theta1'(0) = S(1): S - theta1'(0), S' and pi^2 S2.
    The first is small, so 1 + its sum keeps S / theta1'(0) to about an
    ulp; its b^0 weight, W_0 - theta1'(0) = -4 sum_n n c_n, is summed as
    such."""
    t = coeffs.size
    k = np.arange(t)
    table = np.zeros((2, t, 3), dtype=complex)
    for col, w in ((0, 2.0 * coeffs), (2, -2.0 * coeffs * odd ** 2)):
        tail = np.cumsum(w[::-1])[::-1]
        tail[0] /= 2.0
        table[:, :, col] = tail
    table[0, :, 1] = 2j * k * table[0, :, 0]
    table[1, :, 1] = -2j * k * table[1, :, 0]
    table[:, 0, 0] = -2.0 * np.sum(k * coeffs)
    table[..., 2] *= np.pi ** 2
    return table.reshape(2 * t, 3) / th1p0


def build_cache(tau: complex) -> EllipticCache:
    tau = complex(tau)
    if not np.isfinite(tau) or np.imag(tau) <= 0:
        raise PoleError(f"modulus must satisfy Im(tau) > 0, got {tau}")
    coeffs, odd = _theta_terms(tau)
    th1p0 = 2.0 * np.sum(coeffs * odd)
    th1ppp0 = -2.0 * np.sum(coeffs * odd ** 3)
    eta1 = -(np.pi ** 2 / 6.0) * th1ppp0 / th1p0
    cache = EllipticCache(tau=tau, eta1=complex(eta1), eta2=0j,
                          table=_series_table(coeffs, odd, th1p0),
                          near=np.array([0, -1, 1, -tau, tau, -1 - tau, 1 + tau,
                                         -1 + tau, 1 - tau]))
    # eta2 = zeta(tau/2), evaluated with the generic machinery: tau/2
    # reduces with n2 = round(1/2) = 0, so the placeholder eta2 is not used.
    # The Legendre relation is a test, not an input.
    with np.errstate(over="ignore", invalid="ignore"):
        eta2 = _core(cache, np.asarray(tau / 2.0), with_wp=False)[1]
    object.__setattr__(cache, "eta2", complex(eta2))
    return cache


def _finite(z):
    """z as a complex array; ValueError, before any arithmetic, unless every
    entry is finite."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError(f"non-finite argument to an elliptic function: {z}")
    return z


def _cell(cache: EllipticCache, z):
    """Elementwise z = z0 + n1 + n2*tau with z0 in the centred fundamental
    cell, and the distance from z to the nearest lattice point, for a
    complex array z."""
    n2 = (z.imag / cache.tau.imag).round()
    zp = z - n2 * cache.tau
    n1 = zp.real.round()
    z0 = zp - n1
    dist = np.abs(np.add.outer(cache.near, z0)).min(axis=0)
    return z0, n1, n2, dist


def _core(cache: EllipticCache, z, with_wp=True):
    """(p, zeta, sigma, lattice distance) at every entry of the complex array
    z; p is None unless with_wp is true.

    Each argument is reduced to the centred cell, and theta1 is summed at
    x = pi z0 from one sin, one cos and one exp per argument: with b =
    exp(2ix) and the sums S, S' and S2 of _series_table,

        theta1 / theta1'(0)  = sin x S / theta1'(0)
        pi theta1' / theta1  = pi (cot x + S'/S)
        pi^2 theta1''/theta1 = pi^2 S2 / S,

    all three from the powers b^(+-k), |k| < T (one multiply.accumulate),
    and one matrix product against cache.table.
    sin x carries theta1's zero at the lattice point and cot x its pole, so
    theta1, zeta and p keep their relative accuracy there (sin x as
    (a - 1/a)/2i, a = e^(ix), would leave zeta and sigma 3e-8 off at
    |z0| = 1e-9).  The transcendentals come before the matrix product: on
    a host where a complex BLAS product leaves the AVX-512 state dirty,
    glibc's complex sin and exp run 10-20 times slower until a numpy
    vector op runs.  Each entry has the same bits in any array, a
    one-element array too (a single argument fills two columns of the
    product); a 0-d argument goes through numpy's scalar arithmetic, which
    rounds its own way.  The quasi-periodicity laws carry zeta and sigma
    back from z0 to z, sigma's two exponentials as one.  p and zeta are
    NaN within POLE_TOL of the lattice (callers guard with the distance);
    sigma grows like exp(|z|^2) and saturates to inf far outside the cell.
    The callers check that z is finite and hold
    np.errstate(over="ignore", invalid="ignore").
    """
    z0, n1, n2, dist = _cell(cache, z)
    x = np.pi * z0
    sin, cos, b = np.sin(x), np.cos(x), np.exp(2j * x)
    t, n = cache.table.shape[0] // 2, z.size
    # b^j and b^-j, j < t, one column per argument; a single argument fills
    # two, which keeps numpy's matrix-product route, and its rounding, that
    # of longer arrays
    powers = np.empty((2, t, max(n, 2)), dtype=complex)
    powers[:, 0] = 1.0
    powers[0, 1:] = b.reshape(-1)
    powers[1, 1:] = (1.0 / b).reshape(-1)
    np.multiply.accumulate(powers, axis=1, out=powers)
    products = powers.reshape(2 * t, -1).T @ cache.table
    m, ds, s2 = products[:n].T.reshape((3,) + z.shape)
    s0 = 1.0 + m
    on_lattice = dist < POLE_TOL
    # the masks are taken only when they change something: an np.where
    # costs more than most of the arithmetic of a call on a few arguments
    pole = np.count_nonzero(on_lattice)
    # pi theta1'/theta1
    lam = np.pi * (cos / (np.where(on_lattice, 1.0, sin) if pole else sin) + ds / s0)
    wp = None
    if with_wp:
        wp = (-2.0 * cache.eta1 - s2 / s0) + lam * lam
    # eta / 2, with eta = 2 n1 eta1 + 2 n2 eta2 the change of zeta from z0 to z
    half_eta = n1 * cache.eta1 + n2 * cache.eta2
    g = cache.eta1 * z0 + half_eta
    ze = 2.0 * g + lam
    if pole:
        ze = np.where(on_lattice, np.nan, ze)
        if with_wp:
            wp = np.where(on_lattice, np.nan, wp)
    # (-1)^(n1 + n2 + n1 n2) / pi: negative unless n1 and n2 are both even
    sign_pi = 1.0 / np.pi - (2.0 / np.pi) * ((n1 + n2 + n1 * n2) % 2.0)
    # sigma's two exponentials as one, exp(eta1 z0^2 + eta (z0 + z) / 2);
    # in the centred cell eta = 0 and the exponent is eta1 z0^2 alone
    sig = sign_pi * np.exp(g * z0 + half_eta * z) * (sin * s0)
    return wp, ze, sig, dist


def lattice_distance(cache: EllipticCache, z):
    """Distance from z to the nearest lattice point (cell-reduced)."""
    return _cell(cache, _finite(z))[3][()]


def in_centred_cell(cache: EllipticCache, z):
    """Whether z lies in the centred fundamental cell, the one that the
    elliptic functions reduce their arguments to."""
    _, n1, n2, _ = _cell(cache, _finite(z))
    return ((n1 == 0) & (n2 == 0))[()]


def weierstrass_eval(cache: EllipticCache, z):
    """(p(z), zeta(z), sigma(z)); raises PoleError within POLE_TOL of the
    lattice where p and zeta blow up.  Use sigma_eval for sigma alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        wp, ze, sig, dist = _core(cache, _finite(z))
    if np.any(dist < POLE_TOL):
        raise PoleError(f"z = {z} is within {POLE_TOL} of a lattice point")
    return wp[()], ze[()], sig[()]


def sigma_eval(cache: EllipticCache, z):
    """sigma(z); entire, so no pole error (sigma vanishes on the lattice)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _core(cache, _finite(z), with_wp=False)[2][()]


def zeta_eval(cache: EllipticCache, z):
    return weierstrass_eval(cache, z)[1]


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


def kernel_z_side(cache: EllipticCache, z, poles):
    """The twisted kernel's z side at the point z: (zeta(z), p(z), z - pole,
    zeta(z - pole), sigma(z - pole)), the first two of z's shape and the
    last three of z's shape followed by the poles', from one call of the
    array core over the flat array of z and then z - pole.  PoleError when z
    is within POLE_TOL of the lattice or of a pole, naming it."""
    z = _finite(z)
    poles = np.asarray(poles, dtype=complex)
    zp = z[..., None] - poles
    with np.errstate(over="ignore", invalid="ignore"):
        wp, ze, sig, dist = _core(cache, np.concatenate((z.ravel(), zp.ravel())))
    a = z.size
    near = dist < POLE_TOL
    if near.any():
        k = int(np.argmax(near))
        if k < a:
            raise PoleError(f"kernel: z = {z.ravel()[k]} is on the lattice")
        *at, pole = np.unravel_index(k - a, zp.shape)
        raise PoleError(f"kernel: z = {z[tuple(at)]} is at the pole {poles[pole]}")
    return (ze[:a].reshape(z.shape), wp[:a].reshape(z.shape), zp,
            ze[a:].reshape(zp.shape), sig[a:].reshape(zp.shape))


def kernel_at_known_z(cache: EllipticCache, us, z, poles, z_pole, sigma_zp, twist):
    """The twisted kernel's u side at a point z, with the twist exponent c:
    arrays of kernel_table's shapes

    value    = sigma(u + z - pole) / (sigma(u) sigma(z - pole)) * exp(u c)
    dlog_du  = zeta(u + z - pole) - zeta(u) + c

    and zeta(u + z - pole).  It takes the z side, kernel_z_side's z - pole
    and sigma(z - pole), and c of z's shape followed by the poles' (or by
    1): c = -zeta(z) gives kernel_table's kernel, zeta(pole) - zeta(z) the
    kernel times exp(u zeta(pole)), with the two exponentials as one.  One
    call of the array core, without p, over the flat array of u and then
    u + (z - pole); z and poles only name an offending argument.
    ResonanceError when a u is within POLE_TOL of the lattice, then
    PoleError when a u + z - pole is, each naming the offending arguments;
    then ValueError when a value is not finite (a sigma quotient that
    overflows).  The callers check that u is finite: kernel_table does, and
    the model's weights take u = rho(Q) from a checked state."""
    us = np.asarray(us, dtype=complex)
    shifted = us[..., None] + z_pole[..., None, :]
    n_u = us.size
    with np.errstate(over="ignore", invalid="ignore"):
        _, ze, sig, dist = _core(cache, np.concatenate((us.ravel(), shifted.ravel())),
                                 with_wp=False)
        near = dist < POLE_TOL
        if near.any():
            k = int(np.argmax(near))
            if k < n_u:
                raise ResonanceError(f"kernel: u = {us.ravel()[k]} is on the lattice")
            *at, r, pole = np.unravel_index(k - n_u, shifted.shape)
            u_at = np.broadcast_to(us, shifted.shape[:-1])[(*at, r)]
            z_at = np.broadcast_to(z, shifted.shape[:-2])[tuple(at)]
            raise PoleError(f"kernel: u + z - pole is on the lattice "
                            f"(u = {u_at}, z = {z_at}, pole = {poles[pole]})")
        zeta_u, sig_u = ze[:n_u].reshape(us.shape), sig[:n_u].reshape(us.shape)
        zeta_s, sig_s = ze[n_u:].reshape(shifted.shape), sig[n_u:].reshape(shifted.shape)
        twist = twist[..., None, :]
        value = sig_s / (sig_u[..., None] * sigma_zp[..., None, :]) * np.exp(us[..., None] * twist)
    if not np.isfinite(value).all():
        raise ValueError(f"kernel: a sigma quotient overflows "
                         f"(largest |u| = {np.abs(us).max():.3g})")
    return value, zeta_s - zeta_u[..., None] + twist, zeta_s


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
    point.  The table is the z side (kernel_z_side: z and z - pole in one
    call of the array core) and then the u side (kernel_at_known_z with the
    twist exponent -zeta(z): u and u + (z - pole) in one more), with their
    guards in that order: ValueError when a u or z is not finite, PoleError
    when z or z - pole is within POLE_TOL of the lattice, then
    ResonanceError (a PoleError) when u is and PoleError when u + z - pole
    is, each naming the offending arguments.  An entry has the same bits in
    any table, except in a one-entry table whose z has fewer axes than the
    groups (numpy rounds a one-element complex product of operands of
    unequal rank its own way).  A sigma quotient that is not representable
    raises ValueError.
    """
    us = _finite(us)
    zeta_z, wp_z, z_pole, zeta_zp, sigma_zp = kernel_z_side(cache, z, poles)
    value, dlog_du, zeta_s = kernel_at_known_z(cache, us, z, poles, z_pole, sigma_zp,
                                               -zeta_z[..., None])
    dlog_dz = zeta_s - zeta_zp[..., None, :] + us[..., None] * wp_z[..., None, None]
    return KernelTable(value, dlog_du, dlog_dz, zeta_z, zeta_zp)


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
