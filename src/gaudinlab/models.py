"""Gaudin models on the sphere (genus 0) and the torus (genus 1).

A model fixes the geometry: marked points p_alpha carrying coadjoint orbits
through the seeds Lambda_alpha, evaluation points q_i with invariant
polynomials P_i, and (in genus 1) the lattice modulus tau.  A phase state
carries group points phi_alpha -- the orbit variables enter every formula
only through the residues

    L_alpha = -phi_alpha Lambda_alpha phi_alpha^{-1}

-- plus, in genus 1, the cotangent pair (q^mu, p_mu) hiding in the torus
transition function gamma(z) = exp(Q/z), Q = q^mu H_mu.

The genus-0 Lax matrix is sum_alpha L_alpha / (z - p_alpha) subject to
sum_alpha L_alpha = 0.  The genus-1 Lax matrix has Cartan components

    L^mu(z) = pi^mu + sum_alpha (L_alpha)^mu zeta(z - p_alpha),
    sum_alpha (L_alpha)^mu = 0,

with pi^mu recovered from the canonical momenta through the Gram system of
p_mu = Tr(L(0) H_mu), and root components built from the twisted kernel

    Phi_alpha(u; z) = sigma(u + z - p_alpha) / (sigma(u) sigma(z - p_alpha))
                      * exp(-u (zeta(z) - zeta(p_alpha))),   u = rho(Q),

which is doubly periodic in z and normalised so that its residue at
z = p_alpha is exactly 1; the assembled matrix then satisfies
Res_{p_alpha} L = L_alpha on the nose, and gamma L gamma^{-1} extends
holomorphically through z = 0.

Both genera share one assembly: L(z) = sum_alpha L_alpha * W_alpha(z)
entrywise, plus gram^{-1} p on the Cartan diagonal in genus 1, where the
kernel weights W_alpha are 1/(z - p_alpha) on the sphere, and on the torus
the twisted kernel on the root entries and zeta(z - p_alpha) + zeta(p_alpha)
on the diagonal.  The gradients and the M matrices reuse the same weights;
the genus enters only through them, the pi constant and dH/dq.  In genus
1 the weights at any point are the kernel's z side there plus one shared
fill from its u side, whose one exponential exp(u (zeta(p_a) - zeta(z)))
is the kernel's twist and the residue normalisation together; at the
Hamiltonian points q_i, which the model fixes, the z side, the twist
exponents and the Cartan diagonals are built once with the model by the
same functions, so a gradient evaluates only the u side, which depends on
the state.

Hamiltonians are H_i = P_i(L(q_i)); their q/p/orbit gradients and the
companion matrices M_i (simple pole at q_i with residue grad P_i(L(q_i)),
compensating pole structure at z = 0 in genus 1) are provided in closed
form and are validated against finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PoleError
from .liealg import (
    InvariantPolynomial,
    LieBasis,
    build_slm_basis,
    cartan_components,
    matrix_exponential,
    random_traceless,
)
# kernel_phi is not called in this module; it stays bound here because
# perfbench/tests/test_perfbench.py expects models to bind it (ROADMAP item 1
# lists its removal together with that expectation).
from .weierstrass import (  # noqa: F401
    POLE_TOL,
    EllipticCache,
    build_cache,
    in_centred_cell,
    kernel_at_known_z,
    kernel_phi,
    kernel_z_side,
    lattice_distance,
    sigma_eval,
    zeta_eval,
)

__all__ = [
    "GaudinModel",
    "PhaseState",
    "make_gaudin_model",
    "orbit_elements",
    "residue_constraint",
    "lax_matrix",
    "transition_gamma",
    "hamiltonian",
    "grad_hamiltonian",
    "m_matrix",
    "retrivialize",
    "retrivialization_factor",
    "resonance_margin",
    "random_rational_ensemble",
    "random_elliptic_ensemble",
    "random_phase_state",
    "model_to_dict",
    "model_from_dict",
    "state_to_dict",
    "state_from_dict",
]

# Points closer than this (mod lattice / absolutely) are treated as coincident.
SEPARATION_TOL = 1e-8
# The largest modulus of an orbit-seed, group-point, orbit-matrix, q or p
# entry that a config may give; far past it the products and norms of the
# model and the state overflow double precision.
MAX_ENTRY = 1e6
# Draws a random ensemble spends on one point, and a random state on its
# (q, p), before it gives up: far more than the suites' draws take, and a
# second's work when nothing fits
SCATTER_DRAWS = 10_000
# The keys of a config's model and Hamiltonian objects and of an explicit
# initial_state
MODEL_KEYS = ("genus", "m", "tau", "marked_points", "orbit_seeds", "hamiltonians")
HAMILTONIAN_KEYS = ("point", "degree")
STATE_KEYS = ("random", "phis", "orbit_mats", "q", "p", "t")
_NO_PARTIALS = np.zeros(0, dtype=complex)       # genus 0's dH/dq and dH/dp
_NO_PARTIALS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class GaudinModel:
    """Immutable model definition; see module docstring.  Two models are
    equal only when they are the same object (the fields hold arrays), and
    hash by identity.

    The fields after cache are the data that no state changes, built once
    by make_gaudin_model; every gradient, H_i and L(q_i) reads them."""

    genus: int
    basis: LieBasis
    marked_points: np.ndarray          # (N,) complex
    orbit_seeds: np.ndarray            # (N, m, m) traceless Lambda_alpha
    ham_points: np.ndarray             # (n,) complex
    polys: tuple                       # n InvariantPolynomial
    cache: EllipticCache = None        # genus 1 only
    zeta_poles: np.ndarray = field(default=None, repr=False)
    # the Lax weights at the Hamiltonian points: genus 0 the (n, N, 1, 1)
    # 1 / (q_i - p_a); genus 1 an (n, N, m, m) template holding the Cartan
    # diagonals zeta(q_i - p_a) + zeta(p_a) and zero root entries, which a
    # gradient copies and fills
    ham_weights: np.ndarray = field(default=None, repr=False, compare=False)
    # genus 1: the twisted kernel's z side at the Hamiltonian points,
    # kernel_z_side(cache, q, p): zeta(q_i), p(q_i) (n,), then q_i - p_a,
    # zeta(q_i - p_a), sigma(q_i - p_a) (n, N)
    ham_z_side: tuple = field(default=None, repr=False, compare=False)
    # genus 1: the (n, N) twist exponents zeta(p_a) - zeta(q_i) of the root
    # weights at the Hamiltonian points
    ham_twist: np.ndarray = field(default=None, repr=False, compare=False)
    # genus 1: the (rk, m) maps gram^{-1}.T @ cartan_diag, from the momenta
    # p to the diagonal of pi^mu H_mu, and gram^{-1} @ cartan_diag, from the
    # diagonal of grad P_i to dH/dp
    pi_diag: np.ndarray = field(default=None, repr=False, compare=False)
    dp_diag: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def n_sites(self) -> int:
        return len(self.marked_points)

    @property
    def n_hams(self) -> int:
        return len(self.ham_points)

    @property
    def m(self) -> int:
        return self.basis.m


@dataclass
class PhaseState:
    """Dynamical variables.  Exactly one of group points (phis) and raw
    orbit matrices (orbit_mats; used by the optional genus-0 projection
    mode) is present, since orbit_elements prefers orbit_mats and the
    steppers phis; it is a complex (N, m, m) stack (a list is stacked);
    leading axes before N hold several states, over which orbit_elements
    and the Lax assembly broadcast.  q/p are the genus-1 cotangent
    coordinates."""

    phis: np.ndarray = None
    q: np.ndarray = None
    p: np.ndarray = None
    t: np.ndarray = None
    orbit_mats: np.ndarray = None

    def __post_init__(self):
        if (self.phis is None) == (self.orbit_mats is None):
            raise ConfigError("a state needs exactly one of phis and orbit_mats")
        if self.phis is not None:
            self.phis = np.asarray(self.phis, dtype=complex)
        else:
            self.orbit_mats = np.asarray(self.orbit_mats, dtype=complex)

    @property
    def mats(self) -> np.ndarray:
        """The evolved stack: group points, or residues in projection mode."""
        return self.phis if self.phis is not None else self.orbit_mats

    def moved(self, mats, q, p, t) -> "PhaseState":
        """A state of the same kind carrying the stack mats."""
        kind = "phis" if self.phis is not None else "orbit_mats"
        return PhaseState(**{kind: mats}, q=q, p=p, t=t)

    def copy(self) -> "PhaseState":
        return PhaseState(**{k: None if v is None else np.array(v)
                             for k, v in vars(self).items()})


def _member(state, b):
    """Member (or index array of members) b of a state with a member axis."""
    return PhaseState(**{k: None if v is None else v[b] for k, v in vars(state).items()})


def _stack(*states):
    """One state whose member axis holds the given states, in order (np.array
    of the list: np.stack takes 2-3 times as long on 128 small arrays)."""
    return PhaseState(**{k: None if v is None else np.array([vars(s)[k] for s in states])
                         for k, v in vars(states[0]).items()})


def check_point(cache, z, others, tol, what):
    """ConfigError unless z is at least tol from each of others and, in
    genus 1 (cache is the model's; distances mod the lattice), from the
    lattice and inside the centred cell, off which the kernel overflows."""
    if cache is not None:
        if lattice_distance(cache, z) < tol:
            raise ConfigError(f"{what} = {z} sits on the lattice (z = 0 is the gluing point)")
        if not in_centred_cell(cache, z):
            raise ConfigError(f"{what} = {z} lies outside the centred fundamental cell")
    near = (np.abs(z - others) if cache is None else lattice_distance(cache, z - others)) < tol
    if near.any():
        raise ConfigError(f"coincident points: {what} = {z} is within {tol:g} of "
                          f"{others[np.argmax(near)]}")


def make_gaudin_model(genus, m, marked_points, orbit_seeds, ham_points,
                      degrees, tau=None) -> GaudinModel:
    """Validate and build a model.  Rejects coincident points, seeds outside
    sl_m, and (genus 1) points on the lattice or outside its centred cell."""
    if genus not in (0, 1):
        raise ConfigError(f"genus must be 0 or 1, got {genus}")
    pts = np.asarray([complex(p) for p in marked_points])
    hpts = np.asarray([complex(q) for q in ham_points])
    seeds = []
    for L in orbit_seeds:
        L = np.asarray(L, dtype=complex)
        if L.shape != (m, m):
            raise ConfigError(f"orbit seed has shape {L.shape}, expected {(m, m)}")
        if abs(np.trace(L)) > 1e-10 * max(np.linalg.norm(L), 1.0):
            raise ConfigError("orbit seeds must be traceless")
        seeds.append(L)
    if len(pts) == 0:
        raise ConfigError("need at least one marked point")
    if len(seeds) != len(pts):
        raise ConfigError("need one orbit seed per marked point")
    # the basis has m^2 entries per Cartan generator: build it only for an
    # m that the seeds already confirm
    basis = build_slm_basis(m)
    polys = tuple(InvariantPolynomial(int(k)) for k in degrees)
    if len(polys) != len(hpts):
        raise ConfigError("need one polynomial degree per Hamiltonian point")

    cache = None
    if genus == 1:
        if tau is None:
            raise ConfigError("genus 1 requires the modulus tau")
        cache = build_cache(tau)
    for k, z in enumerate(pts):
        check_point(cache, z, pts[:k], SEPARATION_TOL, f"marked point {k}")
    for k, z in enumerate(hpts):
        check_point(cache, z, pts, SEPARATION_TOL, f"Hamiltonian point {k}")

    # no pole check needed: every q_i - p_a is at least SEPARATION_TOL >
    # POLE_TOL from 0 (mod the lattice in genus 1)
    if genus == 0:
        return GaudinModel(genus=genus, basis=basis, marked_points=pts,
                           orbit_seeds=np.array(seeds), ham_points=hpts, polys=polys,
                           ham_weights=(1.0 / (hpts[:, None] - pts))[..., None, None])
    zeta_p = np.asarray(zeta_eval(cache, pts))
    z_side = kernel_z_side(cache, hpts, pts)
    zeta_q, _, _, zeta_qp, _ = z_side
    return GaudinModel(genus=genus, basis=basis, marked_points=pts,
                       orbit_seeds=np.array(seeds), ham_points=hpts, polys=polys,
                       cache=cache, zeta_poles=zeta_p,
                       ham_weights=_cartan_template(m, zeta_qp + zeta_p), ham_z_side=z_side,
                       ham_twist=zeta_p - zeta_q[:, None],
                       pi_diag=basis.gram_inv.T @ basis.cartan_diag,
                       dp_diag=basis.gram_inv @ basis.cartan_diag)


# ---------------------------------------------------------------------------
# state access
# ---------------------------------------------------------------------------

def orbit_elements(model: GaudinModel, state: PhaseState) -> np.ndarray:
    """Residues L_alpha = -phi Lambda phi^{-1} stacked (..., N, m, m), or
    the stored matrices.  In genus 1 this is also the per-evaluation guard:
    q, p and every residue must be finite before any kernel work, else
    ValueError."""
    if model.genus == 1 and not (np.isfinite(state.q).all() and np.isfinite(state.p).all()):
        raise ValueError("non-finite Cartan coordinates q or momenta p")
    Ls = state.orbit_mats
    if Ls is None:
        Ls = -(state.phis @ model.orbit_seeds @ np.linalg.inv(state.phis))
    if model.genus == 1 and not np.isfinite(Ls).all():
        raise ValueError("non-finite residue L_alpha")
    return Ls


def residue_constraint(model: GaudinModel, Ls: np.ndarray) -> np.ndarray:
    """The constrained part of sum_a L_a over the sites axis of a (..., N,
    m, m) stack of residues: all of the sum on the sphere, its Cartan
    (diagonal) part on the torus, where the root parts are free."""
    res = np.sum(Ls, axis=-3)
    if model.genus == 1:
        res = res * np.eye(model.m)
    return res


def resonance_margin(model: GaudinModel, state: PhaseState) -> float:
    """Smallest lattice distance among all root pairings rho(Q); genus 1.
    Leading axes of q hold several states, and the minimum runs over all."""
    if model.genus == 0:
        return np.inf
    u = (model.basis.roots @ state.q[..., None])[..., 0]
    return float(lattice_distance(model.cache, u).min())


def _kernel_weights(model: GaudinModel, q, z, ham=None):
    """Entrywise kernel weights W at z, one matrix per pole, so that
    sum_a X_a * W[a] has a simple pole at each pole p_a with residue X_a.
    The poles are the marked points (Lax weights) or q_ham (M weights).

    Genus 0: 1 / (z - p_a) in every entry, shape (..., P, 1, 1).
    Genus 1: shape (..., P, m, m); the root entry of rho_r holds the twisted
    kernel Phi(u_r, z; p_a) e^{u_r zeta(p_a)}, u_r = rho_r(Q), of residue 1;
    the diagonal holds zeta(z - p_a) + zeta(p_a) for L (the zeta(p_a) part
    of pi^mu at fixed momenta) or zeta(z - q_ham) - zeta(z) for M.

    Also returns the (..., P, n_roots) u-derivatives of the root weights
    (None in genus 0).  The leading axes of q (..., rk) and of z broadcast,
    as in kernel_table: q[..., None, :] with a (Z,) array z gives every
    state's weights at every point.  In genus 0, where q is None, z's axes
    lead.  PoleError at a pole and, in genus 1, at z = 0; genus 1 makes two
    array-core calls, kernel_z_side's and then _twisted_weights'.

    The Lax weights at the Hamiltonian points themselves come from
    _ham_weights, which reads the model's z side there."""
    poles = model.marked_points if ham is None else model.ham_points[ham:ham + 1]
    if model.genus == 0:
        d = np.asarray(z)[..., None] - poles
        near = np.abs(d) < POLE_TOL
        if near.any():
            k, a = divmod(int(np.argmax(near)), len(poles))
            raise PoleError(f"z = {np.ravel(z)[k]} is at the pole {poles[a]}")
        return (1.0 / d)[..., None, None], None
    zeta_poles = model.zeta_poles if ham is None else model.ham_z_side[0][ham:ham + 1]
    zeta_z, _, z_pole, zeta_zp, sigma_zp = kernel_z_side(model.cache, z, poles)
    cartan = zeta_zp + zeta_poles if ham is None else zeta_zp - zeta_z[..., None]
    return _twisted_weights(model, q, z, poles, z_pole, sigma_zp,
                            zeta_poles - zeta_z[..., None], _cartan_template(model.m, cartan))


def _ham_weights(model: GaudinModel, q, i):
    """The Lax weights at the Hamiltonian point q_i (i an int, or one flow
    index per state along q's leading axis) and their u-derivatives:
    _kernel_weights(model, q, model.ham_points[i]) bit for bit at every tau,
    from the model's weights (genus 0), or from its z side, twist exponents
    and Cartan template (genus 1, which then evaluates only the u side, in
    one array-core call).  No z guard: construction keeps each q_i off the
    lattice and the poles."""
    if model.genus == 0:
        return model.ham_weights[i], None
    _, _, z_pole, _, sigma_zp = model.ham_z_side
    return _twisted_weights(model, q, model.ham_points[i], model.marked_points, z_pole[i],
                            sigma_zp[i], model.ham_twist[i], model.ham_weights[i])


def _cartan_template(m, cartan):
    """(..., P, m, m) matrices with cartan (..., P) on the diagonal and zero
    root entries, which _twisted_weights fills."""
    return cartan[..., None, None] * np.eye(m)


def _twisted_weights(model: GaudinModel, q, z, poles, z_pole, sigma_zp, twist, template):
    """Genus-1 weights W (..., P, m, m) at z and their (..., P, R)
    u-derivatives, as _kernel_weights returns them: a copy of the Cartan
    template whose root entries take the kernel's u side over u = rho(Q),
    kernel_at_known_z with z - pole, sigma(z - pole) and the twist exponent
    zeta(pole) - zeta(z) of the z side at z."""
    u = (model.basis.roots @ q[..., None])[..., 0]
    value, dlog_du, _ = kernel_at_known_z(model.cache, u, z, poles, z_pole, sigma_zp, twist)
    value = value.swapaxes(-1, -2)
    W = np.empty(value.shape[:-1] + template.shape[-2:], dtype=complex)
    W[...] = template
    W[..., model.basis.root_entries[0], model.basis.root_entries[1]] = value
    return W, value * dlog_du.swapaxes(-1, -2)


def _ham_lax(model: GaudinModel, state: PhaseState, i):
    """(Ls, L(q_i), W, dW_du): one residue pass and the weights at q_i."""
    Ls = orbit_elements(model, state)
    W, dW_du = _ham_weights(model, state.q, i)
    return Ls, _lax(model, Ls, state.p, W), W, dW_du


def _lax(model: GaudinModel, Ls: np.ndarray, p, W: np.ndarray) -> np.ndarray:
    """L = sum_a L_a * W[a] (entrywise), plus in genus 1 the constant Cartan
    part pi^mu H_mu, pi = gram^{-1} p from p_mu = Tr(L(0) H_mu), added to
    the diagonal.  Leading axes of Ls (..., N, m, m), p (..., rk) and W
    broadcast; each state's products have one state's shapes, so a stack
    of states gives each one's own bits."""
    L = (Ls * W).sum(axis=-3)
    if model.genus == 1:
        diag = np.arange(model.m)
        L[..., diag, diag] += (p[..., None, :] @ model.pi_diag)[..., 0, :]
    return L


# ---------------------------------------------------------------------------
# Lax matrices
# ---------------------------------------------------------------------------

def lax_matrix(model: GaudinModel, state: PhaseState, z) -> np.ndarray:
    """L(z) = sum_alpha L_alpha * W_alpha(z) (+ pi in genus 1): on the sphere
    sum_alpha L_alpha / (z - p_alpha), O(1/z^2) at infinity on the
    constraint surface; on the torus doubly periodic with
    Res_{p_alpha} L = L_alpha.  Raises PoleError at the marked points (and
    at z = 0 in genus 1), ResonanceError when rho(Q) is on the lattice for
    some root.  z may have any shape: the result is the (..., *z.shape, m, m)
    stack, leading axes of the state first, from one residue pass and one
    set of weights (in genus 1 one z side and one u side for every state
    and point: two array-core calls), and each matrix equals its own
    one-point call bit for bit."""
    Ls = orbit_elements(model, state)
    q = None if state.q is None else state.q[..., None, :]
    p = None if state.p is None else state.p[..., None, :]
    W = _kernel_weights(model, q, np.ravel(z))[0]
    L = _lax(model, Ls[..., None, :, :, :], p, W)
    return L.reshape(L.shape[:-3] + np.shape(z) + L.shape[-2:])


def transition_gamma(model: GaudinModel, state: PhaseState, z) -> np.ndarray:
    """Torus gluing datum gamma(z) = exp(Q/z), diagonal, for one state: the
    (*z.shape, m, m) stack for z of any shape.  PoleError if any z is 0."""
    z = np.asarray(z, dtype=complex)
    if (z == 0).any():
        raise PoleError("transition function is singular at z = 0")
    Qdiag = state.q @ model.basis.cartan_diag
    gamma = np.zeros(z.shape + (model.m, model.m), dtype=complex)
    gamma[..., np.arange(model.m), np.arange(model.m)] = np.exp(Qdiag / z[..., None])
    return gamma


# ---------------------------------------------------------------------------
# Hamiltonians and gradients
# ---------------------------------------------------------------------------

def hamiltonian(model: GaudinModel, state: PhaseState, i: int) -> complex:
    """H_i = P_i(L(q_i)), from the model's weights at q_i."""
    return model.polys[i].evaluate(_ham_lax(model, state, i)[1])


def grad_hamiltonian(model: GaudinModel, state: PhaseState, i):
    """Closed-form partials of H_i.

    Returns (dH_dL, dH_dq, dH_dp): dH_dL[alpha] is the traceless matrix with
    dH = sum_alpha Tr(dH_dL[alpha] dL_alpha) for unconstrained variations of
    the residues; dH_dq[mu] = dH/dq^mu and dH_dp[mu] = dH/dp_mu (empty in
    genus 0).

    With G = grad P_i(L(q_i)), which is traceless, dH_dL[alpha] is
    G * W_alpha(q_i)^T entrywise, and so traceless itself.  The weights
    W(q_i) come from _ham_weights: genus 0 reads the model's and evaluates
    no kernel; genus 1 reads the model's z side at q_i and evaluates only
    the twisted kernel's u side, in one array-core call with no z guard.
    The result equals the _kernel_weights(model, q, q_i) route bit for bit
    at every tau.

    i may also be an array of flow indices, one per state along the leading
    axis of a state stack (the members of a lockstep evolve); the partials
    then carry that axis, and each member's equal its own single call bit
    for bit.  Members whose polynomials differ in degree take one gradient
    call per degree.
    """
    # one residue pass and one set of weights at q_i serve L(q_i) and every
    # partial derivative; the weights are the model's, and in genus 1 only
    # their root entries are evaluated, at u and u + q_i - p_a
    Ls, L, W, dW_du = _ham_lax(model, state, i)
    if not isinstance(i, np.ndarray):
        G = model.polys[i].gradient(L)
    else:
        members = {}     # polynomial -> the members that flow by it
        for b, k in enumerate(i):
            members.setdefault(model.polys[k], []).append(b)
        G = np.empty_like(L)
        for poly, rows in members.items():
            G[rows] = poly.gradient(L[rows])
    dH_dL = G[..., None, :, :] * W.swapaxes(-1, -2)
    if model.genus == 0:
        return dH_dL, _NO_PARTIALS, _NO_PARTIALS
    basis = model.basis
    rows, cols = basis.root_entries
    s = (Ls[..., rows, cols] * dW_du).sum(axis=-2)
    # row-vector products, one per state, so a stack keeps each state's bits
    dH_dq = ((G[..., cols, rows] * s)[..., None, :] @ basis.roots)[..., 0, :]
    # dH/dp = gram^{-1} (Tr(G H_mu))_mu, from diag(G) in one product
    dH_dp = model.dp_diag @ np.diagonal(G, axis1=-2, axis2=-1)[..., None]
    return dH_dL, dH_dq, dH_dp[..., 0]


def _charge_partials(model: GaudinModel, state: PhaseState) -> list:
    """The partials (dH_dL, dH_dq, dH_dp) of each charge H_i at one state,
    from one grad_hamiltonian call over n stacked copies of it: item i
    equals H_i's own call bit for bit.  Genus 0's empty dH/dq and dH/dp
    stand for every flow."""
    n = model.n_hams
    dL, dq, dp = grad_hamiltonian(model, _stack(*[state] * n), np.arange(n))
    return list(zip(dL, *(np.broadcast_to(x, (n, x.shape[-1])) for x in (dq, dp))))


# ---------------------------------------------------------------------------
# M matrices
# ---------------------------------------------------------------------------

def m_matrix(model: GaudinModel, state: PhaseState, i: int, z) -> np.ndarray:
    """M_i(z) = grad P_i(L(q_i)) * W_{q_i}(z) entrywise: simple pole at q_i
    with residue grad P_i(L(q_i)).  On the sphere that is all (the
    admissible constant is set to 0); on the torus the Cartan part
    grad^mu (zeta(z - q_i) - zeta(z)) carries the compensating pole
    -grad^mu at z = 0 that matches d/dt gamma gamma^{-1}.  z may have any
    shape: the result is the (..., *z.shape, m, m) stack, leading axes of
    the state first, from one gradient and one set of weights, and each
    matrix equals its own one-point call bit for bit."""
    G = model.polys[i].gradient(_ham_lax(model, state, i)[1])
    # the weights at z have the single pole q_i; they raise PoleError at
    # q_i and, in genus 1, at the gluing point z = 0
    q = None if state.q is None else state.q[..., None, :]
    M = G[..., None, :, :] * _kernel_weights(model, q, np.ravel(z), ham=i)[0][..., 0, :, :]
    return M.reshape(M.shape[:-3] + np.shape(z) + M.shape[-2:])


# ---------------------------------------------------------------------------
# change of trivialisation (genus 1)
# ---------------------------------------------------------------------------

def _f1_exponent(model, z):
    """Scalar c(z, zbar) with f_1 = exp(c Q): doubly periodic by construction."""
    cache = model.cache
    tau = cache.tau
    zb = np.conj(z)
    taub = np.conj(tau)
    g = (2.0 * cache.eta1 * (z * taub - zb * tau) / (tau - taub)
         - 2.0 * cache.eta2 * (z - zb) / (tau - taub))
    return zeta_eval(cache, z) + g


def retrivialization_factor(model: GaudinModel, state: PhaseState,
                            z: complex) -> np.ndarray:
    """Diagonal, doubly periodic f_1(z, zbar) = exp(c(z, zbar) Q) implementing
    the move to the constant-Cartan-connection trivialisation.  Identity for
    Q = 0."""
    if model.genus != 1:
        raise ConfigError("retrivialization_factor needs a genus-1 model")
    Qdiag = state.q @ model.basis.cartan_diag
    return np.diag(np.exp(_f1_exponent(model, complex(z)) * Qdiag))


def retrivialize(model: GaudinModel, state: PhaseState, z: complex):
    """Move to the trivialisation with constant Cartan connection and trivial
    transition function.  Returns the pair (conjugated, direct):

    (a) f_1(z) L(z) f_1(z)^{-1} with the smooth periodic f_1 = exp(c(z,zbar) Q);
    (b) the same matrix assembled directly: Cartan components unchanged, root
        components carried by conjugated residues and a sigma-quotient with a
        plane-wave twist in (z - zbar).

    The two routes are independent implementations and must agree.
    """
    if model.genus != 1:
        raise ConfigError("retrivialize needs a genus-1 model")
    z = complex(z)
    cache, basis = model.cache, model.basis
    tau = cache.tau

    Ls = orbit_elements(model, state)
    L = _lax(model, Ls, state.p, _kernel_weights(model, state.q, z)[0])

    def f1(at):
        return retrivialization_factor(model, state, at)

    F = f1(z)
    conjugated = F @ L @ np.linalg.inv(F)

    # direct assembly from sigma and zeta, not from the kernel weights:
    # Gram-projected Cartan residues, pi^mu from the Gram system of the
    # momenta (zeta(-p_a) = -zeta(p_a))
    pa = model.marked_points
    lmu = np.array([cartan_components(basis, La) for La in Ls])
    Lmu = basis.gram_inv @ np.asarray(state.p, dtype=complex) \
        + lmu.T @ model.zeta_poles + lmu.T @ zeta_eval(cache, z - pa)
    direct = np.zeros((model.m, model.m), dtype=complex)
    for mu in range(basis.rank):
        direct += Lmu[mu] * basis.cartan[mu]
    Lt = []
    for a, p_a in enumerate(pa):
        Fa = f1(p_a)
        Lt.append(Fa @ Ls[a] @ np.linalg.inv(Fa))
    rows, cols = basis.root_entries
    u = (basis.roots @ state.q)[:, None]
    quot = sigma_eval(cache, u + z - pa) / (sigma_eval(cache, u) * sigma_eval(cache, z - pa))
    plane = 2j * np.pi / (tau - np.conj(tau))
    twist = np.exp(u * plane * ((z - np.conj(z)) - (pa - np.conj(pa)))
                   - 2.0 * cache.eta1 * u * (z - pa))
    direct[rows, cols] += np.sum(np.array(Lt)[:, rows, cols].T * quot * twist, axis=1)
    return conjugated, direct


# ---------------------------------------------------------------------------
# random ensembles and serialization
# ---------------------------------------------------------------------------

def _scatter(rng, n, half, height, apart, avoid=(), origin=0.0):
    """n points x + i y height, x and y uniform in (-half, half), each drawn
    again until it lies farther than origin from 0 and farther than apart
    from every point of avoid and every point drawn before it.  A point
    not placed in SCATTER_DRAWS draws is a ConfigError: the points do not
    fit."""
    pts = []
    while len(pts) < n:
        for _ in range(SCATTER_DRAWS):
            c = complex(rng.uniform(-half, half), rng.uniform(-half, half) * height)
            if abs(c) > origin and all(abs(c - p) > apart for p in (*avoid, *pts)):
                pts.append(c)
                break
        else:
            raise ConfigError(f"could not place point {len(pts)} of {n} at least {apart} "
                              f"from the others in {SCATTER_DRAWS} draws")
    return pts


def random_rational_ensemble(rng, m, n_sites, ham_degrees, spread=0.5):
    """Fresh genus-0 model + constrained state: random residues with
    sum L_alpha = 0 become the orbit seeds (phi_alpha = Id)."""
    Ls = [random_traceless(rng, m, spread) for _ in range(n_sites - 1)]
    Ls.append(-sum(Ls) if n_sites > 1 else np.zeros((m, m), dtype=complex))
    pts = _scatter(rng, n_sites, 1.5, 1.0, 0.3)
    hpts = _scatter(rng, len(ham_degrees), 2.2, 1.0, 0.3, avoid=pts)
    model = make_gaudin_model(0, m, pts, [-L for L in Ls], hpts, ham_degrees)
    state = PhaseState(phis=[np.eye(m, dtype=complex) for _ in range(n_sites)],
                       t=np.zeros(len(ham_degrees)))
    return model, state


def random_elliptic_ensemble(rng, m, n_sites, ham_degrees, tau=1.1j, max_gradient=None):
    """Fresh genus-1 model + state: residues with vanishing Cartan sum,
    non-resonant Cartan coordinates, random momenta; residues and momenta
    have scale 0.15.  Configurations are re-drawn until the Hamiltonian
    gradients are below max_gradient, so the flows are integrable at the
    step sizes the suites use."""
    if max_gradient is None:
        # higher rank means more root channels and larger twisted kernels
        max_gradient = 10.0 if m == 2 else 80.0
    cell = np.imag(tau)
    for _ in range(200):
        Ls = [random_traceless(rng, m, 0.15) for _ in range(n_sites)]
        dmean = sum(np.diag(np.diag(L)) for L in Ls) / n_sites
        Ls = [L - dmean for L in Ls]
        pts = _scatter(rng, n_sites, 0.36, cell, 0.22, origin=0.22)
        hpts = _scatter(rng, len(ham_degrees), 0.42, cell, 0.18, avoid=pts, origin=0.2)
        model = make_gaudin_model(1, m, pts, [-L for L in Ls], hpts, ham_degrees,
                                  tau=tau)
        rk = m - 1
        q = rng.uniform(0.12, 0.27, rk) + 1j * rng.uniform(0.02, 0.12, rk)
        state = PhaseState(
            phis=[np.eye(m, dtype=complex) for _ in range(n_sites)],
            q=q,
            p=(rng.standard_normal(rk) + 1j * rng.standard_normal(rk)) * 0.15,
            t=np.zeros(len(ham_degrees)))
        if resonance_margin(model, state) < 0.15:
            continue
        # in flow order, up to the first gradient past the bound
        sizes = (max([np.linalg.norm(D) for D in dL] + [np.max(np.abs(dq)), np.max(np.abs(dp))])
                 for dL, dq, dp in _charge_partials(model, state))
        if not any(size > max_gradient for size in sizes):
            return model, state
    raise ConfigError("could not draw a tame elliptic configuration")


def random_phase_state(model: GaudinModel, rng, spread=0.4) -> PhaseState:
    """Random state on the constraint surface of a given model: a single
    global conjugation (needs sum Lambda_alpha = 0) plus random (q, p).  It
    carries no time t, so `evolve` starts it at its curve's first waypoint.
    In genus 1, (q, p) is drawn again until rho(q) keeps 0.05 from the
    lattice for every root; SCATTER_DRAWS failed draws are a ConfigError."""
    total = sum(model.orbit_seeds)
    if np.linalg.norm(total) > 1e-8 * max(1.0, max(np.linalg.norm(s) for s in model.orbit_seeds)):
        raise ConfigError(
            "random states use a global conjugation, which preserves the "
            "residue-sum constraint only when the orbit seeds sum to zero")
    g = matrix_exponential(random_traceless(rng, model.m, spread))
    phis = [g.copy() for _ in range(model.n_sites)]
    if model.genus == 0:
        return PhaseState(phis=phis)
    rk = model.basis.rank
    for _ in range(SCATTER_DRAWS):
        state = PhaseState(
            phis=phis,
            q=(rng.standard_normal(rk) + 1j * rng.standard_normal(rk)) * 0.2 + 0.15,
            p=(rng.standard_normal(rk) + 1j * rng.standard_normal(rk)) * spread)
        if resonance_margin(model, state) > 0.05:
            return state
    raise ConfigError(f"could not draw Cartan coordinates q whose root values rho(q) all "
                      f"keep 0.05 from the lattice in {SCATTER_DRAWS} draws")


def read_real(value, what):
    """A finite float from a JSON int or float (not a bool), or a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:       # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return x


def read_pair(value, what):
    """A complex number from a JSON [re, im] pair of finite reals."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{what} must be a [re, im] pair, got {value!r}")
    return complex(read_real(value[0], what), read_real(value[1], what))


def read_entry(value, what):
    """A complex matrix entry or Cartan coordinate from a JSON [re, im]
    pair, of modulus at most MAX_ENTRY."""
    z = read_pair(value, what)
    if abs(z) > MAX_ENTRY:
        raise ConfigError(f"{what} must have modulus at most {MAX_ENTRY:g}, got {value!r}")
    return z


def read_object(value, what, keys):
    """A JSON object whose keys are all among keys, so that a misspelt or
    misplaced key is a ConfigError rather than a default silently kept."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    unknown = [k for k in value if k not in keys]
    if unknown:
        raise ConfigError(f"{what} takes no key {', '.join(map(repr, unknown))}; "
                          f"its keys are {', '.join(keys)}")
    return value


def read_int(value, what, minimum=None):
    """A JSON integer (not a bool), at least minimum if one is given."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or (minimum is not None and value < minimum):
        least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{what} must be an integer{least}, got {value!r}")
    return value


def _c2j(z):
    z = complex(z)
    return [z.real, z.imag]


def _mat2j(M):
    return [[_c2j(x) for x in row] for row in np.asarray(M, dtype=complex)]


def _read_mat(rows, what):
    return np.array([[read_entry(x, what) for x in row] for row in rows], dtype=complex)


def model_to_dict(model: GaudinModel) -> dict:
    d = {
        "genus": model.genus,
        "m": model.m,
        "marked_points": [_c2j(p) for p in model.marked_points],
        "orbit_seeds": [_mat2j(L) for L in model.orbit_seeds],
        "hamiltonians": [{"point": _c2j(q), "degree": P.degree}
                         for q, P in zip(model.ham_points, model.polys)],
    }
    if model.genus == 1:
        d["tau"] = _c2j(model.cache.tau)
    return d


def model_from_dict(d: dict) -> GaudinModel:
    """The model of a JSON spec; every bad value in it is a ConfigError."""
    read_object(d, "model", MODEL_KEYS)
    try:
        hams = d["hamiltonians"]
        for k, h in enumerate(hams):
            read_object(h, f"model.hamiltonians[{k}]", HAMILTONIAN_KEYS)
        return make_gaudin_model(
            genus=read_int(d["genus"], "model.genus"),
            m=read_int(d["m"], "model.m"),
            marked_points=[read_pair(p, f"model.marked_points[{k}]")
                           for k, p in enumerate(d["marked_points"])],
            orbit_seeds=[_read_mat(L, f"model.orbit_seeds[{k}]")
                         for k, L in enumerate(d["orbit_seeds"])],
            ham_points=[read_pair(h["point"], f"model.hamiltonians[{k}].point")
                        for k, h in enumerate(hams)],
            degrees=[read_int(h["degree"], f"model.hamiltonians[{k}].degree")
                     for k, h in enumerate(hams)],
            tau=read_pair(d["tau"], "model.tau") if "tau" in d else None,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc


def state_to_dict(state: PhaseState) -> dict:
    d = {} if state.t is None else {"t": list(np.asarray(state.t, dtype=float))}
    if state.phis is not None:
        d["phis"] = [_mat2j(f) for f in state.phis]
    if state.orbit_mats is not None:
        d["orbit_mats"] = [_mat2j(L) for L in state.orbit_mats]
    if state.q is not None:
        d["q"] = [_c2j(x) for x in state.q]
        d["p"] = [_c2j(x) for x in state.p]
    return d


def state_from_dict(d: dict, model: GaudinModel) -> PhaseState:
    """The state of a JSON spec for the model; every bad value is a ConfigError.
    Without "t" it carries no time, so `evolve` starts it at its curve's
    first waypoint."""
    read_object(d, "initial_state", STATE_KEYS)

    def each(key, read):
        return np.array([read(x, f"initial_state.{key}") for x in d[key]]) if key in d else None

    try:
        state = PhaseState(phis=each("phis", _read_mat), orbit_mats=each("orbit_mats", _read_mat),
                           q=each("q", read_entry), p=each("p", read_entry),
                           t=each("t", read_real))
    except ConfigError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc
    if state.t is not None and state.t.shape != (model.n_hams,):
        raise ConfigError(f"state t must be {model.n_hams} finite times, one per "
                          f"Hamiltonian, got {d.get('t')!r}")
    mats, N, m = state.mats, model.n_sites, model.m
    if mats.shape != (N, m, m):
        raise ConfigError(f"the state needs {N} {m}x{m} orbit matrices, one per "
                          f"site; got an array of shape {mats.shape}")
    # cond with p = 1 goes through inv, not an SVD, and is inf when singular
    if state.phis is not None:
        singular = ~(np.linalg.cond(mats, 1) * np.finfo(float).eps < 1.0)
        if singular.any():
            raise ConfigError(f"group point phi_{np.argmax(singular)} is singular")
    if model.genus == 0 and ("q" in d or "p" in d):
        raise ConfigError("genus-0 states carry no q or p")
    rk = model.basis.rank
    if model.genus == 1 and not np.shape(state.q) == np.shape(state.p) == (rk,):
        raise ConfigError(f"genus-1 states need q and p with {rk} coordinates")
    return state
