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

Hamiltonians are H_i = P_i(L(q_i)); their q/p/orbit gradients and the
companion matrices M_i (simple pole at q_i with residue grad P_i(L(q_i)),
compensating pole structure at z = 0 in genus 1) are provided in closed
form and are validated against finite differences in the test suite.
"""

from __future__ import annotations

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
    traceless_part,
)
# kernel_phi is not called in this module; it stays bound here because
# perfbench/tests/test_perfbench.py expects models to bind it (ROADMAP item 1
# lists its removal together with that expectation).
from .weierstrass import (  # noqa: F401
    POLE_TOL,
    EllipticCache,
    KernelTable,
    build_cache,
    kernel_phi,
    kernel_table,
    lattice_distance,
    sigma_eval,
    zeta_eval,
)

__all__ = [
    "GaudinModel",
    "PhaseState",
    "make_gaudin_model",
    "orbit_elements",
    "residue_sum",
    "rational_lax",
    "elliptic_lax",
    "lax_matrix",
    "transition_gamma",
    "hamiltonian",
    "grad_hamiltonian",
    "m_matrix_rational",
    "m_matrix_elliptic",
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


@dataclass(frozen=True)
class GaudinModel:
    """Immutable model definition; see module docstring."""

    genus: int
    basis: LieBasis
    marked_points: np.ndarray          # (N,) complex
    orbit_seeds: tuple                 # N traceless matrices Lambda_alpha
    ham_points: np.ndarray             # (n,) complex
    polys: tuple                       # n InvariantPolynomial
    cache: EllipticCache = None        # genus 1 only
    zeta_poles: np.ndarray = field(default=None, repr=False)
    zeta_hampts: np.ndarray = field(default=None, repr=False)

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
    """Dynamical variables.  Either group points (phis) or raw orbit
    matrices (orbit_mats; used by the optional genus-0 projection mode)
    must be present.  q/p are the genus-1 cotangent coordinates."""

    phis: list = None
    q: np.ndarray = None
    p: np.ndarray = None
    t: np.ndarray = None
    orbit_mats: list = None

    def copy(self) -> "PhaseState":
        return PhaseState(
            phis=None if self.phis is None else [f.copy() for f in self.phis],
            q=None if self.q is None else np.array(self.q),
            p=None if self.p is None else np.array(self.p),
            t=None if self.t is None else np.array(self.t),
            orbit_mats=None if self.orbit_mats is None
            else [L.copy() for L in self.orbit_mats],
        )


def make_gaudin_model(genus, m, marked_points, orbit_seeds, ham_points,
                      degrees, tau=None) -> GaudinModel:
    """Validate and build a model.  Rejects coincident points, seeds outside
    sl_m, and (genus 1) points on the lattice."""
    if genus not in (0, 1):
        raise ConfigError(f"genus must be 0 or 1, got {genus}")
    basis = build_slm_basis(m)
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
    if len(seeds) != len(pts):
        raise ConfigError("need one orbit seed per marked point")
    polys = tuple(InvariantPolynomial(int(k)) for k in degrees)
    if len(polys) != len(hpts):
        raise ConfigError("need one polynomial degree per Hamiltonian point")

    cache = None
    if genus == 1:
        if tau is None:
            raise ConfigError("genus 1 requires the modulus tau")
        cache = build_cache(tau)
        dist = lambda a, b: lattice_distance(cache, a - b)
        for z in pts:
            if lattice_distance(cache, z) < SEPARATION_TOL:
                raise ConfigError(f"marked point {z} sits on the lattice (z = 0 is the gluing point)")
        for z in hpts:
            if lattice_distance(cache, z) < SEPARATION_TOL:
                raise ConfigError(f"Hamiltonian point {z} sits on the lattice")
    else:
        dist = lambda a, b: abs(a - b)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if dist(pts[i], pts[j]) < SEPARATION_TOL:
                raise ConfigError(f"coincident points: marked points {i} and {j}")
    for i, q in enumerate(hpts):
        for j, p in enumerate(pts):
            if dist(q, p) < SEPARATION_TOL:
                raise ConfigError(
                    f"coincident points: Hamiltonian point {i} equals marked point {j}")

    zp = zh = None
    if genus == 1:
        zp = np.asarray(zeta_eval(cache, pts))
        zh = np.asarray(zeta_eval(cache, hpts))
    return GaudinModel(genus=genus, basis=basis, marked_points=pts,
                       orbit_seeds=tuple(seeds), ham_points=hpts, polys=polys,
                       cache=cache, zeta_poles=zp, zeta_hampts=zh)


# ---------------------------------------------------------------------------
# state access
# ---------------------------------------------------------------------------

def orbit_elements(model: GaudinModel, state: PhaseState) -> list:
    """Residues L_alpha = -phi Lambda phi^{-1} (or the stored matrices)."""
    if state.orbit_mats is not None:
        return [np.asarray(L, dtype=complex) for L in state.orbit_mats]
    out = []
    for phi, seed in zip(state.phis, model.orbit_seeds):
        out.append(-(phi @ seed @ np.linalg.inv(phi)))
    return out


def residue_sum(model: GaudinModel, state: PhaseState) -> np.ndarray:
    return sum(orbit_elements(model, state))


def resonance_margin(model: GaudinModel, state: PhaseState) -> float:
    """Smallest lattice distance among all root pairings rho(Q); genus 1."""
    if model.genus == 0:
        return np.inf
    return float(np.min(lattice_distance(model.cache, model.basis.roots @ state.q)))


def _guarded_residues(model: GaudinModel, state: PhaseState) -> np.ndarray:
    """Residues L_alpha of a genus-1 state, stacked (N, m, m), after the
    per-evaluation guard: q, p and every residue must be finite before any
    kernel work starts."""
    if not (np.all(np.isfinite(state.q)) and np.all(np.isfinite(state.p))):
        raise ValueError("non-finite Cartan coordinates q or momenta p")
    Ls = np.array(orbit_elements(model, state))
    if not np.all(np.isfinite(Ls)):
        raise ValueError("non-finite residue L_alpha")
    return Ls


def _root_table(model: GaudinModel, q, z: complex, ham=None) -> KernelTable:
    """Kernel data of one state at one point z, from one kernel_table call
    (so one lattice and resonance guard over every argument): for every
    root r, with u_r = rho_r(Q), and every pole p_a, the twisted kernel
    Phi(u_r, z; p_a) e^{u_r zeta(p_a)} (residue exactly 1 at p_a) with its
    log-derivatives, plus zeta(z) and zeta(z - p_a).  The poles are the
    marked points, or the single point q_ham (the M matrices).  Roots come
    in +/- pairs, so Phi(-u_r) is the row basis.neg_root[r]."""
    if ham is None:
        poles, zeta_poles = model.marked_points, model.zeta_poles
    else:
        poles, zeta_poles = model.ham_points[ham:ham + 1], model.zeta_hampts[ham:ham + 1]
    u = model.basis.roots @ q
    kt = kernel_table(model.cache, u, z, poles)
    return kt._replace(value=kt.value * np.exp(u[:, None] * zeta_poles),
                       dlog_du=kt.dlog_du + zeta_poles)


# ---------------------------------------------------------------------------
# Lax matrices
# ---------------------------------------------------------------------------

def rational_lax(model: GaudinModel, state: PhaseState, z: complex) -> np.ndarray:
    """sum_alpha L_alpha / (z - p_alpha); O(1/z^2) at infinity on the
    constraint surface sum L_alpha = 0."""
    if model.genus != 0:
        raise ConfigError("rational_lax needs a genus-0 model")
    z = complex(z)
    Ls = orbit_elements(model, state)
    out = np.zeros((model.m, model.m), dtype=complex)
    for L, p in zip(Ls, model.marked_points):
        if abs(z - p) < POLE_TOL:
            raise PoleError(f"Lax evaluation at marked point {p}")
        out += L / (z - p)
    return out


def _cartan_residues(model, Ls):
    return np.array([cartan_components(model.basis, L) for L in Ls])


def _pi_from_momenta(model, lmu, p):
    """Invert p_mu = Tr(L(0) H_mu) for the constant Cartan part pi^mu;
    zeta(-p_a) = -zeta(p_a) comes from the cached values."""
    return model.basis.gram_inv @ np.asarray(p, dtype=complex) \
        + lmu.T @ model.zeta_poles


def _assemble_lax(model: GaudinModel, Ls: np.ndarray, p, table: KernelTable) -> np.ndarray:
    """Genus-1 L(z) from the stacked residues, the momenta and the root
    table at z."""
    basis = model.basis
    lmu = _cartan_residues(model, Ls)
    Lmu = _pi_from_momenta(model, lmu, p) + lmu.T @ table.zeta_zp
    out = np.zeros((model.m, model.m), dtype=complex)
    for mu in range(basis.rank):
        out += Lmu[mu] * basis.cartan[mu]
    rows, cols = basis.root_entries
    out[rows, cols] += np.sum(Ls[:, rows, cols].T * table.value, axis=1)
    return out


def elliptic_lax(model: GaudinModel, state: PhaseState, z: complex) -> np.ndarray:
    """Genus-1 Lax matrix; doubly periodic with Res_{p_alpha} L = L_alpha.
    Raises PoleError at z = 0 and at the marked points, ResonanceError when
    rho(Q) is on the lattice for some root."""
    if model.genus != 1:
        raise ConfigError("elliptic_lax needs a genus-1 model")
    Ls = _guarded_residues(model, state)
    return _assemble_lax(model, Ls, state.p, _root_table(model, state.q, complex(z)))


def lax_matrix(model: GaudinModel, state: PhaseState, z: complex) -> np.ndarray:
    return rational_lax(model, state, z) if model.genus == 0 \
        else elliptic_lax(model, state, z)


def transition_gamma(model: GaudinModel, state: PhaseState, z: complex) -> np.ndarray:
    """Torus gluing datum gamma(z) = exp(Q/z), diagonal."""
    z = complex(z)
    if z == 0:
        raise PoleError("transition function is singular at z = 0")
    Q = np.zeros((model.m, model.m), dtype=complex)
    for mu in range(model.basis.rank):
        Q += state.q[mu] * model.basis.cartan[mu]
    return np.diag(np.exp(np.diag(Q) / z))


# ---------------------------------------------------------------------------
# Hamiltonians and gradients
# ---------------------------------------------------------------------------

def hamiltonian(model: GaudinModel, state: PhaseState, i: int) -> complex:
    """H_i = P_i(L(q_i))."""
    L = lax_matrix(model, state, model.ham_points[i])
    return model.polys[i].evaluate(L)


def grad_hamiltonian(model: GaudinModel, state: PhaseState, i: int):
    """Closed-form partials of H_i.

    Returns (dH_dL, dH_dq, dH_dp): dH_dL[alpha] is the traceless matrix with
    dH = sum_alpha Tr(dH_dL[alpha] dL_alpha) for unconstrained variations of
    the residues; dH_dq[mu] = dH/dq^mu and dH_dp[mu] = dH/dp_mu (empty in
    genus 0).
    """
    basis = model.basis
    w = model.ham_points[i]
    if model.genus == 0:
        G = model.polys[i].gradient(lax_matrix(model, state, w))
        dH_dL = [G / (w - pa) for pa in model.marked_points]
        empty = np.zeros(0, dtype=complex)
        return dH_dL, empty, empty
    # one residue pass and one root table at q_i serve L(q_i) and every
    # partial derivative
    Ls = _guarded_residues(model, state)
    table = _root_table(model, state.q, w)
    G = model.polys[i].gradient(_assemble_lax(model, Ls, state.p, table))

    Gmu = cartan_components(basis, G)
    rows, cols = basis.root_entries
    # Cartan channel: zeta(w - p_a) from the explicit sum, +zeta(p_a) from
    # the dependence of pi^mu on the residues at fixed momenta.
    coef = table.zeta_zp + model.zeta_poles
    D = np.zeros((model.n_sites, model.m, model.m), dtype=complex)
    for mu in range(basis.rank):
        D += np.multiply.outer(Gmu[mu] * coef, basis.cartan[mu])
    # root channel: Phi(-u_r) is the row of the root -rho_r
    D[:, rows, cols] = G[rows, cols] * table.value[basis.neg_root].T
    dH_dL = [traceless_part(Da) for Da in D]
    s = np.sum(Ls[:, rows, cols].T * table.value * table.dlog_du, axis=1)
    dH_dq = (G[cols, rows] * s) @ basis.roots
    return dH_dL, dH_dq, np.array(Gmu, dtype=complex)


# ---------------------------------------------------------------------------
# M matrices
# ---------------------------------------------------------------------------

def m_matrix_rational(model: GaudinModel, state: PhaseState, i: int,
                      z: complex) -> np.ndarray:
    """grad P_i(L(q_i)) / (z - q_i); the admissible constant is set to 0."""
    if model.genus != 0:
        raise ConfigError("m_matrix_rational needs a genus-0 model")
    z = complex(z)
    w = model.ham_points[i]
    if abs(z - w) < POLE_TOL:
        raise PoleError(f"M_{i} evaluated at its own pole q_{i} = {w}")
    L = rational_lax(model, state, w)
    return model.polys[i].gradient(L) / (z - w)


def m_matrix_elliptic(model: GaudinModel, state: PhaseState, i: int,
                      z: complex) -> np.ndarray:
    """Elliptic companion matrix: Cartan part grad^mu (zeta(z - q_i) - zeta(z)),
    root part through the twisted kernel anchored at q_i.  Has residue
    grad P_i(L(q_i)) at q_i and the compensating Cartan pole -grad^mu at
    z = 0 that matches d/dt gamma gamma^{-1}."""
    if model.genus != 1:
        raise ConfigError("m_matrix_elliptic needs a genus-1 model")
    basis = model.basis
    Ls = _guarded_residues(model, state)
    # the table at z has the single pole q_i; it raises PoleError at q_i
    # and at the gluing point z = 0
    table = _root_table(model, state.q, complex(z), ham=i)
    L = _assemble_lax(model, Ls, state.p,
                      _root_table(model, state.q, model.ham_points[i]))
    G = model.polys[i].gradient(L)
    Gmu = cartan_components(basis, G)
    coef = table.zeta_zp[0] - table.zeta_z
    out = np.zeros((model.m, model.m), dtype=complex)
    for mu in range(basis.rank):
        out += Gmu[mu] * coef * basis.cartan[mu]
    rows, cols = basis.root_entries
    out[rows, cols] += G[rows, cols] * table.value[:, 0]
    return out


def m_matrix(model: GaudinModel, state: PhaseState, i: int, z: complex) -> np.ndarray:
    return m_matrix_rational(model, state, i, z) if model.genus == 0 \
        else m_matrix_elliptic(model, state, i, z)


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
    Qdiag = np.zeros(model.m, dtype=complex)
    for mu in range(model.basis.rank):
        Qdiag += state.q[mu] * np.diag(model.basis.cartan[mu])
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

    Ls = _guarded_residues(model, state)
    L = _assemble_lax(model, Ls, state.p, _root_table(model, state.q, z))

    def f1(at):
        return retrivialization_factor(model, state, at)

    F = f1(z)
    conjugated = F @ L @ np.linalg.inv(F)

    # direct assembly from sigma and zeta, not from the kernel table
    pa = model.marked_points
    lmu = _cartan_residues(model, Ls)
    Lmu = _pi_from_momenta(model, lmu, state.p) + lmu.T @ zeta_eval(cache, z - pa)
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

def random_rational_ensemble(rng, m, n_sites, ham_degrees, spread=0.5):
    """Fresh genus-0 model + constrained state: random residues with
    sum L_alpha = 0 become the orbit seeds (phi_alpha = Id)."""
    Ls = [random_traceless(rng, m, spread) for _ in range(n_sites - 1)]
    Ls.append(-sum(Ls) if n_sites > 1 else np.zeros((m, m), dtype=complex))
    pts = []
    while len(pts) < n_sites:
        c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if all(abs(c - p) > 0.3 for p in pts):
            pts.append(c)
    hpts = []
    while len(hpts) < len(ham_degrees):
        c = complex(rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
        if all(abs(c - p) > 0.3 for p in pts) and all(abs(c - q) > 0.3 for q in hpts):
            hpts.append(c)
    model = make_gaudin_model(0, m, pts, [-L for L in Ls], hpts, ham_degrees)
    state = PhaseState(phis=[np.eye(m, dtype=complex) for _ in range(n_sites)],
                       t=np.zeros(len(ham_degrees)))
    return model, state


def random_elliptic_ensemble(rng, m, n_sites, ham_degrees, tau=1.1j, spread=0.15,
                             max_gradient=None):
    """Fresh genus-1 model + state: residues with vanishing Cartan sum,
    non-resonant Cartan coordinates, random momenta.  Configurations are
    re-drawn until the Hamiltonian gradients are below max_gradient, so
    the flows are integrable at the step sizes the suites use."""
    if max_gradient is None:
        # higher rank means more root channels and larger twisted kernels
        max_gradient = 10.0 if m == 2 else 80.0
    cell = np.imag(tau)
    for _ in range(200):
        Ls = [random_traceless(rng, m, spread) for _ in range(n_sites)]
        dmean = sum(np.diag(np.diag(L)) for L in Ls) / n_sites
        Ls = [L - dmean for L in Ls]
        pts = []
        while len(pts) < n_sites:
            c = complex(rng.uniform(-0.36, 0.36), rng.uniform(-0.36, 0.36) * cell)
            if abs(c) > 0.22 and all(abs(c - p) > 0.22 for p in pts):
                pts.append(c)
        hpts = []
        while len(hpts) < len(ham_degrees):
            c = complex(rng.uniform(-0.42, 0.42), rng.uniform(-0.42, 0.42) * cell)
            if abs(c) > 0.2 and all(abs(c - p) > 0.18 for p in pts) \
                    and all(abs(c - q) > 0.18 for q in hpts):
                hpts.append(c)
        model = make_gaudin_model(1, m, pts, [-L for L in Ls], hpts, ham_degrees,
                                  tau=tau)
        rk = m - 1
        q = rng.uniform(0.12, 0.27, rk) + 1j * rng.uniform(0.02, 0.12, rk)
        state = PhaseState(
            phis=[np.eye(m, dtype=complex) for _ in range(n_sites)],
            q=q,
            p=(rng.standard_normal(rk) + 1j * rng.standard_normal(rk)) * spread,
            t=np.zeros(len(ham_degrees)))
        if resonance_margin(model, state) < 0.15:
            continue
        tame = True
        for i in range(len(ham_degrees)):
            dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, i)
            size = max([np.linalg.norm(D) for D in dH_dL]
                       + [np.max(np.abs(dH_dq)), np.max(np.abs(dH_dp))])
            if size > max_gradient:
                tame = False
                break
        if tame:
            return model, state
    raise ConfigError("could not draw a tame elliptic configuration")


def random_phase_state(model: GaudinModel, rng, spread=0.4) -> PhaseState:
    """Random state on the constraint surface of a given model: a single
    global conjugation (needs sum Lambda_alpha = 0) plus random (q, p)."""
    total = sum(model.orbit_seeds)
    if np.linalg.norm(total) > 1e-8 * max(1.0, max(np.linalg.norm(s) for s in model.orbit_seeds)):
        raise ConfigError(
            "random states use a global conjugation, which preserves the "
            "residue-sum constraint only when the orbit seeds sum to zero")
    g = matrix_exponential(random_traceless(rng, model.m, spread))
    phis = [g.copy() for _ in range(model.n_sites)]
    if model.genus == 0:
        return PhaseState(phis=phis, t=np.zeros(model.n_hams))
    rk = model.basis.rank
    while True:
        state = PhaseState(
            phis=phis,
            q=(rng.standard_normal(rk) + 1j * rng.standard_normal(rk)) * 0.2 + 0.15,
            p=(rng.standard_normal(rk) + 1j * rng.standard_normal(rk)) * spread,
            t=np.zeros(model.n_hams))
        if resonance_margin(model, state) > 0.05:
            return state


def _c2j(z):
    z = complex(z)
    return [z.real, z.imag]


def _j2c(v):
    return complex(v[0], v[1])


def _mat2j(M):
    return [[_c2j(x) for x in row] for row in np.asarray(M, dtype=complex)]


def _j2mat(rows):
    return np.array([[_j2c(x) for x in row] for row in rows], dtype=complex)


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
    try:
        hams = d["hamiltonians"]
        spec = dict(
            genus=int(d["genus"]),
            m=int(d["m"]),
            marked_points=[_j2c(p) for p in d["marked_points"]],
            orbit_seeds=[_j2mat(L) for L in d["orbit_seeds"]],
            ham_points=[_j2c(h["point"]) for h in hams],
            degrees=[int(h["degree"]) for h in hams],
            tau=_j2c(d["tau"]) if "tau" in d else None,
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc
    return make_gaudin_model(**spec)


def state_to_dict(state: PhaseState) -> dict:
    d = {"t": list(np.asarray(state.t, dtype=float))}
    if state.phis is not None:
        d["phis"] = [_mat2j(f) for f in state.phis]
    if state.orbit_mats is not None:
        d["orbit_mats"] = [_mat2j(L) for L in state.orbit_mats]
    if state.q is not None:
        d["q"] = [_c2j(x) for x in state.q]
        d["p"] = [_c2j(x) for x in state.p]
    return d


def state_from_dict(d: dict, model: GaudinModel) -> PhaseState:
    try:
        state = PhaseState(
            phis=[_j2mat(f) for f in d["phis"]] if "phis" in d else None,
            orbit_mats=[_j2mat(L) for L in d["orbit_mats"]] if "orbit_mats" in d else None,
            q=np.array([_j2c(x) for x in d["q"]]) if "q" in d else None,
            p=np.array([_j2c(x) for x in d["p"]]) if "p" in d else None,
            t=np.array(d.get("t", np.zeros(model.n_hams)), dtype=float),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc
    if state.phis is None and state.orbit_mats is None:
        raise ConfigError("state needs either phis or orbit_mats")
    mats = state.phis if state.phis is not None else state.orbit_mats
    if len(mats) != model.n_sites:
        raise ConfigError(f"state has {len(mats)} orbit matrices for {model.n_sites} sites")
    for a, M in enumerate(mats):
        if M.shape != (model.m, model.m) or not np.all(np.isfinite(M.view(float))):
            raise ConfigError(f"orbit matrix {a} must be a finite {model.m}x{model.m} matrix")
        # cond with p = 1 goes through inv, not an SVD, and is inf when singular
        if state.phis is not None and not np.linalg.cond(M, 1) * np.finfo(float).eps < 1.0:
            raise ConfigError(f"group point phi_{a} is singular")
    if model.genus == 1:
        rk = (model.basis.rank,)
        if state.q is None or state.p is None or state.q.shape != rk \
                or state.p.shape != rk:
            raise ConfigError(f"genus-1 states need q and p with {rk[0]} coordinates")
    return state
