"""Gauged multi-time mechanics on T*R^m with a linear group action.

A toy system packages n Hamiltonians with analytic gradients and a set of
matrix generators X_a acting linearly on the configuration space.  The
moment map components are the Noether charges mu_a = -p . (X_a q); gauged
flow equations add the multiplier field along the group directions,

    dq/dt^i = dH_i/dp + A~^a_i (X_a q),
    dp/dt^i = -dH_i/dq - A~^a_i (X_a^T p),

and the curvature of the multiplier field,

    F^a_ij = d_i A~^a_j - d_j A~^a_i + f_bc^a A~^b_i A~^c_j,

is reported as a residual (never asserted to vanish).  Everything here is
independent of the Gaudin machinery and serves as a finite-dimensional
test bed for the closure/flatness story.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .liealg import matrix_exponential

__all__ = [
    "ToyHamiltonian",
    "ToySystem",
    "GaugeField",
    "make_toy_system",
    "noether_moment",
    "gauged_rhs",
    "check_flatness",
    "check_closure",
    "integrate_toy",
    "pure_gauge_field",
    "rotation_invariant_pair",
    "canonical_noncommuting_pair",
    "so3_invariant_system",
]


@dataclass(frozen=True)
class ToyHamiltonian:
    value: callable          # (p, q) -> float
    grad: callable           # (p, q) -> (dH/dp, dH/dq)


@dataclass(frozen=True)
class ToySystem:
    dim: int
    hamiltonians: tuple
    generators: tuple        # matrices X_a acting on q
    structure: np.ndarray    # f[a, b, c] with [X_a, X_b] = f_ab^c X_c

    @property
    def n_flows(self):
        return len(self.hamiltonians)

    @property
    def dim_g(self):
        return len(self.generators)


def make_toy_system(dim, hamiltonians, generators, structure) -> ToySystem:
    """Build and validate: generator algebra must close on the given
    structure constants to 1e-12, and each Hamiltonian must be invariant
    under every lifted generator (finite-difference Lie derivative 1e-8)."""
    gens = tuple(np.asarray(X, dtype=float) for X in generators)
    structure = np.asarray(structure, dtype=float)
    d = len(gens)
    for X in gens:
        if X.shape != (dim, dim):
            raise DimensionError(f"generator shape {X.shape} != {(dim, dim)}")
    if structure.shape != (d, d, d):
        raise DimensionError("structure constants must be (dim_g, dim_g, dim_g)")
    for a in range(d):
        for b in range(d):
            comm = gens[a] @ gens[b] - gens[b] @ gens[a]
            target = sum(structure[a, b, c] * gens[c] for c in range(d))
            if np.linalg.norm(comm - target) > 1e-12 * max(1.0, np.linalg.norm(comm)):
                raise ConfigError(f"generator algebra does not close at ({a}, {b})")
    sys = ToySystem(dim=dim, hamiltonians=tuple(hamiltonians),
                    generators=gens, structure=structure)
    rng = np.random.default_rng(1234)
    for _ in range(4):
        p = rng.standard_normal(dim)
        q = rng.standard_normal(dim)
        for i, H in enumerate(sys.hamiltonians):
            for a, X in enumerate(gens):
                lie = _lie_derivative(H, X, p, q)
                if abs(lie) > 1e-8 * max(1.0, abs(H.value(p, q))):
                    raise ConfigError(
                        f"H_{i} is not invariant under generator {a} "
                        f"(Lie derivative {lie:.2e})")
    return sys


def _lie_derivative(H, X, p, q):
    """Central-difference derivative (step 1e-6) of H along the lifted
    generator flow q -> e^{sX} q, p -> e^{-sX^T} p."""
    eps = 1e-6

    def at(s):
        E = matrix_exponential(s * X).real
        return H.value(np.linalg.solve(E.T, p), E @ q)
    return (at(eps) - at(-eps)) / (2.0 * eps)


def noether_moment(sys: ToySystem, p, q) -> np.ndarray:
    """mu_a = -p . (X_a q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (sys.dim,) or q.shape != (sys.dim,):
        raise DimensionError("phase point has wrong dimension")
    return np.array([-p @ (X @ q) for X in sys.generators])


@dataclass(frozen=True)
class GaugeField:
    """Multiplier field: components[i][a] is a callable t -> real for the
    coefficient of generator a along flow direction i."""

    components: tuple

    def evaluate(self, t) -> np.ndarray:
        return np.array([self.row(i, t) for i in range(len(self.components))])

    def row(self, i, t) -> np.ndarray:
        """The coefficients along flow direction i alone."""
        t = np.asarray(t, dtype=float)
        return np.array([comp(t) for comp in self.components[i]])


def gauged_rhs(sys: ToySystem, p, q, t, field: GaugeField = None):
    """Gauged flow directions for every i: (dq (n, m), dp (n, m))."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = sys.n_flows
    A = field.evaluate(t) if field is not None else np.zeros((n, sys.dim_g))
    if A.shape != (n, sys.dim_g):
        raise DimensionError("gauge field has wrong shape")
    rows = [_flow_rhs(sys, p, q, i, A[i]) for i in range(n)]
    return np.array([dq for dq, _ in rows]), np.array([dp for _, dp in rows])


def _flow_rhs(sys: ToySystem, p, q, i, a_i):
    """Gauged flow direction i alone, (dq, dp), with a_i the gauge field's
    coefficients along it."""
    dHdp, dHdq = sys.hamiltonians[i].grad(p, q)
    dq = np.array(dHdp, dtype=float)
    dp = -np.asarray(dHdq, dtype=float)
    for a, X in enumerate(sys.generators):
        dq += a_i[a] * (X @ q)
        dp -= a_i[a] * (X.T @ p)
    return dq, dp


def check_flatness(field: GaugeField, t, structure) -> np.ndarray:
    """Curvature F^a_ij by central differences (step 1e-5) of the field
    components."""
    fd_step = 1e-5
    t = np.asarray(t, dtype=float)
    n = len(field.components)
    d = len(field.components[0])
    structure = np.asarray(structure, dtype=float)
    A = field.evaluate(t)
    dA = np.zeros((n, n, d))          # dA[i, j, a] = d A^a_j / d t^i
    for i in range(n):
        e = np.zeros(n)
        e[i] = fd_step
        dA[i] = (field.evaluate(t + e) - field.evaluate(t - e)) / (2.0 * fd_step)
    F = np.zeros((d, n, n))
    for a in range(d):
        for i in range(n):
            for j in range(n):
                F[a, i, j] = dA[i, j, a] - dA[j, i, a] \
                    + np.sum(structure[:, :, a] * np.outer(A[i], A[j]))
    return F


def check_closure(sys: ToySystem, p, q) -> np.ndarray:
    """Matrix of |{H_i, H_j}| from the supplied analytic gradients."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = sys.n_flows
    grads = [H.grad(p, q) for H in sys.hamiltonians]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            bij = np.dot(grads[i][0], grads[j][1]) - np.dot(grads[i][1], grads[j][0])
            out[i, j] = abs(bij)
    return out


def integrate_toy(sys: ToySystem, p, q, i, T, h, field: GaugeField = None):
    """RK4 along flow direction i for time T from t = 0; returns (ps, qs, ts)."""
    p = np.array(p, dtype=float)
    q = np.array(q, dtype=float)
    t = np.zeros(sys.n_flows)
    n_steps = max(1, int(round(abs(T) / h)))
    dt = T / n_steps
    ps, qs, ts = [p.copy()], [q.copy()], [t.copy()]

    def rhs(p, q, t):
        a_i = field.row(i, t) if field is not None else np.zeros(sys.dim_g)
        dq, dp = _flow_rhs(sys, p, q, i, a_i)
        return dp, dq

    for _ in range(n_steps):
        e = np.zeros(sys.n_flows)
        e[i] = dt
        kp1, kq1 = rhs(p, q, t)
        kp2, kq2 = rhs(p + dt / 2 * kp1, q + dt / 2 * kq1, t + e / 2)
        kp3, kq3 = rhs(p + dt / 2 * kp2, q + dt / 2 * kq2, t + e / 2)
        kp4, kq4 = rhs(p + dt * kp3, q + dt * kq3, t + e)
        p = p + dt / 6 * (kp1 + 2 * kp2 + 2 * kp3 + kp4)
        q = q + dt / 6 * (kq1 + 2 * kq2 + 2 * kq3 + kq4)
        t = t + e
        ps.append(p.copy()); qs.append(q.copy()); ts.append(t.copy())
    return np.array(ps), np.array(qs), np.array(ts)


def pure_gauge_field(g_func, generators, n) -> GaugeField:
    """A~_i = -(d_i g) g^{-1} for a smooth group-valued g(t), projected onto
    the generator basis by least squares.  The derivative of g uses a complex
    step (1e-100), so it is exact to roundoff and survives the outer
    differencing that the flatness check applies on top."""
    cs_step = 1e-100
    gens = [np.asarray(X, dtype=float) for X in generators]
    basis = np.stack([X.ravel() for X in gens], axis=1)

    def coefficient(i, a):
        def comp(t):
            t = np.asarray(t, dtype=complex)
            e = np.zeros(len(t), dtype=complex)
            e[i] = 1j * cs_step
            dg = np.imag(g_func(t + e)) / cs_step
            A = -dg @ np.linalg.inv(np.real(g_func(t)))
            coefs, *_ = np.linalg.lstsq(basis, A.ravel(), rcond=None)
            return float(np.real(coefs[a]))
        return comp

    return GaugeField(tuple(tuple(coefficient(i, a) for a in range(len(gens)))
                            for i in range(n)))


# ---------------------------------------------------------------------------
# shipped toy systems
# ---------------------------------------------------------------------------

def rotation_invariant_pair() -> ToySystem:
    """m = 2: a central potential and the angular momentum, SO(2) action."""
    def H1_val(p, q):
        s = q @ q
        return 0.5 * (p @ p) + 0.25 * s * s

    def H1_grad(p, q):
        return p.copy(), (q @ q) * q

    def H2_val(p, q):
        return q[0] * p[1] - q[1] * p[0]

    def H2_grad(p, q):
        return np.array([-q[1], q[0]]), np.array([p[1], -p[0]])

    X = np.array([[0.0, -1.0], [1.0, 0.0]])
    return make_toy_system(
        2,
        [ToyHamiltonian(H1_val, H1_grad), ToyHamiltonian(H2_val, H2_grad)],
        [X],
        np.zeros((1, 1, 1)))


def canonical_noncommuting_pair() -> ToySystem:
    """m = 2, H1 = p_1, H2 = q_1: the textbook non-closing pair, trivial action."""
    H1 = ToyHamiltonian(lambda p, q: p[0],
                        lambda p, q: (np.eye(2)[0], np.zeros(2)))
    H2 = ToyHamiltonian(lambda p, q: q[0],
                        lambda p, q: (np.zeros(2), np.eye(2)[0]))
    return make_toy_system(2, [H1, H2], [np.zeros((2, 2))], np.zeros((1, 1, 1)))


def so3_generators():
    gens = []
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    for a in range(3):
        gens.append(-eps[a])
    return gens, eps


def so3_invariant_system() -> ToySystem:
    """m = 3 central potential, full SO(3) action, [X_a, X_b] = eps_abc X_c."""
    def H_val(p, q):
        s = q @ q
        return 0.5 * (p @ p) + 0.5 * s

    def H_grad(p, q):
        return p.copy(), q.copy()

    gens, eps = so3_generators()
    return make_toy_system(3, [ToyHamiltonian(H_val, H_grad)], gens, eps)
