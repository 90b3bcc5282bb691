"""Multi-time Hamiltonian flows, the discrete multiform action, and
trajectory diagnostics.

Multi-time curves are axis-aligned polylines in R^n: along each segment a
single Hamiltonian H_i drives the dynamics

    dL_alpha/dt^i = [-dH_i/dL_alpha, L_alpha],
    dq^mu/dt^i    =  dH_i/dp_mu,
    dp_mu/dt^i    = -dH_i/dq^mu,

integrated either with the orbit-exact conjugation stepper (group points
are updated by exponentials, so the spectrum of every L_alpha is preserved
to roundoff) or with a classical RK4 step on (phi, q, p).

The action of the Lagrangian 1-form along a trajectory is accumulated with
trapezoidal quadrature of

    sum_alpha Tr(Lambda_alpha phi_alpha^{-1} dphi_alpha) + p_mu dq^mu - H_i dt^i,

so it converges at second order in the step; on shell it depends on the
curve only through its endpoints, which the tests exercise directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalAbort
from .liealg import matrix_exponential
from .models import (
    GaudinModel,
    PhaseState,
    grad_hamiltonian,
    hamiltonian,
    lax_matrix,
    m_matrix,
    orbit_elements,
    resonance_margin,
)

__all__ = [
    "FlowCurve",
    "Trajectory",
    "DiagnosticsReport",
    "step",
    "evolve",
    "action_along_curve",
    "poisson_bracket",
    "plaquette_residual",
    "diagnostics",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class FlowCurve:
    """Axis-aligned polyline in multi-time R^n."""

    waypoints: np.ndarray

    def __post_init__(self):
        try:
            pts = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"curve waypoints must be numbers: {exc}") from None
        if pts.ndim != 2 or not np.all(np.isfinite(pts)):
            raise ConfigError("curve must be a list of finite waypoints")
        object.__setattr__(self, "waypoints", pts)
        for k in range(len(pts) - 1):
            moved = np.nonzero(np.abs(pts[k + 1] - pts[k]) > 0)[0]
            if len(moved) > 1:
                raise ConfigError(
                    f"curve segment {k} changes {len(moved)} coordinates; "
                    "segments must be axis-aligned")

    @property
    def n_times(self) -> int:
        return self.waypoints.shape[1]

    def segments(self):
        """Yield (axis, start_waypoint, delta) for each non-trivial segment."""
        pts = self.waypoints
        for k in range(len(pts) - 1):
            delta = pts[k + 1] - pts[k]
            moved = np.nonzero(np.abs(delta) > 0)[0]
            if len(moved) == 0:
                continue
            yield int(moved[0]), pts[k], float(delta[moved[0]])


@dataclass
class Trajectory:
    model: GaudinModel
    times: list                 # multi-time points, one (n,) array per sample
    states: list                # PhaseState per sample
    segment_ids: list           # which curve segment produced each sample
    h: float
    method: str
    projection_used: bool = False
    # (model, z_samples, _Observables) of the last _observables call
    observables: tuple = field(default=None, repr=False, compare=False)


@dataclass
class DiagnosticsReport:
    hamiltonian_drift: np.ndarray
    casimir_drift: np.ndarray
    residue_sum_drift: float
    isospectral_drift: float
    closure_values: np.ndarray
    zero_curvature_residual: float
    projection_used: bool = False
    abort_reason: str = None
    last_good_time: float = None

    def to_dict(self) -> dict:
        d = {
            "hamiltonian_drift": [float(x) for x in self.hamiltonian_drift],
            "casimir_drift": [float(x) for x in self.casimir_drift],
            "residue_sum_drift": float(self.residue_sum_drift),
            "isospectral_drift": float(self.isospectral_drift),
            "closure_values": [[float(x) for x in row] for row in self.closure_values],
            "zero_curvature_residual": float(self.zero_curvature_residual),
            "projection_used": bool(self.projection_used),
        }
        if self.abort_reason is not None:
            d["abort_reason"] = self.abort_reason
            d["last_good_time"] = self.last_good_time
        return d


def _advance_t(state, i, h):
    t = np.array(state.t, dtype=float)
    t[i] += h
    return t


def _step_conjugation(model, state, i, h):
    # explicit midpoint; the group points move by a single exponential, so
    # orbit spectra are exact regardless of h
    dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, i)
    half = PhaseState(
        phis=[matrix_exponential(-(h / 2.0) * D) @ f
              for D, f in zip(dH_dL, state.phis)],
        q=None if state.q is None else state.q + (h / 2.0) * dH_dp,
        p=None if state.p is None else state.p - (h / 2.0) * dH_dq,
        t=state.t)
    dH_dL2, dH_dq2, dH_dp2 = grad_hamiltonian(model, half, i)
    return PhaseState(
        phis=[matrix_exponential(-h * D) @ f for D, f in zip(dH_dL2, state.phis)],
        q=None if state.q is None else state.q + h * dH_dp2,
        p=None if state.p is None else state.p - h * dH_dq2,
        t=_advance_t(state, i, h))


def _rhs_tuple(model, state, i):
    """Raw right-hand side on the flat coordinates used by RK4."""
    dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, i)
    if state.phis is not None:
        dmats = [-(D @ f) for D, f in zip(dH_dL, state.phis)]   # left-trivialised
    else:
        Ls = state.orbit_mats
        dmats = [L @ D - D @ L for L, D in zip(Ls, dH_dL)]
    return (dmats,
            None if state.q is None else np.array(dH_dp),
            None if state.p is None else -np.array(dH_dq))


def _shifted(state, k, c):
    mats = state.phis if state.phis is not None else state.orbit_mats
    new = [M + c * dM for M, dM in zip(mats, k[0])]
    return PhaseState(
        phis=new if state.phis is not None else None,
        orbit_mats=new if state.phis is None else None,
        q=None if state.q is None else state.q + c * k[1],
        p=None if state.p is None else state.p + c * k[2],
        t=state.t)


def _step_rk4(model, state, i, h):
    k1 = _rhs_tuple(model, state, i)
    k2 = _rhs_tuple(model, _shifted(state, k1, h / 2.0), i)
    k3 = _rhs_tuple(model, _shifted(state, k2, h / 2.0), i)
    k4 = _rhs_tuple(model, _shifted(state, k3, h), i)
    mats = state.phis if state.phis is not None else state.orbit_mats
    new_mats = [M + (h / 6.0) * (a + 2 * b + 2 * c + d)
                for M, a, b, c, d in zip(mats, k1[0], k2[0], k3[0], k4[0])]
    q = p = None
    if state.q is not None:
        q = state.q + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        p = state.p + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return PhaseState(
        phis=new_mats if state.phis is not None else None,
        orbit_mats=new_mats if state.phis is None else None,
        q=q, p=p, t=_advance_t(state, i, h))


def step(model, state, i, h, method="rk4"):
    """One step of size h along the flow of H_i."""
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    return _signed_step(model, state, i, float(h), method)


def _signed_step(model, state, i, h, method):
    if method == "conjugation":
        if state.phis is None:
            raise ConfigError("conjugation stepper needs group points")
        return _step_conjugation(model, state, i, h)
    if method == "rk4":
        return _step_rk4(model, state, i, h)
    raise ConfigError(f"unknown stepper {method!r}")


def _guard(model, state, t_scalar, margin):
    # finiteness first: the resonance margin of a non-finite q is undefined
    mats = state.phis if state.phis is not None else state.orbit_mats
    finite = all(np.all(np.isfinite(M.view(float))) for M in mats)
    if state.q is not None:
        finite = finite and np.all(np.isfinite(state.q.view(float))) \
            and np.all(np.isfinite(state.p.view(float)))
    if not finite:
        raise NumericalAbort("state left the finite regime", t_scalar)
    if model.genus == 1 and resonance_margin(model, state) < margin:
        raise NumericalAbort(
            "rho(Q) approached a lattice point (root resonance)", t_scalar)


def evolve(model, state, curve: FlowCurve, h, method="rk4",
           project_residue_sum=False, resonance_margin_min=1e-3) -> Trajectory:
    """Integrate along an axis-aligned curve, one Hamiltonian per segment.

    project_residue_sum (genus 0, rk4 only): after every step subtract the
    mean residue from the orbit matrices; the state then evolves in the
    matrix representation and Casimirs are preserved only to integrator
    order.  Default is to monitor the constraint rather than enforce it.
    """
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    if curve.n_times != model.n_hams:
        raise ConfigError(
            f"curve lives in R^{curve.n_times} but the model has {model.n_hams} flows")
    cur = state.copy()
    if project_residue_sum:
        if model.genus != 0:
            raise ConfigError("residue-sum projection is a genus-0 option")
        cur = PhaseState(orbit_mats=orbit_elements(model, cur), q=cur.q,
                         p=cur.p, t=cur.t)
        method = "rk4"
    if cur.t is None:
        cur.t = np.array(curve.waypoints[0], dtype=float)
    arclen = 0.0
    times = [np.array(cur.t)]
    states = [cur.copy()]
    seg_ids = [0]
    for seg_no, (axis, _start, delta) in enumerate(curve.segments()):
        n_steps = max(1, int(round(abs(delta) / h)))
        dt = delta / n_steps
        for _ in range(n_steps):
            _guard(model, cur, arclen, resonance_margin_min)
            try:
                cur = _signed_step(model, cur, axis, dt, method)
            except ConfigError:
                raise
            except ValueError as exc:
                # a stage hit a pole or a resonance, went non-finite, or met
                # a singular matrix (LinAlgError is a ValueError)
                raise NumericalAbort(f"step failed: {exc}", arclen) from exc
            if project_residue_sum:
                mean = sum(cur.orbit_mats) / len(cur.orbit_mats)
                cur = PhaseState(orbit_mats=[L - mean for L in cur.orbit_mats],
                                 q=cur.q, p=cur.p, t=cur.t)
            arclen += abs(dt)
            times.append(np.array(cur.t))
            states.append(cur.copy())
            seg_ids.append(seg_no)
    _guard(model, cur, arclen, resonance_margin_min)
    return Trajectory(model=model, times=times, states=states,
                      segment_ids=seg_ids, h=float(h), method=method,
                      projection_used=bool(project_residue_sum))


def action_along_curve(model, traj: Trajectory) -> complex:
    """Trapezoidal pullback of the Lagrangian 1-form along the trajectory."""
    if not traj.states:
        raise ConfigError("empty trajectory")
    if traj.states[0].phis is None:
        raise ConfigError("the action needs group points (not projection mode)")
    total = 0j
    n = len(traj.states)
    H_cache = {}

    def H(k, i):
        if (k, i) not in H_cache:
            H_cache[(k, i)] = hamiltonian(model, traj.states[k], i)
        return H_cache[(k, i)]

    for k in range(n - 1):
        s0, s1 = traj.states[k], traj.states[k + 1]
        dt_vec = traj.times[k + 1] - traj.times[k]
        for a, seed in enumerate(model.orbit_seeds):
            inv_avg = 0.5 * (np.linalg.inv(s0.phis[a]) + np.linalg.inv(s1.phis[a]))
            total += np.trace(seed @ inv_avg @ (s1.phis[a] - s0.phis[a]))
        if model.genus == 1:
            total += 0.5 * np.sum((s0.p + s1.p) * (s1.q - s0.q))
        for i in np.nonzero(np.abs(dt_vec) > 0)[0]:
            total -= 0.5 * (H(k, int(i)) + H(k + 1, int(i))) * dt_vec[i]
    return complex(total)


def poisson_bracket(model, state, i, j) -> complex:
    """{H_i, H_j}: orbit (Kostant-Kirillov) part plus the canonical part.

    The orientation is pinned by the contract {H, f} = df/dt along the flow
    of H, which the tests verify against the integrator.
    """
    Ai, qi, pi = grad_hamiltonian(model, state, i)
    Aj, qj, pj = grad_hamiltonian(model, state, j)
    Ls = orbit_elements(model, state)
    orb = sum(np.trace(L @ (A @ B - B @ A)) for L, A, B in zip(Ls, Ai, Aj))
    canon = np.sum(pi * qj - qi * pj) if len(qi) else 0j
    return complex(orb + canon)


def plaquette_residual(model, state, i, j, h, z_samples, method="rk4") -> float:
    """Zero-curvature residual on an (i, j) plaquette of side h.

    Transports with exp(h M) in the two orders and returns
    max_z ||U_ij - U_ji|| / h^2, which converges to the curvature
    d_i M_j - d_j M_i - [M_i, M_j] as h -> 0.

    On the torus the transport curves exactly along the residual diagonal
    gauge directions (the same torus whose moment map is the Cartan
    residue-sum constraint), so the genus-1 residual is measured with the
    diagonal of the defect projected out; what remains estimates the
    gauge-invariant curvature.
    """
    after_i = _signed_step(model, state, i, h, method)
    after_j = _signed_step(model, state, j, h, method)
    worst = 0.0
    for z in z_samples:
        Mi0 = m_matrix(model, state, i, z)
        Mj0 = m_matrix(model, state, j, z)
        Mj1 = m_matrix(model, after_i, j, z)
        Mi1 = m_matrix(model, after_j, i, z)
        U_ij = matrix_exponential(h * Mj1) @ matrix_exponential(h * Mi0)
        U_ji = matrix_exponential(h * Mi1) @ matrix_exponential(h * Mj0)
        gap = U_ij - U_ji
        if model.genus == 1:
            gap = gap - np.diag(np.diag(gap))
        worst = max(worst, np.linalg.norm(gap) / h ** 2)
    return worst


def _constrained_residue_sum(model, Ls):
    """The conserved part of sum_a L_a: the full matrix on the sphere, its
    Cartan (diagonal) part on the torus."""
    total = sum(Ls)
    if model.genus == 1:
        total = np.diag(np.diag(total))
    return total


@dataclass
class _Observables:
    """Per-state table that the trajectory CSV and the diagnostics read.
    Row k belongs to traj.states[k]; drifts are measured against row 0."""

    H: np.ndarray               # (K, n) charges H_i
    casimir_drift: np.ndarray   # (K, N) orbit-spectrum drift per site
    residue_norm: np.ndarray    # (K,) norm of the constrained residue sum
    residue_drift: np.ndarray   # (K,) its distance from the row-0 value
    charpoly: np.ndarray        # (K, Z, m+1) coefficients of det(x - L(z_s))


def _observables(model, traj: Trajectory, z_samples) -> _Observables:
    """Build the table once per trajectory and z-sample list.  The residues
    are formed once per state and H_i and L(z_s) are evaluated from them."""
    if not traj.states:
        raise ConfigError("empty trajectory")
    z_samples = tuple(complex(z) for z in z_samples)
    if traj.observables is not None:
        cached_model, cached_z, table = traj.observables
        if cached_model is model and cached_z == z_samples:
            return table
    K, n = len(traj.states), model.n_hams
    table = _Observables(
        H=np.zeros((K, n), dtype=complex),
        casimir_drift=np.zeros((K, model.n_sites)),
        residue_norm=np.zeros(K),
        residue_drift=np.zeros(K),
        charpoly=np.zeros((K, len(z_samples), model.m + 1), dtype=complex))
    for k, s in enumerate(traj.states):
        Ls = orbit_elements(model, s)
        on_residues = PhaseState(orbit_mats=Ls, q=s.q, p=s.p, t=s.t)
        eigs = [np.sort_complex(np.linalg.eigvals(L)) for L in Ls]
        res = _constrained_residue_sum(model, Ls)
        if k == 0:
            eig0, res0 = eigs, res
        table.H[k] = [hamiltonian(model, on_residues, i) for i in range(n)]
        table.casimir_drift[k] = [np.max(np.abs(e - e0)) for e, e0 in zip(eigs, eig0)]
        table.residue_norm[k] = np.linalg.norm(res)
        table.residue_drift[k] = np.linalg.norm(res - res0)
        for c, z in enumerate(z_samples):
            table.charpoly[k, c] = np.poly(lax_matrix(model, on_residues, z))
    traj.observables = (model, z_samples, table)
    return table


def diagnostics(model, traj: Trajectory, z_samples) -> DiagnosticsReport:
    """Fill the per-trajectory conservation and structure report."""
    obs = _observables(model, traj, z_samples)
    n = model.n_hams
    states = traj.states

    ham_drift = np.max(np.abs(obs.H - obs.H[0]), axis=0)
    iso_drift = np.max(np.abs(obs.charpoly - obs.charpoly[0]), initial=0.0)

    closure = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            closure[i, j] = closure[j, i] = abs(poisson_bracket(model, states[0], i, j))

    zc = 0.0
    if not traj.projection_used:
        seg = traj.segment_ids
        axes = {}
        for k in range(1, len(states)):
            dt = traj.times[k] - traj.times[k - 1]
            moved = np.nonzero(np.abs(dt) > 0)[0]
            if len(moved):
                axes[seg[k]] = int(moved[0])
        boundaries = [k for k in range(1, len(states)) if seg[k] != seg[k - 1]]
        for k in boundaries:
            i, j = axes.get(seg[k - 1]), axes.get(seg[k])
            if i is None or j is None or i == j:
                continue
            zc = max(zc, plaquette_residual(model, states[k - 1], i, j,
                                            traj.h, z_samples, traj.method))
    return DiagnosticsReport(
        hamiltonian_drift=ham_drift,
        casimir_drift=np.max(obs.casimir_drift, axis=0),
        residue_sum_drift=float(np.max(obs.residue_drift)),
        isospectral_drift=float(iso_drift),
        closure_values=closure,
        zero_curvature_residual=float(zc),
        projection_used=traj.projection_used)


def write_trajectory_csv(path, model, traj: Trajectory, z_samples, seed=None):
    """Time series export: one row per sample with the conserved quantities."""
    obs = _observables(model, traj, z_samples)
    n = model.n_hams
    header = ["step", "segment"]
    header += [f"t{i + 1}" for i in range(n)]
    header += [x for i in range(n) for x in (f"H{i + 1}_re", f"H{i + 1}_im")]
    header += ["casimir_drift", "residue_sum_norm"]
    for k in range(obs.charpoly.shape[1]):
        for c in range(model.m + 1):
            header += [f"z{k}_c{c}_re", f"z{k}_c{c}_im"]

    def pairs(values):
        return [f"{x:.17g}" for v in values for x in (v.real, v.imag)]

    with open(path, "w", newline="") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, t in enumerate(traj.times):
            row = [k, traj.segment_ids[k]]
            row += [f"{x:.17g}" for x in t]
            row += pairs(obs.H[k])
            row += [f"{np.max(obs.casimir_drift[k]):.17g}",
                    f"{obs.residue_norm[k]:.17g}"]
            row += pairs(obs.charpoly[k].ravel())
            writer.writerow(row)
