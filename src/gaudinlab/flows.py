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

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalAbort
from .liealg import charpoly, matrix_exponential
from .models import (
    GaudinModel,
    PhaseState,
    grad_hamiltonian,
    # unused; perfbench/tests expects flows to bind it
    hamiltonian,  # noqa: F401
    lax_matrix,
    m_matrix,
    orbit_elements,
    residue_constraint,
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
    "open_output",
]


@dataclass(frozen=True)
class FlowCurve:
    """Axis-aligned polyline in multi-time R^n."""

    waypoints: np.ndarray

    def __post_init__(self):
        try:
            pts = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
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
    states: list                # PhaseState per sample
    segment_ids: list           # which curve segment produced each sample
    h: float
    method: str
    projection_used: bool = False
    # (model, z_samples, _Observables) of the last _observables call
    observables: tuple = field(default=None, repr=False, compare=False)

    @property
    def times(self) -> np.ndarray:
        """(K, n) multi-time of every sample, stacked from the states' t."""
        return np.array([s.t for s in self.states], dtype=float)

    @property
    def lockstep(self) -> bool:
        """Whether the states carry the member axis of a lockstep evolve."""
        return np.ndim(self.states[0].t) == 2

    def member(self, b: int) -> "Trajectory":
        """The trajectory of curve b of a lockstep evolve: views of its
        slice of every state."""
        if not self.lockstep:
            raise ConfigError("only a lockstep trajectory has members")
        states = [PhaseState(**{k: None if v is None else v[b] for k, v in vars(s).items()})
                  for s in self.states]
        return Trajectory(model=self.model, states=states, segment_ids=self.segment_ids,
                          h=self.h, method=self.method,
                          projection_used=self.projection_used)


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


STEPPERS = ("rk4", "conjugation")


def _advance_t(state, i, h):
    t = np.array(state.t, dtype=float)
    if isinstance(i, np.ndarray):
        t[np.arange(len(t)), i] += h
    else:
        t[i] += h
    return t


def _times(c, x):
    """c * x for a scalar c, or for one c per member along x's leading axis."""
    if isinstance(c, np.ndarray):
        c = c.reshape((-1,) + (1,) * (x.ndim - 1))
    return c * x


def _step_conjugation(model, state, i, h):
    # explicit midpoint; the group points move by one stacked exponential,
    # so orbit spectra are exact regardless of h
    dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, i)
    half = PhaseState(
        phis=matrix_exponential(_times(-(h / 2.0), dH_dL)) @ state.phis,
        q=None if state.q is None else state.q + _times(h / 2.0, dH_dp),
        p=None if state.p is None else state.p - _times(h / 2.0, dH_dq),
        t=state.t)
    dH_dL2, dH_dq2, dH_dp2 = grad_hamiltonian(model, half, i)
    return PhaseState(
        phis=matrix_exponential(_times(-h, dH_dL2)) @ state.phis,
        q=None if state.q is None else state.q + _times(h, dH_dp2),
        p=None if state.p is None else state.p - _times(h, dH_dq2),
        t=_advance_t(state, i, h))


def _rhs_tuple(model, state, i):
    """Raw right-hand side on the flat coordinates used by RK4."""
    dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, i)
    if state.phis is not None:
        dmats = -(dH_dL @ state.phis)   # left-trivialised
    else:
        Ls = state.orbit_mats
        dmats = Ls @ dH_dL - dH_dL @ Ls
    return dmats, dH_dp, -dH_dq


def _shifted(state, k, c):
    return state.moved(state.mats + _times(c, k[0]),
                       None if state.q is None else state.q + _times(c, k[1]),
                       None if state.p is None else state.p + _times(c, k[2]), state.t)


def _step_rk4(model, state, i, h):
    k1 = _rhs_tuple(model, state, i)
    k2 = _rhs_tuple(model, _shifted(state, k1, h / 2.0), i)
    k3 = _rhs_tuple(model, _shifted(state, k2, h / 2.0), i)
    k4 = _rhs_tuple(model, _shifted(state, k3, h), i)
    new = [None if x is None else x + _times(h / 6.0, a + 2 * b + 2 * c + d)
           for x, a, b, c, d in zip((state.mats, state.q, state.p), k1, k2, k3, k4)]
    return state.moved(*new, _advance_t(state, i, h))


def step(model, state, i, h, method="rk4"):
    """One step of signed, nonzero size h along the flow of H_i.

    On a state whose arrays carry a leading member axis, i and h may be
    arrays of one flow index and one step per member (a lockstep evolve);
    every member's result equals its own single step bit for bit."""
    if (h == 0).any() if isinstance(h, np.ndarray) else h == 0:
        raise ConfigError("step size must be nonzero")
    if method == "conjugation":
        if state.phis is None:
            raise ConfigError("conjugation stepper needs group points")
        return _step_conjugation(model, state, i, h)
    if method == "rk4":
        return _step_rk4(model, state, i, h)
    raise ConfigError(f"unknown stepper {method!r}; choose from {STEPPERS}")


def _guard(model, state, t_scalar, margin):
    # finiteness first: the resonance margin of a non-finite q is undefined;
    # on a lockstep state both checks cover every member
    if not all(np.isfinite(x).all() for x in (state.mats, state.q, state.p)
               if x is not None):
        raise NumericalAbort("state left the finite regime", t_scalar)
    if model.genus == 1 and resonance_margin(model, state) < margin:
        raise NumericalAbort(
            "rho(Q) approached a lattice point (root resonance)", t_scalar)


def evolve(model, state, curve, h, method="rk4",
           project_residue_sum=False, resonance_margin_min=1e-3) -> Trajectory:
    """Integrate along an axis-aligned curve, one Hamiltonian per segment.

    curve may also be a sequence of curves with the same segment lengths
    (their axes and directions may differ).  They are evolved in lockstep
    from the one start with the one h: each time step is one `step` on a
    state whose arrays carry a leading member axis, so the returned states
    carry it too, and `Trajectory.member(b)` is curve b's trajectory, equal
    bit for bit to evolving curve b alone.  A numerical abort in any member
    aborts the call.

    Every trajectory starts on its curve, at its first waypoint.  A state
    may carry no time t; one whose t is not that waypoint (in lockstep, the
    first waypoint of each member's curve) to 1e-9, relative or absolute,
    is a ConfigError.

    project_residue_sum (genus 0, rk4 only): after every step subtract the
    mean residue from the orbit matrices; the state then evolves in the
    matrix representation and Casimirs are preserved only to integrator
    order.  Default is to monitor the constraint rather than enforce it.
    Asking for it with the conjugation stepper is a ConfigError.
    """
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    if method not in STEPPERS:
        raise ConfigError(f"unknown stepper {method!r}; choose from {STEPPERS}")
    lockstep = not isinstance(curve, FlowCurve)
    curves = list(curve) if lockstep else [curve]
    if not curves:
        raise ConfigError("a lockstep evolve needs at least one curve")
    for c in curves:
        if c.n_times != model.n_hams:
            raise ConfigError(
                f"curve lives in R^{c.n_times} but the model has {model.n_hams} flows")
    legs = [list(c.segments()) for c in curves]
    lengths = [[abs(delta) for _, _, delta in segs] for segs in legs]
    if any(other != lengths[0] for other in lengths[1:]):
        raise ConfigError(f"lockstep curves need the same segment lengths, got {lengths}")
    starts = np.array([c.waypoints[0] for c in curves], dtype=float)
    if state.t is not None:
        t = np.asarray(state.t, dtype=float)
        for b, start in enumerate(starts):
            # up to the rounding that a trajectory's own steps leave in its t
            if t.shape != start.shape or not np.allclose(t, start, rtol=1e-9, atol=1e-9):
                raise ConfigError(f"the state's time t = {t.tolist()} is not the first "
                                  f"waypoint {start.tolist()} of curve {b}")
    cur = state.copy()
    if project_residue_sum:
        if model.genus != 0:
            raise ConfigError("residue-sum projection is a genus-0 option")
        if method != "rk4":
            raise ConfigError("residue-sum projection evolves orbit matrices, "
                              f"so it needs method 'rk4', not {method!r}")
        cur = PhaseState(orbit_mats=orbit_elements(model, cur), q=cur.q,
                         p=cur.p, t=cur.t)
    if lockstep:
        cur = PhaseState(**{k: None if v is None else np.stack([v] * len(curves))
                            for k, v in vars(cur).items()})
    cur.t = starts if lockstep else starts[0]
    arclen = 0.0
    states = [cur]
    seg_ids = [0]
    for seg_no, seg in enumerate(zip(*legs)):
        n_steps = max(1, int(round(lengths[0][seg_no] / h)))
        axis, dt = seg[0][0], seg[0][2] / n_steps
        if lockstep:
            axis = np.array([a for a, _, _ in seg])
            dt = np.array([delta for _, _, delta in seg]) / n_steps
        for _ in range(n_steps):
            _guard(model, cur, arclen, resonance_margin_min)
            try:
                cur = step(model, cur, axis, dt, method)
            except ConfigError:
                raise
            except ValueError as exc:
                # a stage hit a pole or a resonance, went non-finite, or met
                # a singular matrix (LinAlgError is a ValueError)
                raise NumericalAbort(f"step failed: {exc}", arclen) from exc
            if project_residue_sum:     # cur is new, so it may be changed
                cur.orbit_mats -= np.sum(cur.orbit_mats, axis=-3, keepdims=True) / model.n_sites
            arclen += lengths[0][seg_no] / n_steps
            # a step builds a new state and never writes into the old one
            states.append(cur)
            seg_ids.append(seg_no)
    _guard(model, cur, arclen, resonance_margin_min)
    return Trajectory(model=model, states=states, segment_ids=seg_ids, h=float(h),
                      method=method, projection_used=bool(project_residue_sum))


def action_along_curve(model, traj: Trajectory) -> complex:
    """Trapezoidal pullback of the Lagrangian 1-form along the trajectory."""
    if not traj.states:
        raise ConfigError("empty trajectory")
    if traj.states[0].phis is None:
        raise ConfigError("the action needs group points (not projection mode)")
    H = _observables(model, traj, ()).H
    dt = np.diff(traj.times, axis=0)
    # Tr(Lambda_a phi_a^{-1} dphi_a) of every (step, site), the inverse
    # averaged over the step, from one stacked inverse and one product
    phis = np.array([s.phis for s in traj.states])
    inv = np.linalg.inv(phis)
    traces = np.trace(model.orbit_seeds @ (0.5 * (inv[:-1] + inv[1:])) @ np.diff(phis, axis=0),
                      axis1=-2, axis2=-1)
    total = 0j
    for k, (s0, s1) in enumerate(zip(traj.states, traj.states[1:])):
        for trace in traces[k]:
            total += trace
        if model.genus == 1:
            total += 0.5 * np.sum((s0.p + s1.p) * (s1.q - s0.q))
        for i in np.nonzero(dt[k])[0]:
            total -= 0.5 * (H[k, i] + H[k + 1, i]) * dt[k, i]
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
    if len(z_samples) == 0:
        return 0.0
    after_i = step(model, state, i, h, method)
    after_j = step(model, state, j, h, method)
    # M_i, M_j at the corner, M_j after the i step and M_i after the j step:
    # one gradient per (state, flow) and one exponential for all of them
    E = matrix_exponential(h * np.array([
        m_matrix(model, s, k, z_samples)
        for s, k in ((state, i), (state, j), (after_i, j), (after_j, i))]))
    worst = 0.0
    for gap in E[2] @ E[0] - E[3] @ E[1]:      # U_ij - U_ji per z sample
        if model.genus == 1:
            gap = gap - np.diag(np.diag(gap))
        worst = max(worst, np.linalg.norm(gap) / h ** 2)
    return worst


@dataclass
class _Observables:
    """Per-state table that the trajectory CSV and the diagnostics read.
    Row k belongs to traj.states[k]; drifts are measured against row 0."""

    H: np.ndarray               # (K, n) charges H_i
    casimir_drift: np.ndarray   # (K, N) drift of the coefficients of det(x - L_a)
    residue_norm: np.ndarray    # (K,) norm of the constrained residue sum
    residue_drift: np.ndarray   # (K,) its distance from the row-0 value
    charpoly: np.ndarray        # (K, Z, m+1) coefficients of det(x - L(z_s))


# states per batch of the observables pass: enough to spread numpy's per-call
# cost, few enough that a batch's temporaries stay small beside the trajectory
_CHUNK = 128


def _observables(model, traj: Trajectory, z_samples) -> _Observables:
    """Build the table once per trajectory and z-sample list, _CHUNK states
    at a time: one residue pass; L at the Hamiltonian points and the z
    samples from one lax_matrix call on the chunk's residues, whose kernel
    weights serve the whole chunk (in genus 1, one kernel table over every
    state's root values and point); and one charpoly call each on the
    residues and on L(z_s), whose coefficients are the orbits' Casimirs and
    the spectral curve."""
    if not traj.states:
        raise ConfigError("empty trajectory")
    if traj.lockstep:
        raise ConfigError("a lockstep trajectory is read one member at a time")
    z_samples = tuple(complex(z) for z in z_samples)
    if traj.observables is not None:
        cached_model, cached_z, table = traj.observables
        if cached_model is model and cached_z == z_samples:
            return table
    K, n = len(traj.states), model.n_hams
    points = np.concatenate((model.ham_points, np.array(z_samples, dtype=complex)))
    table = _Observables(
        H=np.empty((K, n), dtype=complex),
        casimir_drift=np.empty((K, model.n_sites)),
        residue_norm=np.empty(K),
        residue_drift=np.empty(K),
        charpoly=np.empty((K, len(z_samples), model.m + 1), dtype=complex))
    for lo in range(0, K, _CHUNK):
        chunk = traj.states[lo:lo + _CHUNK]
        q = p = None
        if model.genus == 1:
            q, p = np.array([s.q for s in chunk]), np.array([s.p for s in chunk])
        Ls = orbit_elements(model, chunk[0].moved(np.array([s.mats for s in chunk]),
                                                  None, None, None))
        L = lax_matrix(model, PhaseState(orbit_mats=Ls, q=q, p=p), points)  # (C, n+Z, m, m)
        casimirs = charpoly(Ls)         # (C, N, m+1)
        res = residue_constraint(model, Ls)     # conserved
        if lo == 0:
            casimirs0, res0 = casimirs[0], res[0]
        rows = slice(lo, lo + len(chunk))
        for i, P in enumerate(model.polys):
            table.H[rows, i] = P.evaluate(L[:, i])
        table.casimir_drift[rows] = np.max(np.abs(casimirs - casimirs0), axis=-1)
        table.residue_norm[rows] = np.linalg.norm(res, axis=(-2, -1))
        table.residue_drift[rows] = np.linalg.norm(res - res0, axis=(-2, -1))
        table.charpoly[rows] = charpoly(L[:, n:])
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
        moved = np.abs(np.diff(traj.times, axis=0)) > 0
        axes = {seg[k + 1]: int(np.argmax(row)) for k, row in enumerate(moved) if row.any()}
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
    n, K = model.n_hams, len(traj.states)
    header = ["step", "segment", *(f"t{i + 1}" for i in range(n)),
              *(f"H{i + 1}_{x}" for i in range(n) for x in ("re", "im")),
              "casimir_drift", "residue_sum_norm",
              *(f"z{k}_c{c}_{x}" for k in range(obs.charpoly.shape[1])
                for c in range(model.m + 1) for x in ("re", "im"))]
    # the float columns in header order; a complex array viewed as float
    # holds its (re, im) pairs
    values = np.column_stack((traj.times, obs.H.view(float),
                              np.max(obs.casimir_drift, axis=1), obs.residue_norm,
                              obs.charpoly.reshape(K, -1).view(float)))
    row = "%d,%d," + ",".join(["%.17g"] * values.shape[1]) + "\r\n"
    with open_output(path, newline="") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write(",".join(header) + "\r\n")
        for k, segment in enumerate(traj.segment_ids):
            fh.write(row % (k, segment, *values[k].tolist()))


def open_output(path, **kwargs):
    """Open an output file for writing as a new file: one already at `path`
    is removed first, not truncated.

    On ext4, truncating a file (or renaming another over it) flushes the
    new contents to disk at close, and the next truncation of that file
    waits for the flush: rewriting a 9 kB file once a second on a 2-vCPU
    VM's ext4 disk took a median 100 ms (up to 200 ms, set by the disk's
    load), against 0.12 ms for removing it and writing a new one.
    A symlink at `path` is replaced, not followed."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    return open(path, "w", **kwargs)
