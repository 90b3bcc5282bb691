"""Multi-time Hamiltonian flows, the discrete multiform action, and
trajectory diagnostics.

Multi-time curves are axis-aligned polylines in R^n: along each segment a
single Hamiltonian H_i drives the dynamics

    dL_alpha/dt^i = [-dH_i/dL_alpha, L_alpha],
    dq^mu/dt^i    =  dH_i/dp_mu,
    dp_mu/dt^i    = -dH_i/dq^mu,

integrated either with the conjugation stepper (an explicit midpoint rule
that moves the group points by exponentials of traceless matrices, so
det phi_alpha is kept and the order is 2 by design) or with a classical
RK4 step on (phi, q, p).  Both keep the spectrum of every L_alpha =
-phi_alpha Lambda_alpha phi_alpha^{-1} to roundoff, whatever the step,
since any invertible phi_alpha puts L_alpha on its orbit; only RK4 on the
orbit matrices themselves (projection mode) moves the spectra.

The action of the Lagrangian 1-form along a trajectory is accumulated with
trapezoidal quadrature of

    sum_alpha Tr(Lambda_alpha phi_alpha^{-1} dphi_alpha) + p_mu dq^mu - H_i dt^i,

so it converges at second order in the step; on shell it depends on the
curve only through its endpoints, which the tests exercise directly.
"""

from __future__ import annotations

import functools
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalAbort
from .liealg import _inv, charpoly, matrix_exponential
from .models import (
    GaudinModel,
    PhaseState,
    _charge_partials,
    _gradient,
    _ham_lax,
    _member,
    _residues,
    _stack,
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
        """Yield (axis, end_waypoint, delta) for each non-trivial segment."""
        pts = self.waypoints
        for k in range(len(pts) - 1):
            delta = pts[k + 1] - pts[k]
            moved = np.nonzero(np.abs(delta) > 0)[0]
            if len(moved) == 0:
                continue
            yield int(moved[0]), pts[k + 1], float(delta[moved[0]])

    def plan(self, h):
        """The walk at step h: (times, segment_ids, axes, dts).  A segment
        of signed length delta takes n = max(1, round(|delta| / h)) steps of
        delta / n; axes and dts hold the K - 1 steps, segment_ids (a list)
        the segment of each of the K samples and times their (K, n) times,
        each row the one before plus its step, except that a segment's last
        row is its end waypoint."""
        rows, seg_ids, axes, dts = [self.waypoints[:1]], [0], [], []
        for seg_no, (axis, end, delta) in enumerate(self.segments()):
            n = max(1, int(round(abs(delta) / h)))
            seg = np.repeat(rows[-1][-1:], n, axis=0)
            # np.cumsum adds in sequence: t, t + dt, (t + dt) + dt, ...
            seg[:, axis] = np.cumsum(np.append(seg[0, axis], np.full(n, delta / n)))[1:]
            seg[-1] = end
            rows.append(seg)
            seg_ids += [seg_no] * n
            axes += [axis] * n
            dts += [delta / n] * n
        return np.concatenate(rows), seg_ids, np.array(axes, dtype=int), np.array(dts)


class _Samples(Sequence):
    """The read-only sequence of a trajectory's samples: item k is the
    PhaseState of views of row k of the stack, and a slice is the samples
    of the sliced stack."""

    def __init__(self, stack):
        self._rows = stack

    def __len__(self):
        return len(self._rows.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _Samples(_member(self._rows, k))
        return _member(self._rows, operator.index(k))


@dataclass
class Trajectory:
    """One evolve's samples, kept as one PhaseState whose arrays carry a
    leading sample axis: row k of every array, t included, is sample k.
    In lockstep every array carries a member axis after the sample (or
    step) axis, h holds each member's step and segment_ids one list per
    member; a member whose plan has fewer steps than the longest holds its
    end: its later rows repeat its last one, and its later axes are -1."""

    model: GaudinModel
    stack: PhaseState           # every sample; its t is the (K, n) times
    segment_ids: list           # which curve segment produced each sample
    axes: np.ndarray            # (K - 1,) flow index of every step
    h: float                    # the step size, or in lockstep one per member
    method: str
    projection_used: bool = False
    # (model, z_samples, _Observables) of the last _observables call
    observables: tuple = field(default=None, repr=False, compare=False)

    @property
    def times(self) -> np.ndarray:
        """(K, n) multi-time of every sample, from the plan."""
        return self.stack.t

    @property
    def states(self) -> Sequence:
        """The samples one PhaseState each, as views of the stack."""
        return _Samples(self.stack)

    @property
    def lockstep(self) -> bool:
        """Whether the states, times and axes carry lockstep members."""
        return self.times.ndim == 3

    def member(self, b: int) -> "Trajectory":
        """The trajectory of member b of a lockstep evolve, equal bit for bit
        to evolving curve b alone at its own step: views of its slice of
        the stack and the axes up to its own last sample."""
        if not self.lockstep:
            raise ConfigError("only a lockstep trajectory has members")
        K = len(self.segment_ids[b])
        return Trajectory(model=self.model, stack=_member(self.stack, (slice(K), b)),
                          segment_ids=self.segment_ids[b], axes=self.axes[:K - 1, b],
                          h=float(self.h[b]), method=self.method,
                          projection_used=self.projection_used)


def _held(rows, n, fill=None):
    """rows lengthened to n rows by repeating its last row, or by fill."""
    pad = rows[-1:] if fill is None else np.full((1,) + rows.shape[1:], fill, rows.dtype)
    return np.concatenate((rows, np.repeat(pad, n - len(rows), axis=0)))


@dataclass
class DiagnosticsReport:
    hamiltonian_drift: np.ndarray
    casimir_drift: np.ndarray
    residue_sum_drift: float
    isospectral_drift: float
    closure_values: np.ndarray
    zero_curvature_residual: float
    projection_used: bool = False

    def to_dict(self) -> dict:
        return {
            "hamiltonian_drift": [float(x) for x in self.hamiltonian_drift],
            "casimir_drift": [float(x) for x in self.casimir_drift],
            "residue_sum_drift": float(self.residue_sum_drift),
            "isospectral_drift": float(self.isospectral_drift),
            "closure_values": [[float(x) for x in row] for row in self.closure_values],
            "zero_curvature_residual": float(self.zero_curvature_residual),
            "projection_used": bool(self.projection_used),
        }


STEPPERS = ("rk4", "conjugation")


def _times(c, x):
    """c * x for a scalar c, or for one c per member along x's leading axis."""
    if isinstance(c, np.ndarray):
        c = c.reshape((-1,) + (1,) * (x.ndim - 1))
    return c * x


def _step_conjugation(partials, x, i, h):
    # explicit midpoint on x = (phis, q, p); the group points move by one
    # stacked exponential of a traceless matrix, so det phi_a is kept and
    # the step has order 2
    def advanced(c, dH):
        dH_dL, dH_dq, dH_dp = dH
        return (matrix_exponential(_times(-c, dH_dL)) @ x[0],
                None if x[1] is None else x[1] + _times(c, dH_dp),
                None if x[2] is None else x[2] - _times(c, dH_dq))
    return advanced(h, partials(advanced(h / 2.0, partials(x, i)), i))


def _step_rk4(partials, x, i, h, orbit=False):
    # classical rk4 on x = (mats, q, p): group points move left-trivialised,
    # orbit matrices by a commutator
    def slope(c, k):
        y = x if k is None else [None if v is None else v + _times(c, dv) for v, dv in zip(x, k)]
        dH_dL, dH_dq, dH_dp = partials(y, i)
        return (y[0] @ dH_dL - dH_dL @ y[0] if orbit else -(dH_dL @ y[0])), dH_dp, -dH_dq

    k1 = slope(0.0, None)
    k2 = slope(h / 2.0, k1)
    k3 = slope(h / 2.0, k2)
    k4 = slope(h, k3)
    return tuple(None if v is None else v + _times(h / 6.0, a + 2 * b + 2 * c + d)
                 for v, a, b, c, d in zip(x, k1, k2, k3, k4))


def _stepper(method, state):
    """stepper(partials, (mats, q, p), i, h) of method for the state, or a ConfigError."""
    if method not in STEPPERS:
        raise ConfigError(f"unknown stepper {method!r}; choose from {STEPPERS}")
    if method == "rk4":
        return functools.partial(_step_rk4, orbit=state.phis is None)
    if state.phis is None:
        raise ConfigError("conjugation stepper needs group points")
    return _step_conjugation


def step(model, state, i, h, method="rk4"):
    """One step of signed, nonzero size h along the flow of H_i, every stage
    checked by grad_hamiltonian.  The result keeps the input's t: evolve
    sets t from the curve's plan.

    On a state whose arrays carry a leading member axis, i and h may be
    arrays of one flow index and one step per member (a lockstep evolve);
    every member's result equals its own single step bit for bit."""
    if (h == 0).any() if isinstance(h, np.ndarray) else h == 0:
        raise ConfigError("step size must be nonzero")
    x = _stepper(method, state)(lambda y, i: grad_hamiltonian(model, state.moved(*y, None), i),
                                (state.mats, state.q, state.p), i, h)
    return state.moved(*x, state.t)


def _guard(model, state, margin):
    """Why the state fails the per-step guard, or None.  Finiteness first,
    of the state and then of rho(Q) (a finite q can overflow it): the
    resonance margin is undefined otherwise.  On a lockstep state the
    checks cover every member."""
    if not all(np.isfinite(x).all() for x in (state.mats, state.q, state.p)
               if x is not None):
        return "state left the finite regime"
    rho = resonance_margin(model, state)
    if np.isnan(rho):
        return "rho(Q) left the finite regime"
    if rho < margin:
        return "rho(Q) approached a lattice point (root resonance)"
    return None


def evolve(model, state, curve, h, method="rk4",
           project_residue_sum=False, resonance_margin_min=1e-3) -> Trajectory:
    """Integrate along an axis-aligned curve by its plan at step h, which
    must be finite and positive (else ConfigError, before any plan).  The
    Trajectory keeps every sample in one stack sized from the plan, whose
    row k + 1 is written when step k is taken.

    curve may also be a sequence of curves, and h one step or a sequence
    of one step per curve: the member axis holds curves x step sizes, and
    the plans may differ in everything, step counts included.  The members
    are evolved in lockstep from the one start: each time step is one
    `step` on a state whose arrays carry a leading member axis, taken by
    every member that has steps left, while a finished member holds its
    last state.  The stack's arrays are indexed by sample, then member,
    and `Trajectory.member(b)`, a slice of it, is member b's trajectory,
    equal bit for bit to
    evolve(model, state, curve[b], h[b]).  A numerical abort in any member
    aborts the call.  Its last_good_time is the arc length along the
    member's own curve of its last state that was finite and (genus 1)
    kept rho(Q) resonance_margin_min from the lattice, or of a failed
    step's start; in lockstep its member attribute names the first member
    that fails when checked (a guard) or stepped (a failed step) alone,
    and the abort is that member's own: the one its single call raises.

    Every trajectory starts on its curve, at its first waypoint.  A state
    may carry no time t; one whose t is not that waypoint (in lockstep, the
    first waypoint of each member's curve) to 1e-9, relative or absolute,
    is a ConfigError.

    A step's stages check no value for finiteness and no inverse for
    singularity (a singular group point gives NaNs), under
    np.errstate(all="ignore"): the guard is the step's one check, and a
    step that fails it or raises is retaken by `step`, which names the
    cause; every stage's slope enters the step, so the guard sees it.

    project_residue_sum (genus 0, rk4 only): after every step subtract the
    mean residue from the orbit matrices; the state then evolves in the
    matrix representation and Casimirs are preserved only to integrator
    order.  Default is to monitor the constraint rather than enforce it.
    Asking for it with the conjugation stepper is a ConfigError.
    """
    if method not in STEPPERS:
        raise ConfigError(f"unknown stepper {method!r}; choose from {STEPPERS}")
    lockstep = not isinstance(curve, FlowCurve)
    curves = list(curve) if lockstep else [curve]
    if not curves:
        raise ConfigError("a lockstep evolve needs at least one curve")
    hs = np.array(h, dtype=float)
    if hs.ndim > (1 if lockstep else 0) or hs.size not in (1, len(curves)):
        raise ConfigError(f"give one step size or one per curve, got {h}")
    if not (np.isfinite(hs) & (hs > 0)).all():
        raise ConfigError(f"step size must be finite and positive, got {h}")
    hs = np.broadcast_to(hs, len(curves))
    for c in curves:
        if c.n_times != model.n_hams:
            raise ConfigError(
                f"curve lives in R^{c.n_times} but the model has {model.n_hams} flows")
    plans = [c.plan(float(hb)) for c, hb in zip(curves, hs)]
    times, seg_ids, axes, dts = plans[0]
    counts = np.array([len(p[2]) for p in plans])
    if lockstep:
        # the member axis follows the sample (or step) axis; a member with
        # no steps left holds its last time and takes no step
        K = counts.max()
        times = np.stack([_held(p[0], K + 1) for p in plans], axis=1)
        axes = np.stack([_held(p[2], K, -1) for p in plans], axis=1)
        dts = np.stack([_held(p[3], K, 0.0) for p in plans], axis=1)
        seg_ids = [p[1] for p in plans]
    if state.t is not None:
        t = np.asarray(state.t, dtype=float)
        for b, start in enumerate(times[0].reshape(-1, model.n_hams)):
            # up to the rounding of a time typed by hand
            if t.shape != start.shape or not np.allclose(t, start, rtol=1e-9, atol=1e-9):
                raise ConfigError(f"the state's time t = {t.tolist()} is not the first "
                                  f"waypoint {start.tolist()} of curve {b}")
    cur = state
    if project_residue_sum:
        if model.genus != 0:
            raise ConfigError("residue-sum projection is a genus-0 option")
        if method != "rk4":
            raise ConfigError("residue-sum projection evolves orbit matrices, "
                              f"so it needs method 'rk4', not {method!r}")
        cur = PhaseState(orbit_mats=orbit_elements(model, cur), q=cur.q, p=cur.p)
    stepper, orbit = _stepper(method, cur), cur.phis is None
    # the trajectory, one row per sample (then one per member, if any): row
    # 0 is the start, row k + 1 is written once step k is taken
    stack = PhaseState(t=times, **{key: np.empty(times.shape[:-1] + v.shape, complex)
                                   for key, v in vars(cur).items()
                                   if v is not None and key != "t"})
    _write(stack, 0, cur)

    # The abort path.  An abort reports the failing member's arc length to
    # its last good state, the sum of its first k steps, added in walk
    # order (np.cumsum adds in sequence; a finished member adds 0.0)
    def walked(k, member):
        return float(np.cumsum(np.abs(dts[:k]).reshape(k, -1)[:, member])[-1]) if k else 0.0

    def guard(k, part, members):
        # a failure is checked again member by member
        if _guard(model, part, resonance_margin_min) is None:
            return
        for b, member in enumerate(members):
            reason = _guard(model, _member(part, b) if lockstep else part, resonance_margin_min)
            if reason is not None:
                raise NumericalAbort(reason, walked(k, member), int(member) if lockstep else None)

    def failed_step(k, part, ax, dt, members, exc):
        # in lockstep the live members are stepped again one at a time
        if lockstep:
            for b, member in enumerate(members):
                try:
                    step(model, _member(part, b), ax[b], dt[b], method)
                except ValueError as own:
                    return NumericalAbort(f"step failed: {own}", walked(k, member), int(member))
        return NumericalAbort(f"step failed: {exc}", walked(k, 0))

    def raw(y, i):
        Ls = y[0] if orbit else _residues(model, y[0], _inv(y[0]))
        return _gradient(model, Ls, y[1], y[2], i)

    def taken(part, ax, dt, checked):
        # the live members' step through `step`, whose stages are checked,
        # or through raw stages, which check no value for finiteness and
        # no inverse for singularity
        if checked:
            new = step(model, part, ax, dt, method)
        else:
            new = part.moved(*stepper(raw, (part.mats, part.q, part.p), ax, dt), part.t)
        if project_residue_sum:     # new is new, so it may be changed
            new.orbit_mats -= np.sum(new.orbit_mats, axis=-3, keepdims=True) / model.n_sites
        return new

    everyone = np.arange(len(curves))
    cur = _member(stack, 0)
    guard(0, cur, everyone)
    shortest = counts.min()
    for k in range(len(axes)):
        # every member moves while all have steps left; after that only
        # those that do, and the others keep their last state
        live = None if k < shortest else np.flatnonzero(counts > k)
        part, ax, dt, members = ((cur, axes[k], dts[k], everyone) if live is None
                                 else (_member(cur, live), axes[k, live], dts[k, live], live))
        try:
            with np.errstate(all="ignore"):
                new = taken(part, ax, dt, False)
        except ValueError:
            new = None
        if new is None or _guard(model, new, resonance_margin_min) is not None:
            # taken again, checked, so that the abort names the cause
            try:
                new = taken(part, ax, dt, True)
            except ConfigError:
                raise
            except ValueError as exc:
                # a stage hit a pole or a resonance, went non-finite, or met
                # a singular matrix (LinAlgError is a ValueError)
                raise failed_step(k, part, ax, dt, members, exc) from exc
            guard(k, new, members)
        _write(stack, k + 1, new, live)
        # the next step reads row k + 1: new itself when it is all of it
        cur = new if live is None else _member(stack, k + 1)
    return Trajectory(model=model, stack=stack, segment_ids=seg_ids, axes=axes,
                      h=np.array(hs) if lockstep else float(hs[0]), method=method,
                      projection_used=bool(project_residue_sum))


def _write(stack, k, state, live=None):
    """Write state's arrays (not its t) into row k of the stack: the whole
    row (broadcast over the members), or only the members live, the others
    keeping row k - 1."""
    for rows, v in ((stack.mats, state.mats), (stack.q, state.q), (stack.p, state.p)):
        if v is None:
            continue
        if live is None:
            rows[k] = v
        else:
            rows[k] = rows[k - 1]
            rows[k, live] = v


# states per batch of the observables pass and of the action's charges: enough
# to spread numpy's per-call cost, few enough that a batch's temporaries stay
# small beside the trajectory
_CHUNK = 128


def action_along_curve(model, traj: Trajectory) -> complex:
    """Trapezoidal pullback of the Lagrangian 1-form along the trajectory.

    Each step adds its sites' Tr(Lambda_a phi_a^{-1} dphi_a), then (genus 1)
    p dq, then -H_i dt^i, in walk order.  H_i is evaluated only where the
    trapezoid reads it, at both ends of each step along flow i, _CHUNK
    samples at a time from the model's weights at q_i: the bits of
    hamiltonian(model, state, i).  One inverse of every group point serves
    the group terms and the residues those charges read."""
    if not traj.states:
        raise ConfigError("empty trajectory")
    if traj.stack.phis is None:
        raise ConfigError("the action needs group points (not projection mode)")
    if traj.lockstep:
        raise ConfigError("a lockstep trajectory is read one member at a time")
    every, axes = traj.stack, traj.axes
    steps = np.arange(len(axes))
    inv = np.linalg.inv(every.phis)
    # H_i at both ends of each step along flow i, marked by a mask: no set
    # routine, whose first call in an interpreter (np.union1d) takes ~13 ms
    H = np.zeros((len(traj.states), model.n_hams), dtype=complex)
    for i in range(model.n_hams):
        along = axes == i
        read = np.zeros(len(traj.states), dtype=bool)
        read[:-1] |= along
        read[1:] |= along
        rows = np.flatnonzero(read)
        for lo in range(0, len(rows), _CHUNK):
            chunk = rows[lo:lo + _CHUNK]
            H[chunk, i] = model.polys[i].evaluate(
                _ham_lax(model, _member(every, chunk), i, inv[chunk]))
    dt = np.diff(traj.times, axis=0)[steps, axes]
    # Tr(Lambda_a phi_a^{-1} dphi_a) of every (step, site), the inverse
    # averaged over the step, from one product
    terms = [np.trace(model.orbit_seeds @ (0.5 * (inv[:-1] + inv[1:]))
                      @ np.diff(every.phis, axis=0), axis1=-2, axis2=-1)]
    if model.genus == 1:
        p, q = every.p, every.q
        terms.append(0.5 * np.sum((p[:-1] + p[1:]) * (q[1:] - q[:-1]), axis=-1)[:, None])
    terms.append(-(0.5 * (H[steps, axes] + H[steps + 1, axes]) * dt)[:, None])
    # np.cumsum adds in sequence, step by step and term by term, from 0j
    return complex(np.cumsum(np.concatenate(([0j], np.hstack(terms).ravel())))[-1])


def poisson_bracket(model, state, i, j) -> complex:
    """{H_i, H_j}: orbit (Kostant-Kirillov) part plus the canonical part.

    The orientation is pinned by the contract {H, f} = df/dt along the flow
    of H, which the tests verify against the integrator.
    """
    return _bracket(orbit_elements(model, state), grad_hamiltonian(model, state, i),
                    grad_hamiltonian(model, state, j))


def _bracket(Ls, grad_i, grad_j) -> complex:
    """{H_i, H_j} from the residues and the partials (dH_dL, dH_dq, dH_dp)
    of H_i and of H_j."""
    (Ai, qi, pi), (Aj, qj, pj) = grad_i, grad_j
    orb = sum(np.trace(L @ (A @ B - B @ A)) for L, A, B in zip(Ls, Ai, Aj))
    canon = np.sum(pi * qj - qi * pj) if len(qi) else 0j
    return complex(orb + canon)


def _closure(model, state) -> np.ndarray:
    """The symmetric (n, n) matrix of |{H_i, H_j}| at one state, zero on the
    diagonal, from one stacked gradient call: entry (i, j) equals
    abs(poisson_bracket(model, state, i, j)) bit for bit."""
    n = model.n_hams
    grads, Ls = _charge_partials(model, state), orbit_elements(model, state)
    closure = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            closure[i, j] = closure[j, i] = abs(_bracket(Ls, grads[i], grads[j]))
    return closure


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
    # both corner steps as one lockstep step: members (after_i, after_j)
    after = step(model, _stack(state, state), np.array([i, j]), np.array([h, h]), method)
    # M_i at the corner and after the j step, M_j at the corner and after
    # the i step: one m_matrix call per flow and one exponential for all
    Mi = m_matrix(model, _stack(state, _member(after, 1)), i, z_samples)
    Mj = m_matrix(model, _stack(state, _member(after, 0)), j, z_samples)
    E = matrix_exponential(h * np.array([Mi[0], Mj[0], Mj[1], Mi[1]]))
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
        chunk = _member(traj.stack, slice(lo, lo + _CHUNK))
        Ls = orbit_elements(model, chunk)
        L = lax_matrix(model, PhaseState(orbit_mats=Ls, q=chunk.q, p=chunk.p),
                       points)      # (C, n+Z, m, m)
        casimirs = charpoly(Ls)         # (C, N, m+1)
        res = residue_constraint(model, Ls)     # conserved
        if lo == 0:
            casimirs0, res0 = casimirs[0], res[0]
        rows = slice(lo, lo + len(Ls))
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
    states = traj.states

    ham_drift = np.max(np.abs(obs.H - obs.H[0]), axis=0)
    iso_drift = np.max(np.abs(obs.charpoly - obs.charpoly[0]), initial=0.0)
    closure = _closure(model, states[0])

    zc = 0.0
    if not traj.projection_used:
        # a plaquette at every sample where the walk turns to another axis
        for k in np.flatnonzero(np.diff(traj.axes)) + 1:
            zc = max(zc, plaquette_residual(model, states[k], traj.axes[k - 1], traj.axes[k],
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
