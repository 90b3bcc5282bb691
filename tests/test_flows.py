import collections.abc
import csv
import itertools
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaudinlab import flows, liealg, models
from gaudinlab.errors import ConfigError, NumericalAbort, PoleError, ResonanceError
from gaudinlab.flows import (
    FlowCurve,
    action_along_curve,
    diagnostics,
    evolve,
    plaquette_residual,
    poisson_bracket,
    step,
    write_trajectory_csv,
)
from gaudinlab.models import (
    PhaseState,
    grad_hamiltonian,
    hamiltonian,
    lax_matrix,
    _stack,
    make_gaudin_model,
    model_from_dict,
    orbit_elements,
    random_elliptic_ensemble,
    random_rational_ensemble,
    resonance_margin,
    state_from_dict,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def rng():
    return np.random.default_rng(13)


@pytest.fixture
def rational(rng):
    return random_rational_ensemble(rng, 2, 3, (2, 2))


class TestCurve:
    def test_axis_aligned_ok(self):
        c = FlowCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        assert [axis for axis, _, _ in c.segments()] == [0, 1]

    def test_diagonal_rejected(self):
        with pytest.raises(ConfigError):
            FlowCurve([[0.0, 0.0], [1.0, 1.0]])

    def test_zero_length(self):
        c = FlowCurve([[0.25, -0.5]])
        assert list(c.segments()) == []
        # a curve of zero length is walked in one sample and no step
        times, seg_ids, axes, dts = FlowCurve([[0.25, -0.5], [0.25, -0.5]]).plan(0.1)
        np.testing.assert_array_equal(times, [[0.25, -0.5]])
        assert seg_ids == [0] and len(axes) == len(dts) == 0

    def test_plan(self):
        # the zero-length segment takes no step; 0.0105 / 0.002 rounds to 5
        # steps of -0.0021
        c = FlowCurve([[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, -0.0105]])
        times, seg_ids, axes, dts = c.plan(0.002)
        assert times.shape == (256, 2)
        assert seg_ids == [0] * 251 + [1] * 5
        np.testing.assert_array_equal(axes, [0] * 250 + [1] * 5)
        np.testing.assert_array_equal(dts, [0.5 / 250] * 250 + [-0.0105 / 5] * 5)
        # each time is the one before plus its step, bit for bit, and each
        # segment ends on its waypoint, where the steps add up to t1 =
        # 0.50000000000000033
        t = np.zeros(2)
        for k in range(250):
            np.testing.assert_array_equal(times[k], t)
            t[0] += 0.5 / 250
        assert t[0] != 0.5
        t = np.array([0.5, 0.0])
        for k in range(250, 255):
            np.testing.assert_array_equal(times[k], t)
            t[1] += -0.0105 / 5
        np.testing.assert_array_equal(times[[250, 255]], [[0.5, 0.0], [0.5, -0.0105]])


def orbit_tangent(model, state, i):
    """dL_a/dt^i = [-dH_i/dL_a, L_a] from the gradients and the residues."""
    dH_dL, _, _ = grad_hamiltonian(model, state, i)
    return [L @ D - D @ L for L, D in zip(orbit_elements(model, state), dH_dL)]


class TestVectorField:
    def test_quadratic_closed_form(self, rational):
        model, state = rational
        dLs = orbit_tangent(model, state, 0)
        w = model.ham_points[0]
        Lw = lax_matrix(model, state, w)
        Ls = orbit_elements(model, state)
        for dL, L, pa in zip(dLs, Ls, model.marked_points):
            B = Lw / (pa - w)
            np.testing.assert_allclose(dL, B @ L - L @ B, atol=1e-12)

    def test_commuting_residues_freeze(self):
        # all residues proportional to one matrix: everything commutes
        X = np.array([[0.2, 0.7], [0.4, -0.2]], dtype=complex)
        seeds = [-X, -X, 2.0 * X]   # residues X, X, -2X sum to zero
        model = make_gaudin_model(0, 2, [0.0, 1.0, -1.0], seeds, [2.0], [2])
        state = PhaseState(phis=[np.eye(2, dtype=complex)] * 3, t=np.zeros(1))
        dLs = orbit_tangent(model, state, 0)
        assert max(np.linalg.norm(d) for d in dLs) < 1e-14

    def test_tangent_traceless_and_casimir_flat(self, rational):
        model, state = rational
        dLs = orbit_tangent(model, state, 0)
        Ls = orbit_elements(model, state)
        for dL, L in zip(dLs, Ls):
            assert abs(np.trace(dL)) < 1e-13
            # d/dt Tr(L^2)/2 = Tr(L dL) = 0 exactly for commutator tangents
            assert abs(np.trace(L @ dL)) < 1e-13


class TestStepper:
    def test_bad_step(self, rational):
        model, state = rational
        with pytest.raises(ConfigError):
            step(model, state, 0, 0.0)
        with pytest.raises(ConfigError):
            step(model, state, 0, 0.1, method="verlet")

    @pytest.mark.parametrize("genus", [0, 1])
    def test_negative_step_retraces_a_positive_one(self, rng, genus):
        # step takes a signed h: rk4 forth and back returns to the start
        # within the error of the two steps (their h^5 terms cancel, so the
        # round trip is O(h^6), while one step moves the state by O(h))
        if genus == 0:
            model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        else:
            model, state = random_elliptic_ensemble(rng, 2, 2, (2, 2))

        there = step(model, state, 1, 0.005)
        back = step(model, there, 1, -0.005)
        assert np.max(np.abs(there.phis - state.phis)) > 5e-4
        for x, x0 in ((back.phis, state.phis), (back.q, state.q), (back.p, state.p)):
            if x0 is not None:
                assert np.max(np.abs(x - x0)) < 1e-9
        np.testing.assert_array_equal(back.t, state.t)

    def test_identity_on_uncoupled_variables(self):
        # diagonal residues: the Hamiltonian does not couple to the root
        # sector or to q, so the orbit variables and p freeze while q drifts
        from gaudinlab.models import make_gaudin_model

        X = np.diag([0.4, -0.4]).astype(complex)
        model = make_gaudin_model(1, 2, [0.3 + 0.2j, -0.25 - 0.3j], [-X, X],
                                  [-0.2 + 0.12j], [2], tau=1.1j)
        state = PhaseState(phis=[np.eye(2, dtype=complex)] * 2,
                           q=np.array([0.19 + 0.04j]),
                           p=np.array([0.3 - 0.2j]), t=np.zeros(1))
        new = step(model, state, 0, 0.05)
        for L0, L1 in zip(orbit_elements(model, state), orbit_elements(model, new)):
            assert np.linalg.norm(L1 - L0) < 1e-14
        np.testing.assert_allclose(new.p, state.p, atol=1e-14)
        assert abs(new.q[0] - state.q[0]) > 1e-3   # q does move

    def test_conjugation_preserves_spectrum(self, rational):
        # group points move by exponentials only, so orbit spectra survive
        # 10^4 steps at roundoff level
        model, state = rational
        eig0 = [np.sort_complex(np.linalg.eigvals(L))
                for L in orbit_elements(model, state)]
        cur = state
        for _ in range(10_000):
            cur = step(model, cur, 0, 1e-4, method="conjugation")
        drift = max(np.max(np.abs(np.sort_complex(np.linalg.eigvals(L)) - e0))
                    for L, e0 in zip(orbit_elements(model, cur), eig0))
        assert drift < 1e-12

    @pytest.mark.parametrize("genus", [0, 1])
    def test_conjugation_stack_equals_the_per_site_step(self, rng, genus):
        # one stacked exponential per stage gives the bits of N separate ones
        from gaudinlab.liealg import matrix_exponential
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 4, (2, 3))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3))
        for _ in range(3):
            state = step(model, state, 1, 0.01, method="conjugation")
        h = 0.02
        dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, 0)
        half = PhaseState(
            phis=[matrix_exponential(-(h / 2.0) * D) @ f
                  for D, f in zip(dH_dL, state.phis)],
            q=None if genus == 0 else state.q + (h / 2.0) * dH_dp,
            p=None if genus == 0 else state.p - (h / 2.0) * dH_dq,
            t=state.t)
        dH_dL2, dH_dq2, dH_dp2 = grad_hamiltonian(model, half, 0)
        ref = [matrix_exponential(-h * D) @ f for D, f in zip(dH_dL2, state.phis)]
        new = step(model, state, 0, h, method="conjugation")
        assert isinstance(new.phis, np.ndarray) and new.phis.shape == (model.n_sites, 3, 3)
        assert np.array_equal(new.phis, np.array(ref))
        if genus == 1:
            assert np.array_equal(new.q, state.q + h * dH_dp2)
            assert np.array_equal(new.p, state.p - h * dH_dq2)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_conjugation_step_calls(self, rng, monkeypatch, genus):
        # one explicit-midpoint step: two gradients, two stacked exponentials,
        # and in both genera no kernel weights beyond the model's own
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 4, (2, 3))
        else:
            model, state = random_elliptic_ensemble(rng, 2, 2, (2, 3))
        counts = {}
        for module, name in ((flows, "matrix_exponential"), (flows, "grad_hamiltonian"),
                             (models, "_kernel_weights")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        step(model, state, 1, 0.01, method="conjugation")
        assert counts == {"matrix_exponential": 2, "grad_hamiltonian": 2}

    def test_convergence_orders(self, rational):
        # step-halving study against a fine rk4 reference
        model, state = rational
        T = 0.4

        def final(h, method):
            cur = state
            for _ in range(int(round(T / h))):
                cur = step(model, cur, 0, h, method=method)
            return cur

        ref = final(1e-3, "rk4")

        def gap(h, method):
            s = final(h, method)
            return max(np.linalg.norm(A - B) for A, B in
                       zip(orbit_elements(model, s), orbit_elements(model, ref)))

        for method, lo, hi in (("rk4", 3.4, 4.8), ("conjugation", 1.0, 2.6)):
            g1, g2 = gap(0.04, method), gap(0.02, method)
            order = np.log2(g1 / g2)
            assert lo < order < hi, f"{method}: fitted order {order}"


class TestEvolve:
    def test_zero_length_curve(self, rational):
        model, state = rational
        traj = evolve(model, state, FlowCurve([[0.0, 0.0]]), 0.01)
        assert len(traj.states) == 1
        assert np.linalg.norm(traj.states[0].phis[0] - state.phis[0]) == 0.0
        # the method is checked before the first step, even with none to take
        with pytest.raises(ConfigError):
            evolve(model, state, FlowCurve([[0.0, 0.0]]), 0.01, method="verlet")

    def test_times_are_the_states_multi_times(self, rational):
        model, state = rational
        traj = evolve(model, state, FlowCurve([[0.0, 0.0], [0.05, 0.0], [0.05, -0.03]]),
                      0.01)
        times = traj.times
        assert times.shape == (len(traj.states), model.n_hams)
        np.testing.assert_array_equal(times, np.stack([s.t for s in traj.states]))
        np.testing.assert_array_equal(times[-1], [0.05, -0.03])

    def test_states_are_a_sequence_of_views(self, rational):
        # one stack per trajectory; each sample is a state of views of its row
        model, state = rational
        traj = evolve(model, state, FlowCurve([[0.0, 0.0], [0.05, 0.0], [0.05, -0.03]]),
                      0.01)
        states = traj.states
        assert isinstance(states, collections.abc.Sequence) and len(states) == 9
        for k, s in enumerate(states):
            assert np.shares_memory(s.t, traj.times) and np.shares_memory(s.phis, traj.stack.phis)
            np.testing.assert_array_equal(s.t, traj.times[k])
            np.testing.assert_array_equal(s.phis, traj.stack.phis[k])
        assert k == len(states) - 1
        np.testing.assert_array_equal(states[-1].t, [0.05, -0.03])
        np.testing.assert_array_equal(states[-9].phis, state.phis)
        with pytest.raises(IndexError):
            states[9]
        middle = states[2:5]
        assert len(middle) == 3 and [s.t[0] for s in middle] == list(traj.times[2:5, 0])
        np.testing.assert_array_equal(states[::-1][0].t, traj.times[-1])
        with pytest.raises(TypeError):
            states[0] = state

    def test_states_compare_by_identity(self, rational):
        # a state equals only itself, so a sequence of states can be
        # searched; each item of traj.states is a new state of views
        model, state = rational
        traj = evolve(model, state, FlowCurve([[0.0, 0.0], [0.03, 0.0]]), 0.01)
        states = list(traj.states)
        assert states[1] in states and states.index(states[1]) == 1
        assert states[1] == states[1] and states[1] != states[2]
        assert traj.states[1] not in traj.states and traj.states.count(states[1]) == 0

    def test_every_trajectory_starts_on_its_curve(self, rational):
        # a state without t starts at the curve's first waypoint; a t off it
        # is a ConfigError, taken before any step
        model, state = rational
        curve = FlowCurve([[0.3, 0.0], [0.32, 0.0]])
        free = PhaseState(phis=state.phis)
        traj = evolve(model, free, curve, 0.01)
        np.testing.assert_array_equal(traj.times[[0, -1]], [[0.3, 0.0], [0.32, 0.0]])
        assert free.t is None
        on = PhaseState(phis=state.phis, t=np.array([0.3, 0.0]))
        np.testing.assert_array_equal(evolve(model, on, curve, 0.01).states[-1].phis,
                                      traj.states[-1].phis)
        with pytest.raises(ConfigError, match=r"t = \[0.0, 0.0\] is not the first "
                                              r"waypoint \[0.3, 0.0\] of curve 0"):
            evolve(model, state, curve, 0.01)
        # a trajectory's end state is on its curve's last waypoint, so it
        # continues on a curve from there
        end = evolve(model, state, FlowCurve([[0.0, 0.0], [0.3, 0.0]]), 0.01).states[-1]
        assert end.t[0] == 0.3
        np.testing.assert_array_equal(evolve(model, end, curve, 0.01).states[0].t, [0.3, 0.0])

    def test_lockstep_members_start_on_their_own_curves(self, rational, monkeypatch):
        model, state = rational
        curves = [FlowCurve([[0.0, 0.0], [0.015625, 0.0]]),
                  FlowCurve([[0.0, 0.5], [0.0, 0.515625]])]
        both = evolve(model, PhaseState(phis=state.phis), curves, 0.0078125)
        np.testing.assert_array_equal(both.states[0].t, [[0.0, 0.0], [0.0, 0.5]])
        np.testing.assert_array_equal(both.states[-1].t, [[0.015625, 0.0], [0.0, 0.515625]])
        monkeypatch.setattr(flows, "_gradient", None)   # any step fails
        with pytest.raises(ConfigError, match="of curve 1"):
            evolve(model, state, curves, 0.0078125)

    def test_order_exchange_gap_is_integrator_error(self, rational):
        model, state = rational
        T = 0.4

        def gap(h):
            sAB = evolve(model, state, FlowCurve([[0, 0], [T, 0], [T, T]]), h).states[-1]
            sBA = evolve(model, state, FlowCurve([[0, 0], [0, T], [T, T]]), h).states[-1]
            return max(np.linalg.norm(A - B) for A, B in
                       zip(orbit_elements(model, sAB), orbit_elements(model, sBA)))

        g1, g2 = gap(0.02), gap(0.01)
        assert g2 < 1e-8
        assert 3.0 < np.log2(g1 / g2) < 5.2   # integrator order, not dynamics

    def test_projection_mode(self, rng):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        # knock the state slightly off the constraint surface
        Ls = orbit_elements(model, state)
        Ls[0] = Ls[0] + 1e-3 * np.diag([1.0, -1.0])
        off = PhaseState(orbit_mats=Ls, t=state.t)
        traj = evolve(model, off, FlowCurve([[0.0, 0.0], [0.3, 0.0]]), 0.01,
                      project_residue_sum=True)
        assert traj.projection_used
        final_sum = np.linalg.norm(sum(orbit_elements(model, traj.states[-1])))
        assert final_sum < 1e-14

    def test_projection_rejected_for_genus_one(self, rng):
        model, state = random_elliptic_ensemble(rng, 2, 1, (2, 2))
        with pytest.raises(ConfigError):
            evolve(model, state, FlowCurve([[0.0, 0.0], [0.1, 0.0]]), 0.01,
                   project_residue_sum=True)

    def test_projection_rejected_for_conjugation(self, rng):
        # projection evolves orbit matrices, which the conjugation stepper
        # cannot move; it must not fall back to rk4 silently
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        with pytest.raises(ConfigError, match="rk4"):
            evolve(model, state, FlowCurve([[0.0, 0.0], [0.1, 0.0]]), 0.01,
                   method="conjugation", project_residue_sum=True)

    def test_resonance_abort(self, rng):
        # aim the Cartan coordinate at the lattice: u = 2 q^1 hits zero when
        # the momentum pushes q down
        model, state = random_elliptic_ensemble(rng, 2, 1, (2, 2))
        state = PhaseState(phis=state.phis, q=np.array([0.125 + 0.0j]),
                           p=np.array([-0.6 + 0.0j]), t=state.t)
        with pytest.raises(NumericalAbort, match="resonance") as info:
            evolve(model, state, FlowCurve([[0.0, 0.0], [2.0, 0.0]]), 0.01,
                   resonance_margin_min=0.12)
        end = info.value.last_good_time
        assert 0.0 <= end < 2.0
        # the state at the reported time keeps the margin, and one more step
        # of the flow breaks it
        last = evolve(model, state, FlowCurve([[0.0, 0.0], [end, 0.0]]), 0.01,
                      resonance_margin_min=0.12).states[-1]
        assert resonance_margin(model, last) >= 0.12
        assert resonance_margin(model, step(model, last, 0, 0.01)) < 0.12

    def test_failed_stage_aborts(self):
        # at h = 0.005 an rk4 stage of this sl3 torus run throws rho(Q) so
        # far out that the kernel overflows; the run ends as a
        # NumericalAbort, and no NaN reaches numpy on the way
        model, state = random_elliptic_ensemble(np.random.default_rng(0), 3, 3,
                                                (2, 3), tau=1.1j)
        curve = FlowCurve([[0.0, 0.0], [0.06, 0.0], [0.06, 0.06]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalAbort) as info:
                evolve(model, state, curve, 0.005)
        assert 0.0 <= info.value.last_good_time < 0.12
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("k, h, reason, last_good", [
        (0, 0.005, "step failed: kernel: a sigma quotient overflows (largest |u| = 47.7)", 0.075),
        (8, 0.005, "step failed: kernel: u = (7.157", 0.115),
        (8, 0.01, "rho(Q) approached a lattice point (root resonance)", 0.11),
    ])
    def test_abort_kinds(self, k, h, reason, last_good):
        # three ends of coarse sl3 torus runs: a stage whose kernel
        # overflows; a stage whose root value u is on the lattice, within
        # POLE_TOL, while every value is still finite; and a step whose
        # result fails the guard.  Each has the same reason and time alone
        # and as lockstep member 1 beside a curve that does not fail
        model, state = random_elliptic_ensemble(np.random.default_rng(k), 3, 3, (2, 3),
                                                tau=1.1j)
        curve = FlowCurve([[0.0, 0.0], [0.06, 0.0], [0.06, 0.06]])
        safe = FlowCurve([[0.0, 0.0], [0.02, 0.0]])
        for curves, member in ((curve, None), ([safe, curve], 1)):
            with pytest.raises(NumericalAbort) as info:
                evolve(model, state, curves, h)
            assert info.value.reason.startswith(reason)
            assert info.value.last_good_time == pytest.approx(last_good, abs=1e-12)
            assert info.value.member == member

    @pytest.mark.parametrize("genus", [0, 1])
    @pytest.mark.parametrize("method", ["rk4", "conjugation"])
    def test_singular_group_point_aborts(self, rng, genus, method):
        # evolve's stages invert the group points with no singularity
        # check: the NaNs of a singular one reach the guard, and the
        # checked retake of the step names the cause, with no warning
        if genus == 0:
            model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        else:
            model, state = random_elliptic_ensemble(rng, 2, 2, (2, 2))
        phis = state.phis.copy()
        phis[1] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(NumericalAbort, match="^step failed: Singular matrix$") as info:
            evolve(model, PhaseState(phis=phis, q=state.q, p=state.p),
                   FlowCurve([[0.0, 0.0], [0.05, 0.0]]), 0.01, method=method)
        assert info.value.last_good_time == 0.0

    @pytest.mark.parametrize("error", [
        PoleError("stage at a pole"),
        ResonanceError("stage at a resonance"),
        np.linalg.LinAlgError("Singular matrix"),
        ValueError("matrix_exponential: non-finite entries"),
    ])
    def test_stage_errors_abort(self, rational, monkeypatch, error):
        # the error comes from the partials that the unchecked stages and
        # the checked retake of the failing step share, so both raise it
        model, state = rational
        calls = []
        gradient = models._gradient

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) > 3:   # the second step fails
                raise error
            return gradient(*args, **kwargs)

        for owner in (models, flows):
            monkeypatch.setattr(owner, "_gradient", failing)
        with pytest.raises(NumericalAbort) as info:
            evolve(model, state, FlowCurve([[0.0, 0.0], [0.1, 0.0]]), 0.01,
                   method="conjugation")
        assert info.value.last_good_time == pytest.approx(0.01)
        assert str(error) in info.value.reason

    def test_config_error_in_a_stage_is_not_an_abort(self, rational):
        model, state = rational
        with pytest.raises(ConfigError):
            evolve(model, state, FlowCurve([[0.0, 0.0], [0.1, 0.0]]), 0.01,
                   method="verlet")

    @pytest.mark.parametrize("genus", [0, 1])
    @pytest.mark.parametrize("method", ["rk4", "conjugation"])
    def test_steps_and_plaquettes_read_no_charge(self, rng, monkeypatch, genus, method):
        # the trajectory and the zero-curvature residual come from the
        # gradients and the exponential alone: with the power sums, the
        # char polys and the charges raising, a single and a lockstep
        # evolve and a plaquette still complete
        def fail(*args, **kwargs):
            raise AssertionError("a step or a plaquette read a power sum")
        for owner, name in ((liealg, "_power_sums"), (liealg, "charpoly"),
                            (flows, "charpoly"), (liealg.InvariantPolynomial, "evaluate")):
            monkeypatch.setattr(owner, name, fail)
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3))
            zs = [2.2 + 1.4j, -1.9 + 0.7j]
        else:
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3), tau=1.1j)
            zs = [0.05 + 0.44j, -0.33 + 0.21j]
        single = evolve(model, state, lockstep_curves(0.01)[0], 0.005, method=method)
        both = evolve(model, state, lockstep_curves(0.01)[:2], 0.005, method=method)
        assert np.isfinite(single.states[-1].mats).all() and np.isfinite(both.states[-1].mats).all()
        assert np.isfinite(plaquette_residual(model, single.states[-1], 0, 1, 0.005, zs, method))


def assert_evolve_equals_checked_steps(model, state, curves, h, method):
    """evolve's unchecked stages give, byte for byte (signed zeros count),
    the samples of one checked `step` per plan step from the same start,
    and no step is retaken; in lockstep the curves must have the same step
    counts."""
    lockstep = not isinstance(curves, FlowCurve)
    retaken = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "step", lambda *args: retaken.append(args) or step(*args))
        traj = evolve(model, state, curves, h, method=method)
    assert not retaken
    plans = [c.plan(h) for c in (curves if lockstep else [curves])]
    axes, dts = (np.stack([p[k] for p in plans], axis=1) if lockstep else plans[0][k]
                 for k in (2, 3))
    cur = _stack(*[state] * len(plans)) if lockstep else state
    assert len(traj.states) == len(axes) + 1
    for k, (ax, dt) in enumerate(zip(axes, dts)):
        cur = step(model, cur, ax if lockstep else int(ax), dt if lockstep else float(dt), method)
        got = traj.states[k + 1]
        for key in ("mats", "q", "p"):
            want = getattr(cur, key)
            assert (want is None and getattr(got, key) is None) or \
                getattr(got, key).tobytes() == want.tobytes(), (k, key)
    return traj


class TestUncheckedRoute:
    @pytest.mark.parametrize("genus", [0, 1])
    @pytest.mark.parametrize("method", ["rk4", "conjugation"])
    def test_evolve_equals_checked_steps(self, rng, genus, method):
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3))
        curve = FlowCurve([[0.0, 0.0], [0.04, 0.0], [0.04, -0.03]])
        assert_evolve_equals_checked_steps(model, state, curve, 0.01, method)

    @pytest.mark.parametrize("genus, method", [(0, "conjugation"), (1, "rk4")])
    def test_lockstep_equals_checked_steps(self, rng, genus, method):
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3))
        curves = lockstep_curves(0.03)[:2]
        traj = assert_evolve_equals_checked_steps(model, state, curves, 0.01, method)
        assert traj.lockstep and (traj.axes[:3] == [[0, 1]] * 3).all()

    def test_nilpotent_config_equals_checked_steps(self):
        # exact zeros in the seeds, the start and the partials: their signs
        # must come out as the checked route gives them
        cfg = json.loads((CONFIG_DIR / "rational_sl3_nilpotent.json").read_text())
        model = model_from_dict(cfg["model"])
        state = state_from_dict(cfg["initial_state"], model)
        traj = assert_evolve_equals_checked_steps(model, state, FlowCurve(cfg["curve"]),
                                                  cfg["step"], cfg["method"])
        assert (traj.stack.phis == 0).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_partials_are_retaken_checked(self, rational, monkeypatch):
        # NaN partials in the second step's last stage (returned, not
        # raised): the exponential of the raw stage raises on them, warning-
        # free, and the step is retaken through `step`, which names the cause
        model, state = rational
        calls, retakes = [], []
        gradient, checked_step = models._gradient, flows.step

        def nan_partials(*args, **kwargs):
            calls.append(1)
            dH_dL, dH_dq, dH_dp = gradient(*args, **kwargs)
            return (dH_dL * np.nan if len(calls) > 3 else dH_dL), dH_dq, dH_dp

        def counted_step(*args):
            retakes.append(1)
            return checked_step(*args)

        for owner in (models, flows):
            monkeypatch.setattr(owner, "_gradient", nan_partials)
        monkeypatch.setattr(flows, "step", counted_step)
        with pytest.raises(NumericalAbort) as info:
            evolve(model, state, FlowCurve([[0.0, 0.0], [0.1, 0.0]]), 0.01,
                   method="conjugation")
        assert info.value.reason == "step failed: matrix_exponential: non-finite entries"
        assert info.value.last_good_time == pytest.approx(0.01)
        assert retakes == [1]

    @pytest.mark.parametrize("lockstep", [False, True])
    def test_overflowing_root_values_abort(self, rng, lockstep):
        # a finite q whose rho(Q) overflows: the guard's reason, at the
        # start, with no RuntimeWarning, naming the member in lockstep
        model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3))
        state = PhaseState(phis=state.phis, q=np.array([1.5e308, -1.5e308]), p=state.p)
        curve = FlowCurve([[0.0, 0.0], [0.02, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort) as info:
                evolve(model, state, [curve, curve] if lockstep else curve, 0.01)
        assert info.value.reason == "rho(Q) left the finite regime"
        assert info.value.last_good_time == 0.0
        assert info.value.member == (0 if lockstep else None)

    @pytest.mark.parametrize("method", ["rk4", "conjugation"])
    def test_public_linalg_stands_in_for_the_gufuncs(self, rng, monkeypatch, method):
        # without numpy's private gufuncs the public inverse and solve run
        # the stages: the same bits, and a singular group point raises in
        # the unchecked stage, so the checked retake names it
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        curve = FlowCurve([[0.0, 0.0], [0.05, 0.0]])
        fast = evolve(model, state, curve, 0.01, method=method)
        monkeypatch.setattr(flows, "_inv", np.linalg.inv)
        monkeypatch.setattr(liealg, "_solve", np.linalg.solve)
        slow = assert_evolve_equals_checked_steps(model, state, curve, 0.01, method)
        assert slow.stack.phis.tobytes() == fast.stack.phis.tobytes()
        phis = state.phis.copy()
        phis[1] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(NumericalAbort, match="^step failed: Singular matrix$"):
            evolve(model, PhaseState(phis=phis, q=state.q, p=state.p), curve, 0.01,
                   method=method)


def lockstep_curves(T):
    """The two orderings of an L-shaped curve, and the second ordering with
    its first leg reversed: the same segment lengths throughout."""
    return [FlowCurve([[0.0, 0.0], [T, 0.0], [T, T]]),
            FlowCurve([[0.0, 0.0], [0.0, T], [T, T]]),
            FlowCurve([[0.0, 0.0], [0.0, -T], [T, -T]])]


def assert_members_equal_single_calls(model, state, curves, h, method="rk4"):
    """Each member of the lockstep evolve of curves at h (one step or one
    per curve) equals its single call bit for bit, and a member that ran
    out of steps holds its end state to the last sample."""
    both = evolve(model, state, curves, h, method=method)
    hs = np.broadcast_to(h, len(curves))
    assert both.lockstep and both.states[-1].mats.shape[0] == len(curves)
    for b, curve in enumerate(curves):
        alone = evolve(model, state, curve, hs[b], method=method)
        member = both.member(b)
        assert member.h == alone.h
        assert member.segment_ids == alone.segment_ids
        assert len(member.states) == len(alone.states)
        np.testing.assert_array_equal(member.times, alone.times)
        np.testing.assert_array_equal(member.axes, alone.axes)
        for s, ref in zip(member.states, alone.states):
            for key in ("phis", "q", "p", "t"):
                got, want = getattr(s, key), getattr(ref, key)
                assert (got is None and want is None) or np.array_equal(got, want)
        K = len(alone.states)
        assert (both.axes[K - 1:, b] == -1).all()
        for s in both.states[K:]:
            for key in ("phis", "q", "p", "t"):
                got, want = getattr(s, key), getattr(alone.states[-1], key)
                assert (got is None and want is None) or np.array_equal(got[b], want)
        assert action_along_curve(model, member) == action_along_curve(model, alone)
        zs = (0.11 + 0.31j,) if model.genus else (3.0 + 2.0j,)
        got, want = flows._observables(model, member, zs), flows._observables(model, alone, zs)
        for key, value in vars(want).items():
            assert np.array_equal(getattr(got, key), value), key


class TestLockstep:
    @pytest.mark.parametrize("genus, method, degrees", [
        (0, "rk4", (2, 2)), (0, "conjugation", (2, 3)), (1, "rk4", (2, 3))])
    def test_members_equal_single_calls(self, rng, genus, method, degrees):
        # genus 1 at sl3: each dH/dq sums six root terms
        if genus == 0:
            model, state = random_rational_ensemble(rng, 2, 3, degrees)
        else:
            model, state = random_elliptic_ensemble(rng, 3, 2, degrees, tau=1.1j)
        # the second pair's legs are 0.02 and 0.01999999999999999 long, the
        # same step count at h = 0.005; a state without t starts on each
        state = PhaseState(phis=state.phis, q=state.q, p=state.p)
        for curves in (lockstep_curves(0.02),
                       [FlowCurve([[0, 0], [0.02, 0]]), FlowCurve([[0, 0.1], [0, 0.12]])]):
            assert_members_equal_single_calls(model, state, curves, 0.005, method)
        # a step-size ladder of both orderings: 4, 8 and 16 steps per member
        ladder = (0.01, 0.005, 0.0025)
        assert_members_equal_single_calls(model, state, lockstep_curves(0.02)[:2] * 3,
                                          np.repeat(ladder, 2), method)

    @pytest.mark.parametrize("waypoints", [
        [[0.0, 0.0], [0.02, 0.0]],
        [[0.0, 0.0], [0.0, 0.01], [0.01, 0.01]]])
    def test_different_step_counts_equal_single_calls(self, rational, waypoints):
        # 2 steps against 4, and 1 segment against 2, at one h
        model, state = rational
        assert_members_equal_single_calls(
            model, state, [FlowCurve([[0.0, 0.0], [0.01, 0.0]]), FlowCurve(waypoints)], 0.005)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -0.01, [0.01, np.nan], [0.01, -0.01],
                                   [0.01, 0.01, 0.01]])
    def test_every_step_must_be_finite_and_positive(self, rational, monkeypatch, h):
        # checked before any plan is built, for one curve and for each member
        model, state = rational
        monkeypatch.setattr(FlowCurve, "plan", None)
        curve = FlowCurve([[0.0, 0.0], [0.02, 0.0]])
        with pytest.raises(ConfigError, match="step size"):
            evolve(model, state, [curve, curve], h)
        if np.ndim(h) == 0:
            with pytest.raises(ConfigError, match="step size"):
                evolve(model, state, curve, h)

    def test_an_abort_in_one_member_aborts_the_call(self, rng):
        # the state of test_resonance_abort: the flow of H_1 drives rho(Q)
        # onto the lattice, and its reverse keeps it away
        model, state = random_elliptic_ensemble(rng, 2, 1, (2, 2))
        state = PhaseState(phis=state.phis, q=np.array([0.125 + 0.0j]),
                           p=np.array([-0.6 + 0.0j]), t=state.t)
        curves = [FlowCurve([[0.0, 0.0], [-2.0, 0.0]]), FlowCurve([[0.0, 0.0], [2.0, 0.0]])]
        evolve(model, state, curves[0], 0.01, resonance_margin_min=0.12)
        with pytest.raises(NumericalAbort) as info:
            evolve(model, state, curves, 0.01, resonance_margin_min=0.12)
        assert 0.0 <= info.value.last_good_time < 2.0

    @pytest.mark.parametrize("aborting, safe", [
        # 100 steps that abort after 53, beside 500 safe ones
        ((2.0, 0.02), (-2.0, 0.004)),
        # 200 steps that abort after 66, when the 20 safe ones are done
        ((2.0, 0.01), (-0.2, 0.01))], ids=["short", "long"])
    def test_an_abort_reports_as_its_single_call(self, rng, aborting, safe):
        # the aborting member is curve 0, so the call reports its arc length
        model, state = random_elliptic_ensemble(rng, 2, 1, (2, 2))
        state = PhaseState(phis=state.phis, q=np.array([0.125 + 0.0j]),
                           p=np.array([-0.6 + 0.0j]), t=state.t)
        curves = [FlowCurve([[0.0, 0.0], [T, 0.0]]) for T, _ in (aborting, safe)]
        evolve(model, state, curves[1], safe[1], resonance_margin_min=0.12)
        with pytest.raises(NumericalAbort) as alone:
            evolve(model, state, curves[0], aborting[1], resonance_margin_min=0.12)
        with pytest.raises(NumericalAbort) as both:
            evolve(model, state, curves, [aborting[1], safe[1]], resonance_margin_min=0.12)
        assert both.value.last_good_time == alone.value.last_good_time
        assert both.value.reason == alone.value.reason

    @pytest.mark.parametrize("failure", ["guard", "step"])
    def test_an_abort_names_its_member(self, rng, failure):
        # the aborting member is curve 1, and curve 0 has walked another
        # length by then: it finished at 0.2 before curve 1's guard fails
        # at 0.66, or it steps at half curve 1's step when curve 1's kernel
        # overflows.  The call reports curve 1's own abort
        if failure == "guard":
            model, state = random_elliptic_ensemble(rng, 2, 1, (2, 2))
            state = PhaseState(phis=state.phis, q=np.array([0.125 + 0.0j]),
                               p=np.array([-0.6 + 0.0j]), t=state.t)
            curves = [FlowCurve([[0.0, 0.0], [-0.2, 0.0]]), FlowCurve([[0.0, 0.0], [2.0, 0.0]])]
            h, margin = [0.01, 0.01], 0.12
        else:
            model, state = random_elliptic_ensemble(np.random.default_rng(0), 3, 3, (2, 3))
            curves = [FlowCurve([[0.0, 0.0], [-0.1, 0.0]]),
                      FlowCurve([[0.0, 0.0], [0.06, 0.0], [0.06, 0.06]])]
            h, margin = [0.0025, 0.005], 1e-3
        evolve(model, state, curves[0], h[0], resonance_margin_min=margin)
        with pytest.raises(NumericalAbort) as alone:
            evolve(model, state, curves[1], h[1], resonance_margin_min=margin)
        with pytest.raises(NumericalAbort) as both:
            evolve(model, state, curves, h, resonance_margin_min=margin)
        assert alone.value.member is None and both.value.member == 1
        assert both.value.last_good_time == alone.value.last_good_time
        assert both.value.reason == alone.value.reason
        assert both.value.reason.startswith("step failed") == (failure == "step")
        if failure == "guard":
            assert alone.value.last_good_time == pytest.approx(0.66)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_members_are_views_of_the_stack(self, rng, genus):
        # member(b) slices the lockstep stack: no sample is copied
        if genus == 0:
            model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3), tau=1.1j)
        state = PhaseState(phis=state.phis, q=state.q, p=state.p)
        both = evolve(model, state, lockstep_curves(0.01), [0.005, 0.0025, 0.005])
        for b in range(3):
            member = both.member(b)
            for key, value in vars(member.stack).items():
                assert (value is None) == (getattr(both.stack, key) is None)
                assert value is None or np.shares_memory(value, getattr(both.stack, key)), key
            assert np.shares_memory(member.axes, both.axes)

    def test_members_are_read_one_at_a_time(self, rational, tmp_path):
        model, state = rational
        both = evolve(model, state, lockstep_curves(0.01), 0.005)
        for read in (lambda: diagnostics(model, both, []),
                     lambda: action_along_curve(model, both),
                     lambda: write_trajectory_csv(tmp_path / "both.csv", model, both, [])):
            with pytest.raises(ConfigError, match="one member at a time"):
                read()
        assert not (tmp_path / "both.csv").exists()
        alone = evolve(model, state, lockstep_curves(0.01)[0], 0.005)
        assert not alone.lockstep
        with pytest.raises(ConfigError):
            alone.member(0)


def reference_action(model, traj):
    """The trapezoidal action with every charge from a per-state call, in the
    accumulation order of action_along_curve."""
    total = 0j
    for k in range(len(traj.states) - 1):
        s0, s1 = traj.states[k], traj.states[k + 1]
        inv0, inv1 = np.linalg.inv(s0.phis), np.linalg.inv(s1.phis)
        dt = s1.t - s0.t
        for a, seed in enumerate(model.orbit_seeds):
            total += np.trace(seed @ (0.5 * (inv0[a] + inv1[a])) @ (s1.phis[a] - s0.phis[a]))
        if model.genus == 1:
            total += 0.5 * np.sum((s0.p + s1.p) * (s1.q - s0.q))
        for i in np.nonzero(dt)[0]:
            total -= 0.5 * (hamiltonian(model, s0, i) + hamiltonian(model, s1, i)) * dt[i]
    return complex(total)


ACTION_CURVES = {
    # (curve, h, steps): three flows with a leg back along flow 0, then
    # single legs whose read samples fill _CHUNK-row stacks exactly, or
    # leave one sample over
    "staircase": (FlowCurve([[0.0, 0.0, 0.0], [0.03, 0.0, 0.0], [0.03, 0.03, 0.0],
                             [0.03, 0.03, 0.03], [0.0, 0.03, 0.03]]), 0.01, 12),
    **{f"{n}_steps": (FlowCurve([[0.0, 0.0, 0.0], [0.0, n * 1e-3, 0.0]]), 1e-3, n)
       for n in (127, 128, 129, 256, 257)},
}


class TestAction:
    @pytest.mark.parametrize("curve", list(ACTION_CURVES))
    @pytest.mark.parametrize("genus, method", [(1, "rk4"), (0, "rk4"), (0, "conjugation")])
    def test_equals_per_state_charges(self, rng, monkeypatch, genus, method, curve):
        # H_i comes only from the samples that the trapezoid reads, chunk by
        # chunk, never from the observables table, and the action keeps
        # the bits of per-state hamiltonian calls summed step by step
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3, 2))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3, 2), max_gradient=1e3)
        curve, h, steps = ACTION_CURVES[curve]
        traj = evolve(model, state, curve, h, method=method)
        assert len(traj.axes) == steps

        def no_table(*args):
            raise AssertionError("the action read the observables table")

        monkeypatch.setattr(flows, "_observables", no_table)
        assert action_along_curve(model, traj) == reference_action(model, traj)

    @pytest.mark.parametrize("curve", ["staircase", "257_steps"])
    @pytest.mark.parametrize("genus", [0, 1])
    def test_one_inverse_per_trajectory(self, rng, monkeypatch, genus, curve):
        # the group terms and the residues of every charge chunk share one
        # inverse of the trajectory's group points
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3, 2))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3, 2), max_gradient=1e3)
        curve, h, _ = ACTION_CURVES[curve]
        traj = evolve(model, state, curve, h)
        inverted = []
        original = np.linalg.inv

        def counted(a):
            inverted.append(a.shape)
            return original(a)

        residues = []
        real_residues = models.orbit_elements

        def shared(model, state, inv=None):
            residues.append(inv is not None)
            return real_residues(model, state, inv)

        monkeypatch.setattr(np.linalg, "inv", counted)
        monkeypatch.setattr(models, "orbit_elements", shared)
        action_along_curve(model, traj)
        assert inverted == [traj.stack.phis.shape]
        # the charges' residue passes go through orbit_elements, each
        # given a slice of that inverse
        assert residues and all(residues)

    def test_stationary_zero(self, rational):
        model, state = rational
        traj = evolve(model, state, FlowCurve([[0.0, 0.0]]), 0.01)
        assert action_along_curve(model, traj) == 0.0

    def test_frozen_critical_configuration(self):
        # N = 1 forces L = 0: every Hamiltonian vanishes and nothing moves,
        # so the action of a pure time translation is exactly 0
        model = make_gaudin_model(0, 2, [0.0], [np.zeros((2, 2))], [2.0], [2])
        state = PhaseState(phis=[np.eye(2, dtype=complex)], t=np.zeros(1))
        traj = evolve(model, state, FlowCurve([[0.0], [1.0]]), 0.05)
        assert abs(action_along_curve(model, traj)) < 1e-15

    def test_path_independence_second_order(self, rational):
        model, state = rational
        T = 0.5

        def gap(h):
            a = action_along_curve(model, evolve(
                model, state, FlowCurve([[0, 0], [T, 0], [T, T]]), h,
                method="conjugation"))
            b = action_along_curve(model, evolve(
                model, state, FlowCurve([[0, 0], [0, T], [T, T]]), h,
                method="conjugation"))
            return abs(a - b)

        g1, g2 = gap(0.02), gap(0.01)
        assert np.log2(g1 / g2) > 1.5   # at least the quadrature order


class TestBracket:
    def test_antisymmetry_diagonal(self, rational):
        model, state = rational
        assert poisson_bracket(model, state, 0, 0) == 0.0
        b01 = poisson_bracket(model, state, 0, 1)
        b10 = poisson_bracket(model, state, 1, 0)
        assert abs(b01 + b10) < 1e-14 * max(1.0, abs(b01))

    def test_involutivity_random_states(self, rng):
        for _ in range(20):
            model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
            scale = max(abs(hamiltonian(model, state, 0)),
                        abs(hamiltonian(model, state, 1)), 1.0)
            assert abs(poisson_bracket(model, state, 0, 1)) < 1e-10 * scale

    @pytest.mark.parametrize("genus", [0, 1])
    def test_closure_is_every_pairwise_bracket(self, rng, genus):
        # one stacked gradient call serves every pair bit for bit, at
        # states off the identity and with charges of two degrees
        for _ in range(3):
            if genus == 0:
                model, state = random_rational_ensemble(rng, 3, 3, (2, 3, 2))
            else:
                model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3, 2), max_gradient=1e3)
            state = evolve(model, state, FlowCurve([[0.0] * 3, [0.02, 0.0, 0.0]]),
                           0.01).states[-1]
            closure = flows._closure(model, state)
            np.testing.assert_array_equal(np.diag(closure), 0.0)
            for i, j in itertools.combinations(range(model.n_hams), 2):
                assert closure[i, j] == closure[j, i] == abs(poisson_bracket(model, state, i, j))
            for i, partials in enumerate(models._charge_partials(model, state)):
                for stacked, alone in zip(partials, grad_hamiltonian(model, state, i)):
                    np.testing.assert_array_equal(stacked, alone)

    def test_bracket_matches_flow_derivative(self, rational):
        # {H_i, H_j} = d/dt H_j along the flow of H_i
        model, state = rational
        dt = 1e-3

        def Hj_at(ts):
            if ts == 0.0:
                return hamiltonian(model, state, 1)
            traj = evolve(model, state, FlowCurve([[0.0, 0.0], [ts, 0.0]]),
                          abs(ts) / 2)
            return hamiltonian(model, traj.states[-1], 1)

        fd = (8 * (Hj_at(dt) - Hj_at(-dt)) - (Hj_at(2 * dt) - Hj_at(-2 * dt))) / (12 * dt)
        br = poisson_bracket(model, state, 0, 1)
        assert abs(fd - br) < 1e-6

    def test_leibniz_on_products(self, rational):
        # d/dt (H_j H_k) along flow_i = H_j {H_i, H_k} + H_k {H_i, H_j}
        model, state = rational
        dt = 1e-3

        def prod_at(ts):
            if ts == 0.0:
                st = state
            else:
                st = evolve(model, state, FlowCurve([[0.0, 0.0], [ts, 0.0]]),
                            abs(ts) / 2).states[-1]
            return hamiltonian(model, st, 0) * hamiltonian(model, st, 1)

        fd = (8 * (prod_at(dt) - prod_at(-dt))
              - (prod_at(2 * dt) - prod_at(-2 * dt))) / (12 * dt)
        H0 = hamiltonian(model, state, 0)
        H1 = hamiltonian(model, state, 1)
        rhs = H0 * poisson_bracket(model, state, 0, 1) \
            + H1 * poisson_bracket(model, state, 0, 0)
        assert abs(fd - rhs) < 1e-6 * max(1.0, abs(H0 * H1))


class TestDiagnostics:
    def test_single_site_all_flat(self):
        model = make_gaudin_model(0, 2, [0.0], [np.zeros((2, 2))], [2.0], [2])
        state = PhaseState(phis=[np.eye(2, dtype=complex)], t=np.zeros(1))
        traj = evolve(model, state, FlowCurve([[0.0], [0.5]]), 0.05)
        rep = diagnostics(model, traj, [2.0 + 1.0j])
        assert np.max(rep.hamiltonian_drift) == 0.0
        assert np.max(rep.casimir_drift) == 0.0
        assert rep.residue_sum_drift == 0.0
        assert rep.isospectral_drift == 0.0

    def test_standard_run(self, rational):
        model, state = rational
        curve = FlowCurve([[0.0, 0.0], [0.4, 0.0], [0.4, 0.4]])
        traj = evolve(model, state, curve, 2e-3)
        rep = diagnostics(model, traj, [2.2 + 1.4j, -1.9 + 0.7j])
        assert np.max(rep.hamiltonian_drift) < 1e-8
        assert np.max(rep.casimir_drift) < 1e-12
        assert rep.residue_sum_drift < 1e-8
        assert rep.isospectral_drift < 1e-8
        assert np.max(rep.closure_values) < 1e-9
        assert rep.zero_curvature_residual < 1e-2
        d = rep.to_dict()
        assert set(d) >= {"hamiltonian_drift", "casimir_drift",
                          "residue_sum_drift", "isospectral_drift",
                          "closure_values", "zero_curvature_residual"}

    @pytest.mark.parametrize("m", [2, 3])
    def test_nilpotent_orbits_keep_their_casimirs(self, m):
        # seeds J and J^T (nilpotent Jordan blocks) and -(J + J^T), so that
        # sum L_a = 0 at phi = I.  The conjugation stepper keeps each orbit,
        # and the coefficients of det(x - L_a) are polynomials in its
        # entries, so they drift at roundoff; the eigenvalues of a Jordan
        # block perturbed by eps move by eps^(1/m), which read as a drift of
        # 1e-8 at sl2 and 1e-5 at sl3 when the Casimirs came from eigvals
        J = np.eye(m, k=1, dtype=complex)
        model = make_gaudin_model(0, m, [-1.0, 0.5 + 0.5j, 1.0 - 0.3j],
                                  [J, J.T, -(J + J.T)], [2.0 + 1.0j, -2.0 + 0.8j], [2, m])
        state = PhaseState(phis=[np.eye(m, dtype=complex)] * 3, t=np.zeros(2))
        curve = FlowCurve([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]])
        traj = evolve(model, state, curve, 0.005, method="conjugation")
        moved = orbit_elements(model, traj.states[-1]) - orbit_elements(model, state)
        assert np.min(np.linalg.norm(moved, axis=(-2, -1))) > 1e-2
        rep = diagnostics(model, traj, [3.0 + 2.0j])
        assert np.all(rep.casimir_drift <= 1e-13), rep.casimir_drift

    def test_plaquette_residual_refines(self, rational):
        model, state = rational
        zs = [2.2 + 1.4j, -1.9 + 0.7j]
        r1 = plaquette_residual(model, state, 0, 1, 0.02, zs)
        r2 = plaquette_residual(model, state, 0, 1, 0.01, zs)
        assert r2 < r1

    @pytest.mark.parametrize("genus", [0, 1])
    def test_lockstep_passes_keep_the_bits(self, rng, genus):
        # the closure matrix takes every gradient from one call over stacked
        # copies of the first state, and a plaquette steps both corners in
        # lockstep and forms M_i and M_j over stacked corners: both equal
        # the per-state route bit for bit
        from gaudinlab.liealg import matrix_exponential
        from gaudinlab.models import m_matrix
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3, 2))
            zs, h = [2.2 + 1.4j, -1.9 + 0.7j], 0.01
        else:
            model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3))
            zs, h = [0.11 + 0.31j, -0.33 + 0.17j], 0.002
        rep = diagnostics(model, evolve(model, state, FlowCurve([[0.0] * model.n_hams]), h), zs)
        for i, j in itertools.combinations(range(model.n_hams), 2):
            bracket = abs(poisson_bracket(model, state, i, j))
            assert rep.closure_values[i, j] == rep.closure_values[j, i] == bracket
        for i, j in ((0, 1), (1, 0)):
            after_i, after_j = step(model, state, i, h), step(model, state, j, h)
            E = matrix_exponential(h * np.array([
                m_matrix(model, s, k, zs)
                for s, k in ((state, i), (state, j), (after_i, j), (after_j, i))]))
            worst = 0.0
            for gap in E[2] @ E[0] - E[3] @ E[1]:
                if genus == 1:
                    gap = gap - np.diag(np.diag(gap))
                worst = max(worst, np.linalg.norm(gap) / h ** 2)
            assert plaquette_residual(model, state, i, j, h, zs) == worst

    def test_elliptic_plaquette_extrapolates_to_zero(self, rng):
        # after projecting out the residual diagonal gauge direction, the
        # torus plaquette defect is pure O(h): the extrapolated curvature
        # vanishes
        model, state = random_elliptic_ensemble(rng, 2, 2, (2, 2))
        zs = [0.05 + 0.44j, -0.33 + 0.21j]
        r1 = plaquette_residual(model, state, 0, 1, 0.004, zs)
        r2 = plaquette_residual(model, state, 0, 1, 0.002, zs)
        assert abs(2 * r2 - r1) < 2e-2 * max(r1, 1.0)


class TestObservables:
    """The CSV and the diagnostics are two views of one per-state table."""

    @pytest.mark.parametrize("kind", ["genus0", "genus1", "projected"])
    def test_csv_and_diagnostics_agree(self, rng, tmp_path, monkeypatch, kind):
        if kind == "genus1":
            model, state = random_elliptic_ensemble(rng, 2, 2, (2, 2))
            zs = [0.05 + 0.44j, -0.33 + 0.21j]
            curve, h = FlowCurve([[0.0, 0.0], [0.02, 0.0], [0.02, 0.02]]), 0.004
        else:
            model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
            zs = [2.2 + 1.4j, -1.9 + 0.7j]
            curve, h = FlowCurve([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]]), 0.01
        traj = evolve(model, state, curve, h,
                      project_residue_sum=(kind == "projected"))

        # the table is built in chunks of states: one residue pass and one
        # lax_matrix call per chunk, and no per-state H, L(z) or residue call
        counts = {"hamiltonian": 0, "orbit_elements": 0, "lax_matrix": 0,
                  "kernel_z_side": 0}
        for name in counts:
            module = models if name == "kernel_z_side" else flows
            def counted(*args, _fn=getattr(module, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, model, traj, zs, seed=1)
        # genus 1: one kernel table (one z side) per chunk, over every state
        # at the n Hamiltonian points and the z samples
        K, n = len(traj.states), model.n_hams
        chunks = -(-K // flows._CHUNK)
        assert counts == {"hamiltonian": 0, "orbit_elements": chunks, "lax_matrix": chunks,
                          "kernel_z_side": chunks if kind == "genus1" else 0}
        # the diagnostics read the table; their closure matrix adds one
        # residue pass and their plaquettes no call counted here
        counts.update(dict.fromkeys(counts, 0))
        rep = diagnostics(model, traj, zs)
        del counts["kernel_z_side"]
        assert counts == {"hamiltonian": 0, "orbit_elements": 1, "lax_matrix": 0}

        with open(path) as fh:
            assert fh.readline() == "# seed=1\n"
            rows = list(csv.DictReader(fh))
        assert len(rows) == K

        def col(name):
            return np.array([float(r[name]) for r in rows])

        H = np.stack([col(f"H{i + 1}_re") + 1j * col(f"H{i + 1}_im")
                      for i in range(n)], axis=1)
        np.testing.assert_array_equal(np.max(np.abs(H - H[0]), axis=0),
                                      rep.hamiltonian_drift)
        assert np.max(col("casimir_drift")) == np.max(rep.casimir_drift)
        # |norm_k - norm_0| <= |res_k - res_0| <= norm_k + norm_0
        norm = col("residue_sum_norm")
        assert np.max(np.abs(norm - norm[0])) <= rep.residue_sum_drift + 1e-15
        assert rep.residue_sum_drift <= np.max(norm) + norm[0]
        coeffs = np.stack([col(f"z{k}_c{c}_re") + 1j * col(f"z{k}_c{c}_im")
                           for k in range(len(zs)) for c in range(model.m + 1)],
                          axis=1)
        assert np.max(np.abs(coeffs - coeffs[0])) == rep.isospectral_drift

    @pytest.mark.parametrize("kind", ["genus0", "genus1", "projected"])
    def test_table_matches_a_per_state_reference(self, rng, monkeypatch, kind):
        # K = 26 states in chunks of 7: three full chunks and a short one
        monkeypatch.setattr(flows, "_CHUNK", 7)
        if kind == "genus1":
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3))
            zs = [0.05 + 0.44j, -0.33 + 0.21j, 0.4 - 0.1j]
            curve, h = FlowCurve([[0.0, 0.0], [0.05, 0.0], [0.05, 0.075]]), 0.005
        else:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3))
            zs = [2.2 + 1.4j, -1.9 + 0.7j]
            curve, h = FlowCurve([[0.0, 0.0], [0.1, 0.0], [0.1, 0.15]]), 0.01
        traj = evolve(model, state, curve, h,
                      project_residue_sum=(kind == "projected"))
        K = len(traj.states)
        assert K == 26 and K % flows._CHUNK
        obs = flows._observables(model, traj, zs)

        H = np.array([[hamiltonian(model, s, i) for i in range(model.n_hams)]
                      for s in traj.states])
        charpoly = np.array([[np.poly(lax_matrix(model, s, z)) for z in zs]
                             for s in traj.states])
        Ls = [orbit_elements(model, s) for s in traj.states]
        casimirs = [[liealg.charpoly(L) for L in Lk] for Lk in Ls]
        casimir = [[np.max(np.abs(c - c0)) for c, c0 in zip(ck, casimirs[0])]
                   for ck in casimirs]
        res = [sum(Lk) for Lk in Ls]
        if kind == "genus1":
            res = [np.diag(np.diag(r)) for r in res]
        # the batched route sums and multiplies in the same order except the
        # norms and the spectral curve (np.poly's eigenvalues here), which
        # differ at roundoff; the charges take hamiltonian's route, bit for bit
        assert np.array_equal(obs.H, H)
        np.testing.assert_allclose(obs.charpoly, charpoly, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(obs.casimir_drift, casimir, rtol=0, atol=1e-15)
        np.testing.assert_allclose(obs.residue_norm, [np.linalg.norm(r) for r in res],
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(obs.residue_drift,
                                   [np.linalg.norm(r - res[0]) for r in res],
                                   rtol=1e-14, atol=1e-15)


class TestOutput:
    def test_open_output_writes_a_new_file(self, tmp_path):
        # a link to the old file keeps its contents: it was removed, not
        # truncated; a symlink is replaced and its target left alone
        path, link = tmp_path / "out.csv", tmp_path / "old.csv"
        path.write_text("old\n")
        os.link(path, link)
        with flows.open_output(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert link.read_text() == "old\n"
        sym = tmp_path / "sym.csv"
        sym.symlink_to(link)
        with flows.open_output(sym) as fh:
            fh.write("sym\n")
        assert not sym.is_symlink() and sym.read_text() == "sym\n"
        assert link.read_text() == "old\n"
