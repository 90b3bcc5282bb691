import csv
import os
import warnings

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
    make_gaudin_model,
    orbit_elements,
    random_elliptic_ensemble,
    random_rational_ensemble,
)


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
        # a trajectory's end state continues on a curve from its nominal end,
        # which its t matches only up to the rounding of the steps
        end = evolve(model, state, FlowCurve([[0.0, 0.0], [0.3, 0.0]]), 0.01).states[-1]
        assert end.t[0] != 0.3
        np.testing.assert_array_equal(evolve(model, end, curve, 0.01).states[0].t, [0.3, 0.0])

    def test_lockstep_members_start_on_their_own_curves(self, rational, monkeypatch):
        model, state = rational
        # legs of 2^-6, so both have the same length to the bit
        curves = [FlowCurve([[0.0, 0.0], [0.015625, 0.0]]),
                  FlowCurve([[0.0, 0.5], [0.0, 0.515625]])]
        both = evolve(model, PhaseState(phis=state.phis), curves, 0.0078125)
        np.testing.assert_array_equal(both.states[0].t, [[0.0, 0.0], [0.0, 0.5]])
        np.testing.assert_array_equal(both.states[-1].t, [[0.015625, 0.0], [0.0, 0.515625]])
        monkeypatch.setattr(flows, "grad_hamiltonian", None)   # any step fails
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
        with pytest.raises(NumericalAbort) as info:
            evolve(model, state, FlowCurve([[0.0, 0.0], [2.0, 0.0]]), 0.01,
                   resonance_margin_min=0.12)
        assert 0.0 <= info.value.last_good_time < 2.0


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

    @pytest.mark.parametrize("error", [
        PoleError("stage at a pole"),
        ResonanceError("stage at a resonance"),
        np.linalg.LinAlgError("Singular matrix"),
        ValueError("matrix_exponential: non-finite entries"),
    ])
    def test_stage_errors_abort(self, rational, monkeypatch, error):
        model, state = rational
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) > 3:   # the second step fails
                raise error
            return grad_hamiltonian(*args)

        monkeypatch.setattr(flows, "grad_hamiltonian", failing)
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


def lockstep_curves(T):
    """The two orderings of an L-shaped curve, and the second ordering with
    its first leg reversed: the same segment lengths throughout."""
    return [FlowCurve([[0.0, 0.0], [T, 0.0], [T, T]]),
            FlowCurve([[0.0, 0.0], [0.0, T], [T, T]]),
            FlowCurve([[0.0, 0.0], [0.0, -T], [T, -T]])]


class TestLockstep:
    @pytest.mark.parametrize("genus, method, degrees", [
        (0, "rk4", (2, 2)), (0, "conjugation", (2, 3)), (1, "rk4", (2, 3))])
    def test_members_equal_single_calls(self, rng, genus, method, degrees):
        # genus 1 at sl3: each dH/dq sums six root terms
        if genus == 0:
            model, state = random_rational_ensemble(rng, 2, 3, degrees)
        else:
            model, state = random_elliptic_ensemble(rng, 3, 2, degrees, tau=1.1j)
        curves = lockstep_curves(0.02)
        both = evolve(model, state, curves, 0.005, method=method)
        assert both.lockstep and both.states[-1].mats.shape[0] == len(curves)
        for b, curve in enumerate(curves):
            alone = evolve(model, state, curve, 0.005, method=method)
            member = both.member(b)
            assert member.segment_ids == alone.segment_ids
            assert len(member.states) == len(alone.states)
            for s, ref in zip(member.states, alone.states):
                for key in ("phis", "q", "p", "t"):
                    got, want = getattr(s, key), getattr(ref, key)
                    assert (got is None and want is None) or np.array_equal(got, want)
            assert action_along_curve(model, member) == action_along_curve(model, alone)

    @pytest.mark.parametrize("waypoints", [
        [[0.0, 0.0], [0.02, 0.0]],
        [[0.0, 0.0], [0.0, 0.01], [0.01, 0.01]]])
    def test_different_segment_lengths_take_no_step(self, rational, monkeypatch, waypoints):
        model, state = rational
        monkeypatch.setattr(flows, "grad_hamiltonian", None)   # any step fails
        with pytest.raises(ConfigError, match="same segment lengths"):
            evolve(model, state, [FlowCurve([[0.0, 0.0], [0.01, 0.0]]),
                                  FlowCurve(waypoints)], 0.005)

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

    def test_members_are_read_one_at_a_time(self, rational):
        model, state = rational
        both = evolve(model, state, lockstep_curves(0.01), 0.005)
        with pytest.raises(ConfigError):
            diagnostics(model, both, [])
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


class TestAction:
    @pytest.mark.parametrize("genus", [0, 1])
    def test_reads_the_charges_from_the_table(self, rng, genus):
        # the observables table holds the same H_i as per-state calls, so
        # the action is unchanged to the last bit
        curve = FlowCurve([[0.0, 0.0], [0.06, 0.0], [0.06, 0.06]])
        if genus == 0:
            model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
            traj = evolve(model, state, curve, 0.01, method="conjugation")
        else:
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3))
            traj = evolve(model, state, curve, 0.01, method="rk4")
        assert action_along_curve(model, traj) == reference_action(model, traj)

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
                  "kernel_table": 0}
        for name in counts:
            module = models if name == "kernel_table" else flows
            def counted(*args, _fn=getattr(module, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        # leave the closure brackets out of the count
        monkeypatch.setattr(flows, "poisson_bracket", lambda *args: 0j)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, model, traj, zs, seed=1)
        # genus 1: one kernel table per chunk, over every state at the n
        # Hamiltonian points and the z samples; the plaquettes of the
        # diagnostics are not counted
        tables = counts["kernel_table"]
        rep = diagnostics(model, traj, zs)
        K, n = len(traj.states), model.n_hams
        chunks = -(-K // flows._CHUNK)
        assert tables == (chunks if kind == "genus1" else 0)
        del counts["kernel_table"]
        assert counts == {"hamiltonian": 0, "orbit_elements": chunks,
                          "lax_matrix": chunks}

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
        # norms and the char-poly recursion, which differ at roundoff
        np.testing.assert_allclose(obs.H, H, rtol=1e-13, atol=1e-15)
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
