import csv
import warnings

import numpy as np
import pytest

from gaudinlab import flows
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
    rational_lax,
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
        Lw = rational_lax(model, state, w)
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

    def test_matches_dense_ode_oracle(self, rational):
        model, state = rational
        traj = evolve(model, state, FlowCurve([[0.0, 0.0], [1.0, 0.0]]), 1e-3)
        # independent integration of the raw matrix ODE
        Ls = orbit_elements(model, state)
        w = model.ham_points[0]
        ps = model.marked_points
        h = 2.5e-4

        def rhs(Ls):
            Lw = sum(L / (w - p) for L, p in zip(Ls, ps))
            return [(Lw / (p - w)) @ L - L @ (Lw / (p - w)) for L, p in zip(Ls, ps)]

        for _ in range(4000):
            k1 = rhs(Ls)
            k2 = rhs([L + h / 2 * K for L, K in zip(Ls, k1)])
            k3 = rhs([L + h / 2 * K for L, K in zip(Ls, k2)])
            k4 = rhs([L + h * K for L, K in zip(Ls, k3)])
            Ls = [L + h / 6 * (a + 2 * b + 2 * c + d)
                  for L, a, b, c, d in zip(Ls, k1, k2, k3, k4)]
        worst = max(np.linalg.norm(A - B)
                    for A, B in zip(orbit_elements(model, traj.states[-1]), Ls))
        assert worst < 1e-6

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


class TestAction:
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

        counts = {"hamiltonian": 0, "lax_matrix": 0, "orbit_elements": 0}
        for name in counts:
            def counted(*args, _fn=getattr(flows, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(flows, name, counted)
        # leave the closure brackets out of the count
        monkeypatch.setattr(flows, "poisson_bracket", lambda *args: 0j)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, model, traj, zs, seed=1)
        rep = diagnostics(model, traj, zs)
        K, n = len(traj.states), model.n_hams
        assert counts == {"hamiltonian": K * n, "lax_matrix": K * len(zs),
                          "orbit_elements": K}

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
