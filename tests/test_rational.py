import json
import time

import numpy as np
import pytest

from gaudinlab import models
from gaudinlab.errors import ConfigError, PoleError
from gaudinlab.liealg import random_traceless
from gaudinlab.models import (
    PhaseState,
    grad_hamiltonian,
    hamiltonian,
    lax_matrix,
    m_matrix,
    make_gaudin_model,
    model_from_dict,
    model_to_dict,
    orbit_elements,
    random_rational_ensemble,
    state_from_dict,
    state_to_dict,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def two_site_model(X=None):
    """p = (0, 1), residues L_1 = -L_2 = X with phi = Id."""
    if X is None:
        X = np.diag([1.0, -1.0]).astype(complex)
    model = make_gaudin_model(0, 2, [0.0, 1.0], [-X, X], [2.0], [2])
    state = PhaseState(phis=[np.eye(2, dtype=complex)] * 2, t=np.zeros(1))
    return model, state, X


class TestLax:
    def test_single_site_vanishes(self):
        model = make_gaudin_model(0, 2, [0.0], [np.zeros((2, 2))], [2.0], [2])
        state = PhaseState(phis=[np.eye(2, dtype=complex)], t=np.zeros(1))
        assert np.linalg.norm(lax_matrix(model, state, 1.3 + 0.4j)) == 0.0
        assert hamiltonian(model, state, 0) == 0.0

    def test_two_site_closed_form(self):
        model, state, X = two_site_model()
        z = 3.0 - 2.0j
        expected = X * (1.0 / z - 1.0 / (z - 1.0))
        np.testing.assert_allclose(lax_matrix(model, state, z), expected, atol=1e-14)

    def test_far_field_decay(self, rng):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        total = sum(np.linalg.norm(L) for L in orbit_elements(model, state))
        for z in (1e3, 1e3 * 1j, 1e3 * (0.6 + 0.8j)):
            # with sum L_a = 0 the leading 1/z term cancels: |L| ~ C/|z|^2
            norm = np.linalg.norm(lax_matrix(model, state, z))
            assert norm < 10.0 * total / abs(z) ** 2

    def test_pole_error(self):
        model, state, _ = two_site_model()
        with pytest.raises(PoleError):
            lax_matrix(model, state, 1.0)

    def test_residue_sum_constraint(self, rng):
        model, state = random_rational_ensemble(rng, 3, 3, (2,))
        total = sum(orbit_elements(model, state))
        assert np.linalg.norm(total) < 1e-12

    def test_sl4_mixed_degree_involutivity(self, rng):
        from gaudinlab.flows import poisson_bracket

        for _ in range(5):
            model, state = random_rational_ensemble(rng, 4, 3, (2, 3, 4))
            for i in range(3):
                for j in range(i + 1, 3):
                    br = abs(poisson_bracket(model, state, i, j))
                    scale = max(abs(hamiltonian(model, state, i)),
                                abs(hamiltonian(model, state, j)), 1.0)
                    assert br < 1e-11 * scale


class TestHamiltonian:
    def test_quarter_example(self):
        # L(2) = diag(1,-1) (1/2 - 1) = diag(-1/2, 1/2); Tr(L^2)/2 = 1/4
        model, state, _ = two_site_model()
        assert hamiltonian(model, state, 0) == pytest.approx(0.25)

    def test_quadratic_gradient_closed_form(self, rng):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, 0)
        assert dH_dq.size == 0 and dH_dp.size == 0
        w = model.ham_points[0]
        Lw = lax_matrix(model, state, w)
        for D, pa in zip(dH_dL, model.marked_points):
            np.testing.assert_allclose(D, Lw / (w - pa), atol=1e-13)

    def test_gradient_reads_the_model_weights(self, rng):
        # the stored weights at the Hamiltonian points give the bits of
        # the weights _kernel_weights builds there, and so the same dH/dL_a,
        # for one flow index and for one index per lockstep member
        model, state = random_rational_ensemble(rng, 3, 4, (2, 3, 4))
        state = PhaseState(phis=[np.eye(3) + 0.3 * random_traceless(rng, 3)
                                 for _ in range(4)], t=state.t)

        def kernel_route(state, i):
            W = models._kernel_weights(model, None, model.ham_points[i])[0]
            G = model.polys[i].gradient(models._lax(model, orbit_elements(model, state),
                                                    None, W))
            return G[..., None, :, :] * W.swapaxes(-1, -2)

        for i in range(3):
            assert np.array_equal(grad_hamiltonian(model, state, i)[0],
                                  kernel_route(state, i))
        members = np.array([2, 0, 2, 1])
        lockstep = PhaseState(phis=np.stack([state.phis] * 4), t=np.zeros((4, 3)))
        assert np.array_equal(model.ham_weights[members],
                              models._kernel_weights(model, None,
                                                     model.ham_points[members])[0])
        assert np.array_equal(grad_hamiltonian(model, lockstep, members)[0],
                              np.array([kernel_route(state, i) for i in members]))

    @pytest.mark.parametrize("degrees", [(2, 2), (2, 3)])
    def test_gradient_against_finite_differences(self, rng, degrees):
        model, state = random_rational_ensemble(rng, 3, 3, degrees)
        Ls = orbit_elements(model, state)
        for i in range(len(degrees)):
            dH_dL, _, _ = grad_hamiltonian(model, state, i)
            Y = [random_traceless(rng, 3) for _ in Ls]

            def H_of(eps):
                st = PhaseState(orbit_mats=[L + eps * y for L, y in zip(Ls, Y)],
                                t=state.t)
                return hamiltonian(model, st, i)

            lin = sum(np.trace(y @ D) for y, D in zip(Y, dH_dL))
            fd = (H_of(1e-6) - H_of(-1e-6)) / 2e-6
            assert abs(fd - lin) < 1e-6 * max(1.0, abs(lin))


class TestMMatrix:
    def test_residue(self, rng):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        w = model.ham_points[0]
        G = model.polys[0].gradient(lax_matrix(model, state, w))
        z = w + 0.37j
        np.testing.assert_allclose(m_matrix(model, state, 0, z) * (z - w),
                                   G, atol=1e-13)

    def test_regular_at_other_points(self, rng):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        M = m_matrix(model, state, 0, model.ham_points[1])
        assert np.all(np.isfinite(M.view(float)))

    def test_own_pole_guard(self, rng):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        with pytest.raises(PoleError):
            m_matrix(model, state, 0, model.ham_points[0])

    def test_lax_equation_along_flow(self, rng):
        from gaudinlab.flows import FlowCurve, evolve
        from gaudinlab.models import lax_matrix, m_matrix

        model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
        dt = 1e-3
        z_samples = [2.2 + 1.4j, -1.9 + 0.7j, 0.3 - 2.1j, 3.1 + 0.2j, -2.6 - 1.8j]

        def L_at(t_shift, z):
            if abs(t_shift) < 1e-15:
                return lax_matrix(model, state, z)
            curve = FlowCurve([[0.0, 0.0], [t_shift, 0.0]])
            traj = evolve(model, state, curve, abs(t_shift) / 2.0)
            return lax_matrix(model, traj.states[-1], z)

        for z in z_samples:
            dL = (8 * (L_at(dt, z) - L_at(-dt, z))
                  - (L_at(2 * dt, z) - L_at(-2 * dt, z))) / (12 * dt)
            M = m_matrix(model, state, 0, z)
            L0 = lax_matrix(model, state, z)
            assert np.linalg.norm(dL - (M @ L0 - L0 @ M)) < 1e-6


class TestValidation:
    def test_coincident_marked_points(self):
        with pytest.raises(ConfigError, match="coincident"):
            make_gaudin_model(0, 2, [0.0, 0.0], [np.zeros((2, 2))] * 2, [2.0], [2])

    def test_ham_point_on_marked_point(self):
        with pytest.raises(ConfigError, match="coincident"):
            make_gaudin_model(0, 2, [0.0, 1.0], [np.zeros((2, 2))] * 2, [1.0], [2])

    @pytest.mark.parametrize("genus", [0, 1])
    def test_ham_point_within_separation_tol(self, genus):
        # between POLE_TOL and SEPARATION_TOL: rejected here, so the kernels
        # need no pole check at the Hamiltonian points
        gap = 5e-9
        assert models.POLE_TOL < gap < models.SEPARATION_TOL
        with pytest.raises(ConfigError, match="coincident"):
            make_gaudin_model(genus, 2, [0.3 + 0.2j, -0.2 - 0.1j], [np.zeros((2, 2))] * 2,
                              [0.3 + 0.2j + gap], [2], tau=1.1j if genus else None)

    def test_traceful_seed(self):
        with pytest.raises(ConfigError, match="traceless"):
            make_gaudin_model(0, 2, [0.0], [np.eye(2)], [2.0], [2])

    def test_bad_genus(self):
        with pytest.raises(ConfigError):
            make_gaudin_model(2, 2, [0.0], [np.zeros((2, 2))], [2.0], [2])

    def test_points_that_do_not_fit_are_a_config_error(self):
        # 150 marked points 0.3 apart do not fit in the 3 x 3 square: the
        # draws give up within a second instead of running forever
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="could not place point"):
            random_rational_ensemble(np.random.default_rng(0), 2, 150, (2,))
        assert time.perf_counter() - start < 1.0


class TestSerialization:
    def test_round_trip(self, rng):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 3))
        blob = json.dumps({"model": model_to_dict(model),
                           "state": state_to_dict(state)})
        back = json.loads(blob)
        model2 = model_from_dict(back["model"])
        state2 = state_from_dict(back["state"], model2)
        np.testing.assert_allclose(model2.marked_points, model.marked_points)
        assert [P.degree for P in model2.polys] == [P.degree for P in model.polys]
        z = 2.4 + 0.9j
        np.testing.assert_allclose(lax_matrix(model2, state2, z),
                                   lax_matrix(model, state, z), atol=1e-14)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_models_compare_and_hash_by_identity(self, rng, genus):
        # a model holds arrays, so it equals only itself; comparing it with
        # an equal copy returns a bool instead of raising
        model = (random_rational_ensemble(rng, 2, 3, (2, 3)) if genus == 0 else
                 models.random_elliptic_ensemble(rng, 2, 2, (2, 3)))[0]
        copy = model_from_dict(model_to_dict(model))
        assert (model == copy) is False and (model == model) is True
        assert hash(model) == hash(model) and len({model, copy, model}) == 2

    def test_state_requires_group_points_or_matrices(self, rng):
        model, _ = random_rational_ensemble(rng, 2, 2, (2,))
        with pytest.raises(ConfigError):
            state_from_dict({"t": [0.0]}, model)
