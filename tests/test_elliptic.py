import numpy as np
import pytest

from gaudinlab import models, weierstrass
from gaudinlab.errors import PoleError, ResonanceError
from gaudinlab.liealg import random_traceless
from gaudinlab.models import (
    PhaseState,
    grad_hamiltonian,
    hamiltonian,
    lax_matrix,
    m_matrix,
    make_gaudin_model,
    orbit_elements,
    random_elliptic_ensemble,
    random_rational_ensemble,
    retrivialization_factor,
    retrivialize,
    transition_gamma,
)
from gaudinlab.flows import poisson_bracket
from gaudinlab.weierstrass import kernel_table

TAU = 1.1j


@pytest.fixture(scope="module")
def ensembles():
    rng = np.random.default_rng(11)
    return {
        (2, 2): random_elliptic_ensemble(rng, 2, 2, (2, 2)),
        (3, 2): random_elliptic_ensemble(rng, 3, 2, (2, 2)),
        (2, 1): random_elliptic_ensemble(rng, 2, 1, (2, 2)),
    }


def cell_points(rng, model, n, margin=0.1):
    out = []
    tau = model.cache.tau
    while len(out) < n:
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45) * np.imag(tau))
        if abs(z) > margin and all(abs(z - p) > margin for p in model.marked_points) \
                and all(abs(z - q) > margin for q in model.ham_points):
            out.append(z)
    return out


class TestLaxStructure:
    @pytest.mark.parametrize("key", [(2, 2), (3, 2), (2, 1)])
    def test_double_periodicity(self, ensembles, key):
        model, state = ensembles[key]
        rng = np.random.default_rng(5)
        for z in cell_points(rng, model, 5):
            L0 = lax_matrix(model, state, z)
            for shift in (1.0, model.cache.tau):
                L1 = lax_matrix(model, state, z + shift)
                assert np.linalg.norm(L1 - L0) < 1e-9 * np.linalg.norm(L0)

    @pytest.mark.parametrize("key", [(2, 2), (3, 2)])
    def test_residue_extraction(self, ensembles, key):
        model, state = ensembles[key]
        Ls = orbit_elements(model, state)
        eps = 1e-4
        for a, pa in enumerate(model.marked_points):
            sym = lambda e: 0.5 * (lax_matrix(model, state, pa + e) * e
                                   + lax_matrix(model, state, pa - e) * (-e))
            lim = (4.0 * sym(eps / 2) - sym(eps)) / 3.0
            assert np.linalg.norm(lim - Ls[a]) < 1e-7

    def test_spin_calogero_moser_reduction(self, ensembles):
        # N = 1: the Cartan residue constraint forces a diag-free residue and
        # the Cartan part of L collapses to the constant momentum term
        model, state = ensembles[(2, 1)]
        res = orbit_elements(model, state)[0]
        assert np.max(np.abs(np.diag(res))) < 1e-12
        z1, z2 = 0.05 + 0.4j, -0.31 + 0.22j
        L1 = lax_matrix(model, state, z1)
        L2 = lax_matrix(model, state, z2)
        np.testing.assert_allclose(np.diag(L1), np.diag(L2), atol=1e-12)
        # and that constant equals the Gram solve of the momenta
        pi = model.basis.gram_inv @ state.p
        np.testing.assert_allclose(L1[0, 0], pi[0], atol=1e-12)

    def test_pole_guards(self, ensembles):
        model, state = ensembles[(2, 2)]
        with pytest.raises(PoleError):
            lax_matrix(model, state, 0.0)
        with pytest.raises(PoleError):
            lax_matrix(model, state, model.marked_points[0])

    def test_resonance_guard(self, ensembles):
        model, state = ensembles[(2, 2)]
        bad = PhaseState(phis=state.phis, q=np.array([0.5 * model.cache.tau]),
                         p=state.p, t=state.t)   # rho(Q) = tau, a lattice point
        with pytest.raises(ResonanceError):
            lax_matrix(model, bad, 0.05 + 0.4j)


class TestTransition:
    def test_identity_at_zero_Q(self, ensembles):
        model, state = ensembles[(2, 2)]
        st = PhaseState(phis=state.phis, q=np.zeros(1, dtype=complex),
                        p=state.p, t=state.t)
        for z in (0.3, 1.2j, -0.4 + 0.2j):
            np.testing.assert_allclose(transition_gamma(model, st, z), np.eye(2),
                                       atol=1e-15)

    def test_sl2_closed_form(self, ensembles):
        model, state = ensembles[(2, 2)]
        a = state.q[0]
        z = 0.37 - 0.21j
        g = transition_gamma(model, state, z)
        np.testing.assert_allclose(g, np.diag([np.exp(a / z), np.exp(-a / z)]),
                                   rtol=1e-13)

    def test_root_conjugation(self, ensembles):
        # gamma E_rho gamma^{-1} = exp(rho(Q)/z) E_rho
        model, state = ensembles[(3, 2)]
        z = 0.41 + 0.3j
        g = transition_gamma(model, state, z)
        gi = np.linalg.inv(g)
        for r, (i, j) in enumerate(zip(*model.basis.root_entries)):
            E = np.zeros((model.m, model.m))
            E[i, j] = 1.0
            u = model.basis.root_value(r, state.q)
            np.testing.assert_allclose(g @ E @ gi, np.exp(u / z) * E, rtol=1e-12)

    def test_points_equal_the_calls_per_point(self, ensembles):
        # a (2, 8) array of points gives the (2, 8, m, m) stack, each matrix
        # equal to its own one-point call bit for bit
        model, state = ensembles[(3, 2)]
        zs = np.multiply.outer((0.1, 0.025), np.exp(1j * np.linspace(0.0, 6.0, 8)))
        g = transition_gamma(model, state, zs)
        assert g.shape == (2, 8, 3, 3)
        for k in np.ndindex(zs.shape):
            np.testing.assert_array_equal(g[k], transition_gamma(model, state, zs[k]))

    def test_zero_rejected(self, ensembles):
        model, state = ensembles[(2, 2)]
        with pytest.raises(PoleError):
            transition_gamma(model, state, 0.0)
        # one zero among the points is enough
        with pytest.raises(PoleError):
            transition_gamma(model, state, np.array([[0.3, 0.1j], [0.0, -0.2]]))


class TestHamiltonian:
    @pytest.mark.parametrize("key", [(2, 2), (3, 2), (2, 1)])
    def test_gradients_against_finite_differences(self, ensembles, key):
        model, state = ensembles[key]
        rng = np.random.default_rng(17)
        Ls = orbit_elements(model, state)
        rk = model.basis.rank
        for i in range(model.n_hams):
            dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, i)
            Y = [random_traceless(rng, model.m, 0.4) for _ in Ls]
            vq = rng.standard_normal(rk) + 1j * rng.standard_normal(rk)
            vp = rng.standard_normal(rk) + 1j * rng.standard_normal(rk)

            def H_of(eps):
                st = PhaseState(orbit_mats=[L + eps * y for L, y in zip(Ls, Y)],
                                q=state.q + eps * vq, p=state.p + eps * vp,
                                t=state.t)
                return hamiltonian(model, st, i)

            lin = sum(np.trace(y @ D) for y, D in zip(Y, dH_dL)) \
                + np.sum(vq * dH_dq) + np.sum(vp * dH_dp)
            fd = (H_of(1e-6) - H_of(-1e-6)) / 2e-6
            assert abs(fd - lin) < 1e-6 * max(1.0, abs(lin))

    def test_cubic_invariant_gradients(self):
        rng = np.random.default_rng(29)
        model, state = random_elliptic_ensemble(rng, 2, 2, (2, 3))
        Ls = orbit_elements(model, state)
        dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, 1)
        Y = [random_traceless(rng, 2, 0.4) for _ in Ls]
        vq = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        vp = rng.standard_normal(1) + 1j * rng.standard_normal(1)

        def H_of(eps):
            st = PhaseState(orbit_mats=[L + eps * y for L, y in zip(Ls, Y)],
                            q=state.q + eps * vq, p=state.p + eps * vp,
                            t=state.t)
            return hamiltonian(model, st, 1)

        lin = sum(np.trace(y @ D) for y, D in zip(Y, dH_dL)) \
            + np.sum(vq * dH_dq) + np.sum(vp * dH_dp)
        fd = (H_of(1e-6) - H_of(-1e-6)) / 2e-6
        assert abs(fd - lin) < 1e-6 * max(1.0, abs(lin))

    def test_diagonal_state_has_no_q_force(self):
        # diagonal residues kill every root component, so for quadratic
        # invariants the Cartan coordinates feel no force
        X = np.diag([0.4 + 0.1j, -0.4 - 0.1j])
        model = make_gaudin_model(1, 2, [0.3 + 0.2j, -0.25 - 0.3j], [-X, X],
                                  [-0.2 + 0.12j], [2], tau=TAU)
        state = PhaseState(phis=[np.eye(2, dtype=complex)] * 2,
                           q=np.array([0.19 + 0.04j]),
                           p=np.array([0.3 - 0.2j]), t=np.zeros(1))
        _, dH_dq, _ = grad_hamiltonian(model, state, 0)
        assert np.max(np.abs(dH_dq)) < 1e-13


class TestMMatrix:
    def test_diagonal_state_kills_root_part(self):
        X = np.diag([0.4, -0.4]).astype(complex)
        model = make_gaudin_model(1, 2, [0.3 + 0.2j, -0.25 - 0.3j], [-X, X],
                                  [-0.2 + 0.12j], [2], tau=TAU)
        state = PhaseState(phis=[np.eye(2, dtype=complex)] * 2,
                           q=np.array([0.19 + 0.04j]),
                           p=np.array([0.3 - 0.2j]), t=np.zeros(1))
        M = m_matrix(model, state, 0, 0.11 + 0.52j)
        assert abs(M[0, 1]) < 1e-14 and abs(M[1, 0]) < 1e-14

    def test_own_pole_guard(self, ensembles):
        model, state = ensembles[(2, 2)]
        with pytest.raises(PoleError):
            m_matrix(model, state, 0, model.ham_points[0])


class TestInvolutivity:
    def test_sl3_quadratic_pair(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 2))
            br = abs(poisson_bracket(model, state, 0, 1))
            scale = max(abs(hamiltonian(model, state, 0)),
                        abs(hamiltonian(model, state, 1)), 1.0)
            assert br < 1e-10 * scale

    def test_sl3_quadratic_cubic_pair(self):
        # the cubic charge pulls in every root-addition channel at once
        rng = np.random.default_rng(37)
        for _ in range(3):
            model, state = random_elliptic_ensemble(rng, 3, 2, (2, 3),
                                                    max_gradient=200.0)
            br = abs(poisson_bracket(model, state, 0, 1))
            scale = max(abs(hamiltonian(model, state, 0)),
                        abs(hamiltonian(model, state, 1)), 1.0)
            assert br < 1e-10 * scale


class TestRetrivialization:
    @pytest.mark.parametrize("key", [(2, 2), (3, 2)])
    def test_routes_agree(self, ensembles, key):
        model, state = ensembles[key]
        rng = np.random.default_rng(23)
        for z in cell_points(rng, model, 5):
            A, B = retrivialize(model, state, z)
            assert np.linalg.norm(A - B) < 1e-8 * max(1.0, np.linalg.norm(A))

    def test_cartan_part_unchanged(self, ensembles):
        model, state = ensembles[(2, 2)]
        z = 0.04 + 0.47j
        A, _ = retrivialize(model, state, z)
        L = lax_matrix(model, state, z)
        np.testing.assert_allclose(np.diag(A), np.diag(L), atol=1e-12)

    def test_result_is_periodic(self, ensembles):
        # f_1 is engineered to be doubly periodic, so the conjugated Lax
        # matrix stays elliptic even though f_1 is only smooth in (z, zbar)
        model, state = ensembles[(2, 2)]
        z = -0.12 + 0.61j
        A0, _ = retrivialize(model, state, z)
        A1, _ = retrivialize(model, state, z + 1.0)
        A2, _ = retrivialize(model, state, z + model.cache.tau)
        assert np.linalg.norm(A1 - A0) < 1e-9 * np.linalg.norm(A0)
        assert np.linalg.norm(A2 - A0) < 1e-9 * np.linalg.norm(A0)

    def test_trivial_at_zero_Q(self, ensembles):
        model, state = ensembles[(2, 2)]
        st = PhaseState(phis=state.phis, q=np.zeros(1, dtype=complex),
                        p=state.p, t=state.t)
        for z in (0.3 + 0.1j, -0.2 + 0.6j):
            np.testing.assert_allclose(retrivialization_factor(model, st, z),
                                       np.eye(2), atol=1e-15)


class TestKernelTableReuse:
    """One genus-1 evaluation forms the residues once and evaluates the
    kernel for every root and site in one call of the array core."""

    @staticmethod
    def count(monkeypatch, module, name, counts):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("m, n_sites", [(2, 1), (3, 3), (4, 2)])
    def test_grad_hamiltonian_counts(self, monkeypatch, m, n_sites):
        rng = np.random.default_rng(41)
        model, state = random_elliptic_ensemble(rng, m, n_sites, (2, 3), max_gradient=1e3)
        state = PhaseState(phis=[np.eye(m, dtype=complex) + 0.05 * random_traceless(rng, m)
                                 for _ in range(n_sites)],
                           q=state.q, p=state.p, t=state.t)
        counts = {}
        self.count(monkeypatch, weierstrass, "_core", counts)
        self.count(monkeypatch, models, "orbit_elements", counts)
        self.count(monkeypatch, np.linalg, "inv", counts)
        grad_hamiltonian(model, state, 1)
        # the residues come from one batched inverse of the (N, m, m) stack
        assert counts == {"_core": 1, "orbit_elements": 1, "inv": 1}

    def test_grad_hamiltonian_counts_genus0(self, monkeypatch):
        rng = np.random.default_rng(41)
        model, state = random_rational_ensemble(rng, 3, 3, (2, 3))
        state = PhaseState(phis=[np.eye(3, dtype=complex) + 0.05 * random_traceless(rng, 3)
                                 for _ in range(3)], t=state.t)
        counts = {}
        self.count(monkeypatch, weierstrass, "_core", counts)
        self.count(monkeypatch, models, "orbit_elements", counts)
        self.count(monkeypatch, np.linalg, "inv", counts)
        self.count(monkeypatch, models, "_kernel_weights", counts)
        grad_hamiltonian(model, state, 1)
        # the weights at q_i are the model's: no _kernel_weights call
        assert counts == {"orbit_elements": 1, "inv": 1}

    def test_elliptic_lax_builds_one_table(self, monkeypatch, ensembles):
        # one table is one z side and one u side, one array-core call each,
        # however many points and states the call takes
        model, state = ensembles[(3, 2)]
        stack = PhaseState(phis=np.stack([state.phis] * 3),
                           q=np.stack([state.q, state.q + 0.01, state.q - 0.02]),
                           p=np.stack([state.p] * 3))
        counts = {}
        self.count(monkeypatch, models, "_kernel_weights", counts)
        self.count(monkeypatch, weierstrass, "_core", counts)
        for st, z in ((state, 0.11 + 0.31j),
                      (stack, np.array([[0.11 + 0.31j, -0.33 + 0.17j],
                                        [0.21 - 0.38j, 0.42 - 0.05j]]))):
            counts.clear()
            lax_matrix(model, st, z)
            assert counts == {"_kernel_weights": 1, "_core": 2}

    @pytest.mark.parametrize("genus", [0, 1])
    def test_points_equal_the_calls_per_point(self, monkeypatch, genus):
        # L and M at a (2, 3) array of points take one set of weights (in
        # genus 1 one kernel table), for one state and for a stack of two;
        # the result keeps the points' shape, and each point's matrix equals
        # its own one-point call bit for bit
        rng = np.random.default_rng(43)
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3))
            zs = np.array([[2.2 + 1.4j, -1.9 + 0.7j, 0.3 - 2.1j],
                           [1.1 - 2.3j, -2.6 - 0.4j, 2.9 + 0.2j]])
            other = PhaseState(phis=state.phis + 0.01 * rng.standard_normal(state.phis.shape))
            stack = PhaseState(phis=np.stack([state.phis, other.phis]))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3), tau=1.1j)
            zs = np.array([[0.11 + 0.31j, -0.33 + 0.17j, 0.21 - 0.38j],
                           [0.42 - 0.05j, -0.14 - 0.29j, 0.03 + 0.47j]])
            other = PhaseState(phis=state.phis, q=state.q + 0.01, p=state.p - 0.02)
            stack = PhaseState(phis=np.stack([state.phis] * 2),
                               q=np.stack([state.q, other.q]), p=np.stack([state.p, other.p]))
        counts = {}
        self.count(monkeypatch, models, "_kernel_weights", counts)
        self.count(monkeypatch, models, "kernel_z_side", counts)
        L, Ls = lax_matrix(model, state, zs), lax_matrix(model, stack, zs)
        M, Ms = m_matrix(model, state, 1, zs), m_matrix(model, stack, 1, zs)
        # two L calls and two M calls; L(q_i) inside M reads the model's
        # weights at q_i, so it takes no set of its own
        assert counts == ({"_kernel_weights": 4} if genus == 0 else
                          {"_kernel_weights": 4, "kernel_z_side": 4})
        assert L.shape == M.shape == (2, 3, 3, 3) and Ls.shape == Ms.shape == (2, 2, 3, 3, 3)
        for k in np.ndindex(zs.shape):
            z = zs[k]
            np.testing.assert_array_equal(L[k], lax_matrix(model, state, z))
            np.testing.assert_array_equal(M[k], m_matrix(model, state, 1, z))
            for b, st in enumerate((state, other)):
                np.testing.assert_array_equal(Ls[(b, *k)], lax_matrix(model, st, z))
                np.testing.assert_array_equal(Ms[(b, *k)], m_matrix(model, st, 1, z))

    @pytest.mark.parametrize("ham", [None, 0, 1])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_kernel_weights_batch_over_states(self, monkeypatch, m, ham):
        # a (C, rk) stack of Cartan coordinates takes one kernel z side and
        # gives every state's weights and u-derivatives bit for bit
        rng = np.random.default_rng(41)
        model, state = random_elliptic_ensemble(rng, m, 2, (2, 3), max_gradient=1e3)
        qs = state.q + 0.03 * (rng.standard_normal((5, m - 1))
                               + 1j * rng.standard_normal((5, m - 1)))
        z = 0.11 + 0.31j
        counts = {}
        self.count(monkeypatch, models, "kernel_z_side", counts)
        W, dW_du = models._kernel_weights(model, qs, z, ham)
        assert counts == {"kernel_z_side": 1}
        n_poles = model.n_sites if ham is None else 1
        assert W.shape == (5, n_poles, m, m)
        assert dW_du.shape == (5, n_poles, m * (m - 1))
        for k, q in enumerate(qs):
            Wk, dWk_du = models._kernel_weights(model, q, z, ham)
            np.testing.assert_array_equal(W[k], Wk)
            np.testing.assert_array_equal(dW_du[k], dWk_du)

    @pytest.mark.parametrize("tau", [1.1j, 0.3 + 1.5j])
    def test_root_weights_are_the_kernel_times_its_twist(self, tau):
        # the weights take the kernel's exp(-u zeta(z)) and the residue
        # normalisation exp(u zeta(p_a)) as one exponential, at any point
        # and at the Hamiltonian points: equal to roundoff
        rng = np.random.default_rng(59)
        model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3), tau=tau, max_gradient=1e3)
        rows, cols = model.basis.root_entries
        u = model.basis.roots @ state.q
        weights = [(z, models._kernel_weights(model, state.q, z)[0])
                   for z in (0.11 + 0.31j, -0.33 + 0.17j)]
        weights += [(q, models._ham_weights(model, state.q, i)[0])
                    for i, q in enumerate(model.ham_points)]
        for z, W in weights:
            table = kernel_table(model.cache, u, z, model.marked_points)
            ref = table.value * np.exp(u[:, None] * model.zeta_poles)
            np.testing.assert_allclose(W[:, rows, cols], ref.T, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("field", ["q", "p", "phis"])
    def test_non_finite_state_stops_before_the_kernel(self, monkeypatch, ensembles, field):
        model, state = ensembles[(2, 2)]
        bad = state.copy()
        if field == "phis":
            bad.phis[0][0, 1] = np.nan
        else:
            getattr(bad, field)[0] = np.inf
        counts = {}
        self.count(monkeypatch, weierstrass, "_core", counts)
        # orbit_elements is the guard that every evaluation goes through:
        # q and p first, then the residues
        message = "non-finite residue L_alpha" if field == "phis" else \
            "non-finite Cartan coordinates q or momenta p"
        for call in (lambda: orbit_elements(model, bad),
                     lambda: lax_matrix(model, bad, 0.11 + 0.31j),
                     lambda: grad_hamiltonian(model, bad, 0),
                     lambda: m_matrix(model, bad, 0, 0.11 + 0.31j)):
            with pytest.raises(ValueError, match=message):
                call()
        assert counts == {}


# the (m, N, degrees, tau) of the draws: one marked point, several, and one
# Hamiltonian point, each at a modulus without and with a real part; at the
# second, one-element or (n, 1)-shaped array-core calls would round
# differently from the flat ones of the kernel route
HAM_POINT_DRAWS = [
    pytest.param(m, n_sites, degrees, tau, id=f"{m}-{n_sites}{label}{suffix}")
    for m, n_sites, degrees, label in ((2, 1, (2, 3), ""), (3, 3, (2, 3), ""),
                                       (4, 2, (2, 3), ""), (3, 2, (2,), "-one_point"))
    for tau, suffix in ((1.1j, ""), (0.3 + 1.5j, "-skew_tau"))]


@pytest.mark.parametrize("m, n_sites, degrees, tau", HAM_POINT_DRAWS)
class TestHamiltonianPointWeights:
    """The Lax weights at a Hamiltonian point q_i read the model's z side
    there (zeta(q_i), zeta(q_i - p_a) and sigma(q_i - p_a)) and evaluate
    only u and u + q_i - p_a; every result equals the route through
    _kernel_weights(model, q, q_i) bit for bit, at a modulus with and
    without a real part."""

    @staticmethod
    def draw(m, n_sites, degrees, tau):
        rng = np.random.default_rng(53)
        model, state = random_elliptic_ensemble(rng, m, n_sites, degrees, tau=tau,
                                                max_gradient=1e3)
        state = PhaseState(phis=[np.eye(m, dtype=complex) + 0.05 * random_traceless(rng, m)
                                 for _ in range(n_sites)],
                           q=state.q, p=state.p, t=state.t)
        # three lockstep members with their own phis, q and p
        shift = 0.02 * (rng.standard_normal((3, m - 1)) + 1j * rng.standard_normal((3, m - 1)))
        stack = PhaseState(phis=np.stack([state.phis + 0.01 * k for k in range(3)]),
                           q=state.q + shift, p=state.p - shift,
                           t=np.zeros((3, len(degrees))))
        return model, state, stack

    @staticmethod
    def kernel_route(model, q, i, checked=True):
        # the kernel route checks its values whether asked to or not
        return models._kernel_weights(model, q, model.ham_points[i])

    def test_weights_and_results_equal_the_kernel_route(self, monkeypatch, m, n_sites,
                                                        degrees, tau):
        model, state, stack = self.draw(m, n_sites, degrees, tau)
        n = model.n_hams
        zs = np.array([0.11 + 0.31j, -0.33 + 0.17j])
        # W, dW/du and the three partials, for one state and for one flow
        # index per lockstep member; then H_i and M_i
        pairs = [(state, i) for i in range(n)] + [(stack, n - 1), (stack, np.arange(1, 4) % n)]
        calls = [lambda st=st, i=i: models._ham_weights(model, st.q, i)
                 + grad_hamiltonian(model, st, i) for st, i in pairs]
        calls += [lambda st=st, i=i: (hamiltonian(model, st, i), m_matrix(model, st, i, zs))
                  for st in (state, stack) for i in range(n)]
        stored = [call() for call in calls]
        # H_i as it was defined before the model held the weights at q_i
        for st in (state, stack):
            for i in range(n):
                np.testing.assert_array_equal(
                    hamiltonian(model, st, i),
                    model.polys[i].evaluate(lax_matrix(model, st, model.ham_points[i])))
        monkeypatch.setattr(models, "_ham_weights", self.kernel_route)
        for results, call in zip(stored, calls):
            for got, ref in zip(results, call(), strict=True):
                assert np.shape(got) == np.shape(ref)
                np.testing.assert_array_equal(got, ref)

    def test_guards_equal_the_kernel_route(self, m, n_sites, degrees, tau):
        model, state, _ = self.draw(m, n_sites, degrees, tau)
        roots = model.basis.roots
        i = model.n_hams - 1
        # u = rho(Q) = 0 for every root; then rho_0(Q) = p_0 - q_i exactly
        # enough to put u + q_i - p_0 on the lattice
        target = model.marked_points[0] - model.ham_points[i]
        on_pole = np.linalg.pinv(roots[:1]) @ np.array([target])
        for q, error in ((np.zeros(m - 1, dtype=complex), ResonanceError),
                         (on_pole, PoleError)):
            with pytest.raises(error) as stored:
                models._ham_weights(model, q, i)
            with pytest.raises(error) as kernel:
                self.kernel_route(model, q, i)
            assert type(stored.value) is type(kernel.value) is error
            assert str(stored.value) == str(kernel.value)
            with pytest.raises(error):
                grad_hamiltonian(model, PhaseState(phis=state.phis, q=q, p=state.p), i)


class TestSharedAssembly:
    """Both genera assemble L, dH/dL_a and M_i from the same kernel weights;
    the gradient of an invariant polynomial is traceless, and so is every
    entrywise product of it with the weights."""

    @pytest.mark.parametrize("genus", [0, 1])
    def test_gradients_and_m_matrices_are_traceless(self, genus):
        rng = np.random.default_rng(43)
        if genus == 0:
            model, state = random_rational_ensemble(rng, 3, 3, (2, 3))
            zs = (1.7 + 0.4j, -0.6 - 1.9j)
        else:
            model, state = random_elliptic_ensemble(rng, 3, 3, (2, 3), max_gradient=1e3)
            zs = (0.11 + 0.31j, -0.29 + 0.07j)
        state = state.copy()
        state.phis = [np.eye(3, dtype=complex) + 0.1 * random_traceless(rng, 3)
                      for _ in range(3)]
        for i in range(model.n_hams):
            dH_dL, _, _ = grad_hamiltonian(model, state, i)
            for D in dH_dL:
                assert abs(np.trace(D)) < 1e-13
            for z in zs:
                assert abs(np.trace(m_matrix(model, state, i, z))) < 1e-13

    @pytest.mark.parametrize("genus", [0, 1])
    def test_orbit_elements_match_the_per_site_product(self, genus):
        # one batched expression over the (N, m, m) stack, same arithmetic
        rng = np.random.default_rng(47)
        if genus == 0:
            model, state = random_rational_ensemble(rng, 4, 4, (2,))
        else:
            model, state = random_elliptic_ensemble(rng, 3, 3, (2,), max_gradient=1e3)
        phis = [np.eye(model.m) + 0.3 * random_traceless(rng, model.m)
                for _ in range(model.n_sites)]
        Ls = orbit_elements(model, PhaseState(phis=phis, q=state.q, p=state.p, t=state.t))
        assert Ls.shape == (model.n_sites, model.m, model.m)
        for L, phi, seed in zip(Ls, phis, model.orbit_seeds):
            np.testing.assert_array_equal(L, -(phi @ seed @ np.linalg.inv(phi)))
