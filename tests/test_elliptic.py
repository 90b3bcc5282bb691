import numpy as np
import pytest

from gaudinlab import models, weierstrass
from gaudinlab.errors import PoleError, ResonanceError
from gaudinlab.liealg import random_traceless
from gaudinlab.models import (
    PhaseState,
    elliptic_lax,
    grad_hamiltonian,
    hamiltonian,
    lax_matrix,
    m_matrix_elliptic,
    make_gaudin_model,
    orbit_elements,
    random_elliptic_ensemble,
    retrivialization_factor,
    retrivialize,
    transition_gamma,
)
from gaudinlab.flows import poisson_bracket
from gaudinlab.weierstrass import LatticeSumOracle, zeta_eval

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
            L0 = elliptic_lax(model, state, z)
            for shift in (1.0, model.cache.tau):
                L1 = elliptic_lax(model, state, z + shift)
                assert np.linalg.norm(L1 - L0) < 1e-9 * np.linalg.norm(L0)

    @pytest.mark.parametrize("key", [(2, 2), (3, 2)])
    def test_residue_extraction(self, ensembles, key):
        model, state = ensembles[key]
        Ls = orbit_elements(model, state)
        eps = 1e-4
        for a, pa in enumerate(model.marked_points):
            sym = lambda e: 0.5 * (elliptic_lax(model, state, pa + e) * e
                                   + elliptic_lax(model, state, pa - e) * (-e))
            lim = (4.0 * sym(eps / 2) - sym(eps)) / 3.0
            assert np.linalg.norm(lim - Ls[a]) < 1e-7

    def test_spin_calogero_moser_reduction(self, ensembles):
        # N = 1: the Cartan residue constraint forces a diag-free residue and
        # the Cartan part of L collapses to the constant momentum term
        model, state = ensembles[(2, 1)]
        res = orbit_elements(model, state)[0]
        assert np.max(np.abs(np.diag(res))) < 1e-12
        z1, z2 = 0.05 + 0.4j, -0.31 + 0.22j
        L1 = elliptic_lax(model, state, z1)
        L2 = elliptic_lax(model, state, z2)
        np.testing.assert_allclose(np.diag(L1), np.diag(L2), atol=1e-12)
        # and that constant equals the Gram solve of the momenta
        pi = model.basis.gram_inv @ state.p
        np.testing.assert_allclose(L1[0, 0], pi[0], atol=1e-12)

    def test_pole_guards(self, ensembles):
        model, state = ensembles[(2, 2)]
        with pytest.raises(PoleError):
            elliptic_lax(model, state, 0.0)
        with pytest.raises(PoleError):
            elliptic_lax(model, state, model.marked_points[0])

    def test_resonance_guard(self, ensembles):
        model, state = ensembles[(2, 2)]
        bad = PhaseState(phis=state.phis, q=np.array([0.5 * model.cache.tau]),
                         p=state.p, t=state.t)   # rho(Q) = tau, a lattice point
        with pytest.raises(ResonanceError):
            elliptic_lax(model, bad, 0.05 + 0.4j)

    def test_gluing_bounded(self, ensembles):
        model, state = ensembles[(2, 2)]
        maxima = []
        for r in (0.1, 0.05, 0.025):
            vals = []
            for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                z = r * np.exp(1j * theta)
                g = transition_gamma(model, state, z)
                vals.append(np.linalg.norm(g @ elliptic_lax(model, state, z)
                                           @ np.linalg.inv(g)))
            maxima.append(max(vals))
        assert maxima[2] < 2.0 * maxima[0]


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
        for r, E in enumerate(model.basis.root_gens):
            u = model.basis.root_value(r, state.q)
            np.testing.assert_allclose(g @ E @ gi, np.exp(u / z) * E, rtol=1e-12)

    def test_zero_rejected(self, ensembles):
        model, state = ensembles[(2, 2)]
        with pytest.raises(PoleError):
            transition_gamma(model, state, 0.0)


class TestHamiltonian:
    def test_oracle_assembly(self, ensembles):
        # assemble L(q_i) entrywise from the lattice-sum backend and compare
        model, state = ensembles[(2, 2)]
        oracle = LatticeSumOracle(model.cache.tau)
        basis = model.basis
        Ls = orbit_elements(model, state)
        for i, w in enumerate(model.ham_points):
            lmu = np.array([basis.gram_inv @ [np.trace(L @ H) for H in basis.cartan]
                            for L in Ls])
            pi = basis.gram_inv @ state.p \
                - lmu.T @ np.array([oracle.zeta(-p) for p in model.marked_points])
            Lmu = pi + lmu.T @ np.array([oracle.zeta(w - p) for p in model.marked_points])
            L = sum(Lmu[mu] * basis.cartan[mu] for mu in range(basis.rank))
            for r, (i_, j_) in enumerate(basis.root_pairs):
                u = basis.root_value(r, state.q)
                coef = 0j
                for a, pa in enumerate(model.marked_points):
                    phi = (oracle.sigma(u + w - pa)
                           / (oracle.sigma(u) * oracle.sigma(w - pa))
                           * np.exp(-u * (oracle.zeta(w) - oracle.zeta(pa))))
                    coef += Ls[a][i_, j_] * phi
                L = L + coef * basis.root_gens[r]
            H_oracle = model.polys[i].evaluate(L)
            assert abs(H_oracle - hamiltonian(model, state, i)) < 1e-8

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
    def test_residue_at_ham_point(self, ensembles):
        model, state = ensembles[(2, 2)]
        w = model.ham_points[0]
        G = model.polys[0].gradient(elliptic_lax(model, state, w))
        eps = 1e-4
        sym = lambda e: 0.5 * (m_matrix_elliptic(model, state, 0, w + e) * e
                               + m_matrix_elliptic(model, state, 0, w - e) * (-e))
        lim = (4.0 * sym(eps / 2) - sym(eps)) / 3.0
        assert np.linalg.norm(lim - G) < 1e-7 * max(1.0, np.linalg.norm(G))

    def test_cartan_residue_matches_q_velocity(self, ensembles):
        model, state = ensembles[(2, 2)]
        _, _, dH_dp = grad_hamiltonian(model, state, 0)
        # Cartan residue at 0 equals -(grad)^mu = -dH/dp (velocity of q)
        u0 = model.basis.root_value(0, state.q)
        dirc = 1j * u0 / abs(u0)
        eps = 1e-4
        sym = lambda e: 0.5 * (m_matrix_elliptic(model, state, 0, e * dirc) * (e * dirc)
                               + m_matrix_elliptic(model, state, 0, -e * dirc) * (-e * dirc))
        lim = (4.0 * sym(eps / 2) - sym(eps)) / 3.0
        H1 = model.basis.cartan[0]
        np.testing.assert_allclose(np.diag(lim), -dH_dp[0] * np.diag(H1), atol=1e-7)

    def test_diagonal_state_kills_root_part(self):
        X = np.diag([0.4, -0.4]).astype(complex)
        model = make_gaudin_model(1, 2, [0.3 + 0.2j, -0.25 - 0.3j], [-X, X],
                                  [-0.2 + 0.12j], [2], tau=TAU)
        state = PhaseState(phis=[np.eye(2, dtype=complex)] * 2,
                           q=np.array([0.19 + 0.04j]),
                           p=np.array([0.3 - 0.2j]), t=np.zeros(1))
        M = m_matrix_elliptic(model, state, 0, 0.11 + 0.52j)
        assert abs(M[0, 1]) < 1e-14 and abs(M[1, 0]) < 1e-14

    def test_own_pole_guard(self, ensembles):
        model, state = ensembles[(2, 2)]
        with pytest.raises(PoleError):
            m_matrix_elliptic(model, state, 0, model.ham_points[0])


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
        L = elliptic_lax(model, state, z)
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
        assert counts == {"_core": 1, "orbit_elements": 1, "inv": n_sites}

    def test_elliptic_lax_builds_one_table(self, monkeypatch, ensembles):
        model, state = ensembles[(3, 2)]
        counts = {}
        self.count(monkeypatch, models, "_root_table", counts)
        self.count(monkeypatch, weierstrass, "_core", counts)
        elliptic_lax(model, state, 0.11 + 0.31j)
        assert counts == {"_root_table": 1, "_core": 1}

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
        for call in (lambda: elliptic_lax(model, bad, 0.11 + 0.31j),
                     lambda: grad_hamiltonian(model, bad, 0),
                     lambda: m_matrix_elliptic(model, bad, 0, 0.11 + 0.31j)):
            with pytest.raises(ValueError):
                call()
        assert counts == {}
