import itertools
import warnings

import numpy as np
import pytest

from gaudinlab.errors import DimensionError
from gaudinlab.liealg import (
    _THETA13,
    InvariantPolynomial,
    _matrix_power,
    build_slm_basis,
    cartan_components,
    charpoly,
    matrix_exponential,
    random_traceless,
    trace_pairing,
    traceless_part,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def root_gens(b):
    """The elementary matrices E_ij of the roots, in the order of b.roots."""
    gens = []
    for i, j in zip(*b.root_entries):
        E = np.zeros((b.m, b.m), dtype=complex)
        E[i, j] = 1.0
        gens.append(E)
    return gens


class TestBasis:
    def test_sl2_structure(self):
        b = build_slm_basis(2)
        assert b.rank == 1 and len(b.roots) == 2
        np.testing.assert_allclose(b.cartan[0], np.diag([1.0, -1.0]))
        # roots are +-2 on the single Cartan coordinate
        assert sorted(r[0] for r in b.roots) == [-2.0, 2.0]

    def test_sl3_counts(self):
        b = build_slm_basis(3)
        assert b.rank == 2 and len(b.roots) == 6
        assert len(b.cartan) + len(root_gens(b)) == 8   # dim sl3 = m^2 - 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_invariants(self, m):
        b = build_slm_basis(m)
        for H in b.cartan:
            assert abs(np.trace(H)) == 0
        for H in b.cartan:
            for E in root_gens(b):
                assert abs(np.trace(H @ E)) == 0
        # root property [H_mu, E_rho] = rho(H_mu) E_rho
        for r, E in enumerate(root_gens(b)):
            for mu, H in enumerate(b.cartan):
                comm = H @ E - E @ H
                np.testing.assert_allclose(comm, b.roots[r][mu] * E, atol=1e-15)
        np.testing.assert_allclose(b.gram, b.gram.T)
        assert abs(np.linalg.det(b.gram)) > 1e-10

    def test_sl2_commutator_example(self):
        b = build_slm_basis(2)
        H = b.cartan[0]
        r = list(zip(*b.root_entries)).index((0, 1))
        E12 = root_gens(b)[r]
        np.testing.assert_allclose(H @ E12 - E12 @ H, 2.0 * E12)
        assert b.roots[r][0] == 2.0

    def test_bad_dimension(self):
        with pytest.raises(DimensionError):
            build_slm_basis(1)
        with pytest.raises(DimensionError):
            build_slm_basis(0)


class TestPairing:
    def test_examples(self):
        H = np.diag([1.0, -1.0])
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        E21 = E12.T
        assert trace_pairing(H, H) == pytest.approx(2.0)
        assert trace_pairing(E12, E12) == pytest.approx(0.0)
        assert trace_pairing(E12, E21) == pytest.approx(1.0)

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            trace_pairing(np.eye(2), np.eye(3))

    def test_conjugation_invariance(self, rng):
        for _ in range(20):
            A = random_traceless(rng, 3)
            B = random_traceless(rng, 3)
            g = matrix_exponential(random_traceless(rng, 3))
            gi = np.linalg.inv(g)
            lhs = trace_pairing(g @ A @ gi, g @ B @ gi)
            assert abs(lhs - trace_pairing(A, B)) < 1e-10 * max(1.0, abs(lhs))


class TestDecomposition:
    def test_cartan_direction(self):
        b = build_slm_basis(3)
        np.testing.assert_allclose(cartan_components(b, b.cartan[0]), [1.0, 0.0],
                                   atol=1e-14)

    def test_root_direction(self):
        b = build_slm_basis(2)
        E12 = root_gens(b)[list(zip(*b.root_entries)).index((0, 1))]
        np.testing.assert_allclose(cartan_components(b, E12), 0.0, atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_reconstruction(self, rng, m):
        b = build_slm_basis(m)
        for _ in range(10):
            X = random_traceless(rng, m)
            # X minus its Cartan part is the off-diagonal (root) part
            cartan = sum(x * H for x, H in zip(cartan_components(b, X), b.cartan))
            assert np.linalg.norm(np.diag(X - cartan)) < 1e-12 * np.linalg.norm(X)


def _expm_taylor(X, terms=90):
    out = np.eye(X.shape[0], dtype=complex)
    term = np.eye(X.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


class TestExponential:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        a = 0.7 - 0.3j
        E = matrix_exponential(np.diag([a, -a]))
        np.testing.assert_allclose(E, np.diag([np.exp(a), np.exp(-a)]), rtol=1e-14)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_series_oracle(self, rng, scale):
        for _ in range(5):
            X = random_traceless(rng, 4)
            X = X * (scale / np.linalg.norm(X))
            E = matrix_exponential(X)
            ref = _expm_taylor(X)
            assert np.linalg.norm(E - ref) < 1e-12 * np.linalg.norm(ref)

    def test_inverse_pairing(self, rng):
        for _ in range(10):
            X = random_traceless(rng, 3)
            X = X * (5.0 / np.linalg.norm(X))
            P = matrix_exponential(X) @ matrix_exponential(-X)
            assert np.linalg.norm(P - np.eye(3)) < 1e-12

    def test_nonfinite(self):
        X = np.zeros((2, 2))
        X[0, 1] = np.inf
        with pytest.raises(ValueError):
            matrix_exponential(X)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stacked", [False, True])
    def test_overflow_in_the_squarings(self, stacked):
        # finite entries and 1-norm, but exp(800) is beyond double precision
        X = np.diag([800.0, -800.0])
        if stacked:
            X = np.stack([np.diag([2.0, -2.0]), X, np.zeros((2, 2))])
        with pytest.raises(ValueError, match="overflows"):
            matrix_exponential(X)


def _expm_single(X):
    """The one-matrix Pade-13 scaling and squaring, written without stacks."""
    from gaudinlab.liealg import _PADE13 as b, _THETA13

    nrm = np.linalg.norm(X, 1)
    s = max(0, int(np.ceil(np.log2(nrm / _THETA13)))) if nrm > _THETA13 else 0
    A = X / (2.0 ** s)
    I = np.eye(A.shape[0], dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedExponential:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("lead", [(1,), (4,), (2, 3)])
    def test_equals_the_per_matrix_loop(self, rng, m, lead):
        # 1-norms from 2^5 times theta13 (five squarings) down to far below
        # it (none), plus a zero matrix, so one stack mixes scaling powers
        X = rng.standard_normal(lead + (m, m)) + 1j * rng.standard_normal(lead + (m, m))
        flat = X.reshape(-1, m, m)
        norms = np.geomspace(170.0, 1e-3, len(flat))
        flat *= (norms / np.linalg.norm(flat, 1, axis=(-2, -1)))[:, None, None]
        if len(flat) > 1:
            flat[len(flat) // 2] = 0.0
        E = matrix_exponential(X)
        assert E.shape == X.shape
        ref = np.array([_expm_single(x) for x in flat]).reshape(X.shape)
        assert np.array_equal(E, ref)
        assert all(np.array_equal(matrix_exponential(x), r)
                   for x, r in zip(flat, ref.reshape(-1, m, m)))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_lockstep_stack(self, rng, scaled):
        # a (B, N, m, m) stack, as a lockstep conjugation step exponentiates
        # it: every 1-norm at most theta13, so nothing is scaled, or one
        # matrix above it that alone takes three squarings
        X = rng.standard_normal((3, 4, 4, 4)) + 1j * rng.standard_normal((3, 4, 4, 4))
        norms = rng.uniform(0.01, 1.0, (3, 4)) * _THETA13
        X *= (norms / np.linalg.norm(X, 1, axis=(-2, -1)))[..., None, None]
        if scaled:
            X[1, 2] *= 7.5
        E = matrix_exponential(X)
        ref = np.array([_expm_single(x) for x in X.reshape(-1, 4, 4)]).reshape(X.shape)
        assert np.array_equal(E, ref)

    def test_nonfinite_entry_in_a_stack(self):
        X = np.zeros((3, 2, 2), dtype=complex)
        X[2, 1, 0] = np.nan
        with pytest.raises(ValueError):
            matrix_exponential(X)

    def test_entry_bound_above_theta13_with_every_norm_below(self, rng):
        # m max|x_ij| exceeds theta13, so the 1-norms are taken, but none
        # of them does, so nothing is scaled
        X = 1e-3 * (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
        X[:, 1, 2] = [3.0, -2.5j, 1.5 + 1.5j]
        assert (4 * np.abs(X).max(axis=(-2, -1)) > _THETA13).all()
        assert (np.linalg.norm(X, 1, axis=(-2, -1)) < _THETA13).all()
        E = matrix_exponential(X)
        assert all(_same_bits(e, _expm_single(x)) for e, x in zip(E, X))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_nonfinite_entry_in_a_tiny_stack(self, rng, bad):
        X = 1e-3 * (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
        X[1, 0, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            matrix_exponential(X)

    @pytest.mark.parametrize("big", [1e308, 1.5e308 + 1.5e308j])
    def test_overflowing_norm(self, big):
        # finite entries whose 1-norm (or modulus) overflows: a ValueError
        # and no RuntimeWarning on the way
        X = np.full((2, 3, 3), 1e-3, dtype=complex)
        X[1] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                matrix_exponential(X)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 4, 4)])
    def test_empty_stack(self, shape):
        assert matrix_exponential(np.zeros(shape)).shape == shape

    @pytest.mark.parametrize("norm", [0.1, 40.0])
    def test_transposed_matrix(self, rng, norm):
        # a complex matrix whose last axis is not contiguous, unscaled and
        # scaled
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        X *= norm / np.linalg.norm(X, 1)
        assert _same_bits(matrix_exponential(X.T), _expm_single(X.T.copy()))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_shape(self, shape):
        with pytest.raises(DimensionError):
            matrix_exponential(np.zeros(shape))

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_invariant_polynomial_on_a_stack(self, rng, degree):
        X = np.array([random_traceless(rng, 3) for _ in range(5)]).reshape(5, 1, 3, 3)
        P = InvariantPolynomial(degree)
        values = P.evaluate(X)
        assert values.shape == (5, 1)
        assert np.array_equal(values[:, 0], [P.evaluate(x[0]) for x in X])


def _principal_minor_charpoly(X, mp):
    """det(x - X) at the working precision of mp, from the principal
    minors: c_k = (-1)^k times the sum of X's k x k principal minors."""
    m = len(X)
    A = [[mp.mpc(complex(x)) for x in row] for row in X]
    c = [mp.mpc(1)]
    for k in range(1, m + 1):
        minors = sum((mp.det(mp.matrix([[A[i][j] for j in S] for i in S]))
                      for S in itertools.combinations(range(m), k)), mp.mpc(0))
        c.append((-1) ** k * minors)
    return np.array([complex(x) for x in c])


def _accuracy_inputs(rng, m):
    """12 random matrices of entry scale 1.5, the nilpotent Jordan block J
    and 3 J^T, and V diag(a, ..., a, -(m - 1) a) V^-1 (one repeated
    eigenvalue), as one (15, m, m) stack."""
    J = np.eye(m, k=1, dtype=complex)
    V = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    D = np.diag([0.7 + 0.2j] * (m - 1) + [-(m - 1) * (0.7 + 0.2j)])
    return np.concatenate((
        1.5 * (rng.standard_normal((12, m, m)) + 1j * rng.standard_normal((12, m, m))),
        [J, 3 * J.T, V @ D @ np.linalg.inv(V)]))


def _layouts(rng, m):
    """(name, X, flat) triples: one stack of 6 matrices in several layouts
    and stack shapes, and `flat` the same matrices as a contiguous (6, m, m)
    stack in the order of X's flattened leading axes."""
    big = rng.standard_normal((3, 3, m, m)) + 1j * rng.standard_normal((3, 3, m, m))
    flat = np.ascontiguousarray(big[:, 1:]).reshape(6, m, m)
    return [("stack", flat, flat), ("(1,) stack", flat[:1], flat[:1]),
            ("(2, 3) stack", flat.reshape(2, 3, m, m), flat),
            ("(6, 1) stack", flat.reshape(6, 1, m, m), flat),
            ("strided view", big[:, 1:], flat),
            ("Fortran order", np.asfortranarray(flat), flat),
            ("Fortran single", np.asfortranarray(flat[2]), flat[2:3]),
            ("transposed view", np.ascontiguousarray(flat.swapaxes(-1, -2)).swapaxes(-1, -2),
             flat)]


class TestCharpoly:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
    def test_against_a_30_digit_reference(self, rng, m):
        # coefficient k is within m eps max(1, |X|_F)^k on _accuracy_inputs:
        # the largest measured error is 0.16 of that bound (at m = 5), 0.10
        # at m = 6 and 0.04 at m = 8, while np.poly's eigenvalues and Vieta
        # reach 1.8 of it at m <= 5
        mp = pytest.importorskip("mpmath").mp
        X = _accuracy_inputs(rng, m)
        c = charpoly(X)
        assert c.shape == (len(X), m + 1)
        bound = m * np.finfo(float).eps * np.maximum(
            1.0, np.linalg.norm(X, axis=(-2, -1)))[:, None] ** np.arange(m + 1)
        with mp.workdps(30):
            ref = np.array([_principal_minor_charpoly(x, mp) for x in X])
        assert np.all(np.abs(c - ref) <= bound)
        # a nilpotent matrix with exact powers has exact coefficients: x^m
        assert np.array_equal(c[12:14], np.eye(1, m + 1).repeat(2, axis=0))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bits_do_not_depend_on_layout_or_stack_shape(self, rng, m):
        # each matrix gets the bits of its own contiguous single call, in a
        # stack of any shape, through a strided view or in Fortran order
        for name, X, flat in _layouts(rng, m):
            alone = np.array([charpoly(x) for x in flat])
            assert np.array_equal(charpoly(X).reshape(-1, m + 1), alone), name

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_stack_equals_the_per_matrix_calls(self, rng, lead):
        X = rng.standard_normal(lead + (4, 4)) + 1j * rng.standard_normal(lead + (4, 4))
        X0 = X.copy()
        c = charpoly(X)
        assert np.array_equal(X, X0)
        assert c.shape == lead + (5,)
        flat = [charpoly(x) for x in X.reshape(-1, 4, 4)]
        assert np.array_equal(c.reshape(-1, 5), flat)

    def test_empty_stack(self):
        assert charpoly(np.zeros((3, 0, 2, 2))).shape == (3, 0, 3)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_shape(self, shape):
        with pytest.raises(DimensionError):
            charpoly(np.zeros(shape))


class TestInvariantPolynomials:
    def test_eval_examples(self):
        P2 = InvariantPolynomial(2)
        assert P2.evaluate(np.diag([1.0, -1.0])) == pytest.approx(1.0)
        assert P2.evaluate(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)
        P3 = InvariantPolynomial(3)
        assert P3.evaluate(np.diag([1.0, 1.0, -2.0])) == pytest.approx(-2.0)

    def test_degree_validation(self):
        with pytest.raises(DimensionError):
            InvariantPolynomial(1)
        with pytest.raises(DimensionError):
            InvariantPolynomial(2 ** 53 + 1)

    def test_conjugation_invariance(self, rng):
        P = InvariantPolynomial(3)
        for _ in range(100):
            X = random_traceless(rng, 3)
            g = matrix_exponential(random_traceless(rng, 3, 0.6))
            v0 = P.evaluate(X)
            v1 = P.evaluate(g @ X @ np.linalg.inv(g))
            assert abs(v1 - v0) < 1e-10 * (1.0 + abs(v0))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_against_a_30_digit_reference(self, rng, m):
        # P_k on _accuracy_inputs is within k eps max(1, |X|_F)^k of the
        # 30-digit Tr(X^k)/k: the largest measured error is 0.15 of that
        # bound (k = 2 at m = 2), and a nilpotent matrix with exact powers
        # gives exactly 0
        mp = pytest.importorskip("mpmath").mp
        X = _accuracy_inputs(rng, m)
        norms = np.maximum(1.0, np.linalg.norm(X, axis=(-2, -1)))
        for k in range(2, 8):
            P = InvariantPolynomial(k).evaluate(X)
            with mp.workdps(30):
                powers = [mp.matrix([[mp.mpc(complex(v)) for v in row] for row in x]) ** k
                          for x in X]
                ref = np.array([complex(sum(A[i, i] for i in range(m))) for A in powers]) / k
            assert np.all(np.abs(P - ref) <= k * np.finfo(float).eps * norms ** k), k
            assert np.array_equal(P[12:14], [0, 0]), k

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bits_do_not_depend_on_layout_or_stack_shape(self, rng, m):
        # as charpoly's: each P_k(X) is the value of X's own single call
        for k in range(2, 8):
            P = InvariantPolynomial(k)
            for name, X, flat in _layouts(rng, m):
                alone = [P.evaluate(x) for x in flat]
                assert np.array_equal(np.reshape(P.evaluate(X), -1), alone), (k, name)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_power_takes_the_products_of_matrix_power(self, rng, lead, n):
        X = rng.standard_normal(lead + (3, 3)) + 1j * rng.standard_normal(lead + (3, 3))
        assert np.array_equal(_matrix_power(X, n), np.linalg.matrix_power(X, n))

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_gradient_is_the_traceless_power(self, rng, lead, k):
        # bit for bit the traceless part of X^(k-1), also as the written-out
        # P - (tr P / m) I, and X itself is left as it was
        X = rng.standard_normal(lead + (4, 4)) + 1j * rng.standard_normal(lead + (4, 4))
        X0 = X.copy()
        G = InvariantPolynomial(k).gradient(X)
        P = _matrix_power(X, k - 1)
        assert _same_bits(G, traceless_part(P))
        assert _same_bits(G, P - (np.trace(P, axis1=-2, axis2=-1) / 4)[..., None, None] * np.eye(4))
        assert _same_bits(X, X0)

    def test_quadratic_gradient_is_identity_map(self, rng):
        P = InvariantPolynomial(2)
        X = random_traceless(rng, 3)
        np.testing.assert_allclose(P.gradient(X), X, atol=1e-14)

    def test_gradient_kills_adjoint_directions(self, rng):
        # <[X, Phi], grad P(Phi)> = 0: the gradient is orthogonal to the orbit
        P = InvariantPolynomial(3)
        for _ in range(20):
            Phi = random_traceless(rng, 3)
            X = random_traceless(rng, 3)
            adj = X @ Phi - Phi @ X
            val = trace_pairing(adj, P.gradient(Phi))
            assert abs(val) < 1e-12 * max(1.0, np.linalg.norm(Phi) ** 3)

    def test_gradient_equivariance(self, rng):
        P = InvariantPolynomial(4)
        X = random_traceless(rng, 3)
        g = matrix_exponential(random_traceless(rng, 3, 0.5))
        gi = np.linalg.inv(g)
        lhs = P.gradient(g @ X @ gi)
        rhs = g @ P.gradient(X) @ gi
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, np.linalg.norm(rhs))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_gradient_first_order_expansion(self, rng, k):
        P = InvariantPolynomial(k)
        X = random_traceless(rng, 3)
        Y = random_traceless(rng, 3)
        G = P.gradient(X)
        errs = []
        for eps in (1e-3, 1e-4, 1e-5):
            err = abs(P.evaluate(X + eps * Y) - P.evaluate(X)
                      - eps * trace_pairing(Y, G))
            errs.append(err)
        # second-order convergence: fitted C = err / eps^2 stable across eps
        cs = [e / eps ** 2 for e, eps in zip(errs, (1e-3, 1e-4, 1e-5))]
        assert cs[0] == pytest.approx(cs[1], rel=0.05)
        assert cs[1] == pytest.approx(cs[2], rel=0.05)
