import numpy as np
import pytest

from gaudinlab.errors import ConfigError, DimensionError
from gaudinlab.liealg import matrix_exponential
from gaudinlab.univar import (
    GaugeField,
    ToyHamiltonian,
    check_closure,
    integrate_toy,
    make_toy_system,
    noether_moment,
    rotation_invariant_pair,
    so3_generators,
    so3_invariant_system,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestMoment:
    def test_zero_momentum(self):
        sys = rotation_invariant_pair()
        np.testing.assert_allclose(noether_moment(sys, np.zeros(2), [1.0, 2.0]), 0.0)

    def test_rotation_charge(self):
        sys = rotation_invariant_pair()
        p, q = np.array([0.3, -0.7]), np.array([1.1, 0.4])
        # mu = -p . (X q) = p1 q2 - p2 q1, angular momentum up to sign
        assert noether_moment(sys, p, q)[0] == pytest.approx(p[0] * q[1] - p[1] * q[0])

    def test_dimension_guard(self):
        sys = rotation_invariant_pair()
        with pytest.raises(DimensionError):
            noether_moment(sys, np.zeros(3), np.zeros(3))

    def test_conservation_along_invariant_flows(self):
        sys = rotation_invariant_pair()
        p0, q0 = np.array([0.7, -0.4]), np.array([0.5, 0.9])
        for i in range(2):
            ps, qs, _ = integrate_toy(sys, p0, q0, i, 1.0, 0.01)
            mus = np.array([noether_moment(sys, p, q) for p, q in zip(ps, qs)])
            assert np.max(np.abs(mus - mus[0])) < 1e-9


class TestGaugedFlow:
    def test_pure_gauge_linear_orbit(self):
        zeroH = ToyHamiltonian(lambda p, q: 0.0,
                               lambda p, q: (np.zeros(2), np.zeros(2)))
        free = make_toy_system(2, [zeroH], [ROT], np.zeros((1, 1, 1)))
        field = GaugeField(((lambda t: 0.45,),))
        p0, q0 = np.array([0.2, 0.1]), np.array([1.0, -0.5])
        ps, qs, _ = integrate_toy(free, p0, q0, 0, 1.0, 1e-3, field=field)
        E = matrix_exponential(0.45 * ROT).real
        np.testing.assert_allclose(qs[-1], E @ q0, atol=1e-9)
        # the fibre transforms with the inverse transpose
        np.testing.assert_allclose(ps[-1], np.linalg.solve(E.T, p0), atol=1e-9)


class TestClosure:
    def test_single_hamiltonian(self):
        zeroH = ToyHamiltonian(lambda p, q: 0.5 * p @ p,
                               lambda p, q: (p.copy(), np.zeros(2)))
        sys = make_toy_system(2, [zeroH], [np.zeros((2, 2))], np.zeros((1, 1, 1)))
        F = check_closure(sys, np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert F.shape == (1, 1) and F[0, 0] == 0.0

    def test_bracket_agrees_with_finite_differences(self):
        sys = rotation_invariant_pair()
        p, q = np.array([0.7, -0.4]), np.array([0.5, 0.9])
        grads = [H.grad(p, q) for H in sys.hamiltonians]
        analytic = np.dot(grads[0][0], grads[1][1]) - np.dot(grads[0][1], grads[1][0])
        h = 1e-6
        fd_grads = []
        for H in sys.hamiltonians:
            dp = np.array([(H.value(p + h * e, q) - H.value(p - h * e, q)) / (2 * h)
                           for e in np.eye(2)])
            dq = np.array([(H.value(p, q + h * e) - H.value(p, q - h * e)) / (2 * h)
                           for e in np.eye(2)])
            fd_grads.append((dp, dq))
        fd = np.dot(fd_grads[0][0], fd_grads[1][1]) - np.dot(fd_grads[0][1], fd_grads[1][0])
        assert abs(fd - analytic) < 1e-6


class TestValidation:
    def test_algebra_must_close(self):
        gens, eps = so3_generators()
        with pytest.raises(ConfigError, match="close"):
            make_toy_system(3, [], gens, np.zeros((3, 3, 3)))

    def test_so3_closure_accepted(self):
        sys = so3_invariant_system()
        assert sys.dim_g == 3

    def test_invariance_enforced(self):
        bad = ToyHamiltonian(lambda p, q: q[0],
                             lambda p, q: (np.zeros(2), np.eye(2)[0]))
        with pytest.raises(ConfigError, match="invariant"):
            make_toy_system(2, [bad], [ROT], np.zeros((1, 1, 1)))
