import numpy as np
import pytest

from gaudinlab import weierstrass
from gaudinlab.errors import PoleError, ResonanceError
from gaudinlab.weierstrass import (
    POLE_TOL,
    LatticeSumOracle,
    build_cache,
    kernel_phi,
    kernel_table,
    lattice_distance,
    quasi_periodicity_check,
    reduce_to_cell,
    sigma_eval,
    weierstrass_eval,
    zeta_eval,
)

TAU = 1.2j


@pytest.fixture(scope="module")
def cache():
    return build_cache(TAU)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_cell_points(rng, tau, n, margin=0.1):
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-0.45, 0.45) + rng.uniform(-0.45, 0.45) * np.real(tau),
                    rng.uniform(-0.45, 0.45) * np.imag(tau))
        if min(abs(z), abs(z - 1), abs(z + 1), abs(z - tau), abs(z + tau)) > margin:
            out.append(z)
    return out


class TestCache:
    @pytest.mark.parametrize("tau", [0.5, -1.0, 1.0 - 0.2j, 0.0])
    def test_rejects_lower_half_plane(self, tau):
        with pytest.raises(PoleError):
            build_cache(tau)

    def test_square_lattice(self):
        c = build_cache(1j)
        oracle = LatticeSumOracle(1j)
        # fourfold symmetry: eta1 real and eta2 = -i eta1
        assert abs(np.imag(c.eta1)) < 1e-12
        assert abs(c.eta2 + 1j * c.eta1) < 1e-12
        # independent Eisenstein-sum value for eta1
        assert abs(c.eta1 - oracle.eta1()) < 1e-11

    def test_legendre_at_15i(self):
        c = build_cache(1.5j)
        assert abs(c.tau * c.eta1 - c.eta2 - 1j * np.pi) < 1e-10

    def test_legendre_random_moduli(self, rng):
        for _ in range(10):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
            c = build_cache(tau)
            assert abs(tau * c.eta1 - c.eta2 - 1j * np.pi) < 1e-10


class TestEvaluation:
    def test_origin_normalisation(self, cache):
        z = 1e-4
        _, ze, sig = weierstrass_eval(cache, z)
        assert abs(ze - 1.0 / z) < 1e-6
        assert abs(sig / z - 1.0) < 1e-6

    def test_parity(self, cache, rng):
        for z in random_cell_points(rng, TAU, 10):
            wp1, ze1, s1 = weierstrass_eval(cache, z)
            wp2, ze2, s2 = weierstrass_eval(cache, -z)
            assert wp1 == pytest.approx(wp2)
            assert ze1 == pytest.approx(-ze2)
            assert s1 == pytest.approx(-s2)

    def test_wp_double_periodicity(self, cache, rng):
        for z in random_cell_points(rng, TAU, 5):
            base = weierstrass_eval(cache, z)[0]
            for shift in (1.0, TAU, 3.0 - 2.0 * TAU):
                assert weierstrass_eval(cache, z + shift)[0] == pytest.approx(base, rel=1e-11)

    def test_derivative_structure(self, cache, rng):
        h = 1e-6
        for z in random_cell_points(rng, TAU, 50):
            wp, ze, sig = weierstrass_eval(cache, z)
            dz = (zeta_eval(cache, z + h) - zeta_eval(cache, z - h)) / (2 * h)
            assert abs(dz + wp) < 1e-7 * max(1.0, abs(wp))
            ds = (sigma_eval(cache, z + h) - sigma_eval(cache, z - h)) / (2 * h)
            assert abs(ds / sig - ze) < 1e-7 * max(1.0, abs(ze))

    @pytest.mark.parametrize("l", [1, 2])
    def test_quasi_periodicity(self, cache, rng, l):
        for z in random_cell_points(rng, TAU, 10):
            assert quasi_periodicity_check(cache, z, l) < 1e-9

    @pytest.mark.parametrize("point", [0.0, 1.0, 1.2j, 3.0 + 2.4j])
    def test_pole_error(self, cache, point):
        with pytest.raises(PoleError):
            weierstrass_eval(cache, point)
        # sigma is entire and vanishes on the lattice
        assert abs(sigma_eval(cache, point)) < 1e-12

    def test_lattice_distance(self, cache):
        assert lattice_distance(cache, 0.3) == pytest.approx(0.3)
        assert lattice_distance(cache, 5.0 + 1e-8) == pytest.approx(1e-8, rel=1e-3)

    def test_far_from_origin_stays_accurate(self, cache):
        # the cell reduction carries the quasi-periodicity shifts, so values
        # far from the origin keep full precision
        z = 0.31 + 0.22j
        wp0, ze0, sig0 = weierstrass_eval(cache, z)
        shift = 50 + 30 * TAU
        wp1, ze1, _ = weierstrass_eval(cache, z + shift)
        assert wp1 == pytest.approx(wp0, rel=1e-12)
        assert ze1 == pytest.approx(ze0 + 100 * cache.eta1 + 60 * cache.eta2,
                                    rel=1e-12)
        # sigma grows like exp(quadratic); compare against the shift law at a
        # moderate distance where it is still representable
        sig2 = sigma_eval(cache, z + 4 + 3 * TAU)
        eta = 8 * cache.eta1 + 6 * cache.eta2
        # sign (-1)^(n1 + n2 + n1 n2) = -1 for (n1, n2) = (4, 3)
        expected = -sig0 * np.exp(eta * (z + (4 + 3 * TAU) / 2))
        assert sig2 == pytest.approx(expected, rel=1e-11)


class TestDualAlgorithm:
    def test_spot_value(self, cache):
        oracle = LatticeSumOracle(TAU)
        z = 0.3 + 0.1j
        wp, ze, sig = weierstrass_eval(cache, z)
        assert abs(wp - oracle.wp(z)) < 1e-10 * max(1.0, abs(wp))
        assert abs(ze - oracle.zeta(z)) < 1e-10 * max(1.0, abs(ze))
        assert abs(sig - oracle.sigma(z)) < 1e-10 * max(1.0, abs(sig))

    @pytest.mark.parametrize("tau", [1.2j, 0.3 + 1.5j, 2.5j])
    def test_grid_agreement(self, tau):
        c = build_cache(tau)
        oracle = LatticeSumOracle(tau)
        worst = 0.0
        for x in np.linspace(0.08, 0.92, 10):
            for y in np.linspace(0.08, 0.92, 10):
                z = (x - 0.5) + (y - 0.5) * tau
                wp, ze, sig = weierstrass_eval(c, z)
                worst = max(worst,
                            abs(wp - oracle.wp(z)) / max(1.0, abs(wp)),
                            abs(ze - oracle.zeta(z)) / max(1.0, abs(ze)),
                            abs(sig - oracle.sigma(z)) / max(1.0, abs(sig)))
        assert worst < 1e-10


class TestKernel:
    def test_residue_limit(self, cache):
        u, pole = 0.21 + 0.13j, 0.17 + 0.31j
        eps = 1e-4
        plus = kernel_phi(cache, u, pole + eps, pole)[0] * eps
        minus = kernel_phi(cache, u, pole - eps, pole)[0] * (-eps)
        expected = np.exp(-u * zeta_eval(cache, pole))
        assert abs(0.5 * (plus + minus) - expected) < 1e-7

    def test_log_derivatives(self, cache, rng):
        u, pole = 0.26 - 0.09j, -0.22 + 0.4j
        h = 1e-6
        for z in random_cell_points(rng, TAU, 8):
            if abs(z - pole) < 0.15 or abs(u + z - pole) < 0.15:
                continue
            _, dlu, dlz = kernel_phi(cache, u, z, pole)
            fdu = (np.log(kernel_phi(cache, u + h, z, pole)[0])
                   - np.log(kernel_phi(cache, u - h, z, pole)[0])) / (2 * h)
            fdz = (np.log(kernel_phi(cache, u, z + h, pole)[0])
                   - np.log(kernel_phi(cache, u, z - h, pole)[0])) / (2 * h)
            assert abs(fdu - dlu) < 1e-7
            assert abs(fdz - dlz) < 1e-7

    def test_double_periodicity_in_z(self, cache):
        u, pole = 0.21 + 0.13j, 0.17 + 0.31j
        z = -0.31 + 0.52j
        v0 = kernel_phi(cache, u, z, pole)[0]
        assert kernel_phi(cache, u, z + 1, pole)[0] == pytest.approx(v0, rel=1e-10)
        assert kernel_phi(cache, u, z + TAU, pole)[0] == pytest.approx(v0, rel=1e-10)

    def test_pole_guards(self, cache):
        with pytest.raises(PoleError):
            kernel_phi(cache, 1e-13, 0.3, 0.1)       # u on the lattice
        with pytest.raises(PoleError):
            kernel_phi(cache, 0.2, 0.1, 0.1)          # z at the pole
        with pytest.raises(PoleError):
            kernel_phi(cache, 0.2, 1.0 + TAU, 0.1)    # z on the lattice


class TestArrayCore:
    @pytest.mark.parametrize("tau", [1.1j, 0.3 + 1.5j])
    def test_kernel_table_against_oracle(self, tau):
        # Phi and its log-derivatives assembled from the lattice-sum oracle;
        # u and z include points one period outside the fundamental cell
        c = build_cache(tau)
        oracle = LatticeSumOracle(tau)
        us = np.array([0.21 + 0.13j, -0.17 + 0.22j, 1.31 - 0.05j, -0.12 - 0.3j - tau])
        poles = np.array([0.17 + 0.31j, -0.28 - 0.12j])
        worst = 0.0
        for z in (-0.31 + 0.52j, 1.4 - 0.2j, 0.05 + 0.1j + tau, -1.2 + 0.3j - tau):
            table = kernel_table(c, us, z, poles)
            assert table.value.shape == (len(us), len(poles))
            expected_zp = [oracle.zeta(z - p) for p in poles]
            worst = max(worst, np.max(np.abs(table.zeta_zp - expected_zp)
                                      / np.maximum(1.0, np.abs(expected_zp))))
            for r, u in enumerate(us):
                for a, p in enumerate(poles):
                    s = u + z - p
                    pairs = (
                        (table.value[r, a], oracle.sigma(s)
                         / (oracle.sigma(u) * oracle.sigma(z - p)) * np.exp(-u * oracle.zeta(z))),
                        (table.dlog_du[r, a], oracle.zeta(s) - oracle.zeta(u) - oracle.zeta(z)),
                        (table.dlog_dz[r, a],
                         oracle.zeta(s) - oracle.zeta(z - p) + u * oracle.wp(z)),
                    )
                    for got, ref in pairs:
                        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
        assert worst < 1e-10

    def test_wrappers_match_core(self, cache, rng):
        # the public functions are wrappers over the array core, for a
        # single argument (shape ()) and for an array of them (shape (k,))
        zs = np.array(random_cell_points(rng, TAU, 6)) + np.array([0, 1, -2, TAU, 0, 3 - TAU])
        wp, ze, sig, dist = weierstrass._core(cache, zs)
        arrays = weierstrass_eval(cache, zs)
        for got, ref in zip(arrays, (wp, ze, sig)):
            assert got.shape == zs.shape
            np.testing.assert_allclose(got, ref, rtol=1e-15)
        np.testing.assert_allclose(zeta_eval(cache, zs), ze, rtol=1e-15)
        np.testing.assert_allclose(sigma_eval(cache, zs), sig, rtol=1e-15)
        np.testing.assert_allclose(lattice_distance(cache, zs), dist, rtol=1e-15)
        z0, n1, n2 = reduce_to_cell(cache, zs)
        np.testing.assert_allclose(z0 + n1 + n2 * TAU, zs, rtol=1e-14)
        for k, z in enumerate(zs):
            one = weierstrass_eval(cache, z)
            assert np.shape(one[0]) == ()
            for got, ref in zip(one, (wp[k], ze[k], sig[k])):
                assert got == pytest.approx(ref, rel=1e-14)
            assert zeta_eval(cache, z) == pytest.approx(ze[k], rel=1e-14)
            assert sigma_eval(cache, z) == pytest.approx(sig[k], rel=1e-14)
            assert lattice_distance(cache, z) == pytest.approx(dist[k], rel=1e-14)
            z0k, n1k, n2k = reduce_to_cell(cache, z)
            assert (z0k, n1k, n2k) == (pytest.approx(z0[k], abs=1e-15), n1[k], n2[k])
        u, pole, z = 0.21 + 0.13j, 0.17 + 0.31j, -0.31 + 0.52j
        table = kernel_table(cache, [u], z, [pole])
        assert kernel_phi(cache, u, z, pole) == pytest.approx(
            (table.value[0, 0], table.dlog_du[0, 0], table.dlog_dz[0, 0]), rel=1e-15)

    def test_arguments_near_the_lattice_raise(self, cache):
        near = 0.5 * POLE_TOL
        with pytest.raises(PoleError):
            weierstrass_eval(cache, np.array([0.3 + 0.1j, 2.0 - TAU + near]))
        with pytest.raises(PoleError):
            zeta_eval(cache, 1.0 + TAU + near * 1j)
        us, poles = np.array([0.21 + 0.13j, -0.17 + 0.22j]), np.array([0.17 + 0.31j])
        with pytest.raises(PoleError):
            kernel_table(cache, us, 1.0 + near, poles)                   # z
        with pytest.raises(PoleError):
            kernel_table(cache, us, poles[0] + TAU + near, poles)        # z - pole
        with pytest.raises(ResonanceError):
            kernel_table(cache, np.append(us, -1.0 + TAU + near), 0.3, poles)   # u
        with pytest.raises(PoleError):
            kernel_table(cache, us, poles[0] - us[1] + 1.0 + near, poles)  # u + z - pole
        # just outside POLE_TOL every argument is accepted
        far = 2.0 * POLE_TOL
        kernel_table(cache, np.append(us, 1.0 + far), poles[0] - us[1] + far, poles)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.3, np.inf)])
    def test_non_finite_argument_raises(self, cache, bad):
        # rejected before any arithmetic, so no NaN reaches numpy
        for call in (lambda: weierstrass_eval(cache, np.array([0.3 + 0.1j, bad])),
                     lambda: sigma_eval(cache, bad),
                     lambda: lattice_distance(cache, bad),
                     lambda: reduce_to_cell(cache, bad),
                     lambda: kernel_table(cache, [0.2 + 0.1j], bad, [0.1])):
            with pytest.raises(ValueError, match="non-finite"):
                call()
