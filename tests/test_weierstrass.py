import warnings

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

    def test_largest_modulus(self):
        # past Im(tau) = 34.76 the theta series' sin and cos of pi (tau/2)
        # 13 overflow; up to there eta1 and eta2 are finite and exact
        c = build_cache(34j)
        assert np.isfinite(c.eta1) and np.isfinite(c.eta2)
        assert abs(34j * c.eta1 - c.eta2 - 1j * np.pi) < 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError, match=r"tau = 36j .* Im\(tau\) = 34.76"):
                build_cache(36j)

    def test_square_lattice(self):
        c = build_cache(1j)
        oracle = LatticeSumOracle(1j)
        # fourfold symmetry: eta1 real and eta2 = -i eta1
        assert abs(np.imag(c.eta1)) < 1e-12
        assert abs(c.eta2 + 1j * c.eta1) < 1e-12
        # independent Eisenstein-sum value for eta1
        assert abs(c.eta1 - oracle.eta1()) < 1e-11


class TestEvaluation:
    def test_wp_double_periodicity(self, cache, rng):
        for z in random_cell_points(rng, TAU, 5):
            base = weierstrass_eval(cache, z)[0]
            for shift in (1.0, TAU, 3.0 - 2.0 * TAU):
                assert weierstrass_eval(cache, z + shift)[0] == pytest.approx(base, rel=1e-11)

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
    # tau = 1.2i and 0.3 + 1.5i are the grid of the weier/dual_algorithm row
    @pytest.mark.parametrize("tau", [2.5j])
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
    def test_double_periodicity_in_z(self, cache):
        us, poles = [0.21 + 0.13j, -0.1 + 0.05j], [0.17 + 0.31j, -0.2 - 0.1j]
        z = -0.31 + 0.52j
        v = kernel_table(cache, us, [z, z + 1, z + TAU], poles).value
        np.testing.assert_allclose(v[1:], [v[0], v[0]], rtol=1e-10)

    def test_pole_guards(self, cache):
        us = [0.2, 0.15 + 0.1j]
        with pytest.raises(PoleError):
            kernel_table(cache, [1e-13, 0.2], 0.3, [0.1])     # u on the lattice
        with pytest.raises(PoleError):
            kernel_table(cache, us, 0.1, [0.3, 0.1])          # z at a pole
        with pytest.raises(PoleError):
            kernel_table(cache, us, 1.0 + TAU, [0.1])         # z on the lattice


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
        z0, n1, n2, _ = weierstrass._cell(cache, zs)
        np.testing.assert_allclose(z0 + n1 + n2 * TAU, zs, rtol=1e-14)
        assert np.all(np.abs(z0.real) <= 0.5) and np.all(np.abs(z0.imag) <= 0.5 * TAU.imag)
        for k, z in enumerate(zs):
            one = weierstrass_eval(cache, z)
            assert np.shape(one[0]) == ()
            for got, ref in zip(one, (wp[k], ze[k], sig[k])):
                assert got == pytest.approx(ref, rel=1e-14)
            assert zeta_eval(cache, z) == pytest.approx(ze[k], rel=1e-14)
            assert sigma_eval(cache, z) == pytest.approx(sig[k], rel=1e-14)
            assert lattice_distance(cache, z) == pytest.approx(dist[k], rel=1e-14)

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

    @pytest.mark.parametrize("n_poles", [1, 3])
    def test_per_row_z_equals_the_calls_per_point(self, cache, rng, n_poles):
        # three groups of two roots, every group at its own z: a group's
        # rows equal its one-point table bit for bit
        us = rng.uniform(-0.3, 0.3, (3, 2)) + 1j * rng.uniform(-0.2, 0.2, (3, 2))
        zs = np.array(random_cell_points(rng, TAU, 3))
        poles = np.array(random_cell_points(rng, TAU, n_poles))
        table = kernel_table(cache, us, zs, poles)
        assert table.value.shape == (3, 2, n_poles)
        assert table.zeta_z.shape == (3,) and table.zeta_zp.shape == (3, n_poles)
        for b, z in enumerate(zs):
            for got, ref in zip(table, kernel_table(cache, us[b], z, poles)):
                np.testing.assert_array_equal(got[b], ref)

    @pytest.mark.parametrize("n_poles", [1, 3])
    def test_points_broadcast_over_groups(self, cache, rng, n_poles):
        # us (C, 1, R) against z (Z,): a (C, Z, R, P) table whose (c, k)
        # block is the table of group c at point k, bit for bit; z and
        # z - pole keep z's shape
        us = rng.uniform(-0.3, 0.3, (4, 1, 2)) + 1j * rng.uniform(-0.2, 0.2, (4, 1, 2))
        zs = np.array(random_cell_points(rng, TAU, 3))
        poles = np.array(random_cell_points(rng, TAU, n_poles))
        table = kernel_table(cache, us, zs, poles)
        assert table.value.shape == (4, 3, 2, n_poles)
        assert table.zeta_z.shape == (3,) and table.zeta_zp.shape == (3, n_poles)
        for c in range(4):
            for k, z in enumerate(zs):
                one = kernel_table(cache, us[c, 0], z, poles)
                for got, ref in zip(table[:3], one[:3]):
                    np.testing.assert_array_equal(got[c, k], ref)
                np.testing.assert_array_equal(table.zeta_z[k], one.zeta_z)
                np.testing.assert_array_equal(table.zeta_zp[k], one.zeta_zp)

    def test_kernel_phi_is_an_entry_of_a_larger_table(self, cache, rng):
        # kernel_phi rounds like the tables the flows use: its three values
        # are entry [0, 0] of a two-row table, bit for bit
        checked = 0
        while checked < 200:
            u, u2, z, pole = random_cell_points(rng, TAU, 4)
            if lattice_distance(cache, u + z - pole) < 0.1:
                continue
            table = kernel_table(cache, [u, u2], z, [pole])
            assert kernel_phi(cache, u, z, pole) == (
                table.value[0, 0], table.dlog_du[0, 0], table.dlog_dz[0, 0])
            checked += 1

    def test_per_row_z_errors_name_the_row(self, cache):
        # three groups of two roots, each at its own z: the message names
        # the offending group's arguments
        us = np.array([[0.21 + 0.13j, -0.17 + 0.22j],
                       [0.11 - 0.05j, 0.08 + 0.19j],
                       [-0.23 + 0.04j, 0.14 - 0.16j]])
        poles = np.array([0.17 + 0.31j])
        near = 0.5 * POLE_TOL

        def raises(error, zs, us, *named):
            with pytest.raises(error) as info:
                kernel_table(cache, us, zs, poles)
            for x in named:
                assert f"{x}" in str(info.value)

        zs = np.array([0.3 + 0.1j, 1.0 + TAU + near, 0.05 - 0.3j])
        raises(PoleError, zs, us, f"z = {zs[1]} is on the lattice")
        zs = np.array([0.3 + 0.1j, -0.2 + 0.25j, poles[0] + near])
        raises(PoleError, zs, us, f"z = {zs[2]} is at the pole {poles[0]}")
        zs = np.array([0.3 + 0.1j, -0.2 + 0.25j, 0.05 - 0.3j])
        bad = us.copy()
        bad[2, 1] = 1.0 + near
        raises(ResonanceError, zs, bad, f"u = {bad[2, 1]} is on the lattice")
        zs[1] = poles[0] - us[1, 1] + 1.0 + near
        raises(PoleError, zs, us, f"u = {us[1, 1]}, z = {zs[1]}, pole = {poles[0]}")

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.3, np.inf)])
    def test_non_finite_argument_raises(self, cache, bad):
        # rejected before any arithmetic, so no NaN reaches numpy
        for call in (lambda: weierstrass_eval(cache, np.array([0.3 + 0.1j, bad])),
                     lambda: sigma_eval(cache, bad),
                     lambda: lattice_distance(cache, bad),
                     lambda: kernel_table(cache, [0.2 + 0.1j], bad, [0.1])):
            with pytest.raises(ValueError, match="non-finite"):
                call()


class TestVerifyKernelRoute:
    def test_kernel_rows_go_through_tables(self, monkeypatch):
        # the weier/kernel_* rows take one kernel table each for the residue,
        # the values at the sample points and each of their two stencils;
        # every five-point stencil calls its function once, on all offsets
        import gaudinlab
        from gaudinlab import verify

        assert not hasattr(gaudinlab, "kernel_phi") and not hasattr(verify, "kernel_phi")
        tables, stencils = [], []

        def counted_table(*args):
            tables.append(np.shape(args[2]))
            return kernel_table(*args)

        def counted_stencil(f, x):
            calls = []
            stencils.append(calls)
            return five_point(lambda xs: calls.append(np.shape(xs)) or f(xs), x)

        five_point = verify._five_point
        monkeypatch.setattr(verify, "kernel_table", counted_table)
        monkeypatch.setattr(verify, "_five_point", counted_stencil)
        rows = verify.suite_weierstrass(seed=1)
        assert all(r.passed for r in rows)
        # zeta' and sigma' on 50 points, then d/du and d/dz at n kernel points
        n = tables[1][0]
        assert 0 < n <= 10
        assert stencils == [[(4, 50)], [(4, 50)], [(4,)], [(4, n)]]
        assert tables == [(2,), (n,), (n,), (4, n)]
