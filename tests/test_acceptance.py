"""Acceptance gate: every contract criterion runs through the same suite
engine as `gaudin-lab verify all` and prints one PASS/FAIL line.

Criteria are grouped by the suite that produces their rows; each criterion
asserts that all of its rows passed at the stated tolerances and that the
producing suite stayed inside the runtime budget.  The suites run once, with
every `evolve` call recorded, so that one more test can check that no suite
evolves a trajectory twice, and with their direct calls of the point
evaluations (L, M and gamma) counted.
"""

import inspect
import itertools
import json
import time

import numpy as np
import pytest

from gaudinlab import verify
from gaudinlab.flows import FlowCurve
from gaudinlab.models import model_to_dict, state_to_dict
from gaudinlab.verify import SUITES

SEED = 0
BUDGETS = {
    # suite -> generous wall-clock budget implied by the criteria it serves
    "weierstrass": 5.0,
    "rational": 50.0,       # involutivity (10) + dynamics (30) + curvature (10)
    "elliptic": 75.0,       # structure (15) + involutivity/flows (60)
    "univar": 5.0,
    "multiform": 20.0,
}


def _recording(evolve, calls):
    """evolve that also logs each curve it evolves as (start, curve): the
    start is every other argument, the model and the state by value, as one
    JSON string.  A lockstep call logs each of its curves with the shared
    start."""
    signature = inspect.signature(evolve)

    def recorded(*args, **kwargs):
        start = signature.bind(*args, **kwargs)
        start.apply_defaults()
        start = dict(start.arguments)
        curve = start.pop("curve")
        start["model"] = model_to_dict(start["model"])
        start["state"] = state_to_dict(start["state"])
        start = json.dumps(start, sort_keys=True)
        curves = [curve] if isinstance(curve, FlowCurve) else list(curve)
        calls.extend((start, c) for c in curves)
        return evolve(*args, **kwargs)
    return recorded


POINT_EVALUATIONS = ("lax_matrix", "m_matrix", "transition_gamma")


def _counting(fn, name, counts):
    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return counted


@pytest.fixture(scope="module")
def results():
    """suite -> (rows, seconds, the suite's evolve calls, its number of
    direct calls of each point evaluation)"""
    out = {}
    evolve = verify.evolve
    originals = {f: getattr(verify, f) for f in POINT_EVALUATIONS}
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in SUITES.items():
            calls, counts = [], {}
            mp.setattr(verify, "evolve", _recording(evolve, calls))
            for f, original in originals.items():
                mp.setattr(verify, f, _counting(original, f, counts))
            t0 = time.perf_counter()
            rows = fn(SEED)
            out[name] = (rows, time.perf_counter() - t0, calls, counts)
    return out


def _gate(results, criterion, suite, prefixes, extra_suites=()):
    rows, seconds, _, _ = results[suite]
    picked = [r for r in rows if any(r.name.startswith(p) for p in prefixes)]
    for other in extra_suites:
        orows, osec, _, _ = results[other]
        seconds += osec
        picked += [r for r in orows if any(r.name.startswith(p) for p in prefixes)]
    assert picked, f"criterion {criterion}: no checks matched {prefixes}"
    failed = [r for r in picked if not r.passed]
    status = "PASS" if not failed else "FAIL"
    worst = max(picked, key=lambda r: r.measured / max(r.tolerance, 1e-300)
                if not r.target else 0.0)
    print(f"\n{status} criterion {criterion}: {len(picked) - len(failed)}/"
          f"{len(picked)} checks ok "
          f"(slackest: {worst.name} measured {worst.measured:.3e} "
          f"tol {worst.tolerance:g}); suite time {seconds:.1f}s")
    for r in failed:
        print(f"    FAILED {r.name}: measured {r.measured:.3e} "
              f"tolerance {r.tolerance:g} [{r.law}]")
    assert not failed
    budget = BUDGETS[suite] + sum(BUDGETS[s] for s in extra_suites)
    assert seconds < budget, f"criterion {criterion} ran {seconds:.1f}s > {budget}s"


def test_criterion_1_weierstrass(results):
    """zeta' = -p and sigma'/sigma = zeta (1e-7); quasi-periodicity (1e-9);
    Legendre over random moduli (1e-10); dual-algorithm agreement (1e-10)."""
    _gate(results, 1, "weierstrass", ("weier/",))


def test_criterion_2_rational_involutivity(results):
    """sl2/sl3, N = 3, quadratic and cubic charges, 100 random constrained
    states: |{H_i, H_j}| < 1e-9 * scale."""
    _gate(results, 2, "rational", ("rational/involutivity",))


def test_criterion_3_rational_dynamics(results):
    """T = 1, h = 1e-3, rk4: Hamiltonian, isospectral and residue-sum drift
    below 1e-8, contracting at the integrator order under halving; dense
    generic ODE cross-check to 1e-6."""
    _gate(results, 3, "rational", ("rational/drift", "rational/ode_oracle"))


def test_criterion_4_zero_curvature(results):
    """Plaquette transport residual small and consistent with one power law
    (fitted order +- 0.3) under refinement."""
    _gate(results, 4, "rational", ("rational/zero_curvature",))


def test_criterion_5_elliptic_structure(results):
    """Double periodicity (1e-9 rel); residue extraction (1e-7); gluing
    boundedness near z = 0; retrivialisation routes agree (1e-8)."""
    _gate(results, 5, "elliptic",
          ("elliptic/periodicity", "elliptic/residue_extraction",
           "elliptic/gluing_bounded", "elliptic/retrivialize"))


def test_criterion_6_elliptic_flows(results):
    """Involutivity for N in {1 (Calogero-Moser), 2} at 1e-8 * scale; flow
    commutativity vanishing at integrator order; companion-matrix Lax
    residual below 1e-5 along short trajectories."""
    _gate(results, 6, "elliptic",
          ("elliptic/involutivity", "elliptic/commutativity",
           "elliptic/lax_residual", "elliptic/m_",
           "elliptic/calogero_moser", "elliptic/hamiltonian_oracle"))


def test_criterion_7_multiform(results):
    """On-shell action is path independent between homotopic axis-aligned
    curves, with the gap closing at the quadrature order."""
    _gate(results, 7, "multiform", ("multiform/",))


def test_criterion_8_univar(results):
    """Noether conservation at O(h^4); mu = 0 preserved under gauged flow;
    pure-gauge flatness below 1e-6; non-flat counterexample detected."""
    _gate(results, 8, "univar", ("univar/",))


def test_criterion_9_gradients(results):
    """Every analytic gradient passes second-order finite-difference
    convergence with fitted order 2.0 +- 0.2."""
    _gate(results, 9, "rational", ("grad/",), extra_suites=("elliptic",))


@pytest.mark.parametrize("suite", ["rational", "elliptic", "multiform"])
def test_each_trajectory_is_evolved_once(results, suite):
    """From one start (model, initial state, step, method) a suite evolves
    no curve twice, and no curve of at least one segment that begins
    another curve it evolves: that run already holds the trajectory."""
    calls = results[suite][2]
    assert calls
    repeats = []
    for (start_a, a), (start_b, b) in itertools.permutations(calls, 2):
        n = len(a.waypoints)
        if start_a != start_b or n > len(b.waypoints):
            continue
        if np.array_equal(a.waypoints, b.waypoints[:n]) \
                and (n == len(b.waypoints) or any(a.segments())):
            repeats.append((a.waypoints.tolist(), b.waypoints.tolist()))
    assert not repeats, f"{suite}: trajectories evolved again: {repeats}"


@pytest.mark.parametrize("suite, most", [
    ("elliptic", {"lax_matrix": 22, "m_matrix": 5, "transition_gamma": 1}),
    ("rational", {"m_matrix": 2}),
])
def test_each_row_evaluates_its_points_in_one_call(results, suite, most):
    """A row that needs L, M or gamma at several points passes them to one
    call as an array: the elliptic suite made 123, 26 and 32 direct calls
    when it called once per point, the rational suite 6 of m_matrix."""
    counts = results[suite][3]
    assert set(counts) <= set(most)
    assert all(counts[f] <= most[f] for f in counts), counts


@pytest.mark.parametrize("direction", [1.0, 1j * np.exp(0.4j)], ids=["real", "complex"])
def test_numeric_residue_takes_one_call(direction):
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    pole = 0.3 - 0.2j
    points = []

    def f(z):
        points.append(z)
        return A / (z - pole)[..., None, None] + B

    np.testing.assert_allclose(verify._numeric_residue(f, pole, direction), A,
                               rtol=0, atol=1e-10)
    assert len(points) == 1 and points[0].shape == (2, 2)


def test_all_rows_green(results):
    total = failed = 0
    for name, (rows, _, _, _) in results.items():
        total += len(rows)
        failed += sum(not r.passed for r in rows)
    print(f"\nacceptance total: {total - failed}/{total} checks passed")
    assert failed == 0


def test_every_row_follows_its_kinds_rule(results):
    """A residual row has target 0 and passes at measured <= tolerance, a
    floor row has target = tolerance and passes at measured >= tolerance,
    and an order row passes within tolerance of its target."""
    for rows, _, _, _ in results.values():
        for r in rows:
            if r.target == 0.0:
                assert r.passed == (r.measured <= r.tolerance), r
            elif r.target == r.tolerance:
                assert r.passed == (r.measured >= r.tolerance), r
            else:
                assert r.passed == (abs(r.measured - r.target) <= r.tolerance), r


def test_fit_order_of_two_residuals_is_the_log2_quotient():
    rng = np.random.default_rng(11)
    a, b = 10.0 ** rng.uniform(-15, 0, (2, 1000))
    assert all(verify._fit_order([x, y]) == np.log2(x / y) for x, y in zip(a, b))
    assert verify._fit_order([1e-6, 1e-9], ratio=10.0) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("ratio", [2.0, 10.0])
@pytest.mark.parametrize("n", [3, 5])
def test_fit_order_of_more_residuals_is_the_least_squares_slope(ratio, n):
    rng = np.random.default_rng(n)
    res = 10.0 ** rng.uniform(-12, -2, n)
    steps = 0.1 / ratio ** np.arange(n)
    slope = np.polyfit(np.log(steps), np.log(res), 1)[0]
    assert verify._fit_order(res, ratio) == pytest.approx(slope, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("res", [[0.0, 1e-3], [1e-3, 0.0], [0.0, 0.0], [1e-3, 0.0, 1e-5]])
def test_fit_order_clamps_a_zero_residual(res):
    assert np.isfinite(verify._fit_order(res))
