"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import op  # noqa: E402
import reference  # noqa: E402
from run import END_TO_END, run_op  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import INSTANCES, WORKLOADS, input_sha256, make_input  # noqa: E402


with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def test_benchmark_json_names_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    first = make_input(workload, 5)
    assert make_input(workload, 5) == first
    assert input_sha256(*make_input(workload, 5)) == input_sha256(*first)
    assert make_input(workload, 5 + INSTANCES) == first
    assert input_sha256(*make_input(workload, 6)) != input_sha256(*first)


# names the layer above imports by name; a wrapper installed only in the
# defining module would leave these calls untimed
BOUND_BY_NAME = {
    "models": ("kernel_phi", "zeta_eval", "sigma_eval", "lattice_distance",
               "matrix_exponential"),
    "flows": ("grad_hamiltonian", "hamiltonian", "lax_matrix", "m_matrix",
              "orbit_elements", "matrix_exponential"),
    "cli": ("evolve", "diagnostics", "write_trajectory_csv", "run_suite"),
}


def test_every_traced_name_is_wrapped_in_every_namespace():
    import gaudinlab.cli  # noqa: F401
    from gaudinlab import models, verify

    modules = {name: sys.modules[f"gaudinlab.{name}"] for name in BOUND_BY_NAME}
    originals = {(m, n): getattr(modules[m], n)
                 for m, names in BOUND_BY_NAME.items() for n in names}
    tracer = Tracer("test").install()
    try:
        assert tracer.unwrapped_bindings() == []
        for (m, n), original in originals.items():
            bound = getattr(modules[m], n)
            assert bound is not original, f"{m}.{n} is not wrapped"
            assert bound.__wrapped__ is original
        assert all(hasattr(fn, "__wrapped__") for fn in verify.SUITES.values())
        # the check sees a binding that was missed
        models.kernel_phi = originals[("models", "kernel_phi")]
        assert tracer.unwrapped_bindings() == ["gaudinlab.models.kernel_phi"]
    finally:
        tracer.uninstall()
    for (m, n), original in originals.items():
        assert getattr(modules[m], n) is original
    assert tracer.unwrapped_bindings() != []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_tiny(workload, tmp_path):
    argv, config = make_input(workload, 3, size="tiny")
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
    plain = run_op("full", argv, str(tmp_path), "plain")
    assert plain is not None, (tmp_path / "plain.log").read_text()
    plain_out = reference.extract(str(tmp_path), argv, plain)
    traced = run_op("traced", argv, str(tmp_path), "traced")
    assert traced is not None, (tmp_path / "traced.log").read_text()
    traced_out = reference.extract(str(tmp_path), argv, traced)

    assert plain_out["exit_code"] == 0
    assert reference.compare(plain_out, traced_out) == []
    # the tiny verify run (the weierstrass suite) evolves nothing
    timed = ("setup_s", "run_s", "peak_rss_mb") if workload == "verify_all" \
        else END_TO_END
    assert all(plain[name] > 0 for name in timed)
    assert (tmp_path / "traced.trace.json").exists()

    layers = traced["layers"]
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert layers["cli.self_s"] > 0
    kernel_counts = [v for k, v in layers.items()
                     if k.startswith("weierstrass.") and not k.endswith("_s")
                     and not k.endswith("_us") and not k.endswith("_frac")]
    if workload == "sphere_flow":
        assert kernel_counts and all(v == 0 for v in kernel_counts)
    if workload == "torus_flow":
        assert layers["weierstrass.kernel_phi.calls"] > 0
        assert 0 < layers["weierstrass.kernel_phi.unique_frac"] < 1
        assert layers["flows.steps"] == 2
    if workload == "verify_all":
        assert layers["verify.checks"] == len(plain_out["rows"])
        assert layers["verify.weierstrass.s"] > 0


def test_layer_metrics_self_time():
    tracer = Tracer("test").install()
    tracer.uninstall()
    ids = {n: i for i, n in enumerate(tracer.names)}
    # evolve [0, 100] > grad_hamiltonian [10, 60] > kernel_phi [20, 50] ns
    tracer.name.extend([ids["flows.evolve"], ids["models.grad_hamiltonian"],
                        ids["weierstrass.kernel_phi"]])
    tracer.parent.extend([-1, 0, 1])
    tracer.start.extend([0, 10, 20])
    tracer.end.extend([100, 60, 50])
    tracer.steps = 2
    m = layer_metrics(tracer)
    assert m["flows.self_s"] == pytest.approx(50e-9)
    assert m["models.self_s"] == pytest.approx(20e-9)
    assert m["weierstrass.self_s"] == pytest.approx(30e-9)
    assert m["weierstrass.kernel_phi.per_step"] == 0.5
    assert m["models.grad_hamiltonian.p50_us"] == pytest.approx(0.05)


def test_speed_clock_leaves_out_its_samples():
    clock = op.SpeedClock(time.perf_counter()).start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        ref, wall = clock.read()
    finally:
        clock.stop()
    assert clock.samples > 10
    assert wall == pytest.approx(0.3 - clock.spent, abs=0.02)
    # the reference clock runs at the speed measured by the samples
    assert 0.2 * wall < ref < 5 * wall
