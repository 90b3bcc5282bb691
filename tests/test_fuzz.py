"""Config fuzzing: the shipped configs with numeric fields replaced by
arbitrary numbers (NaN, infinities, subnormals, integers beyond the float
range) end in a documented exit code, 0, 2 or 3, never in a traceback,
and write no NaN or infinity.

Each run is capped at MAX_STEPS = 20: the curves are cut to 10 steps per
leg, and a mutated step or curve that needs more is a config error.  Every
warning the CLI gives is recorded, and a RuntimeWarning (an overflow or an
invalid value inside numpy) fails the test.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

from gaudinlab import cli

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
STEPS_PER_LEG = 10


def _base(name):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    leg = STEPS_PER_LEG * cfg["step"]
    cfg["curve"] = [[0.0, 0.0], [leg, 0.0], [leg, leg]]
    del cfg["outputs"]
    return cfg


BASES = {name: _base(name) for name in ("rational_sl2_n3.json", "elliptic_cm_sl2.json")}


def _numeric_paths(node, path=()):
    """The path of every number (not a bool) in a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _numeric_paths(value, path + (k,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


PATHS = {name: list(_numeric_paths(cfg)) for name, cfg in BASES.items()}
# the numeric leaves of each config, grouped by field (the path without its
# list indices), so that a field of few leaves such as `step` or
# `initial_state.t` is drawn as often as one of many, such as a matrix
FIELDS = {name: {} for name in BASES}
for _name, _paths in PATHS.items():
    for _path in _paths:
        _field = tuple(key for key in _path if isinstance(key, str))
        FIELDS[_name].setdefault(_field, []).append(_path)

NUMBERS = st.one_of(
    st.floats(),                                    # NaN, +-inf, subnormals, huge
    st.integers(),
    st.integers(min_value=-2 ** 1100, max_value=2 ** 1100),  # past the float range
)


@pytest.fixture(autouse=True)
def _no_runtime_warning():
    # a fixture, not a change to the tests' bodies: hypothesis seeds a
    # derandomized test from its source, so an edit there would redraw
    # every example
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime


def _reject_constant(name):
    raise AssertionError(f"the diagnostics JSON holds {name}")


def _assert_finite_outputs(folder):
    diag = folder / "diag.json"
    if diag.exists():
        json.loads(diag.read_text(), parse_constant=_reject_constant)
    traj = folder / "traj.csv"
    if traj.exists():
        rows = [r for r in csv.reader(io.StringIO(traj.read_text()))
                if r and not r[0].startswith("#")]
        for row in rows[1:]:
            assert all(math.isfinite(float(x)) for x in row), row


# no shrinking phase: a failure reports the example as drawn, at once
@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          phases=[Phase.explicit, Phase.generate], suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_configs_end_in_a_documented_exit(data):
    name = data.draw(st.sampled_from(sorted(BASES)), label="config")
    cfg = json.loads(json.dumps(BASES[name]))
    edits = data.draw(st.lists(st.tuples(st.sampled_from(PATHS[name]), NUMBERS),
                               min_size=1, max_size=3), label="edits")
    for path, value in edits:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        cfg["outputs"] = {"trajectory_csv": str(folder / "traj.csv"),
                          "diagnostics_json": str(folder / "diag.json")}
        (folder / "config.json").write_text(json.dumps(cfg))
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("default")
            mp.setattr(cli, "MAX_STEPS", 2 * STEPS_PER_LEG)
            code = cli.main(["simulate", str(folder / "config.json")])
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        _assert_finite_outputs(folder)


@settings(derandomize=True, database=None, deadline=None, max_examples=50,
          phases=[Phase.explicit, Phase.generate], suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_number_given_as_text_or_a_bool_is_a_config_error(data):
    name = data.draw(st.sampled_from(sorted(BASES)), label="config")
    field = data.draw(st.sampled_from(sorted(FIELDS[name])), label="field")
    path = data.draw(st.sampled_from(FIELDS[name][field]), label="path")
    cfg = json.loads(json.dumps(BASES[name]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    # the same number written as text, a bool, or any text
    node[path[-1]] = data.draw(st.one_of(st.just(repr(node[path[-1]])), st.booleans(),
                                         st.text(max_size=6)), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        cfg["outputs"] = {"trajectory_csv": str(folder / "traj.csv"),
                          "diagnostics_json": str(folder / "diag.json")}
        (folder / "config.json").write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", str(folder / "config.json")])
        assert code == 2 and err.getvalue().startswith("config error:"), (code, err.getvalue())
        assert not (folder / "traj.csv").exists() and not (folder / "diag.json").exists()
