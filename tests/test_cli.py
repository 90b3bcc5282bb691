import json
import time
import warnings
from pathlib import Path

import pytest

from gaudinlab import cli
from gaudinlab.cli import main
from gaudinlab.errors import ConfigError, PoleError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_config(tmp_path, name, mutate=None):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["outputs"] = {
        "trajectory_csv": str(tmp_path / "traj.csv"),
        "diagnostics_json": str(tmp_path / "diag.json"),
    }
    if mutate:
        mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(["simulate", str(path)]), tmp_path


def _unbalance_cartan(cfg):
    seed = cfg["model"]["orbit_seeds"][0]
    seed[0][0], seed[1][1] = [0.3, 0.0], [-0.3, 0.0]


# configs that ran before the rules that reject them at load: a modulus
# whose theta series overflows (it exited 3 at t = 0), one whose series
# needs more terms than it keeps digits, a state whose time is not its
# curve's start, and a genus-1 state whose residues' Cartan parts do not
# sum to zero (the last three exited 0)
NAMED_REJECTIONS = {
    "tau_im_50": ("elliptic_cm_sl2.json", lambda cfg: cfg["model"].update(tau=[0.0, 50.0])),
    "tau_im_0.01": ("elliptic_cm_sl2.json", lambda cfg: cfg["model"].update(tau=[0.0, 0.01])),
    "t_off_curve": ("rational_sl2_n3.json",
                    lambda cfg: cfg["initial_state"].update(t=[0.3, 0.0])),
    "genus1_cartan_unbalanced": ("elliptic_cm_sl2.json", _unbalance_cartan),
}
NAMED_IN_MESSAGE = {
    "tau_im_50": "tau = 50j",
    "tau_im_0.01": "tau = 0.01j is out of range: the theta series needs 45 terms",
    "t_off_curve": "t = [0.3, 0.0] is not the first waypoint [0.0, 0.0] of curve 0",
    "genus1_cartan_unbalanced": "violates sum L_a = 0 (|Cartan part of the sum| = 4.24e-01)",
}


class TestSimulate:
    def test_rational_smoke(self, tmp_path, capsys):
        code, out = run_config(tmp_path, "rational_sl2_n3.json")
        assert code == 0
        header = (out / "traj.csv").read_text().splitlines()
        assert header[0].startswith("# seed=")
        cols = header[1].split(",")
        assert cols[:2] == ["step", "segment"]
        assert "t1" in cols and "t2" in cols and "H1_re" in cols
        assert "casimir_drift" in cols and "residue_sum_norm" in cols
        assert any(c.startswith("z0_c") for c in cols)
        # each segment ends on its waypoint: 250 steps of 0.002 would add up
        # to t1 = 0.50000000000000033
        assert header[2 + 250].startswith("250,0,0.5,0,")
        assert header[2 + 500].startswith("500,1,0.5,0.5,")
        diag = json.loads((out / "diag.json").read_text())
        assert max(diag["hamiltonian_drift"]) < 1e-8
        assert diag["residue_sum_drift"] < 1e-8
        assert diag["seed"] == 0

    def test_elliptic_smoke(self, tmp_path):
        code, out = run_config(tmp_path, "elliptic_cm_sl2.json")
        assert code == 0
        diag = json.loads((out / "diag.json").read_text())
        assert max(diag["hamiltonian_drift"]) < 1e-8

    def test_coincident_points_rejected(self, tmp_path, capsys):
        def clash(cfg):
            cfg["model"]["hamiltonians"][0]["point"] = cfg["model"]["marked_points"][0]

        code, _ = run_config(tmp_path, "rational_sl2_n3.json", mutate=clash)
        assert code == 2
        assert "coincident points" in capsys.readouterr().err

    def test_missing_key_rejected(self, tmp_path, capsys):
        def drop(cfg):
            del cfg["curve"]

        code, _ = run_config(tmp_path, "rational_sl2_n3.json", mutate=drop)
        assert code == 2

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        # Python's JSON decoder refuses an integer of more than 4300 digits
        # with a ValueError that is not a JSONDecodeError
        text = (CONFIG_DIR / "rational_sl2_n3.json").read_text()
        path = tmp_path / "config.json"
        path.write_text(text.replace('"step": 0.002', '"step": ' + "1" * 5000))
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_pole_collision_aborts(self, tmp_path, capsys):
        # steer the Calogero-Moser coordinate into the lattice: u = 2 q^1
        # shrinks under a negative real momentum
        def steer(cfg):
            cfg["initial_state"]["q"] = [[0.125, 0.0]]
            cfg["initial_state"]["p"] = [[-0.6, 0.0]]
            cfg["curve"] = [[0.0, 0.0], [2.0, 0.0]]
            cfg["step"] = 0.01
            cfg["resonance_margin"] = 0.12

        code, out = run_config(tmp_path, "elliptic_cm_sl2.json", mutate=steer)
        assert code == 3
        diag = json.loads((out / "diag.json").read_text())
        assert "resonance" in diag["abort_reason"]
        assert 0.0 <= diag["last_good_time"] < 2.0
        assert "abort" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [ValueError, PoleError, ConfigError])
    def test_error_after_evolve(self, tmp_path, capsys, monkeypatch, error):
        # a pole or an overflow in the passes over the finished trajectory
        # is a numerical abort at the end of the curve; a ConfigError stays
        # a config error
        def fail(*args):
            raise error("kernel: a sigma quotient overflows")

        monkeypatch.setattr(cli, "diagnostics", fail)
        code, out = run_config(tmp_path, "elliptic_cm_sl2.json")
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if error is ConfigError:
            assert code == 2 and err.startswith("config error: kernel:")
            assert not (out / "diag.json").exists()
            return
        assert code == 3
        assert err.startswith("numerical abort: kernel: a sigma quotient overflows")
        diag = json.loads((out / "diag.json").read_text())
        curve = json.loads((CONFIG_DIR / "elliptic_cm_sl2.json").read_text())["curve"]
        end = sum(abs(b - a) for w, v in zip(curve, curve[1:]) for a, b in zip(w, v))
        assert diag["abort_reason"] == "kernel: a sigma quotient overflows"
        assert diag["last_good_time"] == pytest.approx(end, rel=1e-12)
        assert (out / "traj.csv").exists()

    def test_random_state_needs_balanced_seeds(self, tmp_path, capsys):
        def randomize(cfg):
            cfg["initial_state"] = {"random": True, "seed": 5}

        code, out = run_config(tmp_path, "rational_sl2_n3.json", mutate=randomize)
        assert code == 0   # the shipped seeds sum to zero, so this works
        diag = json.loads((out / "diag.json").read_text())
        assert diag["residue_sum_drift"] < 1e-8

    def test_random_state_that_cannot_keep_the_margin(self, tmp_path, capsys):
        # at sl16 on a lattice 0.05 tall, some of the 240 root values rho(q)
        # of every draw come within 0.05 of a lattice point: the redraws
        # give up within seconds instead of running forever
        def sl16(cfg):
            cfg["model"].update(m=16, tau=[0.0, 0.05], marked_points=[[0.3, 0.001]],
                                orbit_seeds=[[[[0.0, 0.0]] * 16] * 16],
                                hamiltonians=[{"point": [0.1, 0.002], "degree": 2}])
            cfg.update(initial_state={"random": True}, curve=[[0.0], [0.01]], step=0.01)

        start = time.perf_counter()
        code, _ = run_config(tmp_path, "elliptic_cm_sl2.json", mutate=sl16)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "keep 0.05 from the lattice in 10000 draws" in capsys.readouterr().err

    def test_constraint_violation_rejected_in_monitor_mode(self, tmp_path, capsys):
        def unbalance(cfg):
            cfg["model"]["orbit_seeds"][0][0][0] = [5.0, 0.0]
            cfg["model"]["orbit_seeds"][0][1][1] = [-5.0, 0.0]

        code, _ = run_config(tmp_path, "rational_sl2_n3.json", mutate=unbalance)
        assert code == 2
        assert "sum L_a = 0" in capsys.readouterr().err

    def test_attached_checks_run(self, tmp_path):
        def attach(cfg):
            cfg["checks"] = ["univar"]

        code, out = run_config(tmp_path, "rational_sl2_n3.json", mutate=attach)
        assert code == 0
        diag = json.loads((out / "diag.json").read_text())
        assert all(row["passed"] for row in diag["checks"]["univar"])

    def test_unknown_attached_check_rejected(self, tmp_path, capsys):
        def attach(cfg):
            cfg["checks"] = ["spectral"]

        code, _ = run_config(tmp_path, "rational_sl2_n3.json", mutate=attach)
        assert code == 2


    @pytest.mark.parametrize("name, mutate", [
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step="abc")),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step=float("nan"))),
        ("rational_sl2_n3.json", lambda cfg: cfg["z_samples"].append([3.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(checks="univar")),
        ("rational_sl2_n3.json", lambda cfg: cfg["curve"].append([float("nan"), 0.5])),
        ("rational_sl2_n3.json", lambda cfg: cfg["outputs"].update(
            trajectory_csv="/nonexistent/dir/traj.csv")),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"]["phis"].__setitem__(
            0, [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])),
        ("rational_sl2_n3.json", lambda cfg: (cfg["initial_state"]["phis"].pop(),
                                              cfg.update(projection="project"))),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["initial_state"]["q"].append([0.1, 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(t=[0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(t=[[0.0, 0.0]])),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(t=[0.0, 0.0, 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(
            t=[0.0, float("nan")])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(projection="project",
                                                        method="conjugation")),
        ("rational_sl2_n3.json", lambda cfg: (cfg["model"].update(marked_points=[],
                                                                  orbit_seeds=[]),
                                              cfg["initial_state"].update(phis=[]))),
        # a z sample at a pole of L or of M_i, or on the lattice, is rejected
        # at load, before any step is taken
        ("rational_sl2_n3.json", lambda cfg: cfg["z_samples"].append([2.0, 1.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["z_samples"].append([-1.0, 0.0])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["z_samples"].append([0.0, 0.0])),
        # seeds are non-negative integers, rejected before anything is evolved
        ("rational_sl2_n3.json", lambda cfg: cfg.update(seed="x", checks=["univar"])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(seed=1.5, checks=["univar"])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(seed=True)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(seed=-1)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(
            initial_state={"random": True, "seed": -1})),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(
            initial_state={"random": True, "seed": 2.7})),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(
            initial_state={"random": True, "seed": "3"})),
        # every complex pair of the model and the state is two finite numbers
        ("elliptic_cm_sl2.json", lambda cfg: cfg["model"]["marked_points"].__setitem__(
            0, [float("inf"), 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["marked_points"].__setitem__(
            0, [float("inf"), 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["marked_points"].__setitem__(
            0, [float("nan"), 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["hamiltonians"][0].update(
            point=[float("nan"), 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["orbit_seeds"][0][0].__setitem__(
            1, [float("inf"), 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["marked_points"].__setitem__(
            0, [-1.0, 0.0, 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["marked_points"].__setitem__(
            0, [True, 0.0])),
        # genus, m and the degrees are integers
        ("rational_sl2_n3.json", lambda cfg: cfg["model"].update(m=2.5)),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["hamiltonians"][0].update(
            degree=2.7)),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"].update(genus="0")),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["hamiltonians"][0].update(
            degree=True)),
        # values that make_gaudin_model rejects
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["hamiltonians"][0].update(
            degree=1)),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"].update(m=1)),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["model"].update(tau=[0.0, -1.0])),
        # the step count is bounded, and the method is checked before any step
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step=1e-9)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step=1e-320)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(curve=[[0.0, 0.0]],
                                                        method="verlet")),
        # run-level numbers are JSON ints or floats: no strings, no bools, and
        # no integer beyond the float range
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step="0.002")),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step=True)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step=10 ** 400)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(resonance_margin="0.001")),
        ("elliptic_cm_sl2.json", lambda cfg: cfg.update(resonance_margin=-0.001)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(z_samples=[["3", "2"]])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(z_samples=[[True, 1.0]])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(
            initial_state={"random": True, "seed": 5, "spread": "0.3"})),
        # a Hamiltonian point 5e-9 from a marked point: past the kernels'
        # pole tolerance, inside the separation one
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["hamiltonians"][0].update(
            point=[-1.0 + 5e-9, 0.0])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["model"]["hamiltonians"][0].update(
            point=[0.3, 0.2 + 5e-9])),
        # found by tests/test_fuzz.py: integers beyond the float range in the
        # model, the state and the curve; a genus-1 z sample far outside the
        # fundamental cell; a step longer than a curve segment
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["marked_points"].__setitem__(
            0, [10 ** 400, 0.0])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["initial_state"]["q"].__setitem__(
            0, [10 ** 400, 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(t=[10 ** 400, 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["curve"][1].__setitem__(0, 10 ** 400)),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["z_samples"].append([0.1, -6.3e18])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["z_samples"].append([0.1, 1.2])),
        # genus-1 marked and Hamiltonian points far outside the centred cell,
        # where the kernel's quasi-periodicity factors overflow
        ("elliptic_cm_sl2.json", lambda cfg: cfg["model"]["marked_points"].__setitem__(
            0, [100.3, 0.2])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["model"]["hamiltonians"][0].update(
            point=[-60.2, 50.12])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg.update(step=2.26)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(step=0.6)),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["hamiltonians"][1].update(
            degree=10 ** 400)),
        # the curve and the state's times follow the run-level number rule,
        # and "random" is a JSON bool
        ("rational_sl2_n3.json", lambda cfg: cfg.update(
            curve=[["0", "0"], ["0.5", "0"], ["0.5", "0.5"]])),
        ("rational_sl2_n3.json", lambda cfg: cfg["curve"][0].__setitem__(1, False)),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(t=["0", "0"])),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(t=[0.0, True])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(
            initial_state={"random": "no", "seed": 3})),
        # a state has one kind: orbit matrices (here twice the residues of
        # the group points) next to group points would be a second state
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(
            orbit_mats=[[[[-2 * x for x in z] for z in row] for row in L]
                        for L in cfg["model"]["orbit_seeds"]])),
        # genus 0 has no cotangent pair (q, p)
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(q=[[0.1, 0.0]])),
        # an initial state that is not a JSON object
        ("rational_sl2_n3.json", lambda cfg: cfg.update(initial_state=[1, 2])),
        # a misspelt key at any level, which would leave its default in place
        ("rational_sl2_n3.json", lambda cfg: cfg.update(z_sample=[[3.0, 2.0]])),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(resonance_margn=0.5)),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"].update(taus=[0.0, 1.1])),
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["hamiltonians"][1].update(
            degre=3)),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(
            T=[0.0, 0.0])),
        ("rational_sl2_n3.json", lambda cfg: cfg["outputs"].update(
            diagnostics="diag.json")),
        # a state is random or explicit, not both
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(random=True)),
        ("rational_sl2_n3.json", lambda cfg: cfg.update(
            initial_state={"random": True, "t": [0.0, 0.0]})),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(seed=3)),
        ("rational_sl2_n3.json", lambda cfg: cfg["initial_state"].update(
            random=False, spread=0.3)),
        # matrix entries and Cartan coordinates are at most MAX_ENTRY = 1e6 in
        # modulus (an entry of 1e200 overflowed the traceless check's norm)
        ("rational_sl2_n3.json", lambda cfg: cfg["model"]["orbit_seeds"][0][0].__setitem__(
            1, [1e200, 0.0])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["model"]["orbit_seeds"][0][0].__setitem__(
            1, [0.0, 1.5e6])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["initial_state"]["phis"][0][0].__setitem__(
            1, [-2e6, 0.0])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["initial_state"]["q"].__setitem__(
            0, [1e6, 1e3])),
        ("elliptic_cm_sl2.json", lambda cfg: cfg["initial_state"]["p"].__setitem__(
            0, [3e7, 0.0])),
        *NAMED_REJECTIONS.values(),
    ], ids=["step_text", "step_nan", "z_sample_short", "checks_string",
            "curve_nan", "output_unwritable", "phi_singular", "phi_missing",
            "q_too_long", "t_too_short", "t_2d", "t_too_long", "t_nan",
            "project_conjugation", "no_marked_points", "z_at_hamiltonian_point",
            "z_at_marked_point", "z_on_lattice", "seed_text", "seed_float",
            "seed_bool", "seed_negative", "state_seed_negative", "state_seed_float",
            "state_seed_text", "elliptic_point_inf", "point_inf", "point_nan",
            "ham_point_nan", "orbit_seed_inf", "pair_too_long", "pair_bool",
            "m_float", "degree_float", "genus_text", "degree_bool", "degree_one",
            "m_one", "tau_lower_half_plane", "step_count_1e9", "step_denormal",
            "method_unknown_on_still_curve", "step_numeric_text", "step_bool",
            "step_int_overflow", "margin_text", "margin_negative", "z_sample_text",
            "z_sample_bool",
            "spread_text", "ham_point_5e-9_from_marked", "elliptic_ham_point_5e-9_from_marked",
            "point_int_overflow", "q_int_overflow", "t_int_overflow", "curve_int_overflow",
            "z_sample_far_from_cell", "z_sample_next_cell", "marked_point_far_from_cell",
            "ham_point_far_from_cell", "elliptic_step_past_curve",
            "step_past_curve", "degree_huge", "curve_text", "curve_bool", "t_text",
            "t_bool", "random_text", "phis_and_orbit_mats", "genus0_q",
            "state_not_object", "z_sample", "resonance_margn", "model_key_typo",
            "hamiltonian_key_typo", "state_key_typo", "outputs_key_typo",
            "random_with_phis", "random_with_t", "explicit_with_seed",
            "explicit_with_spread", "orbit_seed_1e200", "orbit_seed_past_bound",
            "phi_past_bound", "q_past_bound", "p_past_bound", *NAMED_REJECTIONS])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, name, mutate):
        code, out = run_config(tmp_path, name, mutate=mutate)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not (out / "traj.csv").exists() and not (out / "diag.json").exists()

    @pytest.mark.parametrize("name", NAMED_REJECTIONS)
    def test_rejection_names_the_input(self, tmp_path, capsys, name):
        # a RuntimeWarning is an error here (pyproject.toml)
        code, _ = run_config(tmp_path, *NAMED_REJECTIONS[name])
        assert code == 2
        assert NAMED_IN_MESSAGE[name] in capsys.readouterr().err

    def test_failed_step_aborts(self, tmp_path, capsys):
        # an rk4 stage of this sl3 torus run goes non-finite at h = 0.005
        import numpy as np
        from gaudinlab.models import (model_to_dict, random_elliptic_ensemble,
                                      state_to_dict)

        model, state = random_elliptic_ensemble(np.random.default_rng(0), 3, 3,
                                                (2, 3), tau=1.1j)
        cfg = {"model": model_to_dict(model), "initial_state": state_to_dict(state),
               "curve": [[0.0, 0.0], [0.06, 0.0], [0.06, 0.06]], "step": 0.005,
               "outputs": {"trajectory_csv": str(tmp_path / "traj.csv"),
                           "diagnostics_json": str(tmp_path / "diag.json")}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", str(path)]) == 3
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert diag["abort_reason"].startswith("step failed")
        assert 0.0 <= diag["last_good_time"] < 0.12
        assert "Traceback" not in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSimulateDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            code, _ = run_config(d, "rational_sl2_n3.json")
            assert code == 0
            outs.append(((d / "traj.csv").read_bytes(),
                         (d / "diag.json").read_bytes()))
        assert outs[0] == outs[1]


class TestVerify:
    def test_deterministic_reports(self, tmp_path):
        # multiform and elliptic evolve their step-size ladders in lockstep
        for suite in ("weierstrass", "multiform", "elliptic"):
            d1, d2 = tmp_path / suite / "a", tmp_path / suite / "b"
            assert main(["verify", suite, "--seed", "7", "--out", str(d1)]) == 0
            assert main(["verify", suite, "--seed", "7", "--out", str(d2)]) == 0
            b1 = (d1 / f"{suite}_report.json").read_bytes()
            b2 = (d2 / f"{suite}_report.json").read_bytes()
            assert b1 == b2

    def test_report_rows_carry_contract_fields(self, tmp_path):
        assert main(["verify", "univar", "--seed", "0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "univar_report.json").read_text())
        assert report["all_passed"]
        for row in report["checks"]:
            assert set(row) >= {"name", "law", "tolerance", "measured", "passed"}

    def test_rational_suite_skips_ill_conditioned_probes(self, tmp_path):
        # seed 13 draws a drift-probe candidate whose group points reach
        # cond 1e16; it is rejected before any residue is formed from them
        assert main(["verify", "rational", "--seed", "13", "--out", str(tmp_path)]) == 0

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        assert main(["verify", "weierstrass", "--seed", "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_unknown_suite(self, capsys):
        assert main(["verify", "qcd"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_failed_check_exits_one(self, tmp_path, monkeypatch):
        from gaudinlab import verify as verify_mod
        from gaudinlab.verify import CheckResult

        def broken(seed=0):
            return [CheckResult("stub/fails", "always red", 1e-9, 1.0, False)]

        monkeypatch.setitem(verify_mod.SUITES, "univar", broken)
        assert main(["verify", "univar", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "univar_report.json").read_text())
        assert report["n_failed"] == 1 and not report["all_passed"]
