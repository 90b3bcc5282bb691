import json
import shutil
import warnings
from pathlib import Path

import pytest

from gaudinlab.cli import main

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

    def test_random_state_needs_balanced_seeds(self, tmp_path, capsys):
        def randomize(cfg):
            cfg["initial_state"] = {"random": True, "seed": 5}

        code, out = run_config(tmp_path, "rational_sl2_n3.json", mutate=randomize)
        assert code == 0   # the shipped seeds sum to zero, so this works
        diag = json.loads((out / "diag.json").read_text())
        assert diag["residue_sum_drift"] < 1e-8

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
    ], ids=["step_text", "step_nan", "z_sample_short", "checks_string",
            "curve_nan", "output_unwritable", "phi_singular", "phi_missing",
            "q_too_long"])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, name, mutate):
        code, _ = run_config(tmp_path, name, mutate=mutate)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err

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
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "weierstrass", "--seed", "7", "--out", str(d1)]) == 0
        assert main(["verify", "weierstrass", "--seed", "7", "--out", str(d2)]) == 0
        b1 = (d1 / "weierstrass_report.json").read_bytes()
        b2 = (d2 / "weierstrass_report.json").read_bytes()
        assert b1 == b2

    def test_report_rows_carry_contract_fields(self, tmp_path):
        assert main(["verify", "univar", "--seed", "0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "univar_report.json").read_text())
        assert report["all_passed"]
        for row in report["checks"]:
            assert set(row) >= {"name", "law", "tolerance", "measured", "passed"}

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
