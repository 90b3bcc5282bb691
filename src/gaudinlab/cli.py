"""Command-line front end: batch simulation runs and verification suites.

    gaudin-lab simulate <config.json>
    gaudin-lab verify <suite> [--seed N] [--out DIR]

Exit codes: 0 success, 1 verification check failed, 2 configuration error,
3 numerical abort (a flow step, or a pass over the finished trajectory, ran
into a pole or a resonance, or went non-finite; the reason and last good
time are recorded in the diagnostics JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, GaudinLabError, NumericalAbort
from .flows import FlowCurve, diagnostics, evolve, open_output, write_trajectory_csv
from .models import (
    check_point,
    model_from_dict,
    orbit_elements,
    random_phase_state,
    read_int,
    read_object,
    read_pair,
    read_real,
    residue_constraint,
    state_from_dict,
)
from .verify import SUITES, run_suite
from .weierstrass import POLE_TOL

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the most steps one simulate run may take along its whole curve
MAX_STEPS = 100_000
# the keys of a config, of its outputs and of a random initial_state (an
# explicit one is read by models.state_from_dict)
CONFIG_KEYS = ("model", "initial_state", "curve", "step", "outputs", "seed", "method",
               "projection", "resonance_margin", "z_samples", "checks")
OUTPUT_KEYS = ("trajectory_csv", "diagnostics_json")
RANDOM_STATE_KEYS = ("random", "seed", "spread")


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:    # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _output_path(outputs, key, default):
    path = outputs.get(key, default)
    if not isinstance(path, str) or not path:
        raise ConfigError(f"outputs.{key} must be a file path, got {path!r}")
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) \
            or not os.access(folder, os.W_OK):
        raise ConfigError(f"cannot write outputs.{key} to {path!r}")
    return path


def _build_run(cfg):
    read_object(cfg, "config", CONFIG_KEYS)
    for key in ("model", "initial_state", "curve", "step", "outputs"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    # recorded in the outputs and seeds the attached checks; a random
    # initial state replaces it with its own seed
    seed = cfg.get("seed")
    if seed is not None:
        read_int(seed, "seed", 0)
    model = model_from_dict(cfg["model"])
    st_cfg = cfg["initial_state"]
    random = isinstance(st_cfg, dict) and st_cfg.get("random", False)
    if not isinstance(random, bool):
        raise ConfigError(f"initial_state.random must be true or false, got {random!r}")
    if random:
        read_object(st_cfg, "a random initial_state", RANDOM_STATE_KEYS)
        seed = read_int(st_cfg.get("seed", 0), "initial_state.seed", 0)
        rng = np.random.default_rng(seed)
        spread = read_real(st_cfg.get("spread", 0.4), "initial_state.spread")
        state = random_phase_state(model, rng, spread=spread)
    else:
        state = state_from_dict(st_cfg, model)
    waypoints = cfg["curve"]
    if not isinstance(waypoints, list) or not all(isinstance(w, list) for w in waypoints):
        raise ConfigError(f"curve must be a list of waypoints, got {waypoints!r}")
    curve = FlowCurve([[read_real(t, f"curve[{k}]") for t in w]
                       for k, w in enumerate(waypoints)])
    h = read_real(cfg["step"], "step")
    if h <= 0:
        raise ConfigError("step must be positive")
    # evolve takes a segment shorter than h in one step of its own length,
    # while the plaquette diagnostics step by h
    legs = [abs(delta) for *_, delta in curve.segments()]
    if legs and h > min(legs):
        raise ConfigError(f"step {h:g} is longer than the shortest curve segment "
                          f"({min(legs):g})")
    # |delta| / h per segment as evolve computes it, before any rounding
    n_steps = sum(leg / h for leg in legs)
    if n_steps > MAX_STEPS:
        raise ConfigError(f"the curve needs {n_steps:.4g} steps of size {h:g}, "
                          f"more than MAX_STEPS = {MAX_STEPS}")
    z_cfg = cfg.get("z_samples", [])
    if not isinstance(z_cfg, list):
        raise ConfigError("z_samples must be a list of [re, im] pairs")
    z_samples = [read_pair(z, f"z_samples[{k}]") for k, z in enumerate(z_cfg)]
    # L(z) has poles at the marked points, M_i(z) at the Hamiltonian points,
    # and in genus 1 both are singular on the lattice
    poles = np.concatenate((model.marked_points, model.ham_points))
    for k, z in enumerate(z_samples):
        check_point(model.cache, z, poles, POLE_TOL, f"z_samples[{k}]")
    projection = cfg.get("projection", "monitor")
    if projection not in ("monitor", "project"):
        raise ConfigError("projection must be 'monitor' or 'project'")
    if projection == "monitor":
        # the residue-sum constraint (its Cartan part in genus 1) is
        # monitored, not projected, so a grossly violating initial state is
        # a configuration error; genus 1 has no projection
        Ls = orbit_elements(model, state)
        total = np.linalg.norm(residue_constraint(model, Ls))
        scale = max(np.linalg.norm(L) for L in Ls) or 1.0
        if total > 1e-6 * scale:
            part, fix = (("sum", "fix the state or set projection = 'project'")
                         if model.genus == 0 else ("Cartan part of the sum", "fix the state"))
            raise ConfigError(f"initial state violates sum L_a = 0 (|{part}| = "
                              f"{total:.2e}); {fix}")
    # evolve rejects an unknown method before its first step
    method = cfg.get("method", "rk4")
    margin = read_real(cfg.get("resonance_margin", 1e-3), "resonance_margin")
    if margin < 0:
        # a negative distance would switch the genus-1 guard off
        raise ConfigError(f"resonance_margin must be non-negative, got {margin!r}")
    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError(f"checks must be a list of suite names, got {checks!r}")
    unknown = [c for c in checks if c != "all" and c not in SUITES]
    if unknown:
        raise ConfigError(f"unknown verification suites in 'checks': {unknown}")
    return model, state, curve, h, z_samples, projection, method, margin, \
        checks, seed


def cmd_simulate(args):
    cfg = _load_config(args.config)
    model, state, curve, h, z_samples, projection, method, margin, checks, \
        seed = _build_run(cfg)
    outputs = read_object(cfg["outputs"], "outputs", OUTPUT_KEYS)
    csv_path = _output_path(outputs, "trajectory_csv", "trajectory.csv")
    json_path = _output_path(outputs, "diagnostics_json", "diagnostics.json")
    try:
        traj = evolve(model, state, curve, h, method=method,
                      project_residue_sum=(projection == "project"),
                      resonance_margin_min=margin)
        try:
            write_trajectory_csv(csv_path, model, traj, z_samples, seed=seed)
            report = diagnostics(model, traj, z_samples)
        except ConfigError:
            raise
        except ValueError as exc:
            # a pole, a resonance or an overflow in the passes over the
            # finished trajectory: every state was good to the curve's end
            end = sum(abs(delta) for _, _, delta in curve.segments())
            raise NumericalAbort(str(exc), end) from exc
    except NumericalAbort as exc:
        payload = {"abort_reason": exc.reason,
                   "last_good_time": float(exc.last_good_time),
                   "seed": seed}
        with open_output(json_path) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"numerical abort: {exc.reason} (t = {exc.last_good_time:g})",
              file=sys.stderr)
        return EXIT_NUMERICAL
    payload = report.to_dict()
    payload["seed"] = seed
    checks_failed = 0
    if checks:
        payload["checks"] = {}
        for name in checks:
            rows = run_suite(name, seed=seed or 0)
            checks_failed += sum(not r.passed for r in rows)
            payload["checks"][name] = [r.to_dict() for r in rows]
    with open_output(json_path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK if checks_failed == 0 else EXIT_CHECK_FAILED


def cmd_verify(args):
    read_int(args.seed, "--seed", 0)
    rows = run_suite(args.suite, seed=args.seed)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [r.to_dict() for r in rows],
        "n_checks": len(rows),
        "n_failed": sum(not r.passed for r in rows),
        "all_passed": all(r.passed for r in rows),
    }
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, f"{args.suite}_report.json")
    with open_output(out) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in rows:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} {r.name}: measured {r.measured:.3e} "
              f"(tolerance {r.tolerance:g}) [{r.law}]")
    print(f"{payload['n_checks'] - payload['n_failed']}/{payload['n_checks']} "
          f"checks passed; report: {out}")
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gaudin-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured trajectory")
    sim.add_argument("config", help="path to a JSON run configuration")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", help="weierstrass | rational | elliptic | "
                                   "univar | multiform | all")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=".", help="directory for the JSON report")
    ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GaudinLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
