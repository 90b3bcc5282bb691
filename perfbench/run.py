"""gaudinlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload <torus_flow|sphere_flow|verify_all>
        --seed <n> --seconds <s> --trace <0|1> [--profile]

Run from the root of a checkout; `gaudinlab` is imported from its `src/`.
Each operation is one `gaudin-lab` command run through `gaudinlab.cli.main`
in a fresh interpreter, one at a time: a closed loop with a single caller.

--trace 0  repeats the operation until --seconds have passed (at least
           once), each followed by SETUP_PER_OP interpreters that stop at
           the first step, tops those up until there are SETUP_SAMPLES
           set-up times, and reports the medians of the end-to-end metrics.
--trace 1  runs the operation once untraced and once with every layer
           traced, reports the per-layer metrics of the traced run and
           prints the tracing overhead (traced minus untraced run_s).
--profile  also runs the operation once under cProfile and writes the
           top functions next to the trace; no metric comes from it.

Times are in seconds at a fixed reference speed of the machine (see
SpeedClock in op.py); the wall times are printed beside them and kept in
result.json.  Every operation's outputs are checked against references.json.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Per-run files go to .perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

END_TO_END = {"setup_s": "s", "run_s": "s", "evolve_s": "s", "observe_s": "s",
              "peak_rss_mb": "MB"}
TIMES = ("setup_s", "run_s", "evolve_s", "observe_s")
SETUP_SAMPLES = 41
SETUP_PER_OP = 3
OP_TIMEOUT_S = 170
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_op(mode, argv, workdir, tag):
    """One operation in a fresh interpreter; its result dict, or None."""
    prefix = os.path.join(workdir, tag)
    with open(prefix + ".log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "op.py"), mode, prefix, *argv],
                cwd=workdir, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not os.path.exists(prefix + ".json"):
        return None
    with open(prefix + ".json") as fh:
        return json.load(fh)


def _git_commit():
    """HEAD of the checkout's own repository; None when it is not one."""
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload, seed, instance, input_hash):
    import numpy

    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gaudinlab", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "instance": instance,
        "input_sha256": input_hash,
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
    }


class Checker:
    """Counts operations and checks each one's outputs against the
    reference of its workload instance."""

    def __init__(self, reference, input_hash):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.input_problem = None
        if reference is None:
            self.input_problem = "no reference for this input"
        elif reference["input_sha256"] != input_hash:
            self.input_problem = (f"input sha256 {input_hash} differs from the "
                                  f"recorded {reference['input_sha256']}")

    def check(self, tag, workdir, argv, result, with_outputs=True):
        """Count one operation; True when it passed its check."""
        from reference import compare, extract

        self.attempted += 1
        problems = []
        if result is None:
            problems.append("the operation did not finish (see its .log)")
        elif with_outputs and result["exit_code"] != 0:
            problems.append(f"exit code {result['exit_code']} (see its .log)")
        elif with_outputs:
            outputs = extract(workdir, argv, result)
            if self.input_problem is not None:
                problems.append(self.input_problem)
            else:
                problems += compare(self.reference["outputs"], outputs)
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]
        return not problems


def measure(argv, workdir, seconds, checker):
    """End-to-end samples: operations until `seconds` are spent, each one
    followed by SETUP_PER_OP interpreters that stop at the first step, and
    more of those until there are SETUP_SAMPLES set-up times.  Spreading
    the set-up runs over the whole run lets their median average over the
    machine's changes of speed.  Only operations that pass their check are
    timed; when none does, the ones that finished are, and the run reads
    incorrect."""
    start = time.perf_counter()
    ops, finished, setups, durations = [], [], [], []

    def setup_runs(count):
        for _ in range(count):
            tag = f"setup{len(setups)}"
            res = run_op("setup", argv, workdir, tag)
            if checker.check(tag, workdir, argv, res, with_outputs=False):
                setups.append(res)

    while True:
        t = time.perf_counter()
        tag = f"op{len(durations)}"
        res = run_op("full", argv, workdir, tag)
        if checker.check(tag, workdir, argv, res):
            ops.append(res)
        elif res is not None:
            finished.append(res)
        setup_runs(SETUP_PER_OP)
        durations.append(time.perf_counter() - t)
        # start another operation only if it should end within the budget
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    ops = ops or finished
    setup_runs(SETUP_SAMPLES - len(ops) - len(setups))
    samples = {name: [op[name] for op in ops] for name in END_TO_END}
    samples["setup_s"] += [res["setup_s"] for res in setups]
    wall = {name: [op["wall"][name] for op in ops] for name in TIMES}
    wall["setup_s"] += [res["wall"]["setup_s"] for res in setups]
    return samples, wall, ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "gaudinlab", "cli.py")):
        print(f"error: no gaudinlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import reference
    from workloads import INSTANCES, WORKLOADS, input_sha256, make_input

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    instance = args.seed % INSTANCES
    cli_args, config = make_input(args.workload, args.seed)
    input_hash = input_sha256(cli_args, config)
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if config is not None:
        with open(os.path.join(workdir, "config.json"), "w") as fh:
            json.dump(config, fh, indent=1)

    ref = reference.load()["workloads"].get(args.workload, {}).get(str(instance))
    checker = Checker(ref, input_hash)
    prov = provenance(args.workload, args.seed, instance, input_hash)
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {"provenance": prov}
    if args.trace == 0:
        samples, wall, ops = measure(cli_args, workdir, args.seconds, checker)
        if any(not v for v in samples.values()):
            print("error: no operation finished", file=sys.stderr)
            for p in checker.problems:
                print("  " + p, file=sys.stderr)
            return 1
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            v = samples[name]
            note = f"; wall {statistics.median(wall[name]):.6g} s" if name in wall else ""
            print(f"{name} {statistics.median(v):.6g} {unit} "
                  f"(median of {len(v)}; min {min(v):.6g}, max {max(v):.6g}{note})")
        margins = {op.get("min_resonance_margin") for op in ops} - {None}
        if margins:
            print(f"min_resonance_margin {min(margins):.6g}")
        record.update(samples=samples, wall=wall)
    else:
        from tracing import metric_unit

        plain = run_op("untraced", cli_args, workdir, "untraced")
        checker.check("untraced", workdir, cli_args, plain)
        traced = run_op("traced", cli_args, workdir, "traced")
        checker.check("traced", workdir, cli_args, traced)
        if plain is None or traced is None:
            print("error: the untraced or the traced operation failed", file=sys.stderr)
            for p in checker.problems:
                print("  " + p, file=sys.stderr)
            return 1
        layers = traced["layers"]
        metrics = {name: {"value": value, "unit": metric_unit(name)}
                   for name, value in layers.items()}
        for name, m in metrics.items():
            # a per-call percentile's sample count is its function's calls
            count = name.rsplit(".", 1)[0] + ".calls" if name.endswith("_us") else None
            note = f" (n={layers[count]})" if count else ""
            print(f"{name} {m['value']:.6g} {m['unit']}{note}")
        plain_s, traced_s = plain["wall"]["run_s"], traced["wall"]["run_s"]
        overhead = traced_s - plain_s
        print(f"tracing_overhead_s {overhead:.6g} s (traced run_s {traced_s:.6g}"
              f" - untraced run_s {plain_s:.6g}, wall time; {traced['spans']} spans"
              f" in {os.path.join(workdir, 'traced.trace.json')})")
        record.update(untraced=plain, traced_run_s=traced_s,
                      tracing_overhead_s=overhead, spans=traced["spans"])

    if args.profile:
        run_op("profile", cli_args, workdir, "profile")
        print(f"profile {os.path.join(workdir, 'profile.profile.txt')}")

    failed_frac = checker.failed / checker.attempted
    print(f"failed_frac {failed_frac:.6g} ({checker.failed}/{checker.attempted} operations)")
    for p in checker.problems:
        print("check: " + p, file=sys.stderr)
    record.update(metrics=metrics, attempted=checker.attempted, failed=checker.failed,
                  failed_frac=failed_frac, problems=checker.problems)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
