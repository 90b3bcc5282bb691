"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every instance of every workload once at full size, as many at a time
as there are CPUs, and stores each one's input hash and checked outputs in
references.json.  Run it only at a commit whose outputs
are trusted: every later run is compared with what it writes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import SRC, WORK, run_op

sys.path.insert(0, SRC)

import reference  # noqa: E402
from workloads import INSTANCES, WORKLOADS, input_sha256, make_input  # noqa: E402


def record_one(workload, instance):
    argv, config = make_input(workload, instance)
    workdir = os.path.join(WORK, "record", f"{workload}-{instance}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if config is not None:
        with open(os.path.join(workdir, "config.json"), "w") as fh:
            json.dump(config, fh, indent=1)
    result = run_op("full", argv, workdir, "record")
    if result is None:
        raise RuntimeError(f"{workload} instance {instance} failed; see {workdir}")
    if result["exit_code"] != 0:
        raise RuntimeError(f"{workload} instance {instance}: exit code "
                           f"{result['exit_code']}; see {workdir}")
    outputs = reference.extract(workdir, argv, result)
    shutil.rmtree(workdir)
    return {"input_sha256": input_sha256(argv, config), "outputs": outputs}


def main():
    refs = {"tolerance": {"rtol": reference.RTOL, "atol": reference.ATOL},
            "workloads": {}}
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        for workload in WORKLOADS:
            entries = list(pool.map(lambda i: record_one(workload, i), range(INSTANCES)))
            refs["workloads"][workload] = {str(i): e for i, e in enumerate(entries)}
            margins = [e["outputs"].get("min_resonance_margin") for e in entries]
            margins = [m for m in margins if m is not None]
            note = f", smallest resonance margin {min(margins):.4g}" if margins else ""
            print(f"{workload}: {len(entries)} instances recorded{note}", flush=True)
            with open(reference.REFERENCES, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main()
