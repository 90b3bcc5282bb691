"""The outputs the benchmark checks, and their comparison with references.

simulate: every field of the diagnostics JSON, the final state, the CSV
header and row count, and the smallest resonance margin reached (genus 1).
verify: the row names and their pass flags.

Numbers agree when |got - ref| <= ATOL + RTOL * |ref|.  RTOL absorbs
roundoff from reordered floating-point sums along a trajectory; ATOL covers
fields that are themselves roundoff, such as the Poisson brackets of
commuting charges (about 1e-13).  A kernel that is wrong in the sixth digit
moves the final state by far more than either.
"""

from __future__ import annotations

import csv
import json
import math
import os

RTOL = 1e-7
ATOL = 1e-10
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def extract(workdir, argv, result):
    """Checked outputs of one operation that ran in `workdir`."""
    out = {"exit_code": result["exit_code"]}
    if argv[0] == "simulate":
        out["diagnostics"] = _read_json(os.path.join(workdir, "diagnostics.json"))
        with open(os.path.join(workdir, "trajectory.csv"), newline="") as fh:
            lines = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        out["csv_header"] = lines[0]
        out["csv_rows"] = len(lines) - 1
        out["final_state"] = result["final_state"]
        out["min_resonance_margin"] = result["min_resonance_margin"]
    else:
        report = _read_json(os.path.join(workdir, f"{argv[1]}_report.json"))
        out["rows"] = [[row["name"], row["passed"]] for row in report["checks"]]
    return out


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def compare(ref, got, path="", rtol=RTOL, atol=ATOL):
    """Descriptions of every place where `got` differs from `ref`."""
    if isinstance(ref, dict) and isinstance(got, dict):
        diffs = [f"{path}.{k}: missing" for k in ref if k not in got]
        diffs += [f"{path}.{k}: unexpected" for k in got if k not in ref]
        for k in ref:
            if k in got:
                diffs += compare(ref[k], got[k], f"{path}.{k}", rtol, atol)
        return diffs
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in compare(r, g, f"{path}[{i}]", rtol, atol)]
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(got, numbers)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        if math.isfinite(got) and abs(got - ref) <= atol + rtol * abs(ref):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


def load():
    with open(REFERENCES) as fh:
        return json.load(fh)
