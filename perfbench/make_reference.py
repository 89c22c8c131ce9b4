#!/usr/bin/env python3
"""Regenerate the reference outputs that the benchmark checks against.

    python3 perfbench/make_reference.py [--size full|tiny] [--workload NAME]

Every case of every pool member runs once, at one worker, and its outputs
are written to ``perfbench/reference/<size>/<workload>.json``.  The
references pin the outputs of the program as it was when the benchmark was
defined; they change only together with the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

from spans import METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def build(name: str, size: str) -> dict:
    workdir = run.ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    cases = {}
    for wl in WORKLOADS[name].reference_objects(size, workdir):
        wl.setup()
        for unit in wl.all_units():
            runs = Tracer(run_only=True)
            with runs:
                out = wl.execute(unit, workers=1)
            record = wl.expected(unit, out)
            # members a solver unit evaluates: one per iteration it ran
            record["members"] = int(sum(runs.count[f"run.iters.{m}"] for m in METHODS))
            cases[unit.key] = record
            print(f"{name} {unit.key}", file=sys.stderr)
    return {"workload": name, "size": size, "environment": run.environment(0), "cases": cases}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = p.parse_args()
    out_dir = run.HERE / "reference" / args.size
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        ref = build(name, args.size)
        (out_dir / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
