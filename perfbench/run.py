#!/usr/bin/env python3
"""Run one benchmark workload of admmq and print its metrics.

    python3 perfbench/run.py --workload sweep-d16 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload runs for ``--seconds`` with no tracing and
the end-to-end metrics of BENCHMARK.json are printed.  With ``--trace 1`` a
fixed list of units runs untraced and then traced, and the per-layer
metrics are printed.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, the inputs and the sample counts.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the sweep pool runs at most nproc workers, so
# workers x BLAS threads stays within nproc, and results do not depend on
# how a BLAS call was split between threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-d16", "solve-d1024", "logistic-grid", "verify-box")
# set-up runs at least SETUP_REPS times and until SETUP_MIN_S seconds are
# spent, so that a quick set-up gets more repetitions behind its median
SETUP_REPS = 3
SETUP_MIN_S = 4.0
TAIL_PERCENTILE = 90


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is the self-test's",
    )
    return p.parse_args(argv)


def pool_workers() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "admmq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": pool_workers(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_unit(wl, unit, **kw):
    """Execute and check one unit: (output, seconds, failed operations)."""
    t0 = perf_counter()
    try:
        out = wl.execute(unit, **kw)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, perf_counter() - t0, unit.ops
    seconds = perf_counter() - t0
    return out, seconds, wl.check(unit, out)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports admmq and its CLI.

    The child reads the system-wide monotonic clock once its imports are
    done, so the time does not depend on how often the parent polls it.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    t0 = monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import admmq, admmq.cli, time; print(time.monotonic())"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    return float(done.stdout.split()[-1]) - t0


def measure(wl, seconds: float):
    """Untraced run: set up several times, then run units until time is up.

    Times are scaled to nominal machine speed by calibration factors (see
    calibrate.py): set-up times by the kernel samples taken between the
    set-ups, unit times by those taken between the units.  The measured
    figures go to the detail line.
    """
    import numpy as np
    from calibrate import Calibrator

    workers = pool_workers()
    cal = Calibrator(wl.calibration, workers if wl.uses_pool else 1)
    try:
        setups, imports = [], []
        while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
            cal.sample()
            imports.append(import_seconds())
            t0 = perf_counter()
            wl.setup()
            setups.append(imports[-1] + perf_counter() - t0)
        cal.sample()
        setup_samples = len(cal.samples)
        keys, latencies, attempted, failed, members = [], [], 0, 0, 0
        units = wl.units()
        deadline = perf_counter() + seconds
        while True:
            unit = next(units)
            _, dt, bad = run_unit(wl, unit, workers=workers)
            keys.append(unit.key)
            latencies.append(dt)
            attempted += unit.ops
            failed += bad
            members += wl.members(unit)
            if perf_counter() >= deadline and len(latencies) % wl.cycle == 0:
                break
            cal.maybe_sample()
        cal.sample()
    finally:
        cal.close()

    def figures(setup_scale, scale):
        busy = sum(latencies) * scale
        return {
            "setup_s": (float(np.median(setups)) * setup_scale, "s"),
            "runs_per_s": (attempted / busy, "1/s"),
            "solve_ms_p50": (float(np.median(latencies)) * scale * 1e3, "ms"),
            "solve_ms_tail": (
                float(np.percentile(latencies, TAIL_PERCENTILE)) * scale * 1e3,
                "ms",
            ),
            "members_per_s": (members / busy, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    setup_factor = cal.factor(cal.samples[:setup_samples])
    factor = cal.factor(cal.samples[setup_samples - 1 :])
    tail = float(np.percentile(latencies, TAIL_PERCENTILE))
    samples = {
        "setup_reps": len(setups),
        "latency": len(latencies),
        "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": sum(1 for x in latencies if x > tail),
        "operations": attempted,
        "members": members,
        "calibration": {
            "kernel": cal.kind,
            "processes": cal.processes,
            "samples_s": cal.samples,
            "setup_samples": setup_samples,
            "setup_factor": setup_factor,
            "factor": factor,
        },
        "measured": {k: v for k, (v, _) in figures(1.0, 1.0).items()},
        "setup_reps_s": setups,
        "import_reps_s": imports,
        "unit_s": [[k, dt] for k, dt in zip(keys, latencies)],
    }
    return figures(setup_factor, factor), attempted, failed, samples


def traced(wl):
    """Fixed units run untraced, then traced; per-layer metrics from the spans."""
    from spans import Tracer, layer_metrics

    full = Tracer()
    with full:
        wl.setup()
    it = wl.units()
    units = [next(it) for _ in range(wl.trace_units)]
    attempted = failed = 0
    extra = {}

    def run_pass(workers, tracer=None):
        nonlocal attempted, failed
        rows = []
        t0 = perf_counter()
        for unit in units:
            out, _, bad = run_unit(wl, unit, workers=workers, tracer=tracer)
            attempted += unit.ops
            failed += bad
            rows.extend(wl.output_rows(out) if out is not None else [])
        return perf_counter() - t0, rows

    workers = pool_workers()
    if wl.uses_pool:
        pool_s, pool_rows = run_pass(workers)
    runs = Tracer(run_only=True)
    with runs:
        runs_s, rows = run_pass(1)
    with full:
        full_s, _ = run_pass(1, tracer=full)
    if wl.uses_pool:
        extra["scaling_eff"] = runs_s / (workers * pool_s)
        extra["worker_mismatch"] = sum(a != b for a, b in zip(pool_rows, rows)) + abs(
            len(pool_rows) - len(rows)
        )
    extra["overhead_frac"] = full_s / runs_s - 1.0
    full.write_log(wl.workdir / "spans.jsonl")
    samples = {
        "units": len(units),
        "untraced_s": runs_s,
        "traced_s": full_s,
        "spans": {k: v.calls for k, v in sorted(full.stats.items())},
        "spans_logged": len(full.log),
        "missing_targets": full.missing + runs.missing,
    }
    return layer_metrics(runs, full, extra), attempted, failed, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "admmq" / "__init__.py").is_file():
        print(f"error: no admmq package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = bench["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    ref_path = HERE / "reference" / args.size / f"{args.workload}.json"
    try:
        reference = json.loads(ref_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read reference {ref_path}: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.size, args.seed, workdir, reference)
    if args.trace:
        metrics, attempted, failed, samples = traced(wl)
    else:
        metrics, attempted, failed, samples = measure(wl, args.seconds)

    out = {}
    for entry in names:
        name = entry["name"]
        if name not in metrics:
            print(f"error: workload produced no metric {name}", file=sys.stderr)
            return 1
        value, unit = metrics[name]
        if unit == "count":
            value = int(value)
        if unit != entry["unit"]:
            print(f"error: {name} is in {unit}, not {entry['unit']}", file=sys.stderr)
            return 1
        out[name] = {"value": value, "unit": unit}
    detail = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "inputs": wl.describe(),
        "samples": samples,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
