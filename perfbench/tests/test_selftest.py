"""Self-test of the benchmark: tiny-size runs of every workload.

    python3 -m pytest perfbench/tests -q

Each workload runs at the ``tiny`` size, untraced and traced.  Every run must
print every metric BENCHMARK.json names, in its unit, and pass its
correctness check against ``reference/tiny``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_and_passes_its_check(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    detail = json.loads(detail_line)["detail"]
    env = detail["environment"]
    for key in ("nproc", "blas", "blas_threads", "python", "numpy", "scipy", "seed"):
        assert env[key] is not None
    assert env["pool_workers"] * env["blas_threads"] <= env["nproc"]
    if trace:
        assert detail["samples"]["missing_targets"] == []
    else:
        assert detail["samples"]["latency"] >= 1


def test_sweep_rows_do_not_depend_on_the_worker_count():
    proc = _run("sweep-d16", 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["experiments.worker_mismatch"]["value"] == 0
    assert metrics["experiments.run_protocol.tasks"]["value"] > 0


def test_same_seed_gives_the_same_inputs():
    runs = [_run("logistic-grid", 1, seed=11) for _ in range(2)]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_a_wrong_output_counts_as_a_failure():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import WORKLOADS as classes

        reference = json.loads((HERE / "reference" / "tiny" / "logistic-grid.json").read_text())
        wl = classes["logistic-grid"]("tiny", 0, ROOT / ".perfbench_work" / "selftest", reference)
        wl.setup()
        unit = wl.all_units()[0]
        out = wl.execute(unit)
        assert wl.check(unit, out) == 0
        case = reference["cases"][unit.key]
        case["best_objective"] *= 1 + 1e-6
        assert wl.check(unit, out) == 1
    finally:
        del sys.path[:2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep-d16", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc to list processes")
def test_no_process_outlives_a_run():
    # sweep-d16 starts the most processes: the pool, the import probes and
    # a calibration helper.  The run leads a session of its own, so anything
    # it leaves behind still carries its session id.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep-d16", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=600) == 0
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getsid(int(entry.name)) == proc.pid:
                    left.append((entry / "cmdline").read_bytes().replace(b"\0", b" "))
            except (OSError, ProcessLookupError):
                pass
    assert left == []
