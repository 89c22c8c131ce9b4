"""Golden bytes: sweep and solve outputs equal the committed files, byte for byte.

``tests/golden/sweep/`` holds runs.csv, summary.json and the pairwise
histograms of a tiny sweep: two d=4 instances, all six algorithms, two
inits, short budgets, run at 1 and at 2 workers. ``tests/golden/solve/``
holds the ``admmq solve --format json --trace`` output of every method on
one d=4 instance. ``tests/golden/verify/`` holds a d=6 instance from
``admmq generate --b-scale 5``, ``check-stationary`` as JSON and as CSV at
one stationary and one non-stationary point, and a boxed ``bruteforce``
on it. ``tests/golden/fail/`` holds the exit code and stderr of three
solves on the d=4 instance that fail: pgd and admm-q diverge (exit 3), and
iadmm-q misses its x-update certificate (exit 4). A change that keeps every
number passes; a change of any bit fails.

A deliberate change of a format or a number regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and records the change in CHANGES.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from admmq.cli import main
from admmq.solvers import METHODS

GOLDEN = Path(__file__).parent / "golden"

PROTOCOL = {
    "n_inits": 2,
    "iters_admm": 60,
    "iters_pgd": 100,
    "window": 10,
    "rho_grid": [0.01, 10.0, 10000.0],
    "beta_grid": [1.0, 100000.0],  # beta/rho 1e5 and 10 exceed the covering radius 8
    "p_grid": [0.5, 1.0],
    "gamma": 0.5,
}
SWEEP = ["--generate", "2", "--d", "4", "--seed", "3", "--algorithms", ",".join(METHODS),
         "--bins", "5"]
SOLVE = {
    "admm-q": ["--rho", "30"],
    "iadmm-q": ["--rho", "300", "--gamma", "0.5"],
    "admm-r": ["--rho", "30", "--p", "0.5"],
    "admm-s": ["--rho", "30", "--beta", "20"],
    "pgd": ["--rho", "300", "--trace-stride", "3"],
    "gd-proj": [],
}
FAIL = {
    "pgd": ["--rho", "0.01"],
    "admm-q": ["--rho", "1e10", "--init-scale", "1e300"],
    "iadmm-q": ["--rho", "0.05", "--gamma", "0.5"],
}
# (name, point, rho): at rho 1e4 the gradient step stays within half a spacing
# of the origin; at rho 0.5 it leaves it
CHECKS = [("stationary", "[0, 0, 0, 0, 0, 0]", "1e4"),
          ("nonstationary", "[8, 0, -8, 0, 16, 0]", "0.5")]


def sweep_outputs(tmp: Path, workers: int) -> dict:
    protocol = tmp / "protocol.json"
    protocol.write_text(json.dumps(PROTOCOL))
    out = tmp / f"sweep-{workers}"
    argv = ["sweep", *SWEEP, "--protocol", str(protocol), "--workers", str(workers),
            "--out", str(out)]
    assert main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def solve_outputs(tmp: Path) -> dict:
    instance = tmp / "instance.json"
    assert main(["generate", "--d", "4", "--seed", "3", "--out", str(instance)]) == 0
    files = {}
    for method, flags in SOLVE.items():
        out, trace = tmp / f"{method}.json", tmp / f"{method}.csv"
        argv = ["solve", "--instance", str(instance), "--algorithm", method, *flags,
                "--iters", "40", "--seed", "5", "--force", "--format", "json",
                "--trace", str(trace), "--out", str(out)]
        assert main(argv) == 0
        files[out.name], files[trace.name] = out.read_bytes(), trace.read_bytes()
    return files


def fail_outputs(tmp: Path) -> dict:
    instance = tmp / "instance.json"
    assert main(["generate", "--d", "4", "--seed", "3", "--out", str(instance)]) == 0
    files = {}
    for method, flags in FAIL.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["solve", "--instance", str(instance), "--algorithm", method, *flags,
                         "--iters", "40", "--seed", "5", "--force"])
        files[f"{method}.txt"] = f"exit {code}\n{err.getvalue()}".encode()
    return files


def verify_outputs(tmp: Path) -> dict:
    instance = tmp / "instance.json"
    assert main(["generate", "--d", "6", "--seed", "2", "--b-scale", "5",
                 "--out", str(instance)]) == 0
    files = {instance.name: instance.read_bytes()}
    for name, point, rho in CHECKS:
        for fmt in ("json", "csv"):
            out = tmp / f"{name}.{fmt}"
            assert main(["check-stationary", "--instance", str(instance), "--point", point,
                         "--rho", rho, "--format", fmt, "--out", str(out)]) == 0
            files[out.name] = out.read_bytes()
    out = tmp / "bruteforce.json"
    assert main(["bruteforce", "--instance", str(instance), "--bounds", "-16", "16",
                 "--out", str(out)]) == 0
    files[out.name] = out.read_bytes()
    return files


def assert_golden(files: dict, kind: str):
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / kind).iterdir())}
    assert sorted(files) == sorted(want)
    for name, data in files.items():
        assert data == want[name], f"{kind}/{name} differs from the golden file"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_bytes(tmp_path, workers):
    assert_golden(sweep_outputs(tmp_path, workers), "sweep")


def test_solve_bytes(tmp_path):
    assert_golden(solve_outputs(tmp_path), "solve")


def test_fail_bytes(tmp_path):
    assert_golden(fail_outputs(tmp_path), "fail")


def test_verify_bytes(tmp_path):
    assert_golden(verify_outputs(tmp_path), "verify")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for kind, files in (("sweep", sweep_outputs(Path(tmp), 1)),
                            ("solve", solve_outputs(Path(tmp))),
                            ("fail", fail_outputs(Path(tmp))),
                            ("verify", verify_outputs(Path(tmp)))):
            (GOLDEN / kind).mkdir(parents=True, exist_ok=True)
            for old in (GOLDEN / kind).iterdir():
                old.unlink()
            for name, data in files.items():
                (GOLDEN / kind / name).write_bytes(data)
    print(f"wrote {GOLDEN}", file=sys.stderr)
