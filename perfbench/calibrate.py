"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts, as
co-tenants load the host, by up to a factor of two within minutes.  Medians
over one run cannot remove a drift that outlasts the run, so each run also
times a fixed calibration kernel every few seconds, and every end-to-end
time is scaled by the run's machine speed:

    reported time = measured time * NOMINAL_S[kernel] / mean kernel time

Each kernel is a few lines of numpy that mimic the bottleneck of one
workload; none calls admmq, so no change to the program moves them, and a
program that gets faster or slower moves the reported figures exactly as it
moves the measured ones.  A kernel runs in as many processes as its workload
keeps busy.  ``NOMINAL_S`` is the kernel's time on the machine the
benchmark was defined on (2 vCPUs of a shared Xeon host), so the reported
figures read as times there.  The measured figures and the factor are
printed in the detail line.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

NOMINAL_S = {"admm-d16": 0.13, "logistic": 0.065, "cholesky-d1024": 0.08, "box-scan": 0.12}
# seconds between two calibration samples; each sample takes about 0.1 s
INTERVAL_S = 1.0


class Kernel:
    """One calibration kernel with its inputs, built once."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        if kind == "admm-d16":
            a = rng.normal(size=(16, 16))
            self.q = a.T @ a
            self.b = rng.normal(size=16)
            self.rho = 1e3
            self.factor = cho_factor(self.q + self.rho * np.eye(16))
        elif kind == "logistic":
            self.x = rng.normal(size=(2000, 64))
            self.y = np.where(rng.random(2000) < 0.5, 1.0, -1.0)
            self.grid = np.linspace(-1.0, 1.0, 16)
        elif kind == "cholesky-d1024":
            a = rng.normal(size=(1024, 1024))
            self.q = a.T @ a / 1024
            self.factor = cho_factor(self.q + np.eye(1024))
        else:  # box-scan: every member of a 7-level box in 7 dimensions
            levels = 8.0 * np.arange(-3.0, 4.0)
            self.members = np.empty((7**7, 7))
            for i in range(7):
                self.members[:, i] = np.tile(np.repeat(levels, 7 ** (6 - i)), 7**i)
            a = rng.normal(size=(7, 7))
            self.q = a.T @ a

    def seconds(self) -> float:
        """Time one run of the kernel."""
        t0 = perf_counter()
        getattr(self, "_" + self.kind.replace("-", "_"))()
        return perf_counter() - t0

    def _admm_d16(self):
        # the shape of one exact ADMM iteration on a lattice at d=16
        x, lam = np.zeros(16), np.zeros(16)
        for _ in range(3300):
            t = x + lam / self.rho
            if not np.all(np.isfinite(t)):
                raise FloatingPointError("calibration kernel diverged")
            y = np.clip(np.ceil(t / 8.0 - 0.5), -1e9, 1e9) * 8.0
            x = cho_solve(self.factor, self.rho * y - lam - self.b, check_finite=False)
            lam = lam + self.rho * (x - y)
            float(0.5 * y @ self.q @ y + self.b @ y)

    def _logistic(self):
        # logistic-loss gradients, then a per-coordinate grid projection
        w = np.zeros(64)
        for _ in range(500):
            w -= 0.1 * -(self.x.T @ (self.y * expit(-self.y * (self.x @ w)))) / 2000
        grid = self.grid
        for _ in range(20):
            for i in range(64):
                idx = np.searchsorted(grid, w[i : i + 1])
                lo, hi = np.clip(idx - 1, 0, 15), np.clip(idx, 0, 15)
                np.where(np.abs(w[i] - grid[lo]) <= np.abs(grid[hi] - w[i]), grid[lo], grid[hi])

    def _cholesky_d1024(self):
        # triangular solves with a d=1024 factor and matvecs with Q
        x = np.ones(1024)
        for _ in range(60):
            x = cho_solve(self.factor, x, check_finite=False)
            float(x @ self.q @ x)

    def _box_scan(self):
        # a quadratic over every member, in 65536-row chunks, twice
        for _ in range(2):
            for start in range(0, self.members.shape[0], 65536):
                c = self.members[start : start + 65536]
                v = 0.5 * np.einsum("ij,ij->i", c @ self.q, c) + c.sum(axis=1)
                float(v.min())


def _serve(kind: str):
    """Helper process: time one kernel run per request line until stdin ends.

    Run as ``python3 calibrate.py <kind>``.  Prints ``ready`` once the kernel
    is built and warm, then one time per line read that says ``go``.
    """
    kernel = Kernel(kind)
    kernel.seconds()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "go":
            break
        print(repr(kernel.seconds()), flush=True)


class Calibrator:
    """Kernel timings over one run, taken in ``processes`` processes at once.

    Helper processes are fresh interpreters started with ``subprocess`` and
    talk over their standard streams, so the benchmark process runs no
    helper threads when the program forks its own worker pool, and no
    ``multiprocessing`` resource tracker outlives the run.
    """

    def __init__(self, kind: str, processes: int = 1):
        self.kind = kind
        self.processes = processes
        self.kernel = Kernel(kind)
        self.samples: list[float] = []
        self._last = 0.0
        self._helpers: list[subprocess.Popen] = []
        try:
            for _ in range(processes - 1):
                self._helpers.append(
                    subprocess.Popen(
                        [sys.executable, str(Path(__file__).resolve()), kind],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
            for proc in self._helpers:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("calibration helper failed to start")
        except BaseException:
            self.close()
            raise
        self.kernel.seconds()  # warm caches before the first sample

    def sample(self):
        for proc in self._helpers:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        times = [self.kernel.seconds()] + [float(p.stdout.readline()) for p in self._helpers]
        self.samples.append(sum(times) / len(times))
        self._last = perf_counter()

    def maybe_sample(self):
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, samples: list[float]) -> float:
        """Nominal over the mean of some measured kernel times.

        The mean, not the median: a workload's run time is the sum of its
        times at each moment's speed, which the mean of the kernel times
        tracks.  Kernel times are often bimodal on a shared host, and a
        median then jumps between the two modes from one run to the next.
        """
        return NOMINAL_S[self.kind] / float(np.mean(samples))

    def close(self):
        for proc in self._helpers:
            with contextlib.suppress(OSError):
                proc.stdin.close()  # end of input stops the helper
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._helpers.clear()


if __name__ == "__main__":
    _serve(sys.argv[1])
