"""Verification instruments: stationarity checks, brute force, parameter tests.

A feasible point is rho-stationary when it belongs to the set of nearest
members of its own projected-gradient target ``x - grad f(x) / rho``; i.e.
one projected-gradient step of size ``1/rho`` cannot move it. Membership in
the argmin set is checked with an absolute per-coordinate tolerance because
exact ties are legitimate (the target can sit exactly between two members).

The exhaustive oracles, ``brute_force_minimize`` and
``enumerate_stationary_points``, visit every member in ``_walk_members``.
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .objectives import SmoothObjective
from .rng import check_real
from .sets import DiscreteProductSet

__all__ = [
    "StationarityReport",
    "is_rho_stationary",
    "brute_force_minimize",
    "enumerate_stationary_points",
    "decrease_condition_value",
    "check_decrease_condition",
    "iadmm_condition_value",
    "check_iadmm_condition",
]

_EVAL_CHUNK = 32768
_BLOCK_ROWS = 8192


@dataclass
class StationarityReport:
    """Outcome of a stationarity check.

    ``candidate`` is the projection of the gradient target; ``slack`` is the
    largest per-coordinate gap between the point's distance to the target
    and the best achievable distance (0 or negative means stationary).
    """

    is_stationary: bool
    candidate: np.ndarray
    slack: float
    tol: float

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "candidate": self.candidate.tolist()}


def is_rho_stationary(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    x,
    rho: float,
    tol: float = 1e-9,
    membership_tol: float = 1e-8,
) -> StationarityReport:
    """Check whether feasible ``x`` is rho-stationary.

    ``x`` must lie on the set up to ``membership_tol`` (it is snapped to its
    projection before evaluation, so converged floating-point iterates
    qualify). The product structure makes the argmin separable, so each
    coordinate is tested against the minimal distance achievable for its own
    scalar set, with absolute tolerance ``tol``. A gradient step
    ``x - grad f(x) / rho`` that is not finite raises ValueError.
    """
    check_real(rho, "rho", positive=True)
    check_real(tol, "tol")
    check_real(membership_tol, "membership_tol")
    x = np.asarray(x, dtype=float)
    snapped = dset.project(x)
    if float(np.max(np.abs(x - snapped), initial=0.0)) > membership_tol:
        raise ValueError("x is not a member of the set (projection round-trip failed)")
    with np.errstate(over="ignore", invalid="ignore"):
        t = snapped - f.gradient(snapped) / rho
    if not np.isfinite(t).all():
        raise ValueError(f"gradient step is not finite at {snapped.tolist()}")
    candidate = dset.project(t)
    gaps = np.abs(snapped - t) - np.abs(candidate - t)
    slack = float(np.max(gaps))
    return StationarityReport(
        is_stationary=bool(slack <= tol), candidate=candidate, slack=slack, tol=tol
    )


def _chunk_ranges(dset: DiscreteProductSet, limit: int) -> list[tuple[int, int]]:
    """``[start, stop)`` of each ``_EVAL_CHUNK``-row block of the set's members.

    An unbounded set, or one of more than ``limit`` members, raises
    ValueError as ``enumerate_members`` does.
    """
    dset.enumerate_members(limit, 0, 0)  # the limit and boundedness checks, no rows
    total = int(dset.cardinality())
    return [(a, min(a + _EVAL_CHUNK, total)) for a in range(0, total, _EVAL_CHUNK)]


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(task, ranges: list[tuple[int, int]]) -> list:
    """``task(start, stop)`` for each range, the results in row order.

    The tasks run on ``min(_cores(), len(ranges))`` threads, each in a copy of
    the caller's context, so numpy's error state carries over; one range, or
    one core, starts no thread. At most two tasks per thread are in flight,
    and the results are waited for in row order, so the first failure in row
    order is the one raised, and a failure stops the tasks not yet started.
    Every thread has ended when this returns or raises.
    """
    threads = min(_cores(), len(ranges))
    if threads < 2:
        return [task(a, b) for a, b in ranges]
    pool = ThreadPoolExecutor(threads)
    try:
        pending, results = [], []
        for a, b in ranges:
            pending.append(pool.submit(contextvars.copy_context().run, task, a, b))
            if len(pending) == 2 * threads:
                results.append(pending.pop(0).result())
        results.extend(fut.result() for fut in pending)
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _blocks(n: int):
    """``[a, b)`` of the blocks of a chunk's ``n`` rows, each scored whole while in cache.

    A block keeps the bits of the chunk's products if it takes their BLAS path.
    So there are ``ceil(n / _BLOCK_ROWS)`` blocks of near-equal size, each but
    the last a multiple of 4 rows, as OpenBLAS's gemv takes rows 4 at a time,
    and no short tail, which would go through gemv or a small-matrix GEMM."""
    k = -(-n // _BLOCK_ROWS)
    step = 4 * -(-n // (4 * k))  # n / k rows, rounded up to a multiple of 4
    return ((a, min(a + step, n)) for a in range(0, n, step))


def _walk_members(dset: DiscreteProductSet, limit: int, check, failure: str) -> list:
    """``check(x)`` for each block ``x`` of the set's members, the results in row order.

    Each ``_chunk_ranges`` chunk is built once, as one ``_map_chunks`` task,
    and checked in its ``_blocks``, so memory is O(threads * chunk * dim) and
    every result has the bits of checking the whole chunk at once in one
    thread. ``check`` returns the block's result and a mask of its bad rows,
    or None; the first bad row in row order raises
    ``ValueError("<failure> at member [..] (row i)")``.
    """
    def task(start: int, stop: int) -> list:
        chunk = dset.enumerate_members(limit, start, stop)
        results = []
        for a, b in _blocks(len(chunk)):
            result, bad = check(chunk[a:b])
            if bad is not None and bad.any():
                i = a + int(np.argmax(bad))
                raise ValueError(f"{failure} at member {chunk[i].tolist()} (row {start + i})")
            results.append(result)
        return results

    return [r for results in _map_chunks(task, _chunk_ranges(dset, limit)) for r in results]


def brute_force_minimize(
    f: SmoothObjective, dset: DiscreteProductSet, limit: int = 10_000_000
) -> tuple[np.ndarray, float]:
    """Exact global minimum by scoring every member of the set in ``_walk_members``.

    Ties resolve to the lexicographically smallest member (enumeration order).
    A NaN objective value raises ValueError naming the first such member.
    """
    def block_minimum(x):
        with np.errstate(over="ignore", invalid="ignore"):  # inf scores; NaN is a bad row
            vals = f.value_many(x)
        i = int(np.argmin(vals))
        return (x[i].copy(), float(vals[i])), np.isnan(vals)

    best, best_val = None, math.inf
    for x, val in _walk_members(dset, limit, block_minimum, "objective is NaN"):
        # strict < keeps the first (lexicographically smallest) minimizer
        if best is None or val < best_val:
            best, best_val = x, val
    return best, best_val


def _stationary_mask(
    f: SmoothObjective, dset: DiscreteProductSet, x: np.ndarray, rho: float, tol: float
) -> np.ndarray:
    """Which rows of the block ``x`` are rho-stationary; the temporaries stay in cache."""
    t = f.gradient_many(x) / rho
    np.subtract(x, t, out=t)
    gaps = dset.project_many(t)  # the nearest members, then the gaps
    np.subtract(gaps, t, out=gaps)
    np.abs(gaps, out=gaps)
    np.subtract(x, t, out=t)
    np.abs(t, out=t)
    np.subtract(t, gaps, out=gaps)
    # every column at most tol; a NaN gap fails its test
    ok = gaps[:, 0] <= tol
    for j in range(1, dset.dim):
        ok &= gaps[:, j] <= tol
    return ok


def enumerate_stationary_points(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    rho: float,
    tol: float = 1e-9,
    limit: int = 10_000_000,
) -> np.ndarray:
    """All members that are rho-stationary, as an (n, dim) array in enumeration order.

    Every member is tested in ``_walk_members``. A member whose gradient step
    ``x - grad f(x) / rho`` is not finite raises ValueError naming it and its
    row; the first such member in row order. A trap on overflow and on
    invalid operations finds such a member, so the search for it runs only
    in a block where the trap fires; if every step there is finite, the
    block is tested again with the trap off.
    """
    check_real(rho, "rho", positive=True)
    check_real(tol, "tol")

    def block_points(x):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return x[_stationary_mask(f, dset, x, rho, tol)], None
        except FloatingPointError:
            with np.errstate(over="ignore", invalid="ignore"):
                bad = ~np.isfinite(x - f.gradient_many(x) / rho).all(axis=1)
                if bad.any():
                    return None, bad
                return x[_stationary_mask(f, dset, x, rho, tol)], None

    # a set has a member, so there is a block to stack
    return np.vstack(_walk_members(dset, limit, block_points, "gradient step is not finite"))


def decrease_condition_value(L_f: float, mu: float, rho: float) -> float:
    """L_f^2 / rho - (rho - mu) / 2; negative means the per-iteration
    Lagrangian decrease of the exact method is guaranteed."""
    return L_f**2 / rho - (rho - mu) / 2.0


def check_decrease_condition(L_f: float, mu: float, rho: float) -> bool:
    return decrease_condition_value(L_f, mu, rho) < 0


def iadmm_condition_value(L_f: float, mu: float, rho: float, gamma: float) -> float:
    """Parameter expression of the inexact method's convergence condition;
    negative means (rho, gamma) is admissible."""
    sigma = rho - mu
    return (2.0 * L_f**2 + 8.0 * (rho + L_f) ** 2 * gamma**2) / rho + (
        gamma**2 * (rho + L_f) - (1.0 - gamma) ** 2 * sigma
    ) / 2.0


def check_iadmm_condition(L_f: float, mu: float, rho: float, gamma: float) -> bool:
    return iadmm_condition_value(L_f, mu, rho, gamma) < 0
