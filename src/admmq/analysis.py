"""Verification instruments: stationarity checks, brute force, parameter tests.

A feasible point is rho-stationary when it belongs to the set of nearest
members of its own projected-gradient target ``x - grad f(x) / rho``; i.e.
one projected-gradient step of size ``1/rho`` cannot move it. Membership in
the argmin set is checked with an absolute per-coordinate tolerance because
exact ties are legitimate (the target can sit exactly between two members).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .objectives import SmoothObjective
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

_EVAL_CHUNK = 65536
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


def _check_rho_tol(rho: float, tol: float):
    if not (0 < rho < math.inf):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if not (0 <= tol < math.inf):
        raise ValueError(f"tol must be non-negative and finite, got {tol}")


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
    _check_rho_tol(rho, tol)
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


def _chunk_ranges(dset: DiscreteProductSet):
    """``[start, stop)`` of each ``_EVAL_CHUNK``-row block of the set's members.

    An unbounded set has infinite cardinality and gives one range, which
    ``enumerate_members`` rejects like a set over the limit.
    """
    total = dset.cardinality()
    start = 0
    while start < total:
        stop = min(start + _EVAL_CHUNK, total)
        yield start, stop
        start = stop


def _blocks(n: int):
    """``[a, b)`` of the blocks of a chunk's ``n`` rows, each scored whole while in cache.

    A block keeps the bits of the chunk's products if it takes their BLAS path.
    So there are ``ceil(n / _BLOCK_ROWS)`` blocks of near-equal size, each but
    the last a multiple of 4 rows, as OpenBLAS's gemv takes rows 4 at a time,
    and no short tail, which would go through gemv or a small-matrix GEMM."""
    k = -(-n // _BLOCK_ROWS)
    step = 4 * -(-n // (4 * k))  # n / k rows, rounded up to a multiple of 4
    return ((a, min(a + step, n)) for a in range(0, n, step))


def brute_force_minimize(
    f: SmoothObjective, dset: DiscreteProductSet, limit: int = 10_000_000
) -> tuple[np.ndarray, float]:
    """Exact global minimum by sweeping every member of the set.

    Ties resolve to the lexicographically smallest member (enumeration order).
    Members are built ``_EVAL_CHUNK`` rows at a time and scored in
    ``_blocks``, so memory is O(chunk * dim), and the result has the bits of
    scoring each whole chunk at once. A NaN objective value raises
    ValueError naming the first such member.
    """
    best, best_val = None, math.inf
    for start, stop in _chunk_ranges(dset):
        chunk = dset.enumerate_members(limit, start, stop)
        for a, b in _blocks(len(chunk)):
            with np.errstate(over="ignore", invalid="ignore"):  # inf scores; NaN raises below
                vals = f.value_many(chunk[a:b])
            nan = np.isnan(vals)
            if nan.any():
                i = a + int(np.argmax(nan))
                raise ValueError(f"objective is NaN at member {chunk[i].tolist()} "
                                 f"(row {start + i})")
            i = int(np.argmin(vals))
            # strict < keeps the first (lexicographically smallest) minimizer
            if best is None or vals[i] < best_val:
                best, best_val = chunk[a + i].copy(), float(vals[i])
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


def _stationary_rows(
    f: SmoothObjective, dset: DiscreteProductSet, chunk: np.ndarray, start: int, rho: float,
    tol: float,
) -> np.ndarray:
    """The rho-stationary rows of ``chunk``, whose first row is member ``start``.

    Each ``_blocks`` block is checked whole before the next. A member whose
    gradient step ``x - grad f(x) / rho`` is not finite raises ValueError
    naming it. A trap on overflow and on invalid operations finds such a
    member, so the search for it runs only in a block where the trap fires;
    if every step there is finite, the block is checked again with the trap
    off.
    """
    ok = np.empty(len(chunk), dtype=bool)
    for a, b in _blocks(len(chunk)):
        x = chunk[a:b]
        try:
            with np.errstate(over="raise", invalid="raise"):
                ok[a:b] = _stationary_mask(f, dset, x, rho, tol)
        except FloatingPointError:
            with np.errstate(over="ignore", invalid="ignore"):
                bad = ~np.isfinite(x - f.gradient_many(x) / rho).all(axis=1)
                if bad.any():
                    i = a + int(np.argmax(bad))
                    raise ValueError(f"gradient step is not finite at member "
                                     f"{chunk[i].tolist()} (row {start + i})") from None
                ok[a:b] = _stationary_mask(f, dset, x, rho, tol)
    return chunk[ok]


def enumerate_stationary_points(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    rho: float,
    tol: float = 1e-9,
    limit: int = 10_000_000,
) -> np.ndarray:
    """All members that are rho-stationary, as an (n, dim) array in enumeration order.

    Members are built ``_EVAL_CHUNK`` rows at a time and checked in
    ``_blocks``, so memory is O(chunk * dim) beyond the result, and the
    result has the bits of checking each whole chunk at once. A member whose
    gradient step ``x - grad f(x) / rho`` overflows raises ValueError
    naming the member and its row.
    """
    _check_rho_tol(rho, tol)
    keep = [
        _stationary_rows(f, dset, dset.enumerate_members(limit, start, stop), start, rho, tol)
        for start, stop in _chunk_ranges(dset)
    ]
    return np.vstack(keep)  # a set has at least one member, so one chunk


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
