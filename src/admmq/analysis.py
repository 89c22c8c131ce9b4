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
    scalar set, with absolute tolerance ``tol``.
    """
    _check_rho_tol(rho, tol)
    x = np.asarray(x, dtype=float)
    snapped = dset.project(x)
    if float(np.max(np.abs(x - snapped), initial=0.0)) > membership_tol:
        raise ValueError("x is not a member of the set (projection round-trip failed)")
    t = snapped - f.gradient(snapped) / rho
    candidate = dset.project(t)
    gaps = np.abs(snapped - t) - np.abs(candidate - t)
    slack = float(np.max(gaps))
    return StationarityReport(
        is_stationary=bool(slack <= tol), candidate=candidate, slack=slack, tol=tol
    )


def brute_force_minimize(
    f: SmoothObjective, dset: DiscreteProductSet, limit: int = 10_000_000
) -> tuple[np.ndarray, float]:
    """Exact global minimum by sweeping every member of the set.

    Ties resolve to the lexicographically smallest member (enumeration order).
    """
    members = dset.enumerate_members(limit)
    best_val = math.inf
    best_idx = -1
    for start in range(0, members.shape[0], _EVAL_CHUNK):
        chunk = members[start : start + _EVAL_CHUNK]
        vals = f.value_many(chunk)
        i = int(np.argmin(vals))
        # strict < keeps the first (lexicographically smallest) minimizer
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_idx = start + i
    return members[best_idx].copy(), best_val


def enumerate_stationary_points(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    rho: float,
    tol: float = 1e-9,
    limit: int = 10_000_000,
) -> np.ndarray:
    """All members that are rho-stationary, as an (n, dim) array."""
    _check_rho_tol(rho, tol)
    members = dset.enumerate_members(limit)
    keep = []
    for start in range(0, members.shape[0], _EVAL_CHUNK):
        chunk = members[start : start + _EVAL_CHUNK]
        targets = chunk - f.gradient_many(chunk) / rho
        nearest = dset.project_many(targets)
        gaps = np.abs(chunk - targets) - np.abs(nearest - targets)
        keep.append(chunk[np.max(gaps, axis=1) <= tol])
    return np.vstack(keep) if keep else np.empty((0, dset.dim))


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
