"""Iterative methods for smooth minimization over discrete product sets.

Six methods share one driver:

* ``admm-q``   -- exact alternating-direction iterations on the augmented
  Lagrangian, with the y-block handled by projection onto the set.
* ``iadmm-q``  -- same scheme with the x-minimization replaced by gradient
  descent accepted under a checkable relative-accuracy certificate.
* ``admm-r``   -- per-coordinate Bernoulli masks decide which y coordinates
  refresh each iteration.
* ``admm-s``   -- the hard projection is softened: y moves toward the set by
  at most ``beta/rho`` instead of jumping onto it.
* ``pgd``      -- projected gradient descent with step ``1/rho``.
* ``gd-proj``  -- unconstrained gradient descent (or a direct solve for
  quadratics) followed by a single projection.

The four ADMM methods share one iteration and differ only in how y is
taken from the projection and in the accuracy of the x-solve. That iteration
and pgd's step are written once, as one step of a batch of independent runs
(lanes) held as rows of ``(n, d)`` arrays, which alone decides how a lane
failed. ``run_lanes`` drives a batch and ``run`` a single run;
both record a :class:`RunTrace` and the best objective over a trailing
window, and stop a run early once its iterate cycles exactly. Each method is
also available as a single-step transition function.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .objectives import QuadraticObjective, SmoothObjective
from .rng import RunRng, check_seed
from .sets import DiscreteProductSet

__all__ = [
    "METHODS",
    "SolverError",
    "InnerSolverError",
    "DivergenceError",
    "InnerSolverConfig",
    "SolverConfig",
    "IterateState",
    "RunTrace",
    "RunResult",
    "augmented_lagrangian",
    "build_x_update",
    "admm_q_step",
    "iadmm_q_step",
    "admm_r_step",
    "admm_s_step",
    "pgd_step",
    "gd_then_project",
    "initial_state",
    "run",
    "run_lanes",
]

METHODS = ("admm-q", "iadmm-q", "admm-r", "admm-s", "pgd", "gd-proj")

# A run counts as converged when the last x-step is below this and y has not
# changed for at least this many trailing iterations.
CONVERGED_STEP_TOL = 1e-10
CONVERGED_STABLE_ITERS = 50


class SolverError(RuntimeError):
    """Raised when an update rule cannot be carried out.

    The text is ``what``, followed by `` at iteration r`` once the iteration is known.
    """

    def __init__(self, what: str, iteration: int = -1):
        super().__init__(what if iteration < 0 else f"{what} at iteration {iteration}")
        self.what, self.iteration = what, iteration

    def at(self, iteration: int) -> "SolverError":
        """The same failure, named at ``iteration``."""
        return type(self)(self.what, iteration)


class InnerSolverError(SolverError):
    """Inner x-minimization failed to meet its acceptance certificate."""


class DivergenceError(SolverError):
    """A non-finite iterate appeared; the run is divergent."""


@dataclass
class InnerSolverConfig:
    """Settings for the certified gradient-descent x-update.

    ``max_inner_iters`` caps the gradient steps per x-update, and
    ``abs_grad_tol`` is an absolute gradient floor that accepts the point
    even when the relative certificate's right-hand side is 0. The exact
    x-update of a quadratic, a cached Cholesky solve, ignores both.
    """

    max_inner_iters: int = 2000
    abs_grad_tol: float = 1e-12

    def __post_init__(self):
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be positive")
        if not (self.abs_grad_tol > 0):
            raise ValueError("abs_grad_tol must be positive")


@dataclass
class SolverConfig:
    """Hyper-parameters and budget for one solver run."""

    rho: float = 1.0
    gamma: float = 0.0
    beta: float = 1.0
    mask_prob: float = 1.0
    max_iters: int = 1000
    window: int = 50
    inner: InnerSolverConfig = field(default_factory=InnerSolverConfig)
    seed: int = 0
    init_scale: Optional[float] = None
    trace_stride: int = 1

    def __post_init__(self):
        if not (0 < self.rho < math.inf):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not (0 <= self.gamma < math.inf):
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")
        if not (0 < self.beta < math.inf):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (0 < self.mask_prob <= 1):
            raise ValueError(f"mask_prob must be in (0, 1], got {self.mask_prob}")
        for name in ("max_iters", "window", "trace_stride"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        check_seed(self.seed)
        if self.init_scale is not None and not (0 <= self.init_scale < math.inf):
            raise ValueError(f"init_scale must be non-negative and finite, got {self.init_scale}")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")


@dataclass
class IterateState:
    """Primal pair (x, y), dual lambda, and the iteration counter."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    r: int = 0
    inner_iters: int = 0  # inner-GD steps spent on the last x-update


def augmented_lagrangian(f: SmoothObjective, x, y, lam, rho: float) -> float:
    """f(x) + <lam, x - y> + rho/2 ||x - y||^2 (y is assumed feasible)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (x.shape == y.shape == lam.shape):
        raise ValueError("x, y, lambda must share one shape")
    d = x - y
    return f.value(x) + float(lam @ d) + 0.5 * rho * float(d @ d)


class _ClosedFormX:
    """x-update for quadratics: a cached Cholesky factor, one LAPACK solve per call.

    ``solve`` takes one lane per row and solves all their right-hand sides in
    one ``potrs`` call; each column comes out bit for bit as it would alone.
    """

    def __init__(self, f: QuadraticObjective, rho: float):
        try:
            self._factor, self._lower = cho_factor(f.Q + rho * np.eye(f.dim))
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"Q + rho*I is not positive definite (rho={rho} <= mu="
                f"{f.weak_convexity_mu}): {exc}"
            ) from exc
        self._b = f.b
        self._rho = rho

    def solve(self, y_new, lam, x_prev):
        rhs = self._rho * y_new - lam - self._b
        x, _ = dpotrs(self._factor, rhs.T, lower=self._lower, overwrite_b=True)
        return x.T, 0


class _CertifiedGdX:
    """x-update by gradient descent, accepted under the gradient certificate.

    A candidate x is accepted once
    ``||grad L(x)|| <= sigma(rho) * gamma * min(||x - y||, ||x - x_prev||)``
    or ``||grad L(x)|| <= abs_grad_tol``. Strong convexity turns the first
    bound into the relative-accuracy guarantee
    ``||x - x_star|| <= gamma * min(||x - y||, ||x - x_prev||)``; with
    gamma = 0 only the absolute floor remains and the update is exact to
    within ``abs_grad_tol / sigma(rho)``. The step ``2 / (sigma + rho + L_f)``
    is the optimal constant step for a ``sigma``-strongly-convex,
    ``(rho + L_f)``-smooth function.
    """

    def __init__(self, f: SmoothObjective, rho: float, gamma: float, inner: InnerSolverConfig):
        sigma = rho - f.weak_convexity_mu
        if sigma <= 0:
            raise SolverError(
                f"rho={rho} must exceed the weak-convexity modulus mu="
                f"{f.weak_convexity_mu} for the x-update to be well posed"
            )
        self._f = f
        self._rho = rho
        self._gamma = gamma
        self._sigma = sigma
        self._tol = inner.abs_grad_tol
        self._max_iters = inner.max_inner_iters
        self._step = 2.0 / (sigma + rho + f.lipschitz_L)

    def solve(self, y_new, lam, x_prev):
        x = np.array(x_prev, dtype=float, copy=True)
        for it in range(self._max_iters + 1):
            g = self._f.gradient(x) + lam + self._rho * (x - y_new)
            gn = float(np.linalg.norm(g))
            bound = self._tol
            if self._gamma > 0:
                rel = self._sigma * self._gamma * min(
                    float(np.linalg.norm(x - y_new)),
                    float(np.linalg.norm(x - x_prev)),
                )
                bound = max(bound, rel)
            if gn <= bound:
                return x, it
            if it == self._max_iters:
                break
            x = x - self._step * g
            if not np.all(np.isfinite(x)):
                raise DivergenceError("non-finite iterate in inner gradient descent")
        raise InnerSolverError(
            f"x-update certificate not met within {self._max_iters} inner iterations "
            f"(last gradient norm {gn:.3e})"
        )


def build_x_update(
    f: SmoothObjective,
    rho: float,
    inner: Optional[InnerSolverConfig] = None,
    gamma: Optional[float] = None,
):
    """Construct the per-run x-minimizer; the method decides which one.

    ``gamma=None`` asks for the exact x-update (admm-q, admm-r, admm-s): a
    cached Cholesky solve for a quadratic, certified gradient descent at the
    absolute floor otherwise. A number (iadmm-q) asks for gradient descent
    certified to relative accuracy ``gamma``.
    """
    if gamma is None and isinstance(f, QuadraticObjective):
        return _ClosedFormX(f, rho)
    return _CertifiedGdX(f, rho, gamma or 0.0, inner or InnerSolverConfig())


def _step_lanes(method, f, dset, X, Y, Lam, rho, solves=(), masks=None, radius=None):
    """One iteration of ``method`` for every lane; rows of the arrays are lanes.

    pgd takes the projected gradient step. The ADMM family projects each
    target ``z = x + lambda/rho`` and takes y from the projection: as it is
    (admm-q, iadmm-q), where ``masks`` is True with the old y kept elsewhere
    (admm-r), or moved from z toward it by at most ``radius`` (admm-s). Then
    it minimizes the Lagrangian in x and ascends lambda. ``rho`` and
    ``radius`` are numbers or columns with one entry per lane, and ``solves``
    lists ``(start, stop, x_update)`` for each block of lanes that shares an
    x-solver.

    Returns the new X, Y and Lam, the inner steps per lane (None when every
    solve is direct), the projection, f of each row of Y, and ``{lane:
    error}`` naming each failed lane once: a non-finite target, else the
    x-solver's error, else a non-finite x, lambda or objective. An error
    here names no iteration; the caller knows it.
    """
    Z = X - f.gradient_rows(X) / rho if method == "pgd" else X + Lam / rho
    bad = [] if math.isfinite(Z.sum()) else np.flatnonzero(~np.isfinite(Z).all(axis=1)).tolist()
    Z_proj = dset.project_many(Z)
    if masks is not None:
        Y_new = np.where(masks, Z_proj, Y)
    elif radius is not None:
        D = Z_proj - Z
        # np.linalg.norm of each row, bit for bit: one dot product per row
        dist = np.sqrt(np.matmul(D[:, None], D[:, :, None])).reshape(len(D), 1)
        Y_new = np.where((radius > dist) | (dist == 0.0), Z_proj, Z + radius * (D / dist))
    else:
        Y_new = Z_proj
    X_new, inner, failed = Y_new, None, {}
    if method != "pgd":
        parts = []
        for start, stop, x_update in solves:
            if isinstance(x_update, _ClosedFormX):
                parts.append(x_update.solve(Y_new[start:stop], Lam[start:stop], X[start:stop])[0])
                continue
            block = np.empty((stop - start, X.shape[1]))
            inner = np.zeros(len(X), dtype=int) if inner is None else inner
            for i in range(start, stop):
                if i not in bad:
                    try:
                        block[i - start], inner[i] = x_update.solve(Y_new[i], Lam[i], X[i])
                    except SolverError as exc:
                        failed[i] = exc
            parts.append(block)
        X_new = parts[0] if len(parts) == 1 else np.concatenate(parts)
        Lam = Lam + rho * (X_new - Y_new)
    fys = f.value_rows(Y_new)
    errors = {}
    # a non-finite x shows in lambda + rho (x - y); pgd's x projects a finite target
    if bad or failed or not (math.isfinite(Lam.sum()) and math.isfinite(sum(fys))):
        target = "projected-gradient" if method == "pgd" else "projection"
        for i, fy in enumerate(fys):
            exc = DivergenceError(f"non-finite {target} target") if i in bad else failed.get(i)
            if exc is None:
                for what, ok in (("x", np.isfinite(X_new[i]).all()),
                                 ("lambda", np.isfinite(Lam[i]).all()),
                                 ("objective", math.isfinite(fy))):
                    if not ok:
                        exc = DivergenceError(f"non-finite {what}")
                        break
            if exc is not None:
                errors[i] = exc
    return X_new, Y_new, Lam, inner, Z_proj, fys, errors


def _one_lane(
    method, f, dset, state: IterateState, rho: float, x_update, masks=None, radius=None
) -> IterateState:
    """The lane step at n = 1; a failure raises what a run raises at iteration ``state.r + 1``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        X, Y, Lam, inner, _, _, errors = _step_lanes(
            method, f, dset, state.x[None], state.y[None], state.lam[None], rho,
            [(0, 1, x_update)], masks, radius,
        )
    if errors:
        raise errors[0].at(state.r + 1)
    n_inner = 0 if inner is None else int(inner[0])
    return IterateState(X[0], Y[0], Lam[0], state.r + 1, n_inner)


def admm_q_step(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    state: IterateState,
    rho: float,
    x_update=None,
) -> IterateState:
    """One exact iteration: project y, minimize the Lagrangian in x, ascend lambda.

    For quadratic objectives the x-block solves the SPD system
    ``(Q + rho I) x = rho y - lambda - b``.
    """
    x_update = x_update or build_x_update(f, rho)
    return _one_lane("admm-q", f, dset, state, rho, x_update)


def iadmm_q_step(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    state: IterateState,
    rho: float,
    gamma: float,
    x_update=None,
) -> IterateState:
    """Inexact iteration: the x-block runs gradient descent until certified.

    With ``gamma = 0`` the certificate collapses to the absolute gradient
    floor and the trajectory matches the exact method to inner tolerance.
    """
    x_update = x_update or build_x_update(f, rho, gamma=gamma)
    return _one_lane("iadmm-q", f, dset, state, rho, x_update)


def admm_r_step(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    state: IterateState,
    rho: float,
    mask_prob: float,
    rng: RunRng,
    x_update=None,
) -> IterateState:
    """Masked iteration: coordinate i refreshes y_i only when its coin lands 1.

    Masks are i.i.d. Bernoulli(mask_prob) per coordinate per iteration, drawn
    from the run's seeded stream. Requires the product structure of the set:
    the blended y stays feasible because both candidates are members.
    """
    x_update = x_update or build_x_update(f, rho)
    mask = rng.bernoulli(mask_prob, dset.dim)
    return _one_lane("admm-r", f, dset, state, rho, x_update, masks=mask)


def admm_s_step(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    state: IterateState,
    rho: float,
    beta: float,
    x_update=None,
) -> IterateState:
    """Soft iteration: y moves toward its projection by at most ``beta/rho``.

    When ``beta/rho`` exceeds the distance to the set the update lands on the
    projection itself and the step coincides with the exact method.
    """
    x_update = x_update or build_x_update(f, rho)
    return _one_lane("admm-s", f, dset, state, rho, x_update, radius=beta / rho)


def pgd_step(
    f: SmoothObjective, dset: DiscreteProductSet, x: np.ndarray, rho: float
) -> np.ndarray:
    """Projected gradient step with step size ``1/rho``."""
    x = np.asarray(x, dtype=float)[None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_new, *_, errors = _step_lanes("pgd", f, dset, x, x, np.zeros_like(x), rho)
    if errors:
        raise errors[0]
    return x_new[0]


def gd_then_project(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_iters: int = 100_000,
) -> tuple[np.ndarray, bool]:
    """Minimize without constraints, then project the result onto the set.

    Quadratics with a nonsingular Q are solved directly; otherwise gradient
    descent with step ``1/L_f`` runs until ``||grad f|| <= tol`` or the cap.
    Returns ``(point, converged)``; ``converged`` is False when the cap was
    reached (e.g. the unconstrained problem has no minimizer).
    """
    x0 = np.asarray(x0, dtype=float)
    if isinstance(f, QuadraticObjective):
        try:
            sol = np.linalg.solve(f.Q, -f.b)
            if np.all(np.isfinite(sol)) and np.linalg.norm(f.gradient(sol)) <= max(
                tol, 1e-9 * (1.0 + np.linalg.norm(f.b))
            ):
                return dset.project(sol), True
        except np.linalg.LinAlgError:
            pass
    x = x0.copy()
    step = 1.0 / max(f.lipschitz_L, np.finfo(float).tiny)
    for _ in range(max_iters):
        g = f.gradient(x)
        if float(np.linalg.norm(g)) <= tol:
            return dset.project(x), True
        nxt = x - step * g
        if not np.all(np.isfinite(nxt)):
            break  # runaway direction; report the last finite iterate
        x = nxt
    return dset.project(x), False


class RunTrace:
    """Rows of (r, lagrangian, f(y), ||x - y||, inner iterations), one per kept iteration."""

    COLUMNS = ("r", "lagrangian", "f_y", "residual", "inner_iters")

    def __init__(self):
        self.rows: list[tuple] = []

    def record(self, r: int, lagrangian: float, f_y: float, residual: float, inner: int):
        self.rows.append((r, lagrangian, f_y, residual, inner))

    def __len__(self) -> int:
        return len(self.rows)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {name: np.asarray([row[k] for row in self.rows])
                for k, name in enumerate(self.COLUMNS)}

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for r, lagrangian, f_y, residual, inner in self.rows:
                fh.write(f"{r},{lagrangian!r},{f_y!r},{residual!r},{inner}\n")


@dataclass
class RunResult:
    """Outcome of one solver run."""

    method: str
    trace: RunTrace
    state: IterateState
    best_objective: float
    initial_objective: float
    final_objective: float
    final_step_norm: float = math.inf
    y_stable_iters: int = 0
    # iterations of the method's step actually executed (0 for gd-proj), and
    # the period of the bit-exact cycle the iterate entered (0 when none)
    iterations_run: int = 0
    cycle_period: int = 0

    @property
    def converged(self) -> bool:
        return (
            self.final_step_norm <= CONVERGED_STEP_TOL
            and self.y_stable_iters >= CONVERGED_STABLE_ITERS
        )


def initial_state(
    dset: DiscreteProductSet, config: SolverConfig, rng: Optional[RunRng] = None
) -> IterateState:
    """Feasible start: x0 = y0 = projection of a seeded Gaussian draw, lambda0 = 0.

    The draw's per-coordinate scale defaults to the lattice spacing (1 for
    binary and grid coordinates) and can be overridden via ``init_scale``.
    A draw that overflows raises :class:`DivergenceError` at iteration 0.
    """
    rng = rng or RunRng(config.seed)
    if config.init_scale is not None:
        scales = float(config.init_scale) * np.ones(dset.dim)
    else:
        scales = dset.init_scales()
    z = rng.normal(dset.dim) * scales
    if not np.isfinite(z).all():
        raise DivergenceError("non-finite start", 0)
    x0 = dset.project(z)
    return IterateState(x=x0, y=x0.copy(), lam=np.zeros(dset.dim), r=0)


def run(
    method: str,
    f: SmoothObjective,
    dset: DiscreteProductSet,
    config: SolverConfig,
) -> RunResult:
    """Drive ``max_iters`` iterations of the chosen method from a seeded start.

    Records the trace, the best objective over the trailing ``window``
    iterations (f(y) for the ADMM family, f(x) for pgd / gd-proj), and
    convergence diagnostics. A failed iteration raises its
    :class:`SolverError` with the failing iteration attached.

    Once (x, y, lambda) repeats bit for bit, the rest of the run is periodic
    and whole cycles of it are skipped; the result, trace included, is
    identical to the full budget's. ``iterations_run`` and ``cycle_period``
    report what was executed. This is :func:`run_lanes` with one lane.
    """
    (result,) = run_lanes(method, f, dset, [config])
    if isinstance(result, SolverError):
        raise result
    return result


def _gd_proj(
    f: SmoothObjective, dset: DiscreteProductSet, config: SolverConfig, state: IterateState
) -> RunResult:
    """gd-proj's run: :func:`gd_then_project` from ``state``, or ``state`` at 0 iterations."""
    f_y0, ok = f.value(state.y), False
    if config.max_iters:
        x, ok = gd_then_project(f, dset, state.x)
        state = IterateState(x=x, y=x.copy(), lam=np.zeros(dset.dim), r=0)
    val = f.value(state.y)
    trace = RunTrace()
    trace.record(0, val, val, 0.0, 0)
    return RunResult("gd-proj", trace, state, val, f_y0, val, 0.0 if ok else math.inf)


def _key(x, y, lam) -> bytes:
    """The bits of (x, y, lambda); equal keys mean a bit-identical iterate."""
    return x.tobytes() + y.tobytes() + lam.tobytes()


class _Lane:
    """One lane of :func:`run_lanes`: its run's config, stream, x-solver, trace and window.

    The lane's iterate is a row of the kernel's arrays.
    """

    __slots__ = ("i", "config", "rng", "updater", "trace", "window", "f_y0", "off", "moved",
                 "saved", "since", "power", "period", "skip", "rows")

    def __init__(self, i: int, config: SolverConfig, rng: RunRng, updater, f_y0: float, key: bytes):
        self.i, self.config, self.rng, self.updater, self.f_y0 = i, config, rng, updater, f_y0
        self.trace = RunTrace()
        self.window = deque([f_y0], maxlen=config.window)  # f(y) of the trailing iterations
        self.off = 0  # the lane's iteration count is t + off; off is the iterations skipped
        self.moved = 0  # the t at which y last changed: y has been stable for t - moved
        # Brent's method: the saved iterate's bits (None once the lane stops
        # looking), the t at which they were saved, and the gap at which
        # they move on
        self.saved, self.since, self.power = key, 0, 1
        # a found cycle: its period, and the iterations still to skip once
        # one more cycle has recorded its trace rows
        self.period = self.skip = 0
        self.rows: list = []


def _solver_blocks(lanes) -> list:
    """``(start, stop, x_update)`` for each run of adjacent lanes that share an x-solver."""
    out, start = [], 0
    for updater, members in itertools.groupby(lanes, key=lambda lane: lane.updater):
        stop = start + len(list(members))
        out.append((start, stop, updater))
        start = stop
    return out


def run_lanes(
    method: str,
    f: SmoothObjective,
    dset: DiscreteProductSet,
    configs,
) -> list:
    """Run ``method`` from every config at once, one lane per config.

    The lanes advance together as the rows of ``(n, d)`` arrays of x, y and
    lambda; each keeps its own rho, beta, mask probability, seed and random
    stream, budget, window and trace stride. Lanes with equal rho share one
    x-solver: for a quadratic one Cholesky factor, and one triangular solve
    of all their right-hand sides per iteration. gd-proj has no iteration
    to share and runs its configs one by one.

    Returns, in config order, each lane's :class:`RunResult`, or the
    :class:`SolverError` that ended it. Either is bit for bit what the lane
    gives alone: :func:`run` is this kernel at n = 1.

    A lane whose (x, y, lambda) repeats bit for bit retires its cycle as
    :func:`run` describes: Brent's method (BIT 1980) compares the iterate
    with one saved iterate, which moves to the current one whenever the gap
    between them reaches a power of two. Once the lane repeats with period
    k, one more cycle runs to record its trace rows, whole cycles are
    skipped by advancing that lane's iteration count, and at least
    ``window`` iterations still run for real.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    configs = list(configs)
    d, w = dset.dim, 8 * dset.dim  # w: bytes per row
    uses_dual = method != "pgd"
    outcomes: list = [None] * len(configs)

    def lagrangian(lane, x, y, lam) -> float:
        if not uses_dual:
            return f.value(x)
        val = augmented_lagrangian(f, x, y, lam, lane.config.rho)
        if method == "admm-s":
            val += lane.config.beta * dset.soft_indicator(y)
        return val

    def finish(lane, state, step_norm, y_stable):
        outcomes[lane.i] = RunResult(
            method=method,
            trace=lane.trace,
            state=state,
            best_objective=float(min(lane.window)),
            initial_objective=lane.f_y0,
            final_objective=float(lane.window[-1]),
            final_step_norm=step_norm,
            y_stable_iters=y_stable,
            iterations_run=lane.config.max_iters - lane.off,
            cycle_period=lane.period,
        )

    # overflow on the way to +-inf is the divergence signal, not a bug
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rngs, begun = [RunRng(c.seed) for c in configs], {}
        for i, c in enumerate(configs):
            try:
                begun[i] = initial_state(dset, c, rngs[i])
            except DivergenceError as exc:
                outcomes[i] = exc
        if method == "gd-proj":
            for i, s in begun.items():
                outcomes[i] = _gd_proj(f, dset, configs[i], s)
            return outcomes
        # lanes are ordered by x-solver, so that each solver's lanes form a block
        groups: dict = {}
        for i, c in enumerate(configs):
            gamma = c.gamma if method == "iadmm-q" else None
            groups.setdefault((c.rho, gamma, dataclasses.astuple(c.inner)), []).append(i)
        lanes, starts = [], []
        for (rho, gamma, _), members in groups.items():
            try:
                updater = (build_x_update(f, rho, configs[members[0]].inner, gamma)
                           if uses_dual else None)
            except SolverError as exc:
                for i in members:
                    outcomes[i] = exc
                continue
            for i in members:
                if i not in begun:
                    continue
                s = begun[i]
                lane = _Lane(i, configs[i], rngs[i], updater, f.value(s.y), _key(s.x, s.y, s.lam))
                lane.trace.record(0, lagrangian(lane, s.x, s.y, s.lam), lane.f_y0, 0.0, 0)
                if configs[i].max_iters:
                    lanes.append(lane)
                    starts.append(s)
                else:
                    finish(lane, s, math.inf, 0)

        X, Y, Lam = (np.array([getattr(s, k) for s in starts]).reshape(len(lanes), d)
                     for k in ("x", "y", "lam"))
        rho = np.array([[lane.config.rho] for lane in lanes])
        radius = np.array([[lane.config.beta / lane.config.rho] for lane in lanes])
        solves, t = _solver_blocks(lanes), 0

        while lanes:
            t += 1
            Xp, Yp, masks = X, Y, None
            if method == "admm-r":
                masks = np.array([lane.rng.bernoulli(lane.config.mask_prob, d) for lane in lanes])
            X, Y, Lam, inner, y_hat, fys, errors = _step_lanes(
                method, f, dset, X, Y, Lam, rho, solves, masks,
                radius if method == "admm-s" else None,
            )
            ended = set(errors)  # lanes that fail or spend their budget at this t
            for pos, exc in errors.items():
                outcomes[lanes[pos].i] = exc.at(t + lanes[pos].off)

            # bits of the rows, for the comparisons below
            xb, yb, ypb, yhb = X.tobytes(), None, None, None
            if method == "admm-r":
                yhb, ypb = y_hat.tobytes(), Yp.tobytes()
            for pos, lane in enumerate(lanes):
                if pos in ended:
                    continue
                c, fy = lane.config, fys[pos]
                row_bytes = slice(pos * w, pos * w + w)
                if fy != lane.window[-1]:
                    lane.moved = t
                else:  # an equal f(y) needs a look at y itself
                    yb, ypb = yb or Y.tobytes(), ypb or Yp.tobytes()
                    if yb[row_bytes] != ypb[row_bytes] and not np.array_equal(Y[pos], Yp[pos]):
                        lane.moved = t
                lane.window.append(fy)
                r = t + lane.off
                on_stride = r % c.trace_stride == 0 or r == c.max_iters
                collecting = lane.skip > 0
                if on_stride or collecting:
                    x, y, lam = X[pos], Y[pos], Lam[pos]
                    row = (
                        lagrangian(lane, x, y, lam),
                        fy,
                        float(np.linalg.norm(x - y)),
                        0 if inner is None else int(inner[pos]),
                    )
                    if on_stride:
                        lane.trace.record(r, *row)
                    if collecting:
                        lane.rows.append(row)
                        if len(lane.rows) == lane.period:
                            # rows repeat by phase; the last `period` rows are one cycle
                            stride, skip = c.trace_stride, lane.skip
                            for j in range(r - r % stride + stride, r + skip + 1, stride):
                                lane.trace.record(j, *lane.rows[(j - r - 1) % lane.period])
                            if t - lane.moved >= lane.period:  # y was constant over the cycle
                                lane.moved -= skip
                            lane.off, lane.skip = lane.off + skip, 0
                            r += skip
                if not collecting and lane.saved is not None:
                    gap = t - lane.since
                    if yhb is not None and yhb[row_bytes] != ypb[row_bytes]:
                        # the mask decided y; the step was not a function of the state
                        lane.saved, lane.since, lane.power = _key(X[pos], Y[pos], Lam[pos]), t, 1
                    elif lane.saved.startswith(xb[row_bytes]) and lane.saved == _key(
                        X[pos], Y[pos], Lam[pos]
                    ):
                        lane.period, lane.saved = gap, None
                        lane.skip = max(0, ((c.max_iters - r - c.window) // gap - 1) * gap)
                    elif gap == lane.power:
                        lane.saved, lane.since = _key(X[pos], Y[pos], Lam[pos]), t
                        lane.power *= 2
                if r == c.max_iters:
                    dx = X[pos] - Xp[pos]
                    state = IterateState(
                        X[pos].copy(), Y[pos].copy(), Lam[pos].copy(), r,
                        0 if inner is None else int(inner[pos]),
                    )
                    finish(lane, state, math.sqrt(float(dx @ dx)), t - lane.moved)
                    ended.add(pos)
            if ended:
                keep = [p for p in range(len(lanes)) if p not in ended]
                X, Y, Lam, rho, radius = (a[keep] for a in (X, Y, Lam, rho, radius))
                lanes = [lanes[p] for p in keep]
                solves = _solver_blocks(lanes)
    return outcomes
