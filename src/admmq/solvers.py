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
taken from the projection and in the accuracy of the x-solve. Each method
is available as a single-step transition function plus the ``run`` driver,
which records a :class:`RunTrace` and the best objective over a trailing
window, and stops early once the iterate cycles exactly.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .objectives import QuadraticObjective, SmoothObjective
from .rng import RunRng
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
]

METHODS = ("admm-q", "iadmm-q", "admm-r", "admm-s", "pgd", "gd-proj")

# A run counts as converged when the last x-step is below this and y has not
# changed for at least this many trailing iterations.
CONVERGED_STEP_TOL = 1e-10
CONVERGED_STABLE_ITERS = 50


class SolverError(RuntimeError):
    """Raised when an update rule cannot be carried out."""


class InnerSolverError(SolverError):
    """Inner x-minimization failed to meet its acceptance certificate."""


class DivergenceError(SolverError):
    """A non-finite iterate appeared; the run is divergent."""

    def __init__(self, message: str, iteration: int = -1):
        super().__init__(message)
        self.iteration = iteration


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
        if not (self.rho > 0):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (0 < self.mask_prob <= 1):
            raise ValueError(f"mask_prob must be in (0, 1], got {self.mask_prob}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
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

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "lambda": self.lam.tolist(),
            "r": self.r,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def augmented_lagrangian(f: SmoothObjective, x, y, lam, rho: float) -> float:
    """f(x) + <lam, x - y> + rho/2 ||x - y||^2 (y is assumed feasible)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (x.shape == y.shape == lam.shape):
        raise ValueError("x, y, lambda must share one shape")
    d = x - y
    return f.value(x) + float(lam @ d) + 0.5 * rho * float(d @ d)


def _iterate_key(state: IterateState) -> bytes:
    """The bits of (x, y, lambda); equal keys mean a bit-identical iterate."""
    return state.x.tobytes() + state.y.tobytes() + state.lam.tobytes()


def _require_finite(arr: np.ndarray, what: str, iteration: int):
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(f"non-finite {what} at iteration {iteration}", iteration)


class _ClosedFormX:
    """x-update for quadratics: one cached Cholesky solve per call."""

    def __init__(self, f: QuadraticObjective, rho: float):
        try:
            self._factor = cho_factor(f.Q + rho * np.eye(f.dim))
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"Q + rho*I is not positive definite (rho={rho} <= mu="
                f"{f.weak_convexity_mu}): {exc}"
            ) from exc
        self._b = f.b
        self._rho = rho

    def solve(self, y_new, lam, x_prev):
        rhs = self._rho * y_new - lam - self._b
        return cho_solve(self._factor, rhs, check_finite=False), 0


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


def _admm_step(dset: DiscreteProductSet, state: IterateState, rho: float, x_update, y_rule):
    """One iteration of the ADMM family; ``y_rule(z, z_proj)`` picks the new y.

    Projects the target ``z = x + lambda/rho``, minimizes the Lagrangian in x
    at the chosen y, and ascends lambda. Returns the new state and ``z_proj``.
    """
    z = state.x + state.lam / rho
    _require_finite(z, "projection target", state.r)
    z_proj = dset.project(z, validate=False)
    y_new = y_rule(z, z_proj)
    x_new, n_inner = x_update.solve(y_new, state.lam, state.x)
    lam_new = state.lam + rho * (x_new - y_new)
    return IterateState(x_new, y_new, lam_new, state.r + 1, n_inner), z_proj


def _take_projection(z, z_proj):
    return z_proj


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
    return _admm_step(dset, state, rho, x_update, _take_projection)[0]


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
    return _admm_step(dset, state, rho, x_update, _take_projection)[0]


def admm_r_step(
    f: SmoothObjective,
    dset: DiscreteProductSet,
    state: IterateState,
    rho: float,
    mask_prob: float,
    rng: RunRng,
    x_update=None,
    return_y_hat: bool = False,
):
    """Masked iteration: coordinate i refreshes y_i only when its coin lands 1.

    Masks are i.i.d. Bernoulli(mask_prob) per coordinate per iteration, drawn
    from the run's seeded stream. Requires the product structure of the set:
    the blended y stays feasible because both candidates are members.
    With ``return_y_hat`` the result is ``(state, y_hat)``, where ``y_hat`` is
    the unmasked projection; the mask changes nothing when it equals ``state.y``.
    """
    x_update = x_update or build_x_update(f, rho)
    mask = rng.bernoulli(mask_prob, dset.dim)
    nxt, y_hat = _admm_step(
        dset, state, rho, x_update, lambda z, z_proj: np.where(mask, z_proj, state.y)
    )
    return (nxt, y_hat) if return_y_hat else nxt


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
    radius = beta / rho

    def soften(z, z_proj):
        z_d = z_proj - z
        dist = float(np.linalg.norm(z_d))
        if dist == 0.0 or radius > dist:
            return z_proj
        return z + radius * (z_d / dist)

    return _admm_step(dset, state, rho, x_update, soften)[0]


def pgd_step(
    f: SmoothObjective, dset: DiscreteProductSet, x: np.ndarray, rho: float
) -> np.ndarray:
    """Projected gradient step with step size ``1/rho``."""
    x = np.asarray(x, dtype=float)
    t = x - f.gradient(x) / rho
    if not np.all(np.isfinite(t)):
        raise DivergenceError("non-finite projected-gradient target")
    return dset.project(t, validate=False)


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
    """Per-iteration (r, lagrangian, f(y), ||x - y||, inner iterations).

    Rows are kept every ``stride`` iterations plus the final one.
    """

    COLUMNS = ("r", "lagrangian", "f_y", "residual", "inner_iters")

    def __init__(self, stride: int = 1):
        self.stride = stride
        self.r: list[int] = []
        self.lagrangian: list[float] = []
        self.f_y: list[float] = []
        self.residual: list[float] = []
        self.inner_iters: list[int] = []

    def record(self, r: int, lagrangian: float, f_y: float, residual: float, inner: int):
        self.r.append(r)
        self.lagrangian.append(lagrangian)
        self.f_y.append(f_y)
        self.residual.append(residual)
        self.inner_iters.append(inner)

    def __len__(self) -> int:
        return len(self.r)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "r": np.asarray(self.r),
            "lagrangian": np.asarray(self.lagrangian),
            "f_y": np.asarray(self.f_y),
            "residual": np.asarray(self.residual),
            "inner_iters": np.asarray(self.inner_iters),
        }

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in zip(self.r, self.lagrangian, self.f_y, self.residual, self.inner_iters):
                fh.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]}\n")


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
    """
    rng = rng or RunRng(config.seed)
    if config.init_scale is not None:
        scales = float(config.init_scale) * np.ones(dset.dim)
    else:
        scales = dset.init_scales()
    z = rng.normal(dset.dim) * scales
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
    convergence diagnostics. Non-finite iterates raise
    :class:`DivergenceError` with the failing iteration attached.

    Once (x, y, lambda) repeats bit for bit, the rest of the run is periodic
    and whole cycles of it are skipped; the result, trace included, is
    identical to the full budget's. ``iterations_run`` and ``cycle_period``
    report what was executed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    rng = RunRng(config.seed)
    state = initial_state(dset, config, rng)
    rho = config.rho
    f_y0 = f.value(state.y)
    trace = RunTrace(stride=config.trace_stride)
    window: deque = deque(maxlen=config.window)
    window.append(f_y0)

    if method == "gd-proj" and config.max_iters > 0:
        x_fin, ok = gd_then_project(f, dset, state.x)
        val = f.value(x_fin)
        trace.record(0, val, val, 0.0, 0)
        final = IterateState(x=x_fin, y=x_fin.copy(), lam=np.zeros(dset.dim), r=0)
        return RunResult(
            method=method,
            trace=trace,
            state=final,
            best_objective=val,
            initial_objective=f_y0,
            final_objective=val,
            final_step_norm=0.0 if ok else math.inf,
            y_stable_iters=0,
        )

    uses_dual = method in ("admm-q", "iadmm-q", "admm-r", "admm-s")
    gamma = config.gamma if method == "iadmm-q" else None
    x_update = build_x_update(f, rho, config.inner, gamma) if uses_dual else None

    def pgd(s: IterateState):
        x_new = pgd_step(f, dset, s.x, rho)
        return IterateState(x=x_new, y=x_new.copy(), lam=s.lam, r=s.r + 1), None

    # each step returns (state, y_hat); y_hat is admm-r's unmasked projection.
    # gd-proj has none: it reaches the loop only with a zero budget
    step = {
        "admm-q": lambda s: (admm_q_step(f, dset, s, rho, x_update=x_update), None),
        "iadmm-q": lambda s: (
            iadmm_q_step(f, dset, s, rho, config.gamma, x_update=x_update), None
        ),
        "admm-r": lambda s: admm_r_step(
            f, dset, s, rho, config.mask_prob, rng, x_update=x_update, return_y_hat=True
        ),
        "admm-s": lambda s: (admm_s_step(f, dset, s, rho, config.beta, x_update=x_update), None),
        "pgd": pgd,
    }.get(method)

    def lagrangian_of(s: IterateState) -> float:
        if not uses_dual:
            return f.value(s.x)
        val = augmented_lagrangian(f, s.x, s.y, s.lam, rho)
        if method == "admm-s":
            val += config.beta * dset.soft_indicator(s.y)
        return val

    trace.record(0, lagrangian_of(state), f_y0, 0.0, 0)

    max_iters, stride = config.max_iters, config.trace_stride
    final_step_norm = math.inf
    y_stable = 0
    # Exact cycle retirement. Each iterate (x, y, lam) is compared bit for bit
    # with one saved iterate, which moves to the current one whenever the gap
    # between them reaches a power of two (Brent, BIT 1980). Once the iterate
    # repeats with period k, the rest of the run is periodic: one more cycle
    # runs to record its trace rows, ``skip`` whole cycles are skipped, and at
    # least ``window`` iterations still run for real, so every field of the
    # result is what the full budget gives.
    saved, gap, power = _iterate_key(state), 0, 1
    period = skip = skipped = 0
    cycle_rows: list[tuple] = []
    r = 0
    # overflow on the way to +-inf is the divergence signal, not a bug
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while r < max_iters:
            r += 1
            prev_x, prev_y = state.x, state.y
            try:
                state, y_hat = step(state)
            except DivergenceError as exc:
                raise DivergenceError(str(exc), iteration=r) from None
            _require_finite(state.x, "x", r)
            _require_finite(state.lam, "lambda", r)

            fy = f.value(state.y if uses_dual else state.x)
            if not math.isfinite(fy):
                raise DivergenceError(f"non-finite objective at iteration {r}", r)
            window.append(fy)
            dx = state.x - prev_x
            final_step_norm = math.sqrt(float(dx @ dx))
            y_stable = y_stable + 1 if np.array_equal(state.y, prev_y) else 0
            on_stride = r % stride == 0 or r == max_iters
            if on_stride or skip:
                resid = float(np.linalg.norm(state.x - state.y))
                row = (lagrangian_of(state), fy, resid, state.inner_iters)
                if on_stride:
                    trace.record(r, *row)
            if skip:
                cycle_rows.append(row)
                if len(cycle_rows) == period:
                    # rows repeat by phase; the last `period` rows are one cycle
                    for j in range(r - r % stride + stride, r + skip + 1, stride):
                        trace.record(j, *cycle_rows[(j - r - 1) % period])
                    if y_stable >= period:  # y was constant over the cycle
                        y_stable += skip
                    r += skip
                    state.r = r
                    skipped, skip = skip, 0
            elif saved is not None:
                gap += 1
                key = _iterate_key(state)
                if y_hat is not None and y_hat.tobytes() != prev_y.tobytes():
                    # the mask decided y; the step was not a function of the state
                    saved, gap, power = key, 0, 1
                elif key == saved:
                    period, saved = gap, None
                    skip = max(0, ((max_iters - r - config.window) // period - 1) * period)
                elif gap == power:
                    saved, gap, power = key, 0, 2 * power

    return RunResult(
        method=method,
        trace=trace,
        state=state,
        best_objective=float(min(window)),
        initial_objective=f_y0,
        final_objective=float(window[-1]),
        final_step_norm=final_step_norm if max_iters > 0 else math.inf,
        y_stable_iters=y_stable,
        iterations_run=max_iters - skipped,
        cycle_period=period,
    )
