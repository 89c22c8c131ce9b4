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
taken from the projection and in the accuracy of the x-solve; pgd is that
iteration with a gradient step for a target and no x-solve. It is written
once, as one step of a batch of independent runs (lanes) held as rows of
``(n, d)`` arrays, which alone decides how a lane failed. One batch may mix
all six methods; gd-proj's lanes do not iterate. ``run_lanes`` drives a
batch, whose bookkeeping (windows, cycle tests, admm-r's masks, drawn in
blocks from each lane's own stream) is columns too; ``run`` is one lane.
Both record a :class:`RunTrace` and the best objective over a trailing
window, and stop a run early once its iterate cycles exactly. Each method
is also available as a single-step transition function.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import types
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .objectives import QuadraticObjective, SmoothObjective
from .rng import RunRng, check_count, check_real
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
    even when the relative certificate's right-hand side is 0. Both bind
    every certified descent: iadmm-q's constant step and the
    Barzilai-Borwein steps of a non-quadratic's exact x-update. The exact
    x-update of a quadratic, a cached Cholesky solve, ignores both.
    """

    max_inner_iters: int = 2000
    abs_grad_tol: float = 1e-12

    def __post_init__(self):
        check_count(self.max_inner_iters, "max_inner_iters", least=1)
        check_real(self.abs_grad_tol, "abs_grad_tol", positive=True)


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
        check_real(self.rho, "rho", positive=True)
        check_real(self.gamma, "gamma")
        check_real(self.beta, "beta", positive=True)
        if not (0 < self.mask_prob <= 1):
            raise ValueError(f"mask_prob must be in (0, 1], got {self.mask_prob}")
        check_count(self.max_iters, "max_iters")
        check_count(self.window, "window", least=1)
        check_count(self.trace_stride, "trace_stride", least=1)
        check_count(self.seed, "seed")
        if self.init_scale is not None:
            check_real(self.init_scale, "init_scale")


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

    ``solve`` takes one lane's right-hand side ``rho y - lambda - b`` per row
    and solves them all in one ``potrs`` call, in place; each row comes out
    bit for bit as it would alone.
    """

    def __init__(self, f: QuadraticObjective, rho: float):
        try:
            self._factor, self._lower = cho_factor(f.Q + rho * np.eye(f.dim))
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"Q + rho*I is not positive definite (rho={rho} <= mu="
                f"{f.weak_convexity_mu}): {exc}"
            ) from exc

    def solve(self, rhs):
        cols = rhs.T  # Fortran-ordered when rhs is a C-ordered block, which potrs overwrites
        x, _ = dpotrs(self._factor, cols, self._lower, 1)
        if x is not cols:
            rhs[...] = x.T
        return rhs, 0


class _CertifiedGdX:
    """x-update by gradient descent, accepted under the gradient certificate.

    A candidate x is accepted once
    ``||grad L(x)|| <= sigma(rho) * gamma * min(||x - y||, ||x - x_prev||)``
    or ``||grad L(x)|| <= abs_grad_tol``. Strong convexity turns the first
    bound into the relative-accuracy guarantee
    ``||x - x_star|| <= gamma * min(||x - y||, ||x - x_prev||)``; with
    gamma = 0 only the absolute floor remains and the update is exact to
    within ``abs_grad_tol / sigma(rho)``. The first step is
    ``2 / (sigma + rho + L_f)``, the optimal constant step for a
    ``sigma``-strongly-convex, ``(rho + L_f)``-smooth function. iadmm-q
    (gamma a number) keeps it: it returns the first certified point, so its
    step rule decides its output. The exact x-update (``gamma=None``) takes
    Barzilai-Borwein steps ``s's / s'dg`` (IMA J. Numer. Anal. 1988), with s
    the last move and dg the change in grad L: kept while ``s'dg <= 0`` and
    clipped to ``[1/(rho + L_f), 1/sigma]``, where the curvature of L holds
    the ratio already, so the clip only catches rounding.
    """

    def __init__(self, f: SmoothObjective, rho: float, gamma, inner: InnerSolverConfig):
        sigma = rho - f.weak_convexity_mu
        if sigma <= 0:
            raise SolverError(
                f"rho={rho} must exceed the weak-convexity modulus mu="
                f"{f.weak_convexity_mu} for the x-update to be well posed"
            )
        self._f = f
        self._rho = rho
        self._gamma = gamma or 0.0
        self._sigma = sigma
        self._tol = inner.abs_grad_tol
        self._max_iters = inner.max_inner_iters
        self._step = 2.0 / (sigma + rho + f.lipschitz_L)
        # Barzilai-Borwein's bounds, for the exact x-update only
        self._clip = (1.0 / (rho + f.lipschitz_L), 1.0 / sigma) if gamma is None else None

    def solve(self, y_new, lam, x_prev):
        x = np.array(x_prev, dtype=float, copy=True)
        step, last = self._step, None
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
            if last is not None:
                s, dg = x - last[0], g - last[1]
                curv = float(s @ dg)
                if curv > 0:
                    # max(lo, nan) is lo: an overflowing ratio takes the short step
                    step = min(self._clip[1], max(self._clip[0], float(s @ s) / curv))
            if self._clip:
                last = (x, g)
            x = x - step * g
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
    cached Cholesky solve for a quadratic, otherwise certified gradient
    descent at the absolute floor with Barzilai-Borwein steps. A number
    (iadmm-q) asks for gradient descent with the constant step, certified to
    relative accuracy ``gamma``.
    """
    if gamma is None and isinstance(f, QuadraticObjective):
        return _ClosedFormX(f, rho)
    return _CertifiedGdX(f, rho, gamma, inner or InnerSolverConfig())


class _Rows:
    """What a batch's rows share, from each row's x-solver (pgd's, None, last):
    the blocks of ``closed`` Cholesky solves and certified ``descent``, pgd's
    slice, and admm-s's step bound per row, NaN off the soft rows (None: none)."""

    def __init__(self, updaters, radius=None):
        self.closed, self.descent, self.pgd, self.radius = [], [], None, radius
        self.zero_radius = radius is not None and bool((radius == 0.0).any())
        start = 0
        for updater, members in itertools.groupby(updaters):
            stop = start + len(list(members))
            if updater is None:
                self.pgd = slice(start, stop)
            elif isinstance(updater, _ClosedFormX):
                self.closed.append((slice(start, stop), updater))
            else:
                self.descent.append((start, stop, updater))
            start = stop


def _step_lanes(f, dset, X, Y, Lam, rho, rows: _Rows, masks=None):
    """One iteration for every lane; rows of the arrays are lanes.

    ``rows`` says which lanes share an x-solver, which are pgd's and which
    are soft. Each lane projects its target, ``z = x + lambda/rho`` or pgd's
    ``x - grad f(x)/rho``, and takes y from the projection where its row of
    ``masks`` is True, with the old y kept elsewhere (admm-r's mask; other
    rows are all True), or, on a soft row, moved from z toward it by at most
    its radius (admm-s). Then it minimizes the Lagrangian in x (pgd: x = y)
    and ascends lambda, which for pgd stays 0. ``rho`` is a column with one
    entry per lane.

    Returns the new X, Y and Lam, the inner steps per lane (None when every
    solve is direct), the projection, f of each row of Y, and ``{lane:
    error}`` naming each failed lane once: a non-finite target, else the
    x-solver's error, else a non-finite x, lambda or objective. An error
    here names no iteration; the caller knows it.
    """
    Z = X + Lam / rho
    pgd = rows.pgd
    if pgd is not None:
        Z[pgd] = X[pgd] - f.gradient_rows(X[pgd]) / rho[pgd]
    bad = ([] if math.isfinite(np.add.reduce(Z, None)) else
           np.flatnonzero(~np.isfinite(Z).all(axis=1)).tolist())
    Z_proj = dset.project_many(Z)
    Y_new = Z_proj if masks is None else np.where(masks, Z_proj, Y)
    if rows.radius is not None:
        D = Z_proj - Z
        # np.linalg.norm of each row, bit for bit: one dot product per row
        dist = np.sqrt(np.vecdot(D, D))[:, None]
        # a NaN radius compares False: a row that is not soft keeps its y
        # whatever its dist, which may overflow; a radius of 0 moves no row at dist 0
        move = rows.radius <= dist
        if rows.zero_radius:
            move &= dist != 0.0
        Y_new = np.where(move, Z + rows.radius * (D / dist), Y_new)
    # the right-hand sides of the Cholesky solves, which solve them in place
    X_new = rho * Y_new - Lam - f.b if rows.closed else np.empty_like(Y_new)
    for block, x_update in rows.closed:
        x_update.solve(X_new[block])
    if pgd is not None:
        X_new[pgd] = Y_new[pgd]
    inner, failed = None, {}
    for start, stop, x_update in rows.descent:
        inner = np.zeros(len(X), dtype=int) if inner is None else inner
        for i in range(start, stop):
            if i not in bad:
                try:
                    X_new[i], inner[i] = x_update.solve(Y_new[i], Lam[i], X[i])
                except SolverError as exc:
                    failed[i] = exc
    Lam = Lam + rho * (X_new - Y_new)
    fys = f.value_rows(Y_new)
    errors = {}
    # a non-finite x shows in lambda + rho (x - y)
    if bad or failed or not math.isfinite(np.add.reduce(Lam, None) + np.add.reduce(fys)):
        pgd = range(0) if pgd is None else range(pgd.start, pgd.stop)
        for i, fy in enumerate(fys.tolist()):
            target = "projected-gradient" if i in pgd else "projection"
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


def _one_lane(f, dset, state: IterateState, rho: float, x_update, gamma=None, masks=None,
              radius=None) -> IterateState:
    """The ADMM lane step at n = 1; a failure raises what a run raises at ``state.r + 1``."""
    rows = _Rows([x_update or build_x_update(f, rho, gamma=gamma)],
                 None if radius is None else np.full((1, 1), radius))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        X, Y, Lam, inner, _, _, errors = _step_lanes(
            f, dset, state.x[None], state.y[None], state.lam[None], np.full((1, 1), float(rho)),
            rows, masks,
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
    return _one_lane(f, dset, state, rho, x_update)


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
    return _one_lane(f, dset, state, rho, x_update, gamma=gamma)


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
    return _one_lane(f, dset, state, rho, x_update, masks=rng.bernoulli(mask_prob, dset.dim))


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
    return _one_lane(f, dset, state, rho, x_update, radius=beta / rho)


def pgd_step(
    f: SmoothObjective, dset: DiscreteProductSet, x: np.ndarray, rho: float
) -> np.ndarray:
    """Projected gradient step with step size ``1/rho``."""
    x = np.asarray(x, dtype=float)[None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_new, *_, errors = _step_lanes(
            f, dset, x, x, np.zeros_like(x), np.full((1, 1), float(rho)), _Rows([None])
        )
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
    """gd-proj's run: :func:`gd_then_project` from ``state``, or ``state`` at 0 iterations;
    a projected point whose objective is not finite raises :class:`DivergenceError`."""
    f_y0, ok = f.value(state.y), False
    if config.max_iters:
        x, ok = gd_then_project(f, dset, state.x)
        state = IterateState(x=x, y=x.copy(), lam=np.zeros(dset.dim), r=0)
    val = f.value(state.y)
    if config.max_iters and not math.isfinite(val):
        raise DivergenceError("non-finite objective")
    trace = RunTrace()
    trace.record(0, val, val, 0.0, 0)
    return RunResult("gd-proj", trace, state, val, f_y0, val, 0.0 if ok else math.inf)


# iterations of admm-r masks that a lane draws from its stream at once
_MASK_BLOCK = 64


class _Lane:
    """A lane's run: method, config, stream, x-solver, trace; its state is rows of arrays."""

    __slots__ = ("i", "method", "config", "rng", "updater", "trace", "f_y0")

    def __init__(self, i, method, config, rng, updater, f_y0):
        self.i, self.method, self.config, self.rng = i, method, config, rng
        self.updater, self.f_y0, self.trace = updater, f_y0, RunTrace()


def _lane_methods(method, n: int) -> list[str]:
    """One method name per config: ``method`` repeated, or ``method`` itself as a list."""
    methods = [method] * n if isinstance(method, str) else list(method)
    if len(methods) != n:
        raise ValueError(f"{len(methods)} methods for {n} configs")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    return methods


def run_lanes(
    method,
    f: SmoothObjective,
    dset: DiscreteProductSet,
    configs,
) -> list:
    """Run every config at once, one lane per config.

    ``method`` is one name for every lane, or a list with one name per
    config; the six methods mix freely in one call. Each lane takes y by
    its own method's rule, retires cycles by its rule and records its own
    Lagrangian (pgd's: f(x)). gd-proj has no iteration to share, so its
    lanes run one by one before the first step.

    The iterating lanes advance together as the rows of ``(n, d)`` arrays of
    x, y and lambda; each keeps its own rho, beta, mask probability, seed
    and random stream, budget, window and trace stride. Lanes with equal rho
    share one x-solver, whatever their ADMM method, except that iadmm-q's
    certified descent is shared only among iadmm-q lanes of one gamma: for a
    quadratic one Cholesky factor, and one triangular solve of all their
    right-hand sides per iteration. pgd's lanes have no x-solver and take
    the last rows.

    A lane's bookkeeping is columns, one entry per lane: its window of f(y)
    as a ring reduced only when the lane finishes, the iteration at which y
    last changed, and its cycle test. A few array operations per step find
    the lanes with an event; Python visits a lane only then: a trace row, a
    cycle found or recorded, a save of the cycle test, a finish. An admm-r
    lane draws its masks ``_MASK_BLOCK`` iterations at a time from its own
    stream, the bits of drawing them one iteration at a time; draws left
    when it ends are dropped with its stream, so no other lane sees them.

    Returns, in config order, each lane's :class:`RunResult`, or the
    :class:`SolverError` that ended it. Either is bit for bit what the lane
    gives alone: :func:`run` is this kernel at n = 1.

    A lane whose (x, y, lambda) repeats bit for bit retires its cycle as
    :func:`run` describes: Brent's method (BIT 1980) compares the iterate
    with one saved iterate, which moves to the current one whenever the gap
    between them reaches a power of two. Once the lane repeats with period
    k, one more cycle runs to record its trace rows, whole cycles are
    skipped by advancing that lane's iteration count, and at least
    ``window`` iterations still run for real. An admm-r lane whose
    projection differs from its old y starts looking afresh, since its mask
    decided that step, which so was not a function of the state.
    """
    configs = list(configs)
    methods = _lane_methods(method, len(configs))
    d = dset.dim
    outcomes: list = [None] * len(configs)

    def lagrangian(lane, x, y, lam) -> float:
        if lane.method == "pgd":
            return f.value(x)
        val = augmented_lagrangian(f, x, y, lam, lane.config.rho)
        if lane.method == "admm-s":
            val += lane.config.beta * dset.soft_indicator(y)
        return val

    def finish(lane, state, window, step_norm, y_stable, skipped, period):
        # window: f(y) of the trailing iterations, oldest first; min keeps the
        # first of equal values, so a tie of 0.0 and -0.0 keeps its sign
        outcomes[lane.i] = RunResult(
            lane.method, lane.trace, state, float(min(window)), lane.f_y0, float(window[-1]),
            step_norm, y_stable, lane.config.max_iters - skipped, period,
        )

    # overflow on the way to +-inf is the divergence signal, not a bug
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rngs, begun = [RunRng(c.seed) for c in configs], {}
        for i, c in enumerate(configs):
            try:
                begun[i] = initial_state(dset, c, rngs[i])
                if methods[i] == "gd-proj":
                    outcomes[i] = _gd_proj(f, dset, c, begun[i])
            except DivergenceError as exc:
                outcomes[i] = exc
        # lanes are ordered by x-solver, so that each solver's lanes form a
        # block; pgd's lanes (key None: no x-solver) come last
        groups: dict = {}
        for i, c in enumerate(configs):
            if methods[i] == "gd-proj":
                continue
            gamma = c.gamma if methods[i] == "iadmm-q" else None
            key = None if methods[i] == "pgd" else (c.rho, gamma, dataclasses.astuple(c.inner))
            groups.setdefault(key, []).append(i)
        lanes, starts = [], []
        for key, members in sorted(groups.items(), key=lambda group: group[0] is None):
            try:
                updater = (None if key is None else
                           build_x_update(f, key[0], configs[members[0]].inner, key[1]))
            except SolverError as exc:
                for i in members:
                    outcomes[i] = exc
                continue
            for i in members:
                if i not in begun:
                    continue
                s = begun[i]
                lane = _Lane(i, methods[i], configs[i], rngs[i], updater, f.value(s.y))
                lane.trace.record(0, lagrangian(lane, s.x, s.y, s.lam), lane.f_y0, 0.0, 0)
                if configs[i].max_iters:
                    lanes.append(lane)
                    starts.append(s)
                else:
                    finish(lane, s, [lane.f_y0], math.inf, 0, 0, 0)

        n, cfgs = len(lanes), [lane.config for lane in lanes]
        X, Y, Lam = (np.array([getattr(s, k) for s in starts]).reshape(n, d)
                     for k in ("x", "y", "lam"))
        w = max([min(c.window, c.max_iters + 1) for c in cfgs], default=1)
        zeros = [np.zeros(n, dtype=np.int64) for _ in range(5)]
        col = types.SimpleNamespace(  # named arrays, one row per lane
            rho=np.array([[c.rho] for c in cfgs]),
            radius=np.array([[c.beta / c.rho if lane.method == "admm-s" else np.nan]
                             for c, lane in zip(cfgs, lanes)]),
            # admm-r lanes; those still looking for a cycle
            masked=np.array([lane.method == "admm-r" for lane in lanes], dtype=bool),
            restarts=np.array([lane.method == "admm-r" for lane in lanes], dtype=bool),
            # a ring: f(y) after the t-th step sits in column t % w
            window=np.repeat(np.array([lane.f_y0 for lane in lanes])[:, None], w, axis=1),
            # iteration count t + off; the t at which y last changed; a found
            # cycle's period; Brent's method: the t of the saved iterate, the
            # gap at which it moves on (0: no longer looking), and the iterate
            off=zeros[0], moved=zeros[1], period=zeros[2], since=zeros[3], power=zeros[4] + 1,
            saved_x=np.full((n, d), np.nan), saved_y=np.empty((n, d)), saved_lam=np.empty((n, d)),
            # the t of the lane's next trace row or last iteration, and of its next event
            record_at=np.array([min(c.trace_stride, c.max_iters) for c in cfgs], dtype=np.int64),
            wake=np.ones(n, dtype=np.int64),
        )
        if col.masked.any():  # a block of masks per lane, all True on the other lanes
            col.masks = np.ones((n, _MASK_BLOCK, d), dtype=bool)
        cycle_rows: dict = {}  # lane -> (iterations to skip, trace rows of its last cycle)
        shared, t = None, 0

        while lanes:
            if shared is None:  # the lanes changed: what their rows share
                soft = not np.isnan(col.radius).all()
                shared = _Rows([lane.updater for lane in lanes], col.radius if soft else None)
                masked = np.flatnonzero(col.masked).tolist()
                diff = np.zeros((3, len(lanes), d), dtype=bool)
                restarting = bool(col.restarts.any())
            t += 1
            masks = None
            if masked:
                k = (t - 1) % _MASK_BLOCK
                for pos in masked if k == 0 else ():
                    mask_prob = lanes[pos].config.mask_prob
                    col.masks[pos] = lanes[pos].rng.bernoulli(mask_prob, (_MASK_BLOCK, d))
                masks = col.masks[:, k]
            Xp, Yp, Lp = X, Y, Lam
            X, Y, Lam, inner, y_hat, fys, errors = _step_lanes(
                f, dset, X, Y, Lam, col.rho, shared, masks
            )
            col.window[:, t % w] = fys
            # one reduction: did y move; does x differ from the saved iterate's
            # (a repeat has the same x; NaN before the first save and after a
            # found cycle); does the projection differ from the old y
            np.not_equal(Y, Yp, out=diff[0])
            np.not_equal(X, col.saved_x, out=diff[1])
            if restarting:
                np.not_equal(y_hat.view(np.uint64), Yp.view(np.uint64), out=diff[2])
            moved, differs, restart = np.logical_or.reduce(diff, axis=2)
            col.moved[moved] = t
            if restarting:
                # the mask decided y, so the step was not a function of the state
                restart &= col.restarts
                differs |= restart
                col.since[restart], col.power[restart], col.wake[restart] = t, 1, t + 1
                np.minimum(col.wake, col.record_at, out=col.wake)  # a trace row due now
            # due: the lane's event is now, or it may repeat its saved iterate
            due = np.greater_equal(col.wake == t, differs)
            ended = set(errors)  # lanes that fail or spend their budget at this t
            for pos, exc in errors.items():
                outcomes[lanes[pos].i] = exc.at(t + int(col.off[pos]))

            for pos in due.nonzero()[0].tolist():
                if pos in ended:
                    continue
                lane = lanes[pos]
                c, off, fy = lane.config, int(col.off[pos]), float(fys[pos])
                r, collecting = t + off, lane in cycle_rows
                on_stride = r % c.trace_stride == 0 or r == c.max_iters
                if on_stride or collecting:
                    x, y, lam = X[pos], Y[pos], Lam[pos]
                    row = (lagrangian(lane, x, y, lam), fy, float(np.linalg.norm(x - y)),
                           0 if inner is None else int(inner[pos]))
                    if on_stride:
                        lane.trace.record(r, *row)
                    if collecting:
                        (skip, rows), period = cycle_rows[lane], int(col.period[pos])
                        rows.append(row)
                        if len(rows) == period:
                            # rows repeat by phase; the last `period` rows are one cycle
                            stride = c.trace_stride
                            for j in range(r - r % stride + stride, r + skip + 1, stride):
                                lane.trace.record(j, *rows[(j - r - 1) % period])
                            if t - col.moved[pos] >= period:  # y was constant over the cycle
                                col.moved[pos] -= skip
                            off, r = off + skip, r + skip
                            col.off[pos] = off
                            del cycle_rows[lane]
                power = int(col.power[pos])
                if power and not collecting and not restart[pos]:
                    gap = t - int(col.since[pos])
                    # the iterate saved one step ago is the previous one
                    saved = (Xp, Yp, Lp) if gap == 1 else (col.saved_x, col.saved_y, col.saved_lam)
                    if all(now[pos].tobytes() == then[pos].tobytes()
                           for now, then in zip((X, Y, Lam), saved)):
                        col.period[pos], col.saved_x[pos], col.restarts[pos] = gap, np.nan, False
                        restarting = bool(col.restarts.any())
                        diff[2] &= restarting  # stale flags go once no lane restarts
                        power, skip = 0, max(0, ((c.max_iters - r - c.window) // gap - 1) * gap)
                        if skip:
                            cycle_rows[lane] = (skip, [])
                    elif gap == power:
                        col.saved_x[pos], col.saved_y[pos] = X[pos], Y[pos]
                        col.saved_lam[pos] = Lam[pos]
                        col.since[pos], power = t, 2 * gap
                    col.power[pos] = power
                if r >= c.max_iters:
                    dx, ks = X[pos] - Xp[pos], range(max(0, t + 1 - c.window), t + 1)
                    state = IterateState(X[pos].copy(), Y[pos].copy(), Lam[pos].copy(), r,
                                         0 if inner is None else int(inner[pos]))
                    finish(lane, state, col.window[pos, [k % w for k in ks]].tolist(),
                           math.sqrt(float(dx @ dx)), t - int(col.moved[pos]), off,
                           int(col.period[pos]))
                    ended.add(pos)
                    continue
                record = min(r - r % c.trace_stride + c.trace_stride, c.max_iters) - off
                col.record_at[pos] = record = t + 1 if lane in cycle_rows else record
                col.wake[pos] = min(record, col.since[pos] + power) if power else record
            if ended:
                keep = [p for p in range(len(lanes)) if p not in ended]
                X, Y, Lam = X[keep], Y[keep], Lam[keep]
                for name, a in vars(col).items():
                    setattr(col, name, a[keep])
                lanes, shared = [lanes[p] for p in keep], None
    return outcomes
