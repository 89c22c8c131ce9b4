"""Differential test: ``run_lanes`` against a literal loop per method.

The reference below is written from the methods' update equations. It
shares only the start draw (``initial_state`` on the run's ``RunRng``) and
the stream that supplies admm-r's masks, which together define a run. It
rounds onto the set by hand, solves the x-block with ``np.linalg.solve``,
and runs the whole budget with no cycle skipping, so nothing of the lane
kernel's bookkeeping (mixed lanes, compaction, cycle retirement, windows)
is shared.

What must agree, per lane:

* a failure, at the same iteration and of the same kind;
* the final y, bit for bit for the methods that take y from a projection
  (admm-q, iadmm-q, admm-r, pgd, gd-proj); admm-s's y to ``Y_RTOL``
  relative, since its y is a real combination of x-dependent terms and
  LU and Cholesky solves differ in the last bits;
* the best, final and initial objectives to ``OBJ_RTOL`` relative.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmq.objectives import QuadraticObjective
from admmq.rng import RunRng
from admmq.sets import Binary, DiscreteProductSet, ExplicitGrid, ScaledLattice
from admmq.solvers import (
    METHODS,
    DivergenceError,
    InnerSolverConfig,
    InnerSolverError,
    SolverConfig,
    SolverError,
    initial_state,
    run_lanes,
)

Y_RTOL = 1e-9
OBJ_RTOL = 1e-9
PROJECTING = ("admm-q", "iadmm-q", "admm-r", "pgd", "gd-proj")


class Failed(Exception):
    def __init__(self, kind, iteration):
        super().__init__(kind.__name__, iteration)
        self.kind, self.iteration = kind, iteration


def round_coordinate(spec, t):
    """The nearest member of one coordinate's set; exact midpoints go to the smaller.

    ``spec`` is ``("binary",)``, ``("lattice", v, k0, k1)`` with ``None``
    for an open end, or ``("grid", values)``.
    """
    kind = spec[0]
    if kind == "binary":
        return 1.0 if t >= 0.0 else -1.0
    if kind == "lattice":
        _, v, k0, k1 = spec
        k = float(np.ceil(t / v - 0.5))
        if k0 is not None:
            k = max(float(k0), k)  # a bound wins a tie, so -0.0 becomes +0.0
        if k1 is not None:
            k = min(float(k1), k)
        return v * k
    values = spec[1]
    below = [g for g in values if g < t]
    above = [g for g in values if g >= t]
    lo = below[-1] if below else values[0]
    hi = above[0] if above else values[-1]
    return lo if abs(t - lo) <= abs(hi - t) else hi


def round_point(specs, z):
    return np.array([round_coordinate(s, t) for s, t in zip(specs, z)])


def reference_run(method, f, specs, dset, config):
    """``(y, objectives)`` of the full budget, or raise :class:`Failed`.

    ``objectives`` lists f(y) at iterations 0..max_iters.
    """
    rng = RunRng(config.seed)
    try:
        start = initial_state(dset, config, rng)
    except DivergenceError:
        raise Failed(DivergenceError, 0)
    Q, b, d = f.Q, f.b, f.dim
    rho = config.rho
    x, y, lam = start.x.copy(), start.y.copy(), np.zeros(d)
    objectives = [f.value(y)]
    if method == "gd-proj":
        if config.max_iters:
            y = round_point(specs, np.linalg.solve(Q, -b))
            objectives = [objectives[0], f.value(y)]
        return y, objectives
    for r in range(1, config.max_iters + 1):
        # the target: z = x + lambda / rho, or pgd's gradient step
        z = x - f.gradient(x) / rho if method == "pgd" else x + lam / rho
        if not np.isfinite(z).all():
            raise Failed(DivergenceError, r)
        p = round_point(specs, z)
        if method == "admm-r":
            y = np.where(rng.bernoulli(config.mask_prob, d), p, y)
        elif method == "admm-s":
            # move toward the projection by at most beta / rho
            dist, radius = float(np.linalg.norm(p - z)), config.beta / rho
            y = p if dist <= radius else z + (radius / dist) * (p - z)
        else:
            y = p
        if method == "pgd":
            x = y
        elif method == "iadmm-q":
            x = certified_descent(f, config, x, y, lam, r)
        else:
            x = np.linalg.solve(Q + rho * np.eye(d), rho * y - lam - b)
        lam = lam + rho * (x - y)
        fy = f.value(y)
        if not (np.isfinite(x).all() and np.isfinite(lam).all() and math.isfinite(fy)):
            raise Failed(DivergenceError, r)
        objectives.append(fy)
    return y, objectives


def certified_descent(f, config, x_prev, y, lam, r):
    """Gradient descent on the Lagrangian in x until the relative-accuracy certificate holds."""
    rho, gamma = config.rho, config.gamma
    sigma = rho - f.weak_convexity_mu
    step = 2.0 / (sigma + rho + f.lipschitz_L)
    x = x_prev.copy()
    for it in range(config.inner.max_inner_iters + 1):
        g = f.gradient(x) + lam + rho * (x - y)
        bound = config.inner.abs_grad_tol
        if gamma > 0:
            near = min(float(np.linalg.norm(x - y)), float(np.linalg.norm(x - x_prev)))
            bound = max(bound, sigma * gamma * near)
        if float(np.linalg.norm(g)) <= bound:
            return x
        if it == config.inner.max_inner_iters:
            raise Failed(InnerSolverError, r)
        x = x - step * g
        if not np.isfinite(x).all():
            raise Failed(DivergenceError, r)


def coordinate_set(spec):
    if spec[0] == "binary":
        return Binary()
    if spec[0] == "lattice":
        _, v, k0, k1 = spec
        return ScaledLattice(v, a=None if k0 is None else v * k0, b=None if k1 is None else v * k1)
    return ExplicitGrid(values=tuple(spec[1]))


@st.composite
def coordinate_specs(draw):
    kind = draw(st.sampled_from(["binary", "lattice", "box", "grid"]))
    if kind == "binary":
        return ("binary",)
    # power-of-two spacings keep the lattice bounds exact multiples
    v = draw(st.sampled_from([0.5, 1.0, 2.0, 8.0]))
    if kind == "lattice":
        return ("lattice", v, None, None)
    if kind == "box":
        k0 = draw(st.integers(-4, 0))
        return ("lattice", v, k0, k0 + draw(st.integers(0, 5)))
    values = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=5, unique=True))
    return ("grid", tuple(0.25 * k for k in sorted(values)))


@st.composite
def lane_configs(draw, lipschitz):
    method = draw(st.sampled_from(METHODS))
    config = SolverConfig(
        # around L_f: below it runs diverge or wander, above it they freeze
        rho=lipschitz * draw(st.sampled_from([0.05, 0.3, 1.0, 3.0, 100.0])),
        gamma=draw(st.sampled_from([0.0, 0.5])) if method == "iadmm-q" else 0.0,
        beta=draw(st.sampled_from([0.01, 1.0, 100.0])),
        # a rare coin holds y while (x, lambda) settle bit for bit: not a cycle
        mask_prob=draw(st.sampled_from([0.02, 0.3, 0.9, 1.0])),
        max_iters=draw(st.sampled_from([0, 1, 40, 300, 300])),
        window=draw(st.sampled_from([1, 3, 50])),
        seed=draw(st.integers(0, 2**32)),
        # a start near the double limit diverges within a few iterations
        init_scale=draw(st.sampled_from([None, None, 1e300])),
        # a starved certified descent fails soon rather than running long
        inner=InnerSolverConfig(max_inner_iters=30),
    )
    return method, config


@st.composite
def problems(draw):
    specs = draw(st.lists(coordinate_specs(), min_size=1, max_size=4))
    d = len(specs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    a = rng.normal(size=(d, d))
    # a slope near the double limit overflows the targets within a few iterations
    slope = draw(st.sampled_from([3.0, 3.0, 1e300]))
    Q, b = scale * (a.T @ a + 0.1 * np.eye(d)), scale * slope * rng.normal(size=d)
    f = QuadraticObjective(Q=Q, b=b)
    lanes = draw(st.lists(lane_configs(f.lipschitz_L), min_size=1, max_size=6))
    return specs, f, lanes


def assert_close(got, want, rtol):
    # a start near the double limit may score inf, and gd-proj's point NaN
    same = got == want or (math.isnan(got) and math.isnan(want))
    assert same or abs(got - want) <= rtol * max(abs(want), 1.0), (got, want)


# y is held at 0 while (x, lambda) settle bit for bit, and the projection
# already points at 2; a later coin moves y, so the repeat is not a cycle
HELD = (
    [("lattice", 1.0, None, None)],
    QuadraticObjective(Q=[[1.0]], b=[-3.3]),
    [("admm-r", SolverConfig(
        rho=2.0, mask_prob=0.02, max_iters=400, window=1, seed=4, init_scale=1e-6,
    ))],
)


# beta / rho underflows to a radius of 0: y stays at z, unless z is on the
# set and so its own projection
ZERO_RADIUS = (
    [("lattice", 1.0, None, None), ("lattice", 0.5, -2, 2)],
    QuadraticObjective(Q=[[2.0, 0.3], [0.3, 1.0]], b=[0.7, -1.1]),
    [("admm-s", SolverConfig(rho=1e300, beta=1e-300, max_iters=40, seed=s)) for s in (1, 2)]
    + [("admm-s", SolverConfig(rho=3.0, beta=0.01, max_iters=40, seed=3))],
)


@given(problems())
@example(HELD)
@example(ZERO_RADIUS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_lanes_match_literal_loops(problem):
    specs, f, lanes = problem
    dset = DiscreteProductSet(coords=tuple(coordinate_set(s) for s in specs))
    methods, configs = [m for m, _ in lanes], [c for _, c in lanes]
    with np.errstate(all="ignore"):  # the reference overflows where runs diverge
        outcomes = run_lanes(methods, f, dset, configs)
        for method, config, got in zip(methods, configs, outcomes, strict=True):
            try:
                y, objectives = reference_run(method, f, specs, dset, config)
            except Failed as failed:
                assert isinstance(got, failed.kind), (method, got)
                assert got.iteration == failed.iteration, (method, got)
                continue
            assert not isinstance(got, SolverError), (method, config, got)
            if method in PROJECTING:
                assert got.state.y.tobytes() == y.tobytes(), (method, got.state.y, y)
            else:
                scale = max(float(np.abs(y).max()), 1.0)
                np.testing.assert_allclose(got.state.y, y, rtol=Y_RTOL, atol=Y_RTOL * scale)
            assert_close(got.initial_objective, objectives[0], OBJ_RTOL)
            assert_close(got.final_objective, objectives[-1], OBJ_RTOL)
            # gd-proj's one-shot point is its own window
            window = 1 if method == "gd-proj" else config.window
            assert_close(got.best_objective, min(objectives[-window:]), OBJ_RTOL)
            assert got.state.r == (config.max_iters if method != "gd-proj" else 0)
