import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from conftest import random_psd_quadratic
from admmq.experiments import InstanceSpec, generate_instance
from admmq.objectives import QuadraticObjective, SmoothObjective, synthetic_logistic
from admmq.rng import RunRng
from admmq.sets import binary_set, uniform_lattice
from admmq.solvers import (
    DivergenceError,
    InnerSolverConfig,
    InnerSolverError,
    IterateState,
    RunTrace,
    SolverConfig,
    SolverError,
    admm_q_step,
    admm_r_step,
    admm_s_step,
    augmented_lagrangian,
    build_x_update,
    gd_then_project,
    iadmm_q_step,
    initial_state,
    pgd_step,
    run,
    run_lanes,
)

# f(x) = 1/2 (x - 0.4)^2, expressed with its constant so f(0) = 0.08
SHIFTED_1D = QuadraticObjective(Q=[[1.0]], b=[-0.4], c=0.08)
# f(x) = 1/2 (x^2 - x), the classic no-stationary-point example at rho = 1/2
HALF_PARABOLA = QuadraticObjective(Q=[[1.0]], b=[-0.5])

INTS = uniform_lattice(1, 1.0)


def state_1d(x, y, lam):
    return IterateState(
        x=np.array([float(x)]), y=np.array([float(y)]), lam=np.array([float(lam)])
    )


class TestAugmentedLagrangian:
    def test_simple_parabola(self):
        f = QuadraticObjective(Q=[[1.0]], b=[0.0])
        val = augmented_lagrangian(f, [1.0], [0.0], [0.0], rho=2.0)
        assert val == pytest.approx(1.5)

    def test_reduces_to_f_on_diagonal(self):
        rng = np.random.default_rng(0)
        f = random_psd_quadratic(rng, d=3)
        x = rng.normal(size=3)
        lam = rng.normal(size=3)
        assert augmented_lagrangian(f, x, x, lam, rho=7.0) == pytest.approx(f.value(x))

    def test_with_dual_term(self):
        f = QuadraticObjective(Q=2 * np.eye(1), b=[0.0])
        val = augmented_lagrangian(f, [1.0], [0.0], [0.5], rho=2.0)
        assert val == pytest.approx(2.5)

    def test_shape_mismatch(self):
        f = QuadraticObjective(Q=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            augmented_lagrangian(f, [1.0, 2.0], [0.0], [0.0, 0.0], rho=1.0)


class TestAdmmQStep:
    def test_hand_iteration(self):
        nxt = admm_q_step(SHIFTED_1D, INTS, state_1d(0, 0, 0), rho=2.0)
        assert nxt.y[0] == 0.0
        assert nxt.x[0] == pytest.approx(2.0 / 15.0)
        assert nxt.lam[0] == pytest.approx(4.0 / 15.0)
        assert nxt.r == 1

    def test_converges_to_hand_fixed_point(self):
        state = state_1d(0, 0, 0)
        for _ in range(100):
            state = admm_q_step(SHIFTED_1D, INTS, state, rho=2.0)
        assert state.x[0] == pytest.approx(0.0, abs=1e-9)
        assert state.y[0] == 0.0
        assert state.lam[0] == pytest.approx(0.4, abs=1e-9)

    def test_fixed_point_preserved(self):
        # x = y = 0 in Z with lam = -grad f(0) = 0.4 is a fixed point at rho = 2
        state = state_1d(0, 0, 0.4)
        nxt = admm_q_step(SHIFTED_1D, INTS, state, rho=2.0)
        np.testing.assert_array_equal(nxt.x, state.x)
        np.testing.assert_array_equal(nxt.y, state.y)
        np.testing.assert_array_equal(nxt.lam, state.lam)

    def test_dual_identity_after_exact_update(self):
        rng = np.random.default_rng(1)
        f = random_psd_quadratic(rng, d=6)
        dset = uniform_lattice(6, 2.0)
        rho = 1.5 * f.lipschitz_L
        state = initial_state(dset, SolverConfig(rho=rho, seed=3))
        for _ in range(25):
            state = admm_q_step(f, dset, state, rho)
            err = np.linalg.norm(state.lam + f.gradient(state.x))
            assert err <= 1e-8 * (1.0 + np.linalg.norm(state.lam))

    def test_non_spd_system_rejected(self):
        f = QuadraticObjective(Q=[[-4.0]], b=[0.0])  # mu = 4
        with pytest.raises(SolverError, match="positive definite"):
            admm_q_step(f, INTS, state_1d(0, 0, 0), rho=1.0)

    def test_gd_inner_mode_matches_closed_form(self):
        rng = np.random.default_rng(2)
        f = random_psd_quadratic(rng, d=4)
        dset = uniform_lattice(4, 1.0)
        rho = 2.0 * f.lipschitz_L
        inner = InnerSolverConfig(max_inner_iters=5000, abs_grad_tol=1e-13)
        upd = build_x_update(f, rho, inner, gamma=0.0)
        s_cf = initial_state(dset, SolverConfig(rho=rho, seed=5))
        s_gd = IterateState(s_cf.x.copy(), s_cf.y.copy(), s_cf.lam.copy())
        for _ in range(50):
            s_cf = admm_q_step(f, dset, s_cf, rho)
            s_gd = admm_q_step(f, dset, s_gd, rho, x_update=upd)
            assert np.linalg.norm(s_cf.x - s_gd.x) < 1e-9


class TestIadmmQStep:
    def test_gamma_zero_reduces_to_exact(self):
        rng = np.random.default_rng(3)
        f = random_psd_quadratic(rng, d=5)
        dset = uniform_lattice(5, 4.0)
        rho = 1.5 * f.lipschitz_L
        inner = InnerSolverConfig(max_inner_iters=5000, abs_grad_tol=1e-13)
        exact = initial_state(dset, SolverConfig(rho=rho, seed=7))
        inexact = IterateState(exact.x.copy(), exact.y.copy(), exact.lam.copy())
        upd = build_x_update(f, rho, inner, gamma=0.0)
        for _ in range(200):
            exact = admm_q_step(f, dset, exact, rho)
            inexact = iadmm_q_step(f, dset, inexact, rho, gamma=0.0, x_update=upd)
            assert np.linalg.norm(exact.x - inexact.x) < 1e-6
            np.testing.assert_array_equal(exact.y, inexact.y)

    def test_certificate_implies_relative_accuracy(self):
        # accepted points must satisfy the inexactness bound wrt the true minimizer
        rng = np.random.default_rng(4)
        f = random_psd_quadratic(rng, d=5)
        dset = uniform_lattice(5, 4.0)
        rho = 2.0 * f.lipschitz_L
        gamma = 0.1
        state = initial_state(dset, SolverConfig(rho=rho, seed=11))
        A = f.Q + rho * np.eye(5)
        for _ in range(60):
            prev_x = state.x.copy()
            state = iadmm_q_step(f, dset, state, rho, gamma=gamma)
            x_star = np.linalg.solve(A, rho * state.y - (state.lam - rho * (state.x - state.y)) - f.b)
            bound = gamma * min(
                np.linalg.norm(state.x - state.y), np.linalg.norm(state.x - prev_x)
            )
            assert np.linalg.norm(state.x - x_star) <= bound + 1e-10

    def test_inner_budget_enforced(self):
        rng = np.random.default_rng(5)
        f = random_psd_quadratic(rng, d=4)
        dset = uniform_lattice(4, 8.0)
        rho = 2 * f.lipschitz_L
        inner = InnerSolverConfig(max_inner_iters=1, abs_grad_tol=1e-15)
        upd = build_x_update(f, rho, inner, gamma=0.0)
        state = initial_state(dset, SolverConfig(rho=rho, seed=1))
        with pytest.raises(InnerSolverError, match="certificate"):
            iadmm_q_step(f, dset, state, rho, gamma=0.0, x_update=upd)


class _ZeroMaskRng:
    def bernoulli(self, p, n):
        return np.zeros(n, dtype=bool)


class TestAdmmRStep:
    def test_full_mask_equals_exact(self):
        rng = np.random.default_rng(6)
        f = random_psd_quadratic(rng, d=5)
        dset = uniform_lattice(5, 8.0)
        rho = 1.5 * f.lipschitz_L
        a = initial_state(dset, SolverConfig(rho=rho, seed=13))
        b = IterateState(a.x.copy(), a.y.copy(), a.lam.copy())
        stream = RunRng(99)
        for _ in range(100):
            a = admm_q_step(f, dset, a, rho)
            b = admm_r_step(f, dset, b, rho, mask_prob=1.0, rng=stream)
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.lam, b.lam)

    def test_zero_mask_keeps_y(self):
        rng = np.random.default_rng(7)
        f = random_psd_quadratic(rng, d=4)
        dset = uniform_lattice(4, 8.0)
        rho = 1.5 * f.lipschitz_L
        state = initial_state(dset, SolverConfig(rho=rho, seed=17))
        state = admm_q_step(f, dset, state, rho)  # make x and y differ
        nxt = admm_r_step(f, dset, state, rho, mask_prob=0.5, rng=_ZeroMaskRng())
        np.testing.assert_array_equal(nxt.y, state.y)
        # x re-solves against the old y
        expected = np.linalg.solve(
            f.Q + rho * np.eye(4), rho * state.y - state.lam - f.b
        )
        np.testing.assert_allclose(nxt.x, expected, rtol=1e-12, atol=1e-12)

    def test_y_stays_feasible(self):
        rng = np.random.default_rng(8)
        f = random_psd_quadratic(rng, d=6)
        dset = uniform_lattice(6, 2.0)
        rho = 1.5 * f.lipschitz_L
        stream = RunRng(23)
        state = initial_state(dset, SolverConfig(rho=rho, seed=19))
        for _ in range(60):
            state = admm_r_step(f, dset, state, rho, mask_prob=0.4, rng=stream)
            assert dset.contains(state.y)


class TestAdmmSStep:
    def test_soft_branch_hand_value(self):
        # z = 0.4, projection 0, beta/rho = 0.1 <= 0.4: move 0.1 toward the set
        f = QuadraticObjective(Q=[[1.0]], b=[0.0])
        state = state_1d(0.4, 0, 0)
        nxt = admm_s_step(f, INTS, state, rho=1.0, beta=0.1)
        assert nxt.y[0] == pytest.approx(0.3)

    def test_on_set_branch(self):
        f = QuadraticObjective(Q=[[1.0]], b=[0.0])
        state = state_1d(2.0, 2.0, 0.0)  # z = 2 is a member, z_d = 0
        nxt = admm_s_step(f, INTS, state, rho=1.0, beta=0.1)
        assert nxt.y[0] == 2.0

    def test_large_beta_equals_exact(self):
        rng = np.random.default_rng(9)
        f = random_psd_quadratic(rng, d=5)
        dset = uniform_lattice(5, 8.0)
        rho = 1.5 * f.lipschitz_L
        beta = rho * dset.covering_radius() * 1.5
        a = initial_state(dset, SolverConfig(rho=rho, seed=29))
        b = IterateState(a.x.copy(), a.y.copy(), a.lam.copy())
        for _ in range(100):
            a = admm_q_step(f, dset, a, rho)
            b = admm_s_step(f, dset, b, rho, beta=beta)
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)

    def test_soft_update_shrinks_distance_by_beta_over_rho(self):
        rng = np.random.default_rng(10)
        f = random_psd_quadratic(rng, d=4)
        dset = uniform_lattice(4, 8.0)
        rho = 1.5 * f.lipschitz_L
        beta = 0.3 * rho  # radius 0.3, far below the covering radius
        state = initial_state(dset, SolverConfig(rho=rho, seed=31))
        for _ in range(50):
            z = state.x + state.lam / rho
            dist_z = dset.soft_indicator(z)
            state = admm_s_step(f, dset, state, rho, beta=beta)
            assert np.linalg.norm(state.y - z) <= beta / rho + 1e-12
            expected = max(0.0, dist_z - beta / rho)
            assert dset.soft_indicator(state.y) == pytest.approx(expected, abs=1e-10)


class TestPgdStep:
    def test_rounds_to_zero(self):
        assert pgd_step(SHIFTED_1D, INTS, np.array([0.0]), rho=1.0)[0] == 0.0

    def test_period_two_oscillation(self):
        # at rho = 1/2 no rho-stationary point exists; the iterates alternate
        x = np.array([0.0])
        seen = []
        for _ in range(6):
            x = pgd_step(HALF_PARABOLA, INTS, x, rho=0.5)
            seen.append(x[0])
        assert seen == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_monotone_descent_when_rho_geq_L(self):
        rng = np.random.default_rng(11)
        f = random_psd_quadratic(rng, d=6)
        dset = uniform_lattice(6, 2.0)
        x = dset.project(rng.normal(size=6) * 2)
        val = f.value(x)
        for _ in range(80):
            x = pgd_step(f, dset, x, rho=f.lipschitz_L)
            nxt = f.value(x)
            assert nxt <= val + 1e-9 * (1 + abs(val))
            val = nxt


class TestGdThenProject:
    def test_quadratic_closed_form(self):
        f = QuadraticObjective(Q=2 * np.eye(2), b=[-1.2, 2.6])
        point, ok = gd_then_project(f, uniform_lattice(2, 1.0), np.zeros(2))
        assert ok
        np.testing.assert_array_equal(point, [1.0, -1.0])

    def test_simple_parabola(self):
        f = QuadraticObjective(Q=[[1.0]], b=[0.0])
        point, ok = gd_then_project(f, INTS, np.array([37.0]))
        assert ok and point[0] == 0.0

    def test_singular_inconsistent_hits_cap(self):
        # b has a component outside range(Q): the gd path never meets the tol
        f = QuadraticObjective(Q=np.diag([1.0, 0.0]), b=[0.0, 1.0])
        point, ok = gd_then_project(
            f, uniform_lattice(2, 1.0), np.zeros(2), tol=1e-10, max_iters=500
        )
        assert not ok
        assert np.isfinite(point).all()

    def test_constant_objective(self):
        f = QuadraticObjective(Q=np.zeros((2, 2)), b=np.zeros(2))
        point, ok = gd_then_project(f, uniform_lattice(2, 1.0), np.array([1.2, -0.6]))
        assert ok
        np.testing.assert_array_equal(point, [1.0, -1.0])


class TestRun:
    def config(self, **kw):
        base = dict(rho=2.0, max_iters=100, seed=0, init_scale=1e-6)
        base.update(kw)
        return SolverConfig(**base)

    def test_demo_best_window(self):
        result = run("admm-q", SHIFTED_1D, INTS, self.config())
        assert result.best_objective == pytest.approx(0.08)
        assert result.final_objective == pytest.approx(0.08)
        assert result.state.y[0] == 0.0

    def test_zero_iterations_returns_initial(self):
        for method in ("admm-q", "admm-s", "pgd", "gd-proj"):
            result = run(method, SHIFTED_1D, INTS, self.config(max_iters=0))
            assert result.best_objective == result.initial_objective

    def test_fixed_seed_reproducible(self):
        cfg = SolverConfig(rho=20.0, mask_prob=0.5, max_iters=60, seed=1234)
        rng = np.random.default_rng(12)
        f = random_psd_quadratic(rng, d=4)
        dset = uniform_lattice(4, 8.0)
        a = run("admm-r", f, dset, cfg)
        b = run("admm-r", f, dset, cfg)
        for col in ("lagrangian", "f_y", "residual"):
            np.testing.assert_array_equal(a.trace.as_arrays()[col], b.trace.as_arrays()[col])
        np.testing.assert_array_equal(a.state.x, b.state.x)
        np.testing.assert_array_equal(a.state.lam, b.state.lam)

    def test_shared_seed_shares_initial_point(self):
        rng = np.random.default_rng(13)
        f = random_psd_quadratic(rng, d=5)
        dset = uniform_lattice(5, 8.0)
        inits = []
        for method in ("admm-q", "admm-r", "admm-s", "pgd"):
            cfg = SolverConfig(rho=2 * f.lipschitz_L, max_iters=0, seed=77)
            res = run(method, f, dset, cfg)
            inits.append(res.state.x)
        for other in inits[1:]:
            np.testing.assert_array_equal(inits[0], other)

    def test_window_semantics_on_oscillator(self):
        # period-2 pgd orbit alternating between f = 0 and f = 0.2
        f = QuadraticObjective(Q=[[1.0]], b=[-0.3])
        cfg = self.config(rho=0.5, max_iters=99, window=1)
        res = run("pgd", f, INTS, cfg)
        assert res.best_objective == pytest.approx(f.value(res.state.x))
        assert res.best_objective == pytest.approx(0.2)
        res2 = run("pgd", f, INTS, self.config(rho=0.5, max_iters=99, window=2))
        assert res2.best_objective == pytest.approx(0.0)

    def test_divergence_detected(self):
        f = QuadraticObjective(Q=np.diag([100.0, 1.0]), b=[1.0, 1.0])
        dset = uniform_lattice(2, 1.0)
        with pytest.raises(DivergenceError) as info:
            run("pgd", f, dset, SolverConfig(rho=0.01, max_iters=10000, seed=0))
        assert info.value.iteration >= 1

    def test_lagrangian_monotone_under_condition(self):
        rng = np.random.default_rng(14)
        f = random_psd_quadratic(rng, d=5)
        dset = uniform_lattice(5, 8.0)
        cfg = SolverConfig(rho=1.5 * f.lipschitz_L, max_iters=400, seed=3)
        for method in ("admm-q", "admm-s"):
            res = run(method, f, dset, cfg)
            # the decrease guarantee needs the dual identity, which holds from
            # r >= 1 (lambda0 = 0 is arbitrary), so skip the 0 -> 1 transition
            L = res.trace.as_arrays()["lagrangian"][1:]
            assert np.all(np.diff(L) <= 1e-9 * (1.0 + np.abs(L[:-1])))

    def test_no_worse_than_init(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            f = random_psd_quadratic(rng, d=4)
            dset = uniform_lattice(4, 8.0)
            cfg = SolverConfig(rho=1.5 * f.lipschitz_L, max_iters=300, seed=seed)
            res = run("admm-q", f, dset, cfg)
            assert res.final_objective <= res.initial_objective + 1e-8

    def test_convergence_flag(self):
        cfg = self.config(max_iters=300)
        res = run("admm-q", SHIFTED_1D, INTS, cfg)
        assert res.converged
        assert res.y_stable_iters >= 50
        assert res.final_step_norm <= 1e-10

    def test_trace_stride_keeps_final(self):
        cfg = self.config(max_iters=100, trace_stride=7)
        res = run("admm-q", SHIFTED_1D, INTS, cfg)
        rows = res.trace.as_arrays()["r"]
        assert rows[0] == 0 and rows[-1] == 100
        assert all(r % 7 == 0 or r == 100 for r in rows)

    def test_trace_csv(self, tmp_path):
        res = run("admm-q", SHIFTED_1D, INTS, self.config(max_iters=10))
        path = tmp_path / "trace.csv"
        res.trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,lagrangian,f_y,residual,inner_iters"
        assert len(lines) == len(res.trace) + 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run("sgd", SHIFTED_1D, INTS, self.config())

    def test_state_json(self):
        res = run("admm-q", SHIFTED_1D, INTS, self.config(max_iters=5))
        assert res.state.r == 5

    def test_logistic_run_with_gd_inner(self):
        f = synthetic_logistic(50, 6, seed=4)
        dset = binary_set(6)
        cfg = SolverConfig(rho=6 * f.lipschitz_L, max_iters=40, seed=5)
        res = run("admm-q", f, dset, cfg)
        assert dset.contains(res.state.y)
        err = np.linalg.norm(res.state.lam + f.gradient(res.state.x))
        assert err <= 1e-8 * (1 + np.linalg.norm(res.state.lam))


class TestXSolverRule:
    """The method picks the x-solver, seen in the trace's inner_iters column:
    a quadratic's exact x-update is a factorization solve with no inner
    steps; iadmm-q and every non-quadratic x-update run gradient descent."""

    @staticmethod
    def inner_iters(method, f, dset, **kw):
        cfg = SolverConfig(rho=2 * f.lipschitz_L, max_iters=30, seed=4, mask_prob=0.5, **kw)
        return run(method, f, dset, cfg).trace.as_arrays()["inner_iters"]

    @pytest.fixture
    def quadratic(self):
        return random_psd_quadratic(np.random.default_rng(16), d=4), uniform_lattice(4, 1.0)

    @pytest.mark.parametrize("method", ["admm-q", "admm-r", "admm-s"])
    def test_exact_methods_factor_quadratics(self, quadratic, method):
        assert np.all(self.inner_iters(method, *quadratic) == 0)

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_iadmm_q_descends_on_quadratics(self, quadratic, gamma):
        assert self.inner_iters("iadmm-q", *quadratic, gamma=gamma).max() > 0

    @pytest.mark.parametrize("method", ["admm-q", "iadmm-q", "admm-r", "admm-s"])
    def test_logistic_descends_for_every_method(self, method):
        f = synthetic_logistic(50, 6, seed=4)
        assert self.inner_iters(method, f, binary_set(6), gamma=0.05).max() > 0


def full_budget_record(method, f, dset, config):
    """Every iteration of the full-budget loop, built from the public steps.

    Returns the initial trace row, f(y0), one ``(state, trace row, scored
    objective, step norm, y-stable count)`` per iteration, and the error that
    ended the loop early (or None). The scored objective of a quadratic uses
    the same expression as ``run``, so the two agree bit for bit.
    """
    rng = RunRng(config.seed)
    state = initial_state(dset, config, rng)
    rho = config.rho
    if isinstance(f, QuadraticObjective):
        def fval(z):
            return 0.5 * float(z @ f.Q @ z) + float(f.b @ z) + f.c
    else:
        fval = f.value
    if method == "iadmm-q":
        x_update = build_x_update(f, rho, config.inner, gamma=config.gamma)
    elif method != "pgd":
        x_update = build_x_update(f, rho, config.inner)

    def row_of(s, fy):
        if method == "pgd":
            lag = f.value(s.x)
        else:
            lag = augmented_lagrangian(f, s.x, s.y, s.lam, rho)
            if method == "admm-s":
                lag += config.beta * dset.soft_indicator(s.y)
        return (lag, fy, float(np.linalg.norm(s.x - s.y)), s.inner_iters)

    f_y0 = f.value(state.y)
    row0 = row_of(state, f_y0)
    steps, y_stable = [], 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for r in range(1, config.max_iters + 1):
            prev = state
            try:
                if method == "admm-q":
                    state = admm_q_step(f, dset, state, rho, x_update=x_update)
                elif method == "iadmm-q":
                    state = iadmm_q_step(f, dset, state, rho, config.gamma, x_update=x_update)
                elif method == "admm-r":
                    state = admm_r_step(
                        f, dset, state, rho, config.mask_prob, rng, x_update=x_update
                    )
                elif method == "admm-s":
                    state = admm_s_step(f, dset, state, rho, config.beta, x_update=x_update)
                else:
                    x = pgd_step(f, dset, state.x, rho)
                    state = IterateState(x=x, y=x.copy(), lam=state.lam, r=r)
                fy = fval(state.x if method == "pgd" else state.y)
                if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.lam))
                        and math.isfinite(fy)):
                    raise DivergenceError("non-finite iterate", r)
            except SolverError as exc:
                return row0, f_y0, steps, (type(exc), r)
            dx = state.x - prev.x
            y_stable = y_stable + 1 if np.array_equal(state.y, prev.y) else 0
            steps.append((state, row_of(state, fy), fy, math.sqrt(float(dx @ dx)), y_stable))
    return row0, f_y0, steps, None


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_run_matches_record(method, f, dset, config, record):
    """``run`` with ``config`` gives, field by field, the record cut at its budget."""
    row0, f_y0, steps, error = record
    budget, stride = config.max_iters, config.trace_stride
    if error is not None and error[1] <= budget:
        with pytest.raises(error[0]) as info:
            run(method, f, dset, config)
        assert info.value.iteration == error[1]
        return None
    res = run(method, f, dset, config)
    trace = RunTrace()
    trace.record(0, *row0)
    window = deque([f_y0], maxlen=config.window)
    for r, (_, row, fy, _, _) in enumerate(steps[:budget], start=1):
        window.append(fy)
        if r % stride == 0 or r == budget:
            trace.record(r, *row)
    state, _, _, step_norm, y_stable = steps[budget - 1]
    got, want = res.trace.as_arrays(), trace.as_arrays()
    for col in RunTrace.COLUMNS:
        assert_same_bits(got[col], want[col])
    assert_same_bits(res.best_objective, min(window))
    assert_same_bits(res.final_objective, window[-1])
    assert_same_bits(res.initial_objective, f_y0)
    assert_same_bits(res.final_step_norm, step_norm)
    assert res.y_stable_iters == y_stable
    for name in ("x", "y", "lam"):
        assert_same_bits(getattr(res.state, name), getattr(state, name))
    assert (res.state.r, res.state.inner_iters) == (budget, state.inner_iters)
    assert res.iterations_run <= budget
    return res


def first_retiring_budget(method, f, dset, config):
    """Smallest budget up to ``config.max_iters`` at which ``run`` skips iterations.

    Retirement needs ``window + 2 * period`` iterations after the repeat is
    found, so it is monotone in the budget.
    """
    lo, hi = 0, config.max_iters
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if run(method, f, dset, dataclasses.replace(config, max_iters=mid)).iterations_run < mid:
            hi = mid
        else:
            lo = mid
    return hi


D16 = generate_instance(InstanceSpec(d=16, v=8, sigma_q_sq=30, seed=1))
LOGISTIC = synthetic_logistic(200, 8, seed=3)


class TestCycleRetirement:
    """``run`` skips whole cycles of a bit-exact periodic iterate; nothing else changes."""

    @pytest.mark.parametrize("method", ["admm-q", "iadmm-q", "admm-r", "admm-s", "pgd"])
    def test_matches_full_budget_loop(self, method):
        cases = [(D16.objective, D16.dset, rho) for rho in (0.1, 10.0, 1e3, 1e5)]
        cases.append((LOGISTIC, binary_set(8), 2 * LOGISTIC.lipschitz_L))
        retired = 0
        for f, dset, rho in cases:
            # admm-s at rho=10 enters a period-2 cycle in which y moves, after ~1100 iterations
            max_budget = 1200 if (method, rho) == ("admm-s", 10.0) else 150
            config = SolverConfig(
                rho=rho, max_iters=max_budget, seed=11, mask_prob=0.9, beta=1.0,
                gamma=0.5 if method == "iadmm-q" else 0.0,
            )
            record = full_budget_record(method, f, dset, config)
            for window in (1, 50):
                cfg = dataclasses.replace(config, window=window)
                budgets = {max_budget}
                res = assert_run_matches_record(method, f, dset, cfg, record)
                if res is not None and res.iterations_run < max_budget:
                    # budgets that end just after the cycle starts: the tail
                    # is window + period + j iterations for j < period
                    first = first_retiring_budget(method, f, dset, cfg)
                    budgets.update(range(first - 1, first + res.cycle_period + 1))
                    retired += 1
                for budget in sorted(budgets):
                    for stride in (1, 7, budget):
                        assert_run_matches_record(
                            method, f, dset,
                            dataclasses.replace(cfg, max_iters=budget, trace_stride=stride),
                            record,
                        )
        assert retired > 0 or method == "iadmm-q"

    @pytest.mark.parametrize("method", ["admm-q", "pgd"])
    def test_fixed_point_runs_retire(self, method):
        config = SolverConfig(rho=1e3, max_iters=3000, seed=11)
        res = run(method, D16.objective, D16.dset, config)
        assert 0 < res.cycle_period and res.iterations_run < config.max_iters
        assert res.state.r == config.max_iters

    def test_y_moving_cycle(self):
        # period-2 pgd orbit 0 -> 1 -> 0: y changes every iteration
        f = QuadraticObjective(Q=[[1.0]], b=[-0.3])
        config = SolverConfig(rho=0.5, max_iters=99, window=3, seed=0, init_scale=1e-6)
        record = full_budget_record("pgd", f, INTS, config)
        for stride in (1, 7, 99):
            res = assert_run_matches_record(
                "pgd", f, INTS, dataclasses.replace(config, trace_stride=stride), record
            )
            assert res.cycle_period == 2 and res.iterations_run < 99
            assert res.y_stable_iters == 0

    def test_masked_repeat_does_not_retire(self):
        # with y held by the mask, (x, lam) settles to a bit-exact fixed point
        # while the unmasked projection already points elsewhere; a later coin
        # moves y from 0 to 3, so that repeat is not a cycle
        f = QuadraticObjective(Q=[[1.0]], b=[-3.0])
        config = SolverConfig(
            rho=2.0, mask_prob=0.02, max_iters=400, window=1, seed=0, init_scale=1e-6
        )
        record = full_budget_record("admm-r", f, INTS, config)
        res = assert_run_matches_record("admm-r", f, INTS, config, record)
        assert res.state.y[0] == 3.0 and res.iterations_run < 400

    def test_no_cycle_runs_full_budget(self):
        res = run("admm-q", D16.objective, D16.dset, SolverConfig(rho=10.0, max_iters=100))
        assert (res.iterations_run, res.cycle_period) == (100, 0)


class _GradientOnly(SmoothObjective):
    """A quadratic the solvers do not recognise, so that every x-update descends."""

    def __init__(self, q: QuadraticObjective):
        self._q = q
        self.dim, self.lipschitz_L = q.dim, q.lipschitz_L
        self.weak_convexity_mu = q.weak_convexity_mu

    def value(self, x):
        return self._q.value(x)

    def gradient(self, x):
        return self._q.gradient(x)


# mu = 0.77 and L_f = 3.27; unbounded below over Z^3, so small rho diverges
INDEFINITE = QuadraticObjective(
    Q=[[3.0, 1.0, 0.0], [1.0, -0.5, 0.0], [0.0, 0.0, 2.0]], b=[0.7, -1.3, 0.4]
)


def assert_same_outcome(got, want):
    """Two run outcomes agree field by field, bit for bit."""
    if isinstance(want, SolverError):
        assert type(got) is type(want) and str(got) == str(want)
        assert got.iteration == want.iteration
        return
    assert not isinstance(got, SolverError), got
    got_trace, want_trace = got.trace.as_arrays(), want.trace.as_arrays()
    for col in RunTrace.COLUMNS:
        assert_same_bits(got_trace[col], want_trace[col])
    for name in ("x", "y", "lam"):
        assert_same_bits(getattr(got.state, name), getattr(want.state, name))
    for name in ("best_objective", "initial_objective", "final_objective", "final_step_norm"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    fields = ("y_stable_iters", "iterations_run", "cycle_period")
    assert [getattr(got, k) for k in fields] == [getattr(want, k) for k in fields]
    assert (got.state.r, got.state.inner_iters) == (want.state.r, want.state.inner_iters)


def lane_kinds(method, f, dset, configs):
    """Run the configs as lanes, check each against a run of its own; the outcome kinds."""
    kinds = set()
    for config, got in zip(configs, run_lanes(method, f, dset, configs), strict=True):
        try:
            want = run(method, f, dset, config)
        except SolverError as exc:
            want = exc
        assert_same_outcome(got, want)
        if isinstance(want, SolverError):
            kinds.add({InnerSolverError: "inner", DivergenceError: "diverged"}.get(type(want), "rejected"))
        else:
            kinds.add("cycle" if want.iterations_run < config.max_iters else "budget")
    return kinds


class TestRunLanes:
    """Lanes of one ``run_lanes`` call give, bit for bit, what each gives alone."""

    @pytest.mark.parametrize("method", ["admm-q", "iadmm-q", "admm-r", "admm-s"])
    def test_mixed_lanes_match_single_runs(self, method):
        base = SolverConfig(
            rho=40.0, max_iters=200, window=20, seed=3, mask_prob=0.8, beta=0.5,
            gamma=0.5 if method == "iadmm-q" else 0.0, init_scale=3.0, trace_stride=7,
        )
        variants = [
            dict(rho=0.9),  # below L_f: diverges
            dict(rho=0.9, mask_prob=1.0, seed=5),
            dict(rho=0.5),  # below mu: no x-update
            dict(),  # above L_f: frozen
            dict(beta=1e4, seed=6),  # admm-s on the projection
            dict(max_iters=5),
            dict(init_scale=1e308),  # a start near the double limit
            dict(init_scale=1e308, seed=1),  # the start overflows
            dict(rho=2.0, seed=4, window=1, trace_stride=1),
            dict(rho=1.2, seed=7),
            dict(inner=InnerSolverConfig(max_inner_iters=1)),
        ]
        configs = [dataclasses.replace(base, **v) for v in variants]
        kinds = lane_kinds(method, INDEFINITE, uniform_lattice(3, 1.0), configs)
        # gradient-descent x-updates for every method, one of them starved
        kinds |= lane_kinds(method, _GradientOnly(INDEFINITE), uniform_lattice(3, 1.0), configs[-3:])
        expected = {"budget", "inner", "rejected"}
        if method != "iadmm-q":
            expected |= {"diverged", "cycle"}
        assert expected <= kinds

    @pytest.mark.parametrize("method", ["admm-q", "iadmm-q", "admm-r", "admm-s", "pgd"])
    def test_lanes_sharing_rho_share_one_solve(self, method):
        configs = [
            SolverConfig(rho=rho, max_iters=300, seed=seed, mask_prob=p, beta=1.0, gamma=0.5)
            for rho in (0.01, 10.0, 1e3, 1e5)
            for seed, p in ((11, 0.1), (12, 0.9), (13, 1.0))
        ]
        lane_kinds(method, D16.objective, D16.dset, configs)

    def test_gd_proj_lanes_run_one_by_one(self):
        configs = [SolverConfig(seed=s, max_iters=m) for s in (1, 2) for m in (0, 1)]
        lane_kinds("gd-proj", D16.objective, D16.dset, configs)

    def test_no_lanes(self):
        assert run_lanes("admm-q", D16.objective, D16.dset, []) == []

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_lanes("sgd", D16.objective, D16.dset, [SolverConfig()])


# f(x) = 1/2 1e-3 x^2 + 1.5e308 x: x + lambda/rho overflows once lambda ~ -f'(x)
HUGE_SLOPE = QuadraticObjective(Q=[[1e-3]], b=[1.5e308])
UNIT_1D = QuadraticObjective(Q=[[1.0]], b=[0.0])
STIFF_2D = QuadraticObjective(Q=np.diag([100.0, 1.0]), b=[1.0, 1.0])


def error_kind(text):
    return InnerSolverError if text.startswith("x-update certificate") else DivergenceError


class TestDivergenceTexts:
    """Each way a run can fail, with its exact message and iteration.

    A missed x-update certificate is an :class:`InnerSolverError`; every other
    failure is a :class:`DivergenceError`.
    """

    CASES = {
        **{f"target-{m}": (m, HUGE_SLOPE, SolverConfig(rho=1.0),
                           "non-finite projection target at iteration 2", 2)
           for m in ("admm-q", "admm-r", "admm-s")},
        "target-pgd": ("pgd", UNIT_1D, SolverConfig(rho=1e-3, init_scale=1e307),
                       "non-finite projected-gradient target at iteration 1", 1),
        "x": ("admm-q", UNIT_1D, SolverConfig(rho=1e10, init_scale=1e300),
              "non-finite x at iteration 1", 1),
        "lambda": ("admm-q", HUGE_SLOPE, SolverConfig(rho=0.6, init_scale=1.5e308, seed=1),
                   "non-finite lambda at iteration 1", 1),
        "objective": ("admm-q", INDEFINITE, SolverConfig(rho=0.9, init_scale=3.0, seed=3),
                      "non-finite objective at iteration 191", 191),
        "objective-pgd": ("pgd", STIFF_2D, SolverConfig(rho=0.01),
                          "non-finite objective at iteration 39", 39),
        "inner-gd": ("iadmm-q", STIFF_2D,
                     SolverConfig(rho=1e-3, gamma=0.5, init_scale=1e307, seed=1),
                     "non-finite iterate in inner gradient descent at iteration 1", 1),
        # one inner step cannot certify the x-update of the fourth iteration
        "inner-certificate": ("iadmm-q", STIFF_2D,
                              SolverConfig(rho=100.0, gamma=0.5, init_scale=5.0, seed=1,
                                           inner=InnerSolverConfig(max_inner_iters=1)),
                              "x-update certificate not met within 1 inner iterations "
                              "(last gradient norm 1.122e+01) at iteration 4", 4),
        **{name: (m, UNIT_1D, SolverConfig(init_scale=1e308, seed=4),
                  "non-finite start at iteration 0", 0)
           for name, m in (("start", "admm-q"), ("start-gd-proj", "gd-proj"))},
    }
    STEPPED = {k: case for k, case in CASES.items() if not k.startswith("start")}

    @pytest.mark.parametrize("method, f, config, text, iteration", CASES.values(), ids=CASES)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the run handles its own overflow
    def test_message_and_iteration(self, method, f, config, text, iteration):
        config = dataclasses.replace(config, max_iters=300, mask_prob=0.5, beta=0.5)
        with pytest.raises(error_kind(text)) as info:
            run(method, f, uniform_lattice(f.dim, 1.0), config)
        assert (str(info.value), info.value.iteration) == (text, iteration)

    @pytest.mark.parametrize("method, f, config, text, iteration", STEPPED.values(), ids=STEPPED)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_steps_raise_what_runs_raise(self, method, f, config, text, iteration):
        # the public step functions from the run's own start fail where the run does
        config = dataclasses.replace(config, max_iters=300, mask_prob=0.5, beta=0.5)
        dset, rng, rho = uniform_lattice(f.dim, 1.0), RunRng(config.seed), config.rho
        state = initial_state(dset, config, rng)
        step = {
            "admm-q": lambda s: admm_q_step(f, dset, s, rho),
            "iadmm-q": lambda s: iadmm_q_step(
                f, dset, s, rho, config.gamma, build_x_update(f, rho, config.inner, config.gamma)),
            "admm-r": lambda s: admm_r_step(f, dset, s, rho, config.mask_prob, rng),
            "admm-s": lambda s: admm_s_step(f, dset, s, rho, config.beta),
            "pgd": lambda s: dataclasses.replace(s, x=pgd_step(f, dset, s.x, rho), r=s.r + 1),
        }[method]
        with pytest.raises(error_kind(text)) as info:
            for _ in range(iteration):
                state = step(state)
        assert state.r == iteration - 1  # the step that raised makes iteration r + 1
        if method == "pgd":  # pgd_step knows no iteration
            text, iteration = text.rsplit(" at iteration", 1)[0], -1
        assert (str(info.value), info.value.iteration) == (text, iteration)

    def test_step_names_the_iteration_it_makes(self):
        # lambda/rho overflows, so the target of the step from r = 5 is not finite
        state = dataclasses.replace(state_1d(0.0, 0.0, -1e308), r=5)
        with pytest.raises(DivergenceError) as info:
            admm_q_step(UNIT_1D, INTS, state, rho=1e-3)
        assert (str(info.value), info.value.iteration) == (
            "non-finite projection target at iteration 6", 6)

    def test_zero_radius_soft_step(self):
        # beta/rho underflows to 0: off the set y stays at z, on the set it takes the member
        off = admm_s_step(UNIT_1D, INTS, state_1d(0.4, 0.0, 0.0), rho=1e10, beta=1e-320)
        on = admm_s_step(UNIT_1D, INTS, state_1d(2.0, 2.0, 0.0), rho=1e10, beta=1e-320)
        assert (off.y[0], on.y[0]) == (0.4, 2.0)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=0.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(beta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(mask_prob=0.0)
        with pytest.raises(ValueError):
            SolverConfig(mask_prob=1.5)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-1)
        with pytest.raises(ValueError):
            SolverConfig(window=0)

    @pytest.mark.parametrize(
        "bad", [dict(seed=-1), dict(seed=2.5), dict(init_scale=math.inf),
                dict(init_scale=math.nan), dict(init_scale=-1.0)],
    )
    def test_seed_and_init_scale(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)

    def test_zero_seed_and_init_scale_accepted(self):
        SolverConfig(seed=0, init_scale=0.0)

    @pytest.mark.parametrize("name", ["max_iters", "window", "trace_stride"])
    @pytest.mark.parametrize("value", [10.5, 10.0, math.inf, math.nan, "10"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError):
            SolverConfig(**{name: value})
        SolverConfig(**{name: np.int64(10)})

    def test_inner_validation(self):
        with pytest.raises(ValueError):
            InnerSolverConfig(max_inner_iters=0)
