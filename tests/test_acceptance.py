"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test verdicts themselves mirror them.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import oracle_project, random_product_set, random_psd_quadratic
from admmq.analysis import (
    brute_force_minimize,
    check_decrease_condition,
    check_iadmm_condition,
    enumerate_stationary_points,
    is_rho_stationary,
)
from admmq.experiments import (
    InstanceSpec,
    ProtocolSpec,
    SweepResult,
    generate_instance,
    run_protocol,
)
from admmq.objectives import QuadraticObjective, synthetic_logistic
from admmq.rng import RunRng
from admmq.sets import binary_set, uniform_lattice
from admmq.solvers import (
    InnerSolverConfig,
    IterateState,
    SolverConfig,
    admm_q_step,
    admm_r_step,
    admm_s_step,
    augmented_lagrangian,
    build_x_update,
    gd_then_project,
    iadmm_q_step,
    initial_state,
    run,
)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:02d} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {num:02d} [{name}] failed{suffix}"


def test_criterion_01_projection_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(200):
        dset = random_product_set(rng, max_members=10_000)
        members = dset.enumerate_members()
        points = [rng.normal(size=dset.dim) * 6 for _ in range(5)]
        # engineered exact ties per coordinate kind
        tie = np.empty(dset.dim)
        for i, c in enumerate(dset.coords):
            vals = c.members()
            if len(vals) == 1:
                tie[i] = vals[0] + 0.25
            elif vals[0] == -1.0 and vals[-1] == 1.0 and len(vals) == 2:
                tie[i] = 0.0
            else:
                j = int(rng.integers(0, len(vals) - 1))
                tie[i] = 0.5 * (vals[j] + vals[j + 1])
        points.append(tie)
        for x in points:
            got = dset.project(x)
            want = oracle_project(dset, x)
            dists = np.linalg.norm(members - x, axis=1)
            if not np.array_equal(got, want):
                ok = False
            if np.linalg.norm(got - x) > dists.min() + 1e-12:
                ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "projection oracle equivalence",
        ok and elapsed < 10.0,
        f"{checked} projections on 200 sets in {elapsed:.1f}s",
    )


def test_criterion_02_monotone_lagrangian():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    ok = True
    for trial in range(50):
        d = int(rng.integers(2, 17))
        f = random_psd_quadratic(rng, d=d, sigma_sq=4.0)
        rho = 1.5 * f.lipschitz_L
        assert check_decrease_condition(f.lipschitz_L, f.weak_convexity_mu, rho)
        dset = uniform_lattice(d, 8.0)
        for method, beta in (("admm-q", 1.0), ("admm-s", 0.5 * rho * 8.0)):
            cfg = SolverConfig(rho=rho, beta=beta, max_iters=3000, seed=trial)
            res = run(method, f, dset, cfg)
            # decrease is guaranteed from r >= 1 (lambda0 = 0 is arbitrary)
            L = res.trace.as_arrays()["lagrangian"][1:]
            if not np.all(np.diff(L) <= 1e-9 * (1.0 + np.abs(L[:-1]))):
                ok = False
    elapsed = time.perf_counter() - t0
    report(2, "monotone lagrangian", ok and elapsed < 60.0, f"{elapsed:.1f}s")


def _bounded_instances(rng, count):
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 6))
        f = random_psd_quadratic(rng, d=d, sigma_sq=4.0)
        dset = uniform_lattice(d, 1.0, a=-4.0, b=4.0)  # at most 9^5 members
        out.append((f, dset))
    return out


def test_criterion_03_lower_bound_and_no_worse_than_init():
    rng = np.random.default_rng(303)
    ok = True
    for idx, (f, dset) in enumerate(_bounded_instances(rng, 10)):
        rho = 1.5 * f.lipschitz_L
        _, f_min = brute_force_minimize(f, dset, limit=100_000)
        res = run("admm-q", f, dset, SolverConfig(rho=rho, max_iters=400, seed=idx))
        arrays = res.trace.as_arrays()
        L, fy = arrays["lagrangian"][1:], arrays["f_y"][1:]
        slack = 1e-9 * (1.0 + np.abs(L))
        if not np.all(L >= fy - slack):
            ok = False
        if not np.all(fy >= f_min - 1e-9 * (1.0 + abs(f_min))):
            ok = False
        if not res.final_objective <= res.initial_objective + 1e-8:
            ok = False
    report(3, "lower bound and no-worse-than-init", ok)


def test_criterion_04_dual_identity():
    rng = np.random.default_rng(404)
    ok = True
    stream = RunRng(11)
    for idx in range(10):
        d = int(rng.integers(2, 9))
        f = random_psd_quadratic(rng, d=d, sigma_sq=4.0)
        dset = uniform_lattice(d, 4.0)
        rho = 1.5 * f.lipschitz_L
        cfg = SolverConfig(rho=rho, seed=idx)
        for method in ("admm-q", "admm-r", "admm-s"):
            state = initial_state(dset, cfg)
            upd = build_x_update(f, rho)
            for _ in range(200):
                if method == "admm-q":
                    state = admm_q_step(f, dset, state, rho, x_update=upd)
                elif method == "admm-r":
                    state = admm_r_step(
                        f, dset, state, rho, 0.7, stream, x_update=upd
                    )
                else:
                    state = admm_s_step(f, dset, state, rho, 2.0, x_update=upd)
                err = np.linalg.norm(state.lam + f.gradient(state.x))
                if err > 1e-8 * (1.0 + np.linalg.norm(state.lam)):
                    ok = False
    report(4, "dual identity after exact updates", ok)


def test_criterion_05_limit_point_stationarity():
    rng = np.random.default_rng(505)
    ok = True
    n_converged = 0
    for trial in range(30):
        f = random_psd_quadratic(rng, d=6, sigma_sq=4.0)
        dset = uniform_lattice(6, 4.0)
        L = f.lipschitz_L
        for method, rho in (("admm-q", 1.5 * L), ("pgd", L)):
            res = run(method, f, dset, SolverConfig(rho=rho, max_iters=1500, seed=trial))
            if res.converged:
                n_converged += 1
                rep = is_rho_stationary(
                    f, dset, res.state.x, rho, tol=1e-7, membership_tol=1e-6
                )
                if not rep.is_stationary:
                    ok = False
    report(
        5,
        "converged runs are stationary",
        ok and n_converged >= 20,
        f"{n_converged}/60 runs converged",
    )


def test_criterion_06_reduction_identities():
    rng = np.random.default_rng(606)
    ok = True
    worst = 0.0
    for trial in range(10):
        f = random_psd_quadratic(rng, d=6, sigma_sq=4.0)
        dset = uniform_lattice(6, 8.0)
        rho = 1.5 * f.lipschitz_L
        beta = rho * dset.covering_radius() * 1.2
        inner = InnerSolverConfig(max_inner_iters=20000, abs_grad_tol=1e-12)
        start = initial_state(dset, SolverConfig(rho=rho, seed=trial))

        def clone(s):
            return IterateState(s.x.copy(), s.y.copy(), s.lam.copy())

        ref, s_r, s_s, s_i = (clone(start) for _ in range(4))
        upd = build_x_update(f, rho)
        upd_i = build_x_update(f, rho, inner, gamma=0.0)
        stream = RunRng(trial)
        for _ in range(500):
            ref = admm_q_step(f, dset, ref, rho, x_update=upd)
            s_r = admm_r_step(f, dset, s_r, rho, 1.0, stream, x_update=upd)
            s_s = admm_s_step(f, dset, s_s, rho, beta, x_update=upd)
            s_i = iadmm_q_step(f, dset, s_i, rho, gamma=0.0, x_update=upd_i)
            for other in (s_r, s_s, s_i):
                diff = max(
                    np.linalg.norm(ref.x - other.x), np.linalg.norm(ref.y - other.y)
                )
                worst = max(worst, diff)
                if diff > 1e-6:
                    ok = False
    report(6, "reduction identities", ok, f"max per-iterate deviation {worst:.2e}")


def test_criterion_07_certificate_soundness():
    rng = np.random.default_rng(707)
    ok = True
    for gamma in (0.1, 0.3):
        for trial in range(5):
            f = random_psd_quadratic(rng, d=5, sigma_sq=4.0)
            dset = uniform_lattice(5, 4.0)
            rho = 2.0 * f.lipschitz_L
            A = f.Q + rho * np.eye(5)
            state = initial_state(dset, SolverConfig(rho=rho, seed=trial))
            for _ in range(100):
                prev_x = state.x.copy()
                state = iadmm_q_step(f, dset, state, rho, gamma=gamma)
                lam_prev = state.lam - rho * (state.x - state.y)
                x_star = np.linalg.solve(A, rho * state.y - lam_prev - f.b)
                bound = gamma * min(
                    np.linalg.norm(state.x - state.y),
                    np.linalg.norm(state.x - prev_x),
                )
                if np.linalg.norm(state.x - x_star) > bound + 1e-10:
                    ok = False
    report(7, "inexactness certificate soundness", ok)


def test_criterion_08_nonexistence_example():
    f = QuadraticObjective(Q=[[1.0]], b=[-0.5])  # 1/2 (x^2 - x), L_f = 1
    dset = uniform_lattice(1, 1.0, a=-1e6, b=1e6)
    t0 = time.perf_counter()
    empty = enumerate_stationary_points(f, dset, rho=0.5, limit=3_000_000)
    nonempty = enumerate_stationary_points(f, dset, rho=1.0, limit=3_000_000)
    elapsed = time.perf_counter() - t0
    ok = empty.shape[0] == 0 and nonempty.shape[0] > 0 and elapsed < 5.0
    report(
        8,
        "stationary points need not exist below L_f",
        ok,
        f"|T_0.5| = {empty.shape[0]}, |T_1| = {nonempty.shape[0]}, {elapsed:.1f}s",
    )


def test_criterion_09_nesting_and_optimality():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(50):
        f = random_psd_quadratic(rng, d=2, sigma_sq=4.0)
        dset = uniform_lattice(2, 1.0, a=-3.0, b=3.0)
        L = f.lipschitz_L
        chain = [0.8 * L, L, 3 * L, 10 * L]
        sets = [
            {tuple(p) for p in enumerate_stationary_points(f, dset, rho)}
            for rho in chain
        ]
        for small, large in zip(sets, sets[1:]):
            if not small <= large:
                ok = False
        argmin, _ = brute_force_minimize(f, dset)
        for rho_idx in (1, 3):  # rho >= L_f entries of the chain
            if tuple(argmin) not in sets[rho_idx]:
                ok = False
    report(9, "stationary sets nest and contain the optimum", ok)


def test_criterion_10_parameter_conditions():
    ok = check_decrease_condition(L_f=1.0, mu=0.0, rho=1.5)
    ok &= check_decrease_condition(L_f=3.0, mu=0.0, rho=4.5)
    ok &= check_decrease_condition(L_f=1.0, mu=1.0, rho=2.1)
    ok &= check_decrease_condition(L_f=2.0, mu=2.0, rho=4.2)
    for L in (1.0, 5.0):
        ok &= check_iadmm_condition(L_f=L, mu=0.0, rho=6 * L, gamma=0.1)
        ok &= check_iadmm_condition(L_f=L, mu=L, rho=6 * L, gamma=0.1)
    report(10, "parameter-condition checks", ok)


def test_criterion_11_qualitative_reproduction():
    """ADMM-Q outperforms both competing algorithms, as the abstract claims.

    On at least 4 of 5 instances ADMM-Q's best median must be at most both
    PGD's and GD+Proj's (up to the suite's 1e-9 relative slack, since ties
    on the same lattice point are reached through different summations),
    and PGD must be no better than ADMM-Q on at least 80% of paired inits.

    The two baselines are not ranked against each other: the paper makes
    no such claim, and on ``(8Z)^16`` PGD with step ``1/rho <= 1/L_f`` only
    moves coordinate i when ``|grad_i f| > rho * v / 2 >= 4 L_f``, so at
    its best grid point almost every random start is already a fixed
    point. All three medians are still printed per instance.
    """
    t0 = time.perf_counter()
    protocol = ProtocolSpec(n_inits=20, iters_admm=3000, iters_pgd=10000, seed=0)
    algorithms = ["admm-q", "pgd", "gd-proj"]
    results = []
    for seed in range(1, 6):
        inst = generate_instance(InstanceSpec(d=16, v=8.0, sigma_q_sq=30.0, seed=seed))
        results.append(run_protocol(inst, algorithms, protocol, max_workers=2))
    merged = SweepResult.merge(results)

    ordering_count = 0
    details = []
    for iid in merged.instance_ids():
        med = {alg: merged.best[(iid, alg)].median for alg in algorithms}
        details.append(
            f"{iid}: admm-q={med['admm-q']:.0f} pgd={med['pgd']:.0f} "
            f"gd-proj={med['gd-proj']:.0f}"
        )
        baseline = min(med["pgd"], med["gd-proj"])
        if med["admm-q"] <= baseline + 1e-9 * (1.0 + abs(baseline)):
            ordering_count += 1

    pgd = merged.best_objectives("pgd")
    admm = merged.best_objectives("admm-q")
    shared = sorted(set(pgd) & set(admm))
    diffs = np.array([pgd[k] - admm[k] for k in shared])
    frac_nonneg = float(np.mean(diffs >= 0)) if len(shared) else 0.0
    elapsed = time.perf_counter() - t0

    print()
    for line in details:
        print("   ", line)
    print(
        f"    ordering holds on {ordering_count}/5 instances; "
        f"f(pgd) - f(admm-q) >= 0 on {100 * frac_nonneg:.0f}% of {len(shared)} pairs; "
        f"{elapsed:.0f}s"
    )
    ok = ordering_count >= 4 and frac_nonneg >= 0.80 and elapsed < 600.0
    report(
        11,
        "qualitative ordering reproduction",
        ok,
        f"ordering {ordering_count}/5, pairwise {100 * frac_nonneg:.0f}%",
    )


def test_criterion_12_logistic_demo():
    f = synthetic_logistic(500, 20, seed=7, shift=0.3)
    dset = binary_set(20)
    L = f.lipschitz_L

    baseline_point, base_ok = gd_then_project(f, dset, np.zeros(20), tol=1e-8)
    baseline = f.value(baseline_point)

    # practical regime: small rho lets the dual flip signs; gamma-certified
    # inner gradient descent supplies the approximate x-updates
    cfg = SolverConfig(
        rho=0.1 * L,
        gamma=0.05,
        max_iters=300,
        seed=0,
        inner=InnerSolverConfig(max_inner_iters=20000),
    )
    loss_run = run("iadmm-q", f, dset, cfg)
    loss_ok = loss_run.best_objective <= 1.1 * baseline

    # theory regime: rho satisfying the decrease condition, exact certificate
    rho = 1.5 * L
    assert check_decrease_condition(L, 0.0, rho)
    _, f_min = brute_force_minimize(f, dset, limit=2_000_000)
    inner = InnerSolverConfig(max_inner_iters=50000, abs_grad_tol=1e-13)
    upd = build_x_update(f, rho, inner, gamma=0.0)
    state = initial_state(dset, SolverConfig(rho=rho, seed=1))
    lagr = [augmented_lagrangian(f, state.x, state.y, state.lam, rho)]
    trace_ok = True
    f_y0 = f.value(state.y)
    for _ in range(150):
        state = iadmm_q_step(f, dset, state, rho, gamma=0.0, x_update=upd)
        Lval = augmented_lagrangian(f, state.x, state.y, state.lam, rho)
        fy = f.value(state.y)
        lagr.append(Lval)
        if len(lagr) > 2 and Lval > lagr[-2] + 1e-9 * (1.0 + abs(lagr[-2])):
            trace_ok = False  # criterion 2 on this trace
        if Lval < fy - 1e-9 * (1.0 + abs(fy)) or fy < f_min - 1e-9:
            trace_ok = False  # criterion 3 lower bounds
        dual_err = np.linalg.norm(state.lam + f.gradient(state.x))
        if dual_err > 1e-8 * (1.0 + np.linalg.norm(state.lam)):
            trace_ok = False  # criterion 4 dual identity
    no_worse = f.value(state.y) <= f_y0 + 1e-8

    ok = base_ok and loss_ok and trace_ok and no_worse
    report(
        12,
        "binarized logistic demo",
        ok,
        f"loss {loss_run.best_objective:.4f} vs baseline {baseline:.4f}, "
        f"f_min {f_min:.4f}",
    )
