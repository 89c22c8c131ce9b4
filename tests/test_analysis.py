import json
import math

import numpy as np
import pytest

from conftest import random_psd_quadratic
from admmq.analysis import (
    brute_force_minimize,
    check_decrease_condition,
    check_iadmm_condition,
    decrease_condition_value,
    enumerate_stationary_points,
    iadmm_condition_value,
    is_rho_stationary,
)
from admmq.objectives import QuadraticObjective
from admmq.sets import uniform_lattice

# f(x) = 1/2 (x^2 - x): no rho-stationary point exists at rho = 1/2 < L_f = 1
HALF_PARABOLA = QuadraticObjective(Q=[[1.0]], b=[-0.5])


def oracle_stationary(f, dset, x, rho, tol=1e-9):
    """Exhaustive-definition oracle: argmin-set membership over enumeration."""
    x = np.asarray(x, dtype=float)
    t = x - f.gradient(x) / rho
    members = dset.enumerate_members()
    dists = np.linalg.norm(members - t, axis=1)
    return np.linalg.norm(x - t) <= dists.min() + tol


class TestIsRhoStationary:
    def test_nonexistence_example(self):
        dset = uniform_lattice(1, 1.0, a=-10.0, b=10.0)
        assert not is_rho_stationary(HALF_PARABOLA, dset, [0.0], rho=0.5).is_stationary
        assert not is_rho_stationary(HALF_PARABOLA, dset, [1.0], rho=0.5).is_stationary

    def test_tie_point_is_stationary_at_rho_one(self):
        # target is 0.5, equidistant to 0 and 1: membership in the argmin set
        dset = uniform_lattice(1, 1.0, a=-10.0, b=10.0)
        report = is_rho_stationary(HALF_PARABOLA, dset, [0.0], rho=1.0)
        assert report.is_stationary
        assert report.slack == pytest.approx(0.0, abs=1e-12)

    def test_global_optimum_is_stationary_for_rho_geq_L(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = random_psd_quadratic(rng, d=2)
            dset = uniform_lattice(2, 1.0, a=-4.0, b=4.0)
            argmin, _ = brute_force_minimize(f, dset)
            for rho in (f.lipschitz_L, 3 * f.lipschitz_L):
                assert is_rho_stationary(f, dset, argmin, rho).is_stationary

    def test_infeasible_point_rejected(self):
        dset = uniform_lattice(1, 1.0)
        with pytest.raises(ValueError, match="not a member"):
            is_rho_stationary(HALF_PARABOLA, dset, [0.4], rho=1.0)

    def test_membership_tolerance_snaps(self):
        dset = uniform_lattice(1, 1.0)
        report = is_rho_stationary(
            HALF_PARABOLA, dset, [1e-11], rho=1.0, membership_tol=1e-8
        )
        assert report.is_stationary

    def test_rho_validated(self):
        with pytest.raises(ValueError, match="rho"):
            is_rho_stationary(HALF_PARABOLA, uniform_lattice(1, 1.0), [0.0], rho=0.0)

    def test_agrees_with_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            f = random_psd_quadratic(rng, d=2)
            dset = uniform_lattice(2, 2.0, a=-6.0, b=6.0)
            rho = float(rng.uniform(0.5, 3.0)) * f.lipschitz_L
            for member in dset.enumerate_members():
                got = is_rho_stationary(f, dset, member, rho).is_stationary
                assert got == oracle_stationary(f, dset, member, rho)

    def test_report_serializes(self):
        dset = uniform_lattice(1, 1.0, a=-2.0, b=2.0)
        report = is_rho_stationary(HALF_PARABOLA, dset, [0.0], rho=1.0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["is_stationary"] is True
        assert payload["candidate"] == [0.0]
        assert payload["tol"] == 1e-9


class TestBruteForce:
    def test_small_quadratic(self):
        f = QuadraticObjective(Q=2 * np.eye(2), b=[-1.2, 2.6])
        dset = uniform_lattice(2, 1.0, a=-3.0, b=3.0)
        argmin, value = brute_force_minimize(f, dset)
        np.testing.assert_array_equal(argmin, [1.0, -1.0])
        assert value == pytest.approx(-1.8)

    def test_constant_objective_breaks_ties_lexicographically(self):
        f = QuadraticObjective(Q=np.zeros((2, 2)), b=np.zeros(2))
        dset = uniform_lattice(2, 1.0, a=-2.0, b=2.0)
        argmin, value = brute_force_minimize(f, dset)
        np.testing.assert_array_equal(argmin, [-2.0, -2.0])
        assert value == 0.0

    def test_1d_shifted(self):
        f = QuadraticObjective(Q=[[1.0]], b=[-0.4], c=0.08)
        dset = uniform_lattice(1, 1.0, a=-2.0, b=2.0)
        argmin, value = brute_force_minimize(f, dset)
        assert argmin[0] == 0.0
        assert value == pytest.approx(0.08)

    def test_minimum_bounds_every_member(self):
        rng = np.random.default_rng(2)
        f = random_psd_quadratic(rng, d=3)
        dset = uniform_lattice(3, 2.0, a=-4.0, b=4.0)
        _, value = brute_force_minimize(f, dset)
        assert np.all(value <= f.value_many(dset.enumerate_members()) + 1e-12)

    def test_limit_and_unbounded_errors(self):
        f = QuadraticObjective(Q=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError, match="limit"):
            brute_force_minimize(f, uniform_lattice(2, 1.0, a=-5.0, b=5.0), limit=10)
        with pytest.raises(ValueError, match="unbounded"):
            brute_force_minimize(f, uniform_lattice(2, 1.0))

    def test_crosses_chunk_boundaries(self):
        f = QuadraticObjective(Q=[[2.0]], b=[-7.0])  # argmin near 3.5
        dset = uniform_lattice(1, 0.001, a=-100.0, b=100.0)  # 200k members
        argmin, _ = brute_force_minimize(f, dset)
        assert argmin[0] == pytest.approx(3.5, abs=0.001)


class TestEnumerateStationary:
    def test_nonexistence_window(self):
        dset = uniform_lattice(1, 1.0, a=-10.0, b=10.0)
        pts = enumerate_stationary_points(HALF_PARABOLA, dset, rho=0.5)
        assert pts.shape[0] == 0

    def test_rho_one_ties(self):
        # the gradient target is 0.5 for every x, so exactly {0, 1} qualify
        dset = uniform_lattice(1, 1.0, a=-10.0, b=10.0)
        pts = enumerate_stationary_points(HALF_PARABOLA, dset, rho=1.0)
        np.testing.assert_array_equal(np.sort(pts[:, 0]), [0.0, 1.0])

    def test_nesting_in_rho(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_psd_quadratic(rng, d=2)
            dset = uniform_lattice(2, 1.0, a=-3.0, b=3.0)
            L = f.lipschitz_L
            small = enumerate_stationary_points(f, dset, rho=L)
            large = enumerate_stationary_points(f, dset, rho=10 * L)
            small_set = {tuple(p) for p in small}
            large_set = {tuple(p) for p in large}
            assert small_set <= large_set

    def test_contains_brute_force_argmin(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_psd_quadratic(rng, d=2)
            dset = uniform_lattice(2, 1.0, a=-3.0, b=3.0)
            argmin, _ = brute_force_minimize(f, dset)
            pts = enumerate_stationary_points(f, dset, rho=f.lipschitz_L)
            assert tuple(argmin) in {tuple(p) for p in pts}

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tol_validated(self, tol):
        # x^2/2 - 0.4x: at tol 1e-9 only 0 qualifies; a bad tol is rejected, not answered
        f, dset = QuadraticObjective(Q=[[1.0]], b=[-0.4]), uniform_lattice(1, 1.0, a=-3.0, b=3.0)
        np.testing.assert_array_equal(enumerate_stationary_points(f, dset, rho=1.0), [[0.0]])
        with pytest.raises(ValueError, match=f"^tol must be non-negative and finite, got {tol}$"):
            enumerate_stationary_points(f, dset, rho=1.0, tol=tol)


class TestParameterConditions:
    def test_decrease_convex(self):
        # rho > sqrt(2) L suffices when mu = 0
        assert check_decrease_condition(L_f=1.0, mu=0.0, rho=1.5)
        assert not check_decrease_condition(L_f=1.0, mu=0.0, rho=1.4)
        assert not check_decrease_condition(L_f=1.0, mu=0.0, rho=1.41)

    def test_decrease_weakly_convex(self):
        # rho > 2 L suffices when mu = L
        assert check_decrease_condition(L_f=1.0, mu=1.0, rho=2.1)
        assert not check_decrease_condition(L_f=1.0, mu=1.0, rho=2.0)

    def test_decrease_value_formula(self):
        assert decrease_condition_value(2.0, 0.5, 4.0) == pytest.approx(
            4.0 / 4.0 - 3.5 / 2.0
        )

    def test_iadmm_reference_point(self):
        # rho = 6 L_f with gamma = 0.1 is admissible for mu in {0, L_f}
        for L in (1.0, 7.3):
            assert check_iadmm_condition(L_f=L, mu=0.0, rho=6 * L, gamma=0.1)
            assert check_iadmm_condition(L_f=L, mu=L, rho=6 * L, gamma=0.1)

    def test_iadmm_value_hand_computed(self):
        # (2 + 8*49*0.01)/6 + (0.01*7 - 0.81*5)/2 = -301/300 per unit L_f
        for L in (1.0, 3.0):
            val = iadmm_condition_value(L_f=L, mu=L, rho=6 * L, gamma=0.1)
            assert val == pytest.approx(-L * 301.0 / 300.0, rel=1e-12)

    def test_iadmm_gamma_zero(self):
        # reduces to 2 L^2 / rho - sigma / 2
        val = iadmm_condition_value(L_f=1.0, mu=0.0, rho=4.0, gamma=0.0)
        assert val == pytest.approx(2.0 / 4.0 - 2.0)

    def test_iadmm_fails_for_large_gamma(self):
        assert not check_iadmm_condition(L_f=1.0, mu=0.0, rho=6.0, gamma=0.9)

