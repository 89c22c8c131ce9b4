import itertools
import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_psd_quadratic
from admmq import analysis
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
from admmq.sets import Binary, DiscreteProductSet, ExplicitGrid, ScaledLattice, uniform_lattice

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

    @pytest.mark.parametrize("membership_tol", [math.nan, math.inf, -1.0])
    def test_membership_tol_validated(self, membership_tol):
        # nan or inf would snap the non-member 0.4 to 0 and call it stationary
        with pytest.raises(ValueError, match="^membership_tol must be non-negative and finite"):
            is_rho_stationary(HALF_PARABOLA, uniform_lattice(1, 1.0), [0.4], rho=1.0,
                              membership_tol=membership_tol)

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


# Binary x a lattice boxed to [0, 2] x a 3-value grid x a lattice boxed to [-2, 2]: 90 members
MIXED = DiscreteProductSet((Binary(), ScaledLattice(1.0, 0.0, 2.0),
                            ExplicitGrid((-1.0, 0.5, 3.0)), ScaledLattice(1.0, -2.0, 2.0)))


def reference_members(dset):
    return [np.array(p) for p in itertools.product(*(c.members() for c in dset.coords))]


def reference_minimum(f, dset):
    """First minimizer in enumeration order, by ``f.value`` on each member."""
    best, best_val = None, math.inf
    for x in reference_members(dset):
        if best is None or f.value(x) < best_val:
            best, best_val = x, f.value(x)
    return best, best_val


def reference_stationary(f, dset, rho, tol=1e-9):
    """Members no farther from ``x - grad f(x) / rho`` than the nearest value
    of each coordinate set, by ``f.gradient`` on each member."""
    keep = []
    for x in reference_members(dset):
        t = x - f.gradient(x) / rho
        if all(abs(x[i] - t[i]) - np.min(np.abs(c.members() - t[i])) <= tol
               for i, c in enumerate(dset.coords)):
            keep.append(x)
    return np.array(keep).reshape(-1, dset.dim)


@pytest.fixture(params=[None, (1, 4), (7, 4), (64, 24)],
                ids=["default", "chunk1", "chunk7", "chunk64"])
def chunked(request, monkeypatch):
    """The oracles with ``_EVAL_CHUNK`` at its default or at a few small sizes,
    and ``_BLOCK_ROWS`` below the chunk length, so that chunks and the blocks
    each chunk is scored and tested in (a shorter last one included) end
    inside the set."""
    if request.param is not None:
        chunk, rows = request.param
        monkeypatch.setattr(analysis, "_EVAL_CHUNK", chunk)
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", rows)
    return request.param


class TestOraclesAgainstReference:
    """Both oracles against references that share no code with them."""

    def test_minimum(self, chunked):
        rng = np.random.default_rng(21)
        for _ in range(3):
            f = random_psd_quadratic(rng, d=MIXED.dim)
            argmin, value = brute_force_minimize(f, MIXED)
            ref_argmin, ref_value = reference_minimum(f, MIXED)
            np.testing.assert_array_equal(argmin, ref_argmin)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)

    def test_constant_objective_takes_the_first_member(self, chunked):
        f = QuadraticObjective(Q=np.zeros((MIXED.dim, MIXED.dim)), b=np.zeros(MIXED.dim), c=1.5)
        argmin, value = brute_force_minimize(f, MIXED)
        np.testing.assert_array_equal(argmin, reference_members(MIXED)[0])
        assert value == 1.5
        # the gradient is 0, so every member is its own target: all are stationary
        np.testing.assert_array_equal(
            enumerate_stationary_points(f, MIXED, rho=1.0), np.array(reference_members(MIXED))
        )

    @pytest.mark.parametrize("rho_factor", [0.1, 1.0, 10.0])
    def test_stationary_points(self, chunked, rho_factor):
        rng = np.random.default_rng(22)
        for _ in range(3):
            f = random_psd_quadratic(rng, d=MIXED.dim)
            rho = rho_factor * f.lipschitz_L
            np.testing.assert_array_equal(
                enumerate_stationary_points(f, MIXED, rho), reference_stationary(f, MIXED, rho)
            )


class _NanLeft(QuadraticObjective):
    """x^2 / 2 whose batched values are NaN for x < 0."""

    def __init__(self):
        super().__init__([[1.0]], [0.0])

    def value_many(self, X):
        vals = super().value_many(X)
        vals[np.asarray(X)[:, 0] < 0] = np.nan
        return vals


class TestOracleFailures:
    def test_nan_value_names_the_first_member(self, chunked):
        # np.argmin would take a chunk's first NaN and miss the minimum at 0
        with pytest.raises(ValueError, match=r"^objective is NaN at member \[-2\.0\] \(row 0\)$"):
            brute_force_minimize(_NanLeft(), uniform_lattice(1, 1.0, -2.0, 2.0))

    def test_nan_after_the_minimum(self, chunked):
        dset = DiscreteProductSet((ScaledLattice(1.0, -2.0, 2.0), Binary()))
        f = QuadraticObjective(np.zeros((2, 2)), np.zeros(2))
        f.value_many = lambda X: np.where(X[:, 0] > 1, np.nan, 0.0)
        with pytest.raises(ValueError, match=r"at member \[2\.0, -1\.0\] \(row 8\)$"):
            brute_force_minimize(f, dset)

    def test_overflowing_gradient_step_names_the_member(self):
        # x - grad f(x) / rho overflows at every member
        f = QuadraticObjective([[1e300]], [-1e308])
        text = r"^gradient step is not finite at member \[0\.0\] \(row 0\)$"
        with pytest.raises(ValueError, match=text):
            enumerate_stationary_points(f, uniform_lattice(1, 1e5, 0.0, 1e5), rho=1e-10)

    def test_overflowing_gradient_in_a_later_chunk(self, chunked):
        # grad f(x) / rho = 2e307 x overflows from x = 9 on, past the first chunks
        f = QuadraticObjective([[1e307]], [0.0])
        with pytest.raises(ValueError, match=r"at member \[9\.0\] \(row 9\)$"):
            enumerate_stationary_points(f, uniform_lattice(1, 1.0, 0.0, 20.0), rho=0.5)

    def test_a_trap_with_every_step_finite_tests_the_block_again(self):
        # the batched gradient overflows inside, to a term it multiplies by 0:
        # the trap fires, yet every gradient step is finite
        class Clipped(QuadraticObjective):
            def gradient_many(self, X):
                return super().gradient_many(X) + 0.0 * np.minimum(np.exp(1e3 * X), 1e300)

        Q, b = [[2.0, 0.5], [0.5, 1.0]], [-1.0, 0.3]
        dset = uniform_lattice(2, 1.0, -3.0, 3.0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            Clipped(Q, b).gradient_many(dset.enumerate_members())
        for rho in (2.0, 5.0):  # 3 and 15 stationary points
            expected = enumerate_stationary_points(QuadraticObjective(Q, b), dset, rho)
            assert len(expected)
            np.testing.assert_array_equal(
                enumerate_stationary_points(Clipped(Q, b), dset, rho), expected)

    def test_all_infinite_values_take_the_first_member(self):
        f = QuadraticObjective([[1.0]], [0.0])
        f.value_many = lambda X: np.full(len(X), np.inf)
        argmin, value = brute_force_minimize(f, uniform_lattice(1, 1.0, -2.0, 2.0))
        assert argmin.tolist() == [-2.0] and value == math.inf


class TestOracleMemory:
    # 3^12 = 531441 members: the full (n, 12) array is 51 MB, about 8 chunks
    BOX = uniform_lattice(12, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("oracle", ["brute_force_minimize", "enumerate_stationary_points"])
    def test_peak_is_below_half_the_member_array(self, oracle):
        rng = np.random.default_rng(23)
        f = random_psd_quadratic(rng, d=self.BOX.dim)
        args = (f, self.BOX) if oracle == "brute_force_minimize" else (f, self.BOX, 0.1 * f.lipschitz_L)
        full_bytes = int(self.BOX.cardinality()) * self.BOX.dim * 8
        tracemalloc.start()
        try:
            getattr(analysis, oracle)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_bytes / 2, (peak, full_bytes)


class _SpyQuadratic(QuadraticObjective):
    """A quadratic that records the rows and the result of each batched call.

    Each call is keyed by its first member. Members are enumerated in
    lexicographic order, so sorting the keys puts the calls in row order,
    whichever thread made them and whenever."""

    def __init__(self, Q, b):
        super().__init__(Q, b)
        self.values, self.gradients = [], []

    def value_many(self, X):
        out = super().value_many(X)
        self.values.append((tuple(X[0]), out))
        return out

    def gradient_many(self, X):
        out = super().gradient_many(X)
        self.gradients.append((tuple(X[0]), out))
        return out

    @staticmethod
    def in_row_order(calls):
        return [out for _, out in sorted(calls, key=lambda call: call[0])]


class TestOracleBlocks:
    """Each chunk is scored and tested in blocks of at most ``_BLOCK_ROWS`` rows,
    with the bits of scoring the whole chunk at once."""

    # 3^11 = 177147 members: chunks of 65536, 65536 and 46075 rows. At d = 11
    # gemv rounds a row by its place in its group of 4 rows
    BOX = uniform_lattice(11, 1.0, -1.0, 1.0)
    # 2731 * 3 = 8193 members, one chunk: 8192-row blocks would leave a 1-row
    # tail. At d = 17 a 1-row product, and one of a few thousand rows, rounds
    # differently from the chunk's
    TAIL = DiscreteProductSet(
        (ScaledLattice(1.0, -1365.0, 1365.0), ExplicitGrid((-1.0, 0.3, 1.2)))
        + tuple(ExplicitGrid((0.1 * j + 0.05,)) for j in range(15))
    )

    @staticmethod
    def spy(dset, seed, at=None):
        """A spy on a random quadratic whose continuous minimizer is ``at``."""
        f = random_psd_quadratic(np.random.default_rng(seed), d=dset.dim)
        b = f.b if at is None else -f.Q @ at
        return _SpyQuadratic(f.Q, b)

    @pytest.mark.parametrize("oracle", ["brute_force_minimize", "enumerate_stationary_points"])
    def test_no_call_exceeds_a_block(self, oracle):
        f = self.spy(self.BOX, 24)
        if oracle == "brute_force_minimize":
            brute_force_minimize(f, self.BOX)
        else:
            enumerate_stationary_points(f, self.BOX, 0.1 * f.lipschitz_L)
        rows = [len(out) for _, out in f.values + f.gradients]
        assert sum(rows) == self.BOX.cardinality()
        assert 2 <= min(rows) and max(rows) <= analysis._BLOCK_ROWS, rows

    @pytest.mark.parametrize("dset", [BOX, TAIL], ids=["box", "tail"])
    def test_blocks_have_the_bits_of_whole_chunks(self, dset):
        # the minimizer is the last member, which a 1-row tail would score
        f = self.spy(dset, 25, at=dset.enumerate_members(start=dset.cardinality() - 1)[0])
        rho = 0.5 * f.lipschitz_L
        argmin, value = brute_force_minimize(f, dset)
        points = enumerate_stationary_points(f, dset, rho)
        # each whole chunk, scored at once
        plain, members = QuadraticObjective(f.Q, f.b), dset.enumerate_members()
        chunks = [members[a:b] for a, b in analysis._chunk_ranges(dset, len(members))]
        ref_vals = np.concatenate([plain.value_many(chunk) for chunk in chunks])
        ref_grads = np.vstack([plain.gradient_many(chunk) for chunk in chunks])
        for calls, ref in ((f.values, ref_vals), (f.gradients, ref_grads)):
            got = np.concatenate(f.in_row_order(calls))
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        i = int(np.argmin(ref_vals))
        assert (argmin.tolist(), repr(value)) == (members[i].tolist(), repr(float(ref_vals[i])))
        targets = members - ref_grads / rho
        gaps = np.abs(members - targets) - np.abs(dset.project_many(targets) - targets)
        np.testing.assert_array_equal(points, members[(gaps <= 1e-9).all(axis=1)])


@pytest.fixture
def cores(monkeypatch):
    """Set the core count the oracles see; returns the setter."""
    return lambda n: monkeypatch.setattr(analysis, "_cores", lambda: n)


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Chunks of 4 rows, each one block."""
    monkeypatch.setattr(analysis, "_EVAL_CHUNK", 4)
    monkeypatch.setattr(analysis, "_BLOCK_ROWS", 4)


class TestOracleThreads:
    """The oracles score and test their chunks on ``min(cores, chunks)`` threads."""

    LINE = uniform_lattice(1, 1.0, 0.0, 99.0)  # 100 members: 25 chunks of 4 rows

    @staticmethod
    def outputs(f, dset):
        argmin, value = brute_force_minimize(f, dset)
        points = enumerate_stationary_points(f, dset, 0.5 * f.lipschitz_L)
        return argmin.tolist(), repr(value), points.shape, points.tobytes()

    @pytest.mark.parametrize("chunk, dset", [(7, MIXED), (None, TestOracleBlocks.BOX)],
                             ids=["mixed-chunk7", "box"])
    def test_outputs_do_not_depend_on_the_thread_count(self, monkeypatch, cores, chunk, dset):
        if chunk is not None:
            monkeypatch.setattr(analysis, "_EVAL_CHUNK", chunk)
            monkeypatch.setattr(analysis, "_BLOCK_ROWS", 4)
        f = random_psd_quadratic(np.random.default_rng(26), d=dset.dim)
        got = []
        for n in (1, 2, 3):
            cores(n)
            got.append(self.outputs(f, dset))
        assert got[1] == got[0] and got[2] == got[0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_nan_in_two_chunks_raises_the_earlier_row(self, tiny_chunks, cores, n):
        cores(n)
        f = QuadraticObjective([[1.0]], [0.0])

        def value_many(X):
            if 6.0 in X:  # chunk 1 fails after chunk 3 does
                time.sleep(0.05)
            return np.where(np.isin(X[:, 0], (6.0, 13.0)), np.nan, X[:, 0])

        f.value_many = value_many
        with pytest.raises(ValueError, match=r"at member \[6\.0\] \(row 6\)$"):
            brute_force_minimize(f, self.LINE)

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflows_in_two_chunks_raise_the_earlier_row(self, tiny_chunks, cores, n):
        cores(n)
        f = QuadraticObjective([[1.0]], [0.0])

        def gradient_many(X):
            if 6.0 in X:  # chunk 1 fails after chunk 3 does
                time.sleep(0.05)
            return np.where(np.isin(X, (6.0, 13.0)), 1e308, X)

        f.gradient_many = gradient_many
        # 1e308 / rho overflows
        with pytest.raises(ValueError, match=r"at member \[6\.0\] \(row 6\)$"):
            enumerate_stationary_points(f, self.LINE, rho=0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("oracle", ["brute_force_minimize", "enumerate_stationary_points"])
    def test_a_failure_in_the_first_chunk_stops_the_rest(self, tiny_chunks, cores, n, oracle):
        cores(n)

        class Failing(_SpyQuadratic):
            """NaN values and overflowing gradients at 0, after a wait that
            leaves the other threads time to score every chunk they are given."""

            def value_many(self, X):
                if 0.0 in X:
                    time.sleep(0.05)
                return np.where(X[:, 0] == 0.0, np.nan, super().value_many(X))

            def gradient_many(self, X):
                if 0.0 in X:
                    time.sleep(0.05)
                return np.where(X == 0.0, 1e308, super().gradient_many(X))

        f = Failing([[1.0]], [0.0])
        with pytest.raises(ValueError, match=r"\(row 0\)$"):
            getattr(analysis, oracle)(*(f, self.LINE) if oracle == "brute_force_minimize"
                                      else (f, self.LINE, 0.5))
        scored = {first for first, _ in f.values + f.gradients}
        assert 1 <= len(scored) <= 2 * n, sorted(scored)  # of 25 chunks

    @pytest.mark.parametrize("oracle", ["brute_force_minimize", "enumerate_stationary_points"])
    def test_the_callers_error_state_holds_in_every_thread(self, tiny_chunks, cores, oracle):
        cores(2)
        f = QuadraticObjective([[1.0]], [0.0])
        # a division by 0 at member 50, in chunk 12
        f.value_many = lambda X: 1.0 / (X[:, 0] - 50.0)
        f.gradient_many = lambda X: 1.0 / (X - 50.0)
        args = (f, self.LINE) if oracle == "brute_force_minimize" else (f, self.LINE, 0.5)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            getattr(analysis, oracle)(*args)

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_thread_outlives_the_call(self, tiny_chunks, cores, fails):
        cores(2)
        f = _NanLeft() if fails else QuadraticObjective([[1.0]], [0.0])
        dset = uniform_lattice(1, 1.0, -2.0 if fails else 0.0, 97.0)
        before = threading.active_count()
        for call in (lambda: brute_force_minimize(f, dset),
                     lambda: enumerate_stationary_points(f, dset, rho=0.5)):
            try:
                call()
            except ValueError:
                assert fails
            assert threading.active_count() == before

    def test_one_chunk_or_one_core_starts_no_thread(self, monkeypatch, tiny_chunks, cores):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(analysis, "ThreadPoolExecutor", no_pool)
        f = QuadraticObjective([[1.0]], [0.0])
        for n, dset in ((4, uniform_lattice(1, 1.0, 0.0, 3.0)), (1, self.LINE)):
            cores(n)
            assert brute_force_minimize(f, dset)[1] == 0.0
            assert enumerate_stationary_points(f, dset, rho=0.5).tolist() == [[0.0]]



class TestOracleTraffic:
    """Each oracle builds each chunk once, at every thread count."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("oracle", ["brute_force_minimize", "enumerate_stationary_points"])
    def test_each_chunk_is_built_once(self, monkeypatch, tiny_chunks, cores, n, oracle):
        cores(n)
        dset = TestOracleThreads.LINE
        # the zero-row limit check, then each of the 25 chunks
        expected = sorted([(0, 0)] + analysis._chunk_ranges(dset, 100))
        built, enumerate_members = [], DiscreteProductSet.enumerate_members

        def spy(self, limit=10_000_000, start=0, stop=None):
            built.append((start, stop))
            return enumerate_members(self, limit, start, stop)

        monkeypatch.setattr(DiscreteProductSet, "enumerate_members", spy)
        f = QuadraticObjective([[1.0]], [0.0])
        getattr(analysis, oracle)(*(f, dset) if oracle == "brute_force_minimize" else (f, dset, 0.5))
        assert sorted(built) == expected

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

