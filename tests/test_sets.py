import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_project, random_product_set
from admmq.sets import (
    Binary,
    DiscreteProductSet,
    ExplicitGrid,
    ScaledLattice,
    binary_set,
    uniform_lattice,
)


class TestProject:
    def test_binary_sign_convention(self):
        # ties at 0 go to +1
        dset = binary_set(3)
        np.testing.assert_array_equal(
            dset.project([0.3, -0.2, 0.0]), [1.0, -1.0, 1.0]
        )

    def test_bounded_lattice_clamps(self):
        dset = uniform_lattice(1, v=1.0, a=0.0, b=3.0)
        np.testing.assert_array_equal(dset.project([5.2]), [3.0])
        np.testing.assert_array_equal(dset.project([-2.7]), [0.0])

    def test_one_sided_lattice_clamps_one_side(self):
        t = np.array([-7.1, 2.9, 10.0])
        np.testing.assert_array_equal(ScaledLattice(2.0, b=3.0).project_values(t), [-8.0, 2.0, 2.0])
        np.testing.assert_array_equal(ScaledLattice(2.0, a=-3.0).project_values(t), [-2.0, 2.0, 10.0])

    def test_lattice_midpoint_breaks_down(self):
        dset = uniform_lattice(1, v=8.0)
        np.testing.assert_array_equal(dset.project([4.0]), [0.0])
        np.testing.assert_array_equal(dset.project([-4.0]), [-8.0])

    def test_unbounded_lattice_rounds(self):
        dset = uniform_lattice(2, v=8.0)
        np.testing.assert_array_equal(dset.project([12.1, -3.9]), [16.0, 0.0])

    def test_grid_midpoint_prefers_smaller(self):
        dset = DiscreteProductSet(coords=(ExplicitGrid(values=(-1.0, 0.0, 2.0)),))
        np.testing.assert_array_equal(dset.project([1.0]), [0.0])
        np.testing.assert_array_equal(dset.project([1.0000001]), [2.0])

    def test_bounds_need_not_be_multiples(self):
        dset = uniform_lattice(1, v=1.0, a=0.5, b=3.2)
        np.testing.assert_array_equal(dset.project([0.2]), [1.0])
        np.testing.assert_array_equal(dset.project([9.9]), [3.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            binary_set(2).project([1.0, 1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            binary_set(2).project([np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            uniform_lattice(1, 1.0).project([np.inf])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dset = random_product_set(rng, max_members=2000)
            for _ in range(10):
                x = rng.normal(size=dset.dim) * 5
                np.testing.assert_array_equal(dset.project(x), oracle_project(dset, x))

    def test_project_many_matches_project(self):
        rng = np.random.default_rng(3)
        dset = random_product_set(rng)
        X = rng.normal(size=(17, dset.dim)) * 4
        batched = dset.project_many(X)
        for i, row in enumerate(X):
            np.testing.assert_array_equal(batched[i], dset.project(row))

    def test_repeated_coordinate_sets_at_scattered_positions(self):
        grid = ExplicitGrid(values=(-2.0, -0.5, 0.0, 1.5, 3.0))
        fine = ScaledLattice(0.5, -40.0, 40.0)
        coarse = ScaledLattice(2.0, -40.0, 40.0)
        boxed = ScaledLattice(1.0, 0.0, 3.0)
        dset = DiscreteProductSet(coords=(
            grid, Binary(), fine, grid, Binary(), coarse, boxed, grid, fine, Binary(), boxed,
        ))
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, dset.dim)) * 4
        X[0] = 0.0
        X[1] = [-0.25, 0.0, 0.25, 0.75, -1e-12, 1.0, 0.5, 2.25, -0.75, 0.0, 3.5]  # ties
        batched = dset.project_many(X)
        for i, row in enumerate(X):
            want = oracle_project(dset, row)
            np.testing.assert_array_equal(dset.project(row), want)
            np.testing.assert_array_equal(batched[i], want)


@st.composite
def lattice_sets(draw):
    dim = draw(st.integers(1, 4))
    v = draw(st.sampled_from([0.25, 1.0, 3.0, 8.0]))
    return uniform_lattice(dim, v)


class TestProjectionProperties:
    @given(lattice_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, dset, data):
        x = np.array(
            data.draw(
                st.lists(
                    st.floats(-50, 50, allow_nan=False),
                    min_size=dset.dim,
                    max_size=dset.dim,
                )
            )
        )
        p = dset.project(x)
        np.testing.assert_array_equal(dset.project(p), p)

    @given(lattice_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_output_is_member(self, dset, data):
        x = np.array(
            data.draw(
                st.lists(
                    st.floats(-50, 50, allow_nan=False),
                    min_size=dset.dim,
                    max_size=dset.dim,
                )
            )
        )
        assert dset.contains(dset.project(x))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_contains_rejects_a_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="^tol must be non-negative and finite"):
            uniform_lattice(1, 1.0).contains([0.4], tol=tol)

    def test_tie_determinism(self):
        dset = uniform_lattice(3, v=2.0)
        mid = np.array([1.0, -1.0, 3.0])  # all exact midpoints
        first = dset.project(mid)
        for _ in range(5):
            np.testing.assert_array_equal(dset.project(mid), first)


class TestSoftIndicator:
    def test_binary_center(self):
        assert binary_set(2).soft_indicator([0.0, 0.0]) == pytest.approx(math.sqrt(2))

    def test_vanishes_on_members(self):
        rng = np.random.default_rng(11)
        dset = random_product_set(rng)
        for member in dset.enumerate_members()[:50]:
            assert dset.soft_indicator(member) == 0.0

    def test_lattice_distance(self):
        assert uniform_lattice(1, 8.0).soft_indicator([12.1]) == pytest.approx(3.9)

    def test_equals_min_over_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dset = random_product_set(rng, max_members=500)
            members = dset.enumerate_members()
            x = rng.normal(size=dset.dim) * 4
            direct = np.min(np.linalg.norm(members - x, axis=1))
            assert dset.soft_indicator(x) == pytest.approx(direct, rel=1e-12)


class TestEnumerate:
    def test_binary_1d(self):
        np.testing.assert_array_equal(
            binary_set(1).enumerate_members(), [[-1.0], [1.0]]
        )

    def test_small_lattice(self):
        dset = uniform_lattice(1, v=1.0, a=-1.0, b=1.0)
        np.testing.assert_array_equal(
            dset.enumerate_members(), [[-1.0], [0.0], [1.0]]
        )

    def test_binary_2d_lexicographic(self):
        members = binary_set(2).enumerate_members()
        np.testing.assert_array_equal(
            members, [[-1, -1], [-1, 1], [1, -1], [1, 1]]
        )

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            uniform_lattice(2, 1.0).enumerate_members()

    def test_limit_enforced(self):
        dset = binary_set(10)
        with pytest.raises(ValueError, match="limit"):
            dset.enumerate_members(limit=1023)
        assert dset.enumerate_members(limit=1024).shape == (1024, 10)

    @pytest.mark.parametrize(
        "dset, limit",
        [(uniform_lattice(12, 1.0, -10.0, 10.0), math.nan),
         (uniform_lattice(1, 1.0, 0.0, 0.0), True)],
        ids=["nan", "true"],
    )
    def test_limit_is_a_count(self, dset, limit):
        # NaN compares false with any size, and True would act as 1
        with pytest.raises(ValueError, match=f"^limit must be a non-negative integer, got {limit}"):
            dset.enumerate_members(limit=limit, start=0, stop=0)

    def test_members_unique(self):
        rng = np.random.default_rng(13)
        dset = random_product_set(rng, max_members=600)
        members = dset.enumerate_members()
        assert len(np.unique(members, axis=0)) == members.shape[0]
        assert members.shape[0] == dset.cardinality()


@st.composite
def finite_sets_and_ranges(draw):
    """A small finite product set of every coordinate kind and a row range
    ``0 <= start <= stop <= cardinality``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dset = random_product_set(rng, max_members=400)
    total = int(dset.cardinality())
    start = draw(st.integers(0, total))
    stop = draw(st.one_of(st.just(start), st.just(total), st.integers(start, total)))
    return dset, start, stop


class TestEnumerateRange:
    @given(finite_sets_and_ranges())
    @settings(max_examples=200, deadline=None)
    def test_range_is_a_slice_of_the_full_array(self, case):
        dset, start, stop = case
        got = dset.enumerate_members(start=start, stop=stop)
        assert got.shape == (stop - start, dset.dim)
        np.testing.assert_array_equal(got, dset.enumerate_members()[start:stop])

    def test_long_coordinates_and_leading_runs(self):
        # 2 x 1 x 40 x 3 members: the 40-value coordinate changes every 3 rows,
        # so a range of 100 rows holds up to 35 runs of it
        dset = DiscreteProductSet((Binary(), ExplicitGrid((4.0,)), ScaledLattice(0.5, -10.0, 9.5),
                                   ExplicitGrid((-1.0, 0.0, 7.0))))
        full = dset.enumerate_members()
        assert full.shape == (2 * 40 * 3, 4)
        for start, stop in [(0, 1), (5, 105), (59, 200), (119, 121), (100, 240), (240, 240)]:
            np.testing.assert_array_equal(dset.enumerate_members(start=start, stop=stop),
                                          full[start:stop])

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, 5), (5, 5), (0, -1)])
    def test_range_outside_the_set(self, start, stop):
        with pytest.raises(ValueError, match=r"^rows \[.*\) are not within the 4 members$"):
            binary_set(2).enumerate_members(start=start, stop=stop)

    def test_checks_precede_the_range(self):
        with pytest.raises(ValueError, match="unbounded"):
            uniform_lattice(2, 1.0).enumerate_members(start=0, stop=1)
        with pytest.raises(ValueError, match="limit"):
            binary_set(10).enumerate_members(limit=100, start=0, stop=1)


class TestValidation:
    def test_lattice_needs_positive_spacing(self):
        for v in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                ScaledLattice(v=v)

    def test_lattice_bounds_ordered(self):
        with pytest.raises(ValueError, match="exceeds"):
            ScaledLattice(v=1.0, a=2.0, b=1.0)

    def test_lattice_must_be_nonempty(self):
        with pytest.raises(ValueError, match="no multiple"):
            ScaledLattice(v=8.0, a=1.0, b=7.0)

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            ExplicitGrid(values=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            ExplicitGrid(values=(1.0, 0.0))
        with pytest.raises(ValueError):
            ExplicitGrid(values=())

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            DiscreteProductSet(coords=())


class TestSerialization:
    def test_round_trip(self):
        dset = DiscreteProductSet(
            coords=(
                Binary(),
                ScaledLattice(v=8.0),
                ScaledLattice(v=1.0, a=-2.0, b=2.0),
                ExplicitGrid(values=(-1.5, 0.0, 0.25)),
            )
        )
        again = DiscreteProductSet.from_dict(json.loads(json.dumps(dset.to_dict())))
        assert again == dset

    def test_schema_shape(self):
        d = json.loads(json.dumps(uniform_lattice(1, 8.0).to_dict()))
        assert d == {"coords": [{"kind": "lattice", "v": 8.0, "a": None, "b": None}]}
        assert binary_set(1).to_dict() == {"coords": [{"kind": "binary"}]}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DiscreteProductSet.from_dict({"coords": [{"kind": "mystery"}]})


class TestGeometry:
    def test_covering_radius_unbounded_lattice(self):
        assert uniform_lattice(4, 8.0).covering_radius() == pytest.approx(4.0 * 2.0)

    def test_covering_radius_infinite_for_bounded(self):
        assert math.isinf(binary_set(2).covering_radius())
        assert math.isinf(uniform_lattice(1, 1.0, a=0.0, b=5.0).covering_radius())

    def test_init_scales(self):
        dset = DiscreteProductSet(
            coords=(Binary(), ScaledLattice(v=8.0), ExplicitGrid(values=(0.0, 1.0)))
        )
        np.testing.assert_array_equal(dset.init_scales(), [1.0, 8.0, 1.0])
