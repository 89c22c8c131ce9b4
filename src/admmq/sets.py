"""Cartesian-product discrete constraint sets with exact coordinate-wise projection.

A feasible set is described per coordinate by one of three finite (or
countably infinite) scalar sets:

* :class:`Binary` -- the two-point set ``{-1, +1}``,
* :class:`ScaledLattice` -- multiples of a spacing ``v``, optionally boxed,
* :class:`ExplicitGrid` -- an arbitrary sorted list of reals.

Projection decomposes coordinate-wise, so it is exact and O(d) (O(d log m)
for grids) even when the product set has exponentially many members.

Tie rule (documented, deterministic): a binary coordinate at the exact
midpoint 0 projects to +1 (sign convention); lattice and grid coordinates at
an exact midpoint project to the smaller of the two nearest members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import check_count, check_real

__all__ = [
    "Binary",
    "ScaledLattice",
    "ExplicitGrid",
    "CoordinateSet",
    "DiscreteProductSet",
    "binary_set",
    "uniform_lattice",
]

# Relative slack used when mapping real bounds onto lattice indices, so that
# bounds that are "exact" multiples up to representation error are kept.
_BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class Binary:
    """The scalar set {-1, +1}. Ties at 0 break to +1."""

    def project_values(self, t: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(t, dtype=float) >= 0.0, 1.0, -1.0)

    def members(self) -> np.ndarray:
        return np.array([-1.0, 1.0])

    def cardinality(self) -> float:
        return 2

    def sup_distance(self) -> float:
        """Supremum over the real line of the distance to the set."""
        return math.inf

    def init_scale(self) -> float:
        return 1.0

    def to_dict(self) -> dict:
        return {"kind": "binary"}


@dataclass(frozen=True)
class ScaledLattice:
    """Multiples of ``v`` inside ``[a, b]``; ``None`` bounds are unbounded.

    Members are ``{v*k : k integer, a <= v*k <= b}``.
    """

    v: float
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        check_real(self.v, "lattice spacing", positive=True)
        for name, bound in (("a", self.a), ("b", self.b)):
            if bound is not None and not math.isfinite(bound):
                raise ValueError(f"bound {name} must be finite or None, got {bound}")
        if self.a is not None and self.b is not None:
            if self.a > self.b:
                raise ValueError(f"lower bound {self.a} exceeds upper bound {self.b}")
            if self._k_min() > self._k_max():
                raise ValueError(
                    f"no multiple of {self.v} lies in [{self.a}, {self.b}]"
                )

    def _k_min(self) -> float:
        if self.a is None:
            return -math.inf
        q = self.a / self.v
        return math.ceil(q - _BOUND_RTOL * (1.0 + abs(q)))

    def _k_max(self) -> float:
        if self.b is None:
            return math.inf
        q = self.b / self.v
        return math.floor(q + _BOUND_RTOL * (1.0 + abs(q)))

    def project_values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        # round half down: exact midpoints go to the smaller multiple
        k = np.ceil(t / self.v - 0.5)
        if self.a is None and self.b is None:
            return self.v * k
        # not np.clip, which is slower with scalar bounds and, unlike with
        # array bounds, lets -0.0 past a bound of 0
        k = np.minimum(np.maximum(k, self._k_min()), self._k_max())
        return self.v * k

    def members(self) -> np.ndarray:
        if self.a is None or self.b is None:
            raise ValueError("cannot enumerate an unbounded lattice coordinate")
        return self.v * np.arange(self._k_min(), self._k_max() + 1)

    def cardinality(self) -> float:
        if self.a is None or self.b is None:
            return math.inf
        return int(self._k_max() - self._k_min()) + 1

    def sup_distance(self) -> float:
        if self.a is None and self.b is None:
            return self.v / 2.0
        return math.inf

    def init_scale(self) -> float:
        return self.v

    def to_dict(self) -> dict:
        return {"kind": "lattice", "v": self.v, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class ExplicitGrid:
    """A finite sorted set of distinct reals. Ties break to the smaller value."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("grid needs at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        if vals.size > 1 and not np.all(np.diff(vals) > 0):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def project_values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        vals = np.asarray(self.values)
        idx = np.searchsorted(vals, t)
        lo = np.clip(idx - 1, 0, vals.size - 1)
        hi = np.clip(idx, 0, vals.size - 1)
        # <= keeps the smaller member on exact midpoints
        take_lo = np.abs(t - vals[lo]) <= np.abs(vals[hi] - t)
        return np.where(take_lo, vals[lo], vals[hi])

    def members(self) -> np.ndarray:
        return np.asarray(self.values)

    def cardinality(self) -> float:
        return len(self.values)

    def sup_distance(self) -> float:
        return math.inf

    def init_scale(self) -> float:
        return 1.0

    def to_dict(self) -> dict:
        return {"kind": "grid", "values": list(self.values)}


CoordinateSet = Union[Binary, ScaledLattice, ExplicitGrid]


def _coord_from_dict(d: dict) -> CoordinateSet:
    kind = d.get("kind")
    if kind == "binary":
        return Binary()
    if kind == "lattice":
        return ScaledLattice(v=float(d["v"]), a=d.get("a"), b=d.get("b"))
    if kind == "grid":
        return ExplicitGrid(values=tuple(d["values"]))
    raise ValueError(f"unknown coordinate-set kind: {kind!r}")


@dataclass(frozen=True)
class DiscreteProductSet:
    """Cartesian product of per-coordinate scalar sets."""

    coords: tuple[CoordinateSet, ...]

    def __post_init__(self):
        if len(self.coords) == 0:
            raise ValueError("product set needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(self.coords))
        # projection is on solver hot paths: equal scalar sets (frozen, so
        # hashable) form one group that projects in one vectorized call
        groups: dict[CoordinateSet, list[int]] = {}
        for i, c in enumerate(self.coords):
            groups.setdefault(c, []).append(i)
        object.__setattr__(
            self, "_groups", tuple((c, np.array(idx)) for c, idx in groups.items())
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check_point(self, x, name: str = "x") -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"{name} has shape {x.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} must be finite")
        return x

    def _project(self, X: np.ndarray) -> np.ndarray:
        """Projection of the last axis of ``X``, one call per coordinate group."""
        if len(self._groups) == 1:
            return self._groups[0][0].project_values(X)
        out = np.empty(X.shape)
        for c, idx in self._groups:
            out[..., idx] = c.project_values(X[..., idx])
        return out

    def project(self, x) -> np.ndarray:
        """Coordinate-wise nearest member of the set (documented tie rule)."""
        return self._project(self._check_point(x))

    def project_many(self, X: np.ndarray) -> np.ndarray:
        """Row-wise projection of an (n, dim) array; non-finite rows are the caller's to catch."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) array, got {X.shape}")
        return self._project(X)

    def soft_indicator(self, x) -> float:
        """Euclidean distance from ``x`` to the set."""
        x = self._check_point(x)
        return float(np.linalg.norm(x - self.project(x)))

    def contains(self, x, tol: float = 0.0) -> bool:
        check_real(tol, "tol")
        x = self._check_point(x)
        return bool(np.max(np.abs(x - self.project(x)), initial=0.0) <= tol)

    def cardinality(self) -> float:
        n = 1
        for c in self.coords:
            m = c.cardinality()
            if math.isinf(m):
                return math.inf
            n *= m
        return n

    def enumerate_members(
        self, limit: int = 10_000_000, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Rows ``[start, stop)`` of all members in lexicographic order, as an (n, dim) array.

        With no range, every member. Memory is O((stop - start) * dim), and
        any split of the rows into ranges gives, stacked, the same array as
        one call. Fails, before allocating, if ``limit`` is not a count, if any
        coordinate is unbounded, if the product cardinality exceeds ``limit``,
        or if the range is not inside ``[0, cardinality]``.
        """
        check_count(limit, "limit")
        counts = []
        for i, c in enumerate(self.coords):
            m = c.cardinality()
            if math.isinf(m):
                raise ValueError(f"coordinate {i} is unbounded; cannot enumerate")
            counts.append(int(m))
        total = math.prod(counts)
        if total > limit:
            raise ValueError(f"set has {total} members, exceeding limit {limit}")
        stop = total if stop is None else stop
        if not 0 <= start <= stop <= total:
            raise ValueError(f"rows [{start}, {stop}) are not within the {total} members")
        n = stop - start
        # the trailing coordinates whose product fits in n rows, k on, make a
        # table that repeats down the rows with period `period`
        k, period = self.dim, 1
        while k > 0 and period * counts[k - 1] <= n:
            k -= 1
            period *= counts[k]
        table = np.empty((period, self.dim - k))
        for j, c in enumerate(self.coords[k:], start=k):
            inner, outer = math.prod(counts[j + 1 :]), math.prod(counts[k:j])
            table[:, j - k] = np.tile(np.repeat(c.members(), inner), outer)
        if k == 0:
            return table  # the whole set
        out = np.empty((n, self.dim))
        # the first period from at most two slices of the table, then doubling
        first, head = start % period, min(n, period)
        wrap = min(head, period - first)
        out[:wrap, k:] = table[first : first + wrap]
        out[wrap:head, k:] = table[: head - wrap]
        while head < n:
            m = min(head, n - head)
            out[head : head + m, k:] = out[:m, k:]
            head += m
        # a leading coordinate is constant over runs of `period` rows or more
        inner = period
        for i in range(k - 1, -1, -1):
            runs = np.arange(start // inner, (stop - 1) // inner + 1)
            lengths = np.minimum((runs + 1) * inner, stop) - np.maximum(runs * inner, start)
            out[:, i] = np.repeat(self.coords[i].members()[runs % counts[i]], lengths)
            inner *= counts[i]
        return out

    def covering_radius(self) -> float:
        """Supremum over R^d of the distance to the set (inf unless every
        coordinate is an unbounded lattice)."""
        sq = 0.0
        for c in self.coords:
            s = c.sup_distance()
            if math.isinf(s):
                return math.inf
            sq += s * s
        return math.sqrt(sq)

    def init_scales(self) -> np.ndarray:
        return np.array([c.init_scale() for c in self.coords])

    def to_dict(self) -> dict:
        return {"coords": [c.to_dict() for c in self.coords]}

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteProductSet":
        return cls(coords=tuple(_coord_from_dict(c) for c in d["coords"]))


def binary_set(dim: int) -> DiscreteProductSet:
    """{-1, +1}^dim."""
    return DiscreteProductSet(coords=tuple(Binary() for _ in range(dim)))


def uniform_lattice(
    dim: int, v: float, a: float | None = None, b: float | None = None
) -> DiscreteProductSet:
    """(v Z)^dim, optionally boxed to [a, b] in every coordinate."""
    return DiscreteProductSet(coords=tuple(ScaledLattice(v, a, b) for _ in range(dim)))
