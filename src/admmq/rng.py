"""Per-run random streams.

Each solver run owns one 64-bit-seeded PCG64 stream; normal variates are
produced by Box-Muller over that stream. Fixed seed means a bit-identical
stream within this implementation (no cross-library guarantee).
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["RunRng", "check_seed", "derive_seed", "is_count"]


def is_count(value) -> bool:
    """A count is an ``Integral`` that is not a ``bool``, which JSON ``true`` would be."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Reject what numpy's seeding cannot take: a seed is a non-negative integer."""
    if not is_count(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


class RunRng:
    """Seeded stream supplying normals and Bernoulli masks."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        m = (n + 1) // 2
        u1 = 1.0 - self._gen.random(m)  # (0, 1], keeps log finite
        u2 = self._gen.random(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:n]

    def bernoulli(self, p: float, n) -> np.ndarray:
        """Boolean array of independent Bernoulli(p) draws; ``n`` is a count or a shape.

        The stream fills a shape row by row, so ``bernoulli(p, (k, m))`` gives
        the bits of k successive ``bernoulli(p, m)`` calls.
        """
        return self._gen.random(n) < p


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit sub-seed from integer parts (e.g. run index)."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
