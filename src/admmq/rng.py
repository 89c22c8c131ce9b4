"""Per-run random streams, and the two rules every module checks its numbers by.

Each solver run owns one 64-bit-seeded PCG64 stream; normal variates are
produced by Box-Muller over that stream. Fixed seed means a bit-identical
stream within this implementation (no cross-library guarantee).

Every module checks its counts, seeds included, with :func:`check_count` (an
integer of at least 0 or 1) and its real parameters with :func:`check_real`
(finite, and positive or non-negative).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["RunRng", "check_count", "check_real", "derive_seed"]


def check_count(value, name: str, least: int = 0) -> None:
    """Raise ValueError unless ``value`` is an ``Integral``, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(
            f"{name} must be a {'positive' if least else 'non-negative'} integer, got {value}")


def check_real(value, name: str, positive: bool = False) -> None:
    """Raise ValueError unless ``value`` is finite and positive, or non-negative if not positive."""
    if not (0 < value < math.inf if positive else 0 <= value < math.inf):
        raise ValueError(
            f"{name} must be {'positive' if positive else 'non-negative'} and finite, got {value}")


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
