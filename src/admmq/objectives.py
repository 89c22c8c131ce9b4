"""Smooth objectives: the contract plus built-in quadratic and logistic losses.

Every objective exposes ``value``/``gradient`` together with two analysis
constants: ``lipschitz_L`` (a Lipschitz constant of the gradient) and
``weak_convexity_mu`` (the smallest ``mu >= 0`` making ``f + mu/2 ||x||^2``
convex). All solver parameter thresholds are stated in terms of these two
numbers, so built-in objectives compute them instead of trusting the caller.
"""

from __future__ import annotations

import abc
import math

import numpy as np
from scipy.special import expit

__all__ = [
    "SmoothObjective",
    "QuadraticObjective",
    "LogisticObjective",
    "synthetic_logistic",
]


class SmoothObjective(abc.ABC):
    """Contract for a differentiable objective with known smoothness constants.

    A subclass defines ``value`` and ``gradient``. The ``*_rows`` methods
    repeat them bit for bit; ``value_many`` and ``gradient_many`` default to
    those, and an override of them may sum in another order.

    Attributes:
        dim: dimension of the argument vector.
        lipschitz_L: Lipschitz constant of the gradient.
        weak_convexity_mu: weak-convexity modulus (0 for convex objectives).
    """

    dim: int
    lipschitz_L: float
    weak_convexity_mu: float

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    @abc.abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """Objective at each row of an (n, dim) array. Default: ``value_rows``."""
        return self.value_rows(np.asarray(X, dtype=float))

    def gradient_many(self, X: np.ndarray) -> np.ndarray:
        return self.gradient_rows(np.asarray(X, dtype=float))

    def value_rows(self, X: np.ndarray) -> np.ndarray:
        """``value`` of each row of an (n, dim) array, bit for bit. Default: loop.

        Unlike ``value_many``, which may sum in another order, this is what
        a batched solver scores with, so that a batch reproduces single runs.
        """
        return np.array([self.value(row) for row in X], dtype=float)

    def gradient_rows(self, X: np.ndarray) -> np.ndarray:
        """``gradient`` of each row of an (n, dim) array, bit for bit. Default: loop."""
        return np.stack([self.gradient(row) for row in X])

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"argument has shape {x.shape}, expected ({self.dim},)")
        return x


class QuadraticObjective(SmoothObjective):
    """f(x) = 1/2 x'Qx + b'x + c with symmetric Q.

    ``lipschitz_L`` is the spectral norm of Q and ``weak_convexity_mu`` is
    ``max(0, -lambda_min(Q))``; both come from a symmetric eigendecomposition.
    """

    def __init__(self, Q, b, c: float = 0.0):
        Q = np.asarray(Q, dtype=float)
        b = np.asarray(b, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if b.shape != (Q.shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({Q.shape[0]},)")
        c = float(c)
        for name, arr in (("Q", Q), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        with np.errstate(over="ignore"):  # entries near the largest double
            asym = np.max(np.abs(Q - Q.T), initial=0.0)
            if asym > 1e-8 * (1.0 + np.max(np.abs(Q), initial=0.0)):
                raise ValueError("Q must be symmetric")
            self.Q = 0.5 * (Q + Q.T)  # exact symmetry
        if not np.all(np.isfinite(self.Q)):
            raise ValueError("Q overflows a double when symmetrized")
        self.b = b
        self.c = c
        self.dim = Q.shape[0]
        try:
            eigs = np.linalg.eigvalsh(self.Q)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"eigendecomposition of Q failed: {exc}") from exc
        if not np.all(np.isfinite(eigs)):
            raise ValueError("the eigenvalues of Q overflow a double")
        self.lipschitz_L = max(abs(float(eigs[0])), abs(float(eigs[-1])))
        self.weak_convexity_mu = max(0.0, -float(eigs[0]))

    def value(self, x) -> float:
        x = self._check_dim(x)
        return 0.5 * float(x @ self.Q @ x) + float(self.b @ x) + self.c

    def gradient(self, x) -> np.ndarray:
        x = self._check_dim(x)
        return self.Q @ x + self.b

    def value_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return 0.5 * np.einsum("ij,ij->i", X @ self.Q, X) + X @ self.b + self.c

    def gradient_many(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.Q + self.b

    # A stacked matmul makes one matrix-vector product per row and vecdot
    # one dot product per row, the BLAS calls of ``value`` and ``gradient``;
    # ``X @ Q`` would be one matrix product, whose rows can differ in the
    # last bit.
    def value_rows(self, X) -> np.ndarray:
        out = np.vecdot(np.matmul(X[:, None], self.Q)[:, 0], X)
        out *= 0.5
        out += np.vecdot(X, self.b)
        out += self.c
        return out

    def gradient_rows(self, X) -> np.ndarray:
        n, d = X.shape
        return np.matmul(self.Q, X.reshape(n, d, 1)).reshape(n, d) + self.b

    def to_dict(self) -> dict:
        d = {"Q": self.Q.tolist(), "b": self.b.tolist()}
        if self.c != 0.0:
            d["c"] = self.c
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "QuadraticObjective":
        return cls(Q=d["Q"], b=d["b"], c=d.get("c", 0.0))


class LogisticObjective(SmoothObjective):
    """Mean logistic loss of a linear classifier with +-1 labels.

    f(w) = (1/N) sum_i log(1 + exp(-y_i <w, x_i>)), computed overflow-safely.
    Convex, so mu = 0; L = lambda_max(X'X) / (4N). The rows ``y_i x_i`` are
    kept once; a sign flip is exact, so their products keep the bits of
    flipping the signs of products with X.
    """

    def __init__(self, features, labels):
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"features must be 2-D with at least one row, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must all be -1 or +1")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        self.features = X
        self.labels = y
        self._signed = y[:, None] * X
        self.n_samples, self.dim = X.shape
        with np.errstate(over="ignore", invalid="ignore"):  # entries near the largest double
            gram = X.T @ X
            top = np.linalg.eigvalsh(gram)[-1] if np.all(np.isfinite(gram)) else np.inf
        self.lipschitz_L = float(top) / (4.0 * self.n_samples)
        if not math.isfinite(self.lipschitz_L):
            raise ValueError("the Lipschitz constant of the gradient overflows a double")
        self.weak_convexity_mu = 0.0

    def _margins(self, w) -> np.ndarray:
        return self._signed @ w

    def value(self, w) -> float:
        w = self._check_dim(w)
        return float(np.mean(np.logaddexp(0.0, -self._margins(w))))

    def gradient(self, w) -> np.ndarray:
        w = self._check_dim(w)
        s = expit(-self._margins(w))  # sigma(-y_i <w, x_i>)
        return -(self._signed.T @ s) / self.n_samples

    def value_many(self, W) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        return np.mean(np.logaddexp(0.0, -(W @ self._signed.T)), axis=1)

    @classmethod
    def from_csv(cls, path) -> "LogisticObjective":
        """Load from CSV whose first column is the +-1 label."""
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(features=data[:, 1:], labels=data[:, 0])


def synthetic_logistic(
    n_samples: int, dim: int, seed: int = 0, shift: float = 0.15
) -> LogisticObjective:
    """Two-Gaussian classification data for the binarized-regression demo.

    Class means are at +-``shift`` per feature, so the classes overlap and
    the unconstrained minimizer is finite.
    """
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n_samples) < 0.5, 1.0, -1.0)
    features = rng.standard_normal((n_samples, dim)) + shift * labels[:, None]
    return LogisticObjective(features=features, labels=labels)
