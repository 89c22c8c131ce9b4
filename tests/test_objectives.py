import json
import math

import numpy as np
import pytest

from conftest import fd_gradient, random_psd_quadratic
from admmq.objectives import (
    LogisticObjective,
    QuadraticObjective,
    synthetic_logistic,
)


class TestQuadratic:
    def test_hand_value(self):
        f = QuadraticObjective(Q=2 * np.eye(2), b=[-1.2, 2.6])
        assert f.value([1.0, -1.0]) == pytest.approx(-1.8)

    def test_value_at_origin_is_constant_term(self):
        f = QuadraticObjective(Q=2 * np.eye(2), b=[-1.2, 2.6])
        assert f.value([0.0, 0.0]) == 0.0
        g = QuadraticObjective(Q=[[1.0]], b=[0.0], c=0.25)
        assert g.value([0.0]) == 0.25

    def test_1d_value(self):
        f = QuadraticObjective(Q=[[1.0]], b=[0.0])
        assert f.value([3.0]) == pytest.approx(4.5)

    def test_hand_gradient(self):
        f = QuadraticObjective(Q=2 * np.eye(2), b=[-1.2, 2.6])
        np.testing.assert_allclose(f.gradient([1.0, -1.0]), [0.8, 0.6])
        np.testing.assert_allclose(f.gradient([0.0, 0.0]), f.b)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        f = random_psd_quadratic(rng, d=4)
        for _ in range(5):
            x = rng.normal(size=4) * 3
            g = f.gradient(x)
            approx = fd_gradient(f, x)
            np.testing.assert_allclose(approx, g, rtol=1e-6, atol=1e-6)

    def test_batched_evaluations(self):
        rng = np.random.default_rng(1)
        f = random_psd_quadratic(rng, d=3)
        X = rng.normal(size=(9, 3))
        np.testing.assert_allclose(f.value_many(X), [f.value(row) for row in X])
        np.testing.assert_allclose(
            f.gradient_many(X), np.stack([f.gradient(row) for row in X])
        )

    def test_dimension_mismatch(self):
        f = QuadraticObjective(Q=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            f.value([1.0])
        with pytest.raises(ValueError):
            f.gradient([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            QuadraticObjective(Q=np.eye(2), b=np.zeros(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticObjective(Q=[[1.0, 2.0], [0.0, 1.0]], b=[0.0, 0.0])

    @pytest.mark.parametrize("field", ["Q", "b", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        args = {"Q": np.eye(2), "b": np.zeros(2), "c": 0.0}
        if field == "c":
            args["c"] = bad
        else:
            args[field] = args[field].copy()
            args[field].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            QuadraticObjective(**args)

    def test_json_round_trip(self):
        f = QuadraticObjective(Q=[[2.0, 0.5], [0.5, 1.0]], b=[1.0, -1.0], c=0.08)
        g = QuadraticObjective.from_dict(json.loads(json.dumps(f.to_dict())))
        np.testing.assert_array_equal(g.Q, f.Q)
        np.testing.assert_array_equal(g.b, f.b)
        assert g.c == f.c


class TestConstants:
    def test_diagonal_psd(self):
        f = QuadraticObjective(Q=np.diag([1.0, 5.0]), b=np.zeros(2))
        assert (f.lipschitz_L, f.weak_convexity_mu) == (5.0, 0.0)

    def test_diagonal_indefinite(self):
        f = QuadraticObjective(Q=np.diag([-1.0, 3.0]), b=np.zeros(2))
        L, mu = f.lipschitz_L, f.weak_convexity_mu
        assert L == pytest.approx(3.0)
        assert mu == pytest.approx(1.0)

    def test_generated_instances_are_convex(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = random_psd_quadratic(rng, d=5)
            L, mu = f.lipschitz_L, f.weak_convexity_mu
            assert mu == 0.0
            assert L > 0

    def test_mu_never_exceeds_L(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            f = QuadraticObjective(Q=A + A.T, b=rng.normal(size=4))
            L, mu = f.lipschitz_L, f.weak_convexity_mu
            assert mu <= L + 1e-12

    def test_lipschitz_bound_on_random_pairs(self):
        rng = np.random.default_rng(4)
        f = random_psd_quadratic(rng, d=6)
        L = f.lipschitz_L
        for _ in range(1000):
            x, y = rng.normal(size=6), rng.normal(size=6)
            lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
            assert lhs <= L * np.linalg.norm(x - y) + 1e-10

    def test_descent_inequality(self):
        rng = np.random.default_rng(5)
        f = random_psd_quadratic(rng, d=4)
        L = f.lipschitz_L
        for _ in range(200):
            x, y = rng.normal(size=4) * 2, rng.normal(size=4) * 2
            gap = f.value(x) - f.value(y) - f.gradient(y) @ (x - y)
            assert gap <= 0.5 * L * np.linalg.norm(x - y) ** 2 + 1e-9

    def test_weak_convexity_midpoints(self):
        # f(x) + mu/2 ||x||^2 must be midpoint convex along random segments
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 4))
        f = QuadraticObjective(Q=A + A.T, b=rng.normal(size=4))
        mu = f.weak_convexity_mu

        def reg(x):
            return f.value(x) + 0.5 * mu * float(x @ x)

        for _ in range(200):
            x, y = rng.normal(size=4) * 2, rng.normal(size=4) * 2
            mid = 0.5 * (x + y)
            assert reg(mid) <= 0.5 * reg(x) + 0.5 * reg(y) + 1e-9


class TestLogistic:
    def _small(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 1.0]])
        y = np.array([1.0, -1.0, 1.0])
        return LogisticObjective(features=X, labels=y)

    def test_zero_weights_give_log2(self):
        f = self._small()
        assert f.value(np.zeros(2)) == pytest.approx(math.log(2))

    def test_single_sample_gradient(self):
        f = LogisticObjective(features=[[1.0]], labels=[1.0])
        np.testing.assert_allclose(f.gradient([0.0]), [-0.5])

    def test_gradient_matches_finite_differences(self):
        f = synthetic_logistic(40, 5, seed=1)
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.normal(size=5)
            np.testing.assert_allclose(
                fd_gradient(f, w), f.gradient(w), rtol=1e-5, atol=1e-8
            )

    def test_overflow_safe(self):
        f = LogisticObjective(features=[[1.0]], labels=[1.0])
        assert f.value([1000.0]) == pytest.approx(0.0, abs=1e-12)
        assert f.value([-1000.0]) == pytest.approx(1000.0)
        assert np.isfinite(f.gradient([-1000.0])).all()

    def test_labels_validated(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            LogisticObjective(features=[[1.0]], labels=[0.5])

    def test_convex_with_standard_smoothness_bound(self):
        f = synthetic_logistic(100, 4, seed=2)
        L, mu = f.lipschitz_L, f.weak_convexity_mu
        assert mu == 0.0
        gram_top = np.linalg.eigvalsh(f.features.T @ f.features)[-1]
        assert L == pytest.approx(gram_top / (4 * 100))

    def test_lipschitz_bound_holds(self):
        f = synthetic_logistic(60, 3, seed=3)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            x, y = rng.normal(size=3) * 2, rng.normal(size=3) * 2
            lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
            assert lhs <= f.lipschitz_L * np.linalg.norm(x - y) + 1e-10

    def test_value_many(self):
        f = self._small()
        W = np.random.default_rng(9).normal(size=(6, 2))
        np.testing.assert_allclose(f.value_many(W), [f.value(w) for w in W])

    def test_csv_loading(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["1,0.5,-1.25", "-1,2.0,0.0", "1,-0.75,3.5"]
        path.write_text("\n".join(rows) + "\n")
        f = LogisticObjective.from_csv(path)
        assert f.n_samples == 3 and f.dim == 2
        np.testing.assert_array_equal(f.labels, [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(f.features[1], [2.0, 0.0])

    def test_synthetic_generator_deterministic(self):
        a = synthetic_logistic(30, 4, seed=5)
        b = synthetic_logistic(30, 4, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert set(np.unique(a.labels)) <= {-1.0, 1.0}


class TestRowsBitForBit:
    """``value_rows`` and ``gradient_rows`` repeat ``value`` and ``gradient`` bit for bit."""

    @pytest.mark.parametrize("d", [1, 3, 16, 200])
    def test_quadratic(self, d):
        rng = np.random.default_rng(d)
        f = QuadraticObjective(random_psd_quadratic(rng, d=d).Q, rng.standard_normal(d), c=0.3)
        X = np.vstack([8.0 * np.round(3 * rng.standard_normal((4, d))), rng.standard_normal((3, d))])
        assert [v.hex() for v in f.value_rows(X)] == [f.value(x).hex() for x in X]
        assert f.gradient_rows(X).tobytes() == np.stack([f.gradient(x) for x in X]).tobytes()

    def test_logistic(self):
        f = synthetic_logistic(60, 5, seed=2)
        X = np.random.default_rng(0).standard_normal((4, 5))
        assert [v.hex() for v in f.value_rows(X)] == [f.value(x).hex() for x in X]
        assert f.gradient_rows(X).tobytes() == np.stack([f.gradient(x) for x in X]).tobytes()
