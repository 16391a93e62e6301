"""Logistic regression and linear SVM tests."""

import json
import math
import random

import numpy as np
import pytest

from predstmt import (
    DataError,
    LinearModel,
    SparseVector,
    TrainConfig,
    load_model,
    predict,
    predict_proba,
    save_model,
    train_logreg,
    train_svm_linear,
)
from predstmt import models
from predstmt.models import (
    logreg_gradient,
    logreg_objective,
    svm_objective,
    svm_subgradient,
)


def sv(values, dimension=None):
    values = list(values)
    dimension = dimension or len(values)
    pairs = [(i, v) for i, v in enumerate(values) if v != 0.0]
    return SparseVector(
        indices=tuple(i for i, _ in pairs),
        values=tuple(v for _, v in pairs),
        dimension=dimension,
    )


def random_problem(rng, n, d, k):
    X = []
    for _ in range(n):
        row = [rng.gauss(0, 1) if rng.random() < 0.6 else 0.0 for _ in range(d)]
        X.append(sv(row, d))
    y = [rng.randrange(k) for _ in range(n)]
    # make sure every class appears
    for c in range(k):
        y[c] = c
    return X, y


SEPARABLE_1D = ([sv([1.0]), sv([-1.0])], [1, 0])


def brute_force_1d_best_accuracy(X, y):
    """Best training accuracy any 1-D linear rule sign(w*x + b) can reach."""
    xs = [x.to_dense()[0] for x in X]
    best = 0.0
    for w in np.linspace(-4, 4, 81):
        for b in np.linspace(-2, 2, 41):
            preds = [1 if w * x + b > 0 else 0 for x in xs]
            best = max(best, sum(p == t for p, t in zip(preds, y)) / len(y))
    return best


class TestLogreg:
    def test_zero_weights_uniform_proba(self):
        model = LinearModel(kind="logreg", weights=np.zeros((2, 3)), bias=np.zeros(2),
                            class_codes=(0, 1), config=TrainConfig())
        probs = predict_proba(model, sv([1.0, 0.5, 0.0]))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)
        assert predict(model, sv([1.0, 0.5, 0.0])) == 0  # tie -> lowest code

    def test_separable_1d_matches_grid_oracle(self):
        X, y = SEPARABLE_1D
        oracle_best = brute_force_1d_best_accuracy(X, y)
        assert oracle_best == 1.0
        model = train_logreg(X, y, TrainConfig())
        accuracy = sum(predict(model, x) == t for x, t in zip(X, y)) / len(y)
        assert accuracy == oracle_best

    def test_loss_history_non_increasing(self):
        rng = random.Random(5)
        for _ in range(8):
            X, y = random_problem(rng, n=rng.randint(6, 30), d=rng.randint(2, 10),
                                  k=rng.choice([2, 3]))
            model = train_logreg(X, y, TrainConfig(epochs=40, seed=1))
            history = model.loss_history
            assert len(history) == 41
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(7)
        X, y = random_problem(rng, n=12, d=5, k=3)
        weights = np.array([[rng.gauss(0, 0.5) for _ in range(5)] for _ in range(3)])
        bias = np.array([rng.gauss(0, 0.5) for _ in range(3)])
        l2 = 0.01
        grad_w, grad_b = logreg_gradient(weights, bias, X, y, l2)
        eps = 1e-6
        for _ in range(12):
            i, j = rng.randrange(3), rng.randrange(5)
            w_plus = weights.copy(); w_plus[i, j] += eps
            w_minus = weights.copy(); w_minus[i, j] -= eps
            fd = (logreg_objective(w_plus, bias, X, y, l2)
                  - logreg_objective(w_minus, bias, X, y, l2)) / (2 * eps)
            assert abs(fd - grad_w[i, j]) <= 1e-4 * max(1.0, abs(fd))
        for i in range(3):
            b_plus = bias.copy(); b_plus[i] += eps
            b_minus = bias.copy(); b_minus[i] -= eps
            fd = (logreg_objective(weights, b_plus, X, y, l2)
                  - logreg_objective(weights, b_minus, X, y, l2)) / (2 * eps)
            assert abs(fd - grad_b[i]) <= 1e-4 * max(1.0, abs(fd))

    def test_deterministic(self):
        rng = random.Random(3)
        X, y = random_problem(rng, n=20, d=6, k=3)
        m1 = train_logreg(X, y, TrainConfig(seed=9))
        m2 = train_logreg(X, y, TrainConfig(seed=9))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_proba_sums_to_one(self):
        rng = random.Random(11)
        X, y = random_problem(rng, n=25, d=8, k=3)
        model = train_logreg(X, y, TrainConfig(epochs=30))
        for _ in range(1000):
            row = [rng.gauss(0, 2) for _ in range(8)]
            probs = predict_proba(model, sv(row, 8))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert (probs > 0).all()

    def test_shift_invariance(self):
        model = LinearModel(kind="logreg", weights=np.array([[1.0, -2.0], [0.5, 0.3]]),
                            bias=np.array([0.1, -0.4]), class_codes=(0, 1),
                            config=TrainConfig())
        shifted = LinearModel(kind="logreg", weights=model.weights,
                              bias=model.bias + 7.3, class_codes=(0, 1),
                              config=TrainConfig())
        x = sv([0.7, -0.2])
        np.testing.assert_allclose(predict_proba(model, x), predict_proba(shifted, x),
                                   atol=1e-12)

    def test_class_codes_preserved(self):
        X = [sv([1.0]), sv([-1.0]), sv([0.9]), sv([-0.8])]
        y = [3, 1, 3, 1]
        model = train_logreg(X, y, TrainConfig())
        assert model.class_codes == (1, 3)
        assert predict(model, sv([1.0])) == 3

    def test_input_validation(self):
        with pytest.raises(DataError, match="lengths differ"):
            train_logreg([sv([1.0])], [1, 0], TrainConfig())
        with pytest.raises(DataError, match="at least 2 documents"):
            train_logreg([sv([1.0])], [1], TrainConfig())
        with pytest.raises(DataError, match="distinct label"):
            train_logreg([sv([1.0]), sv([2.0])], [1, 1], TrainConfig())
        with pytest.raises(DataError, match="dimension"):
            train_logreg([sv([1.0]), sv([1.0, 2.0])], [0, 1], TrainConfig())


class TestSvm:
    def test_separable_1d_matches_grid_oracle(self):
        X, y = SEPARABLE_1D
        assert brute_force_1d_best_accuracy(X, y) == 1.0
        model = train_svm_linear(X, y, TrainConfig(seed=2))
        accuracy = sum(predict(model, x) == t for x, t in zip(X, y)) / len(y)
        assert accuracy == 1.0

    def test_satisfied_margin_contributes_no_data_gradient(self):
        # all margins >= 1: subgradient reduces to the regularizer term l2*w
        w = np.array([2.0, 0.0])
        b = 0.0
        X = [sv([1.0, 0.0]), sv([-1.0, 0.0])]
        y_signed = [1.0, -1.0]
        grad_w, grad_b = svm_subgradient(w, b, X, y_signed, l2=0.1)
        np.testing.assert_allclose(grad_w, 0.1 * w, atol=1e-12)
        assert grad_b == 0.0

    def test_subgradient_matches_finite_differences_away_from_kink(self):
        rng = random.Random(13)
        checked = 0
        while checked < 10:
            d = 4
            X = [sv([rng.gauss(0, 1) for _ in range(d)], d) for _ in range(10)]
            y_signed = [rng.choice([-1.0, 1.0]) for _ in range(10)]
            w = np.array([rng.gauss(0, 1) for _ in range(d)])
            b = rng.gauss(0, 1)
            margins = [ys * (x.to_dense() @ w + b) for x, ys in zip(X, y_signed)]
            if min(abs(m - 1.0) for m in margins) < 1e-3:
                continue  # too close to the hinge kink for a clean check
            grad_w, grad_b = svm_subgradient(w, b, X, y_signed, l2=0.05)
            eps = 1e-6
            j = rng.randrange(d)
            w_plus = w.copy(); w_plus[j] += eps
            w_minus = w.copy(); w_minus[j] -= eps
            fd = (svm_objective(w_plus, b, X, y_signed, 0.05)
                  - svm_objective(w_minus, b, X, y_signed, 0.05)) / (2 * eps)
            assert abs(fd - grad_w[j]) <= 1e-4 * max(1.0, abs(fd))
            fd_b = (svm_objective(w, b + eps, X, y_signed, 0.05)
                    - svm_objective(w, b - eps, X, y_signed, 0.05)) / (2 * eps)
            assert abs(fd_b - grad_b) <= 1e-4 * max(1.0, abs(fd_b))
            checked += 1

    def test_deterministic(self):
        rng = random.Random(21)
        X, y = random_problem(rng, n=20, d=6, k=3)
        m1 = train_svm_linear(X, y, TrainConfig(seed=4))
        m2 = train_svm_linear(X, y, TrainConfig(seed=4))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_prediction_scale_invariant(self):
        rng = random.Random(31)
        X, y = random_problem(rng, n=16, d=5, k=3)
        model = train_svm_linear(X, y, TrainConfig(seed=8))
        scaled = LinearModel(kind=model.kind, weights=3.5 * model.weights,
                             bias=3.5 * model.bias, class_codes=model.class_codes,
                             config=model.config)
        for x in X:
            assert predict(model, x) == predict(scaled, x)

    def test_tie_breaks_to_lowest_code(self):
        model = LinearModel(kind="svm_linear", weights=np.zeros((3, 2)),
                            bias=np.zeros(3), class_codes=(1, 2, 3),
                            config=TrainConfig())
        assert predict(model, sv([1.0, 1.0])) == 1

    def test_l2_must_be_positive(self):
        X, y = SEPARABLE_1D
        with pytest.raises(DataError, match="l2 > 0"):
            train_svm_linear(X, y, TrainConfig(l2=0.0))

    def test_proba_refused_for_svm(self):
        X, y = SEPARABLE_1D
        model = train_svm_linear(X, y, TrainConfig())
        with pytest.raises(DataError, match="predict_proba"):
            predict_proba(model, X[0])


def per_step_pegasos(X, y_signed, cfg, rng, dim):
    """Pegasos as first written: the whole weight vector shrinks on every step."""
    w = np.zeros(dim)
    b = 0.0
    t = 0
    n = len(X)
    for _ in range(cfg.epochs):
        for i in rng.permutation(n):
            t += 1
            step = 1.0 / (cfg.l2 * t)
            x = X[i]
            idx = np.asarray(x.indices, dtype=np.int64)
            val = np.asarray(x.values, dtype=np.float64)
            margin = y_signed[i] * (float(w[idx] @ val) + b)
            w *= 1.0 - step * cfg.l2
            if margin < 1.0:
                w[idx] += step * y_signed[i] * val
                b += step * y_signed[i]
    return w, b


def per_step_svm(X, y, cfg):
    """One-vs-rest weights and bias from per_step_pegasos, seeded as train_svm_linear."""
    codes = sorted(set(y))
    dim = X[0].dimension
    weights = np.zeros((len(codes), dim))
    bias = np.zeros(len(codes))
    for ci, code in enumerate(codes):
        y_signed = np.array([1.0 if v == code else -1.0 for v in y])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed & 0xFFFFFFFF,
                                                           spawn_key=(ci,)))
        weights[ci], bias[ci] = per_step_pegasos(X, y_signed, cfg, rng, dim)
    return weights, bias


class TestScaledPegasos:
    """train_svm_linear keeps w = a * v; it must track the per-step shrink it replaced."""

    @pytest.mark.parametrize("l2, exact_reset", [(1e-4, True), (0.05, True), (0.0019, False)])
    def test_matches_per_step_reference(self, l2, exact_reset):
        # at t = 1 the shrink factor is 1 - (1/l2) * l2: exactly 0 for most l2, not for all
        assert (1.0 - (1.0 / l2) * l2 == 0.0) is exact_reset
        rng = random.Random(41)
        for n, d, k in ((60, 12, 3), (40, 30, 2)):
            X, y = random_problem(rng, n=n, d=d, k=k)
            cfg = TrainConfig(l2=l2, epochs=15, seed=9)
            model = train_svm_linear(X, y, cfg)
            ref_w, ref_b = per_step_svm(X, y, cfg)
            assert np.abs(model.weights - ref_w).max() <= 1e-9 * np.abs(ref_w).max()
            assert np.abs(model.bias - ref_b).max() <= 1e-9 * max(1.0, np.abs(ref_b).max())
            reference = LinearModel(kind=model.kind, weights=ref_w, bias=ref_b,
                                    class_codes=model.class_codes, config=cfg)
            assert [predict(model, x) for x in X] == [predict(reference, x) for x in X]

    def test_folding_the_scale_keeps_the_weights(self, monkeypatch):
        # a decays like 1/t, so a high floor folds a into v every few steps
        rng = random.Random(43)
        X, y = random_problem(rng, n=50, d=10, k=3)
        cfg = TrainConfig(l2=1e-3, epochs=10, seed=2)
        monkeypatch.setattr(models, "_SCALE_FLOOR", 0.5)
        model = train_svm_linear(X, y, cfg)
        ref_w, ref_b = per_step_svm(X, y, cfg)
        assert np.abs(model.weights - ref_w).max() <= 1e-9 * np.abs(ref_w).max()
        assert np.abs(model.bias - ref_b).max() <= 1e-9 * max(1.0, np.abs(ref_b).max())


class TestPersistence:
    def test_linear_round_trip_exact(self, tmp_path):
        rng = random.Random(17)
        X, y = random_problem(rng, n=15, d=6, k=3)
        for trainer in (train_logreg, train_svm_linear):
            model = trainer(X, y, TrainConfig(seed=6))
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            again = load_model(path)
            assert again.kind == model.kind
            assert np.array_equal(again.weights, model.weights)
            assert np.array_equal(again.bias, model.bias)
            assert again.class_codes == model.class_codes
            assert again.config == model.config
            for x in X:
                assert predict(again, x) == predict(model, x)

    def test_predict_dimension_mismatch(self):
        X, y = SEPARABLE_1D
        model = train_logreg(X, y, TrainConfig())
        with pytest.raises(DataError, match="dimension"):
            predict(model, sv([1.0, 2.0]))

    @pytest.mark.parametrize("change", [
        {"weights": None},  # missing key
        {"class_codes": None},
        {"n_features": None},
        {"config": None},
        {"weights": "0"},  # ill-typed
        {"weights": [[0.0, "x"], [0.0, 0.0]]},
        {"weights": [[0.0], [0.0, 0.0]]},
        {"weights": [[0.0, 0.0]]},  # wrong shape
        {"bias": [0.0]},
        {"bias": [0.0, float("inf")]},
        {"class_codes": [0, "1"]},
        {"class_codes": [1, 1]},
        {"n_features": "2"},
        {"config": [1]},
        {"config": {"epochs": "10"}},
        {"loss_history": ["x"]},
        {"config": {"epoch": 10}},  # unknown config key
        {"config": {"epochs": True}},
        {"config": {"bootstrap": "false"}},
        {"config": {"l2": float("nan")}},
    ])
    def test_malformed_linear_payload_is_data_error(self, tmp_path, change):
        path = tmp_path / "m.json"
        save_model(train_logreg(*random_problem(random.Random(5), n=8, d=2, k=2),
                                TrainConfig(epochs=3)), path)
        payload = json.loads(path.read_text())
        for key, value in change.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("text", [
        '{"kind": "logreg"}',
        '{"kind": "svm_linear", "config": {}}',
        '{"kind": "random_forest", "class_codes": [0, 1], "n_features": 1, "config": {}}',
        '["logreg"]',
    ])
    def test_payload_without_fields_is_data_error(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(DataError):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "mystery", "config": {}}')
        with pytest.raises(DataError, match="unknown model kind"):
            load_model(path)
