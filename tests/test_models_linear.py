"""Logistic regression and linear SVM tests."""

import math
import random
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import dense_batch, dense_rows
from predstmt import (
    DataError,
    LinearModel,
    SparseBatch,
    TrainConfig,
    predict_many,
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
    """The one-row batch of a dense row."""
    return dense_batch([list(values)], dimension)


def random_problem(rng, n, d, k):
    rows = []
    for _ in range(n):
        rows.append([rng.gauss(0, 1) if rng.random() < 0.6 else 0.0 for _ in range(d)])
    X = dense_batch(rows, d)
    y = [rng.randrange(k) for _ in range(n)]
    # make sure every class appears
    for c in range(k):
        y[c] = c
    return X, y


SEPARABLE_1D = (dense_batch([[1.0], [-1.0]]), [1, 0])


def brute_force_1d_best_accuracy(X, y):
    """Best training accuracy any 1-D linear rule sign(w*x + b) can reach."""
    xs = dense_rows(X)[:, 0].tolist()
    best = 0.0
    for w in np.linspace(-4, 4, 81):
        for b in np.linspace(-2, 2, 41):
            preds = [1 if w * x + b > 0 else 0 for x in xs]
            best = max(best, sum(p == t for p, t in zip(preds, y)) / len(y))
    return best


class TestLogreg:
    def test_separable_1d_matches_grid_oracle(self):
        X, y = SEPARABLE_1D
        oracle_best = brute_force_1d_best_accuracy(X, y)
        assert oracle_best == 1.0
        model = train_logreg(X, y, TrainConfig())
        accuracy = sum(predict_many(model, x)[0] == t for x, t in zip(X, y)) / len(y)
        assert accuracy == oracle_best

    def test_loss_history_non_increasing(self):
        rng = random.Random(5)
        for _ in range(8):
            X, y = random_problem(rng, n=rng.randint(6, 30), d=rng.randint(2, 10),
                                  k=rng.choice([2, 3]))
            model = train_logreg(X, y, TrainConfig(epochs=40, seed=1))
            history = model.loss_history
            assert len(history) <= 41
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier

    def test_default_leaves_the_majority_floor(self):
        # 4:1, and column 0 marks exactly the minority rows among 10 noise columns of 49
        rng = np.random.default_rng(0)
        y = [1 if i % 5 == 0 else 0 for i in range(200)]
        rows = []
        for label in y:
            row = np.zeros(50)
            row[rng.choice(np.arange(1, 50), size=10, replace=False)] = rng.random(10)
            row[0] = float(label)
            rows.append((row / np.linalg.norm(row)).tolist())
        X = dense_batch(rows, 50)
        assert predict_many(train_logreg(X, y, TrainConfig()), X) == y

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

    def test_class_codes_preserved(self):
        X = dense_batch([[1.0], [-1.0], [0.9], [-0.8]])
        y = [3, 1, 3, 1]
        model = train_logreg(X, y, TrainConfig())
        assert model.class_codes == (1, 3)
        assert predict_many(model, sv([1.0]))[0] == 3

    def test_input_validation(self):
        with pytest.raises(DataError, match="lengths differ"):
            train_logreg(sv([1.0]), [1, 0], TrainConfig())
        with pytest.raises(DataError, match="at least 2 documents"):
            train_logreg(sv([1.0]), [1], TrainConfig())
        with pytest.raises(DataError, match="distinct label"):
            train_logreg(dense_batch([[1.0], [2.0]]), [1, 1], TrainConfig())
        with pytest.raises(DataError, match="dimension"):
            train_logreg(dense_batch([[1.0], [1.0, 2.0]], 1), [0, 1], TrainConfig())

    @pytest.mark.parametrize("setting", [
        {"l2": float("nan")},
        {"l2": float("inf")},
        {"l2": -float("inf")},
        {"l2": 10 ** 400},  # past the float range: math.isfinite overflows
        {"l2": -10 ** 400},
        {"l2": 10 ** 5000},  # too long for str() on Python 3.11+ as well
        {"l2": -10 ** 5000},
    ])
    def test_non_finite_config_refused(self, setting):
        with pytest.raises(DataError, match="must be finite") as info:
            TrainConfig(**setting)
        assert "\n" not in str(info.value)
        assert str(info.value).startswith(next(iter(setting)))


class TestSvm:
    def test_separable_1d_matches_grid_oracle(self):
        X, y = SEPARABLE_1D
        assert brute_force_1d_best_accuracy(X, y) == 1.0
        model = train_svm_linear(X, y, TrainConfig(seed=2))
        accuracy = sum(predict_many(model, x)[0] == t for x, t in zip(X, y)) / len(y)
        assert accuracy == 1.0

    def test_satisfied_margin_contributes_no_data_gradient(self):
        # all margins >= 1: subgradient reduces to the regularizer term l2*w
        w = np.array([2.0, 0.0])
        b = 0.0
        X = dense_batch([[1.0, 0.0], [-1.0, 0.0]])
        y_signed = [1.0, -1.0]
        grad_w, grad_b = svm_subgradient(w, b, X, y_signed, l2=0.1)
        np.testing.assert_allclose(grad_w, 0.1 * w, atol=1e-12)
        assert grad_b == 0.0

    def test_subgradient_matches_finite_differences_away_from_kink(self):
        rng = random.Random(13)
        checked = 0
        while checked < 10:
            d = 4
            X = dense_batch([[rng.gauss(0, 1) for _ in range(d)] for _ in range(10)], d)
            y_signed = [rng.choice([-1.0, 1.0]) for _ in range(10)]
            w = np.array([rng.gauss(0, 1) for _ in range(d)])
            b = rng.gauss(0, 1)
            margins = [ys * (x @ w + b) for x, ys in zip(dense_rows(X), y_signed)]
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
            assert predict_many(model, x) == predict_many(scaled, x)

    def test_tie_breaks_to_lowest_code(self):
        model = LinearModel(kind="svm_linear", weights=np.zeros((3, 2)),
                            bias=np.zeros(3), class_codes=(1, 2, 3),
                            config=TrainConfig())
        assert predict_many(model, sv([1.0, 1.0]))[0] == 1

    def test_l2_must_be_positive(self):
        X, y = SEPARABLE_1D
        with pytest.raises(DataError, match="l2 > 0"):
            train_svm_linear(X, y, TrainConfig(l2=0.0))


class TestBatchPredict:
    """predict_many scores the batch at once; it must pick what per-row scores pick."""

    def test_matches_per_document_scores(self):
        rng = random.Random(61)
        for trainer in (train_logreg, train_svm_linear):
            for _ in range(4):
                X, y = random_problem(rng, n=40, d=8, k=3)
                model = trainer(X, y, TrainConfig(epochs=20, seed=1))
                expected = [model.class_codes[int(np.argmax(
                    model.weights[:, x.indices] @ x.data + model.bias))] for x in X]
                assert predict_many(model, X) == expected
                assert [predict_many(model, x)[0] for x in X] == expected

    def test_ties_and_empty_rows_go_to_the_lowest_code(self):
        model = LinearModel(kind="logreg", weights=np.zeros((3, 2)), bias=np.zeros(3),
                            class_codes=(4, 6, 9), config=TrainConfig())
        assert predict_many(model, dense_batch([[0.0, 0.0], [1.0, -2.0]])) == [4, 4]

    def test_batch_dimension_mismatch(self):
        X, y = SEPARABLE_1D
        model = train_logreg(X, y, TrainConfig())
        with pytest.raises(DataError, match="dimension"):
            predict_many(model, dense_batch([[1.0, 2.0], [0.0, 1.0]]))


class TestLinearModelChecks:
    """A LinearModel's shapes agree and its parameters are finite, however it was built."""

    @pytest.mark.parametrize("fields, message", [
        ({"bias": np.zeros(2)}, "inconsistent linear model shapes"),
        ({"bias": np.zeros((3, 1))}, "inconsistent linear model shapes"),
        ({"class_codes": (0, 1)}, "inconsistent linear model shapes"),
        ({"class_codes": (0, 1, 2, 3)}, "inconsistent linear model shapes"),
        ({"weights": np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]])},
         "linear model parameters must be finite"),
        ({"weights": np.array([[0.0, 1.0], [0.0, 0.0], [0.0, -np.inf]])},
         "linear model parameters must be finite"),
        ({"bias": np.array([0.0, np.inf, 0.0])}, "linear model parameters must be finite"),
        ({"bias": np.array([np.nan, 0.0, 0.0])}, "linear model parameters must be finite"),
    ], ids=["short-bias", "2-d-bias", "too-few-codes", "too-many-codes", "nan-weight",
            "infinite-weight", "infinite-bias", "nan-bias"])
    def test_inconsistent_or_non_finite_parameters_are_data_errors(self, fields, message):
        valid = {"kind": "logreg", "weights": np.zeros((3, 2)), "bias": np.zeros(3),
                 "class_codes": (0, 1, 2), "config": TrainConfig()}
        LinearModel(**valid)
        with pytest.raises(DataError) as info:
            LinearModel(**{**valid, **fields})
        assert str(info.value) == message


def bits(a):
    """The IEEE bit patterns of a float array, so -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestBinarySvm:
    """Two classes train one separator (w, b), stored as (-w, w) and (-b, b)."""

    def test_one_separator_stored_negated(self):
        rng = random.Random(47)
        X, y = random_problem(rng, n=50, d=15, k=2)
        y = [3 if v else 7 for v in y]  # codes (3, 7): class position 1 is code 7
        cfg = TrainConfig(l2=0.01, epochs=12, seed=5)
        model = train_svm_linear(X, y, cfg)
        assert model.class_codes == (3, 7) and model.weights.shape == (2, 15)
        assert np.array_equal(bits(model.weights[0]), bits(-model.weights[1]))
        assert np.array_equal(bits(model.bias[0]), bits(-model.bias[1]))
        margins = X.scores(model.weights[1:], model.bias[1:])[:, 0]
        assert 0 < (margins > 0).sum() < len(X)
        assert predict_many(model, X) == [7 if m > 0 else 3 for m in margins]

    @pytest.mark.parametrize("b", [0.5, 0.0])
    def test_zero_score_goes_to_the_lower_code(self, b):
        w = np.array([1.0, -2.0])
        model = LinearModel(kind="svm_linear", weights=np.array([-w, w]),
                            bias=np.array([-b, b]), class_codes=(2, 5), config=TrainConfig())
        X = dense_batch([[2.0 - b, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 2)
        scores = X.scores(w[None, :], np.array([b]))[:, 0]
        assert scores[0] == 0.0 and scores[2] > 0 > scores[3]
        assert predict_many(model, X) == [2, 5 if b > 0 else 2, 5, 2]

    @pytest.mark.parametrize("k, calls", [(2, 1), (3, 3)])
    def test_one_separator_per_problem(self, monkeypatch, k, calls):
        seen = []
        lbfgs = models._lbfgs

        def counting(*args):
            seen.append(args)
            return lbfgs(*args)

        monkeypatch.setattr(models, "_lbfgs", counting)
        rng = random.Random(53)
        X, y = random_problem(rng, n=45, d=10, k=k)
        train_svm_linear(X, y, TrainConfig(l2=0.02, epochs=8, seed=3))
        assert len(seen) == calls


def separators(model, y):
    """(w, b, y_signed) of every separator train_svm_linear trains: class position 1's
    for two classes, else one per class."""
    y_idx = np.searchsorted(model.class_codes, y)
    k = len(model.class_codes)
    return [(model.weights[ci], model.bias[ci], np.where(y_idx == ci, 1.0, -1.0))
            for ci in ([1] if k == 2 else range(k))]


def optimality_problems():
    rng = random.Random(71)
    for _ in range(6):
        X, y = random_problem(rng, n=rng.randint(20, 60), d=rng.randint(3, 15),
                              k=rng.choice([2, 3]))
        for l2 in (1e-2, 1e-4):
            yield X, y, l2


def objectives_and_gradient_norms(X, y, l2, epochs):
    """(objective, gradient norm) at the logreg fit and at each SVM separator."""
    out = []
    model = train_logreg(X, y, TrainConfig(epochs=epochs, l2=l2))
    y_idx = np.searchsorted(model.class_codes, y)
    grad_w, grad_b = logreg_gradient(model.weights, model.bias, X, y_idx, l2)
    out.append((logreg_objective(model.weights, model.bias, X, y_idx, l2),
                math.sqrt(float((grad_w ** 2).sum() + (grad_b ** 2).sum()))))
    for w, b, y_signed in separators(train_svm_linear(X, y, TrainConfig(epochs=epochs, l2=l2)), y):
        grad_w, grad_b = svm_subgradient(w, b, X, y_signed, l2)
        out.append((svm_objective(w, b, X, y_signed, l2),
                    math.sqrt(float(grad_w @ grad_w) + grad_b ** 2)))
    return out


class TestOptimality:
    """L-BFGS reaches the minimum of each objective: logreg's and every SVM separator's."""

    def test_long_run_reaches_a_stationary_point(self, monkeypatch):
        # with no decrease tolerance, a run ends when no step passes the line search
        monkeypatch.setattr(models, "_LBFGS_TOL", 0.0)
        for X, y, l2 in optimality_problems():
            for _, grad_norm in objectives_and_gradient_norms(X, y, l2, epochs=1000):
                assert grad_norm <= 1e-6

    def test_default_stop_is_near_the_long_run(self, monkeypatch):
        for X, y, l2 in optimality_problems():
            stopped = objectives_and_gradient_norms(X, y, l2, epochs=100)
            monkeypatch.setattr(models, "_LBFGS_TOL", 0.0)
            long_run = objectives_and_gradient_norms(X, y, l2, epochs=1000)
            monkeypatch.undo()
            for (f_stopped, _), (f_long, _) in zip(stopped, long_run):
                assert f_long <= f_stopped <= f_long + 1e-3


def quadratic(A, c):
    """fun_grad of 0.5 x'Ax - c'x, whose minimizer is A^-1 c."""
    return lambda x: (float(0.5 * x @ A @ x - c @ x), A @ x - c)


class TestLbfgs:
    """_lbfgs on quadratics, whose minimizer and gradient are known in closed form."""

    def test_reaches_the_minimizer_of_an_ill_conditioned_quadratic(self, monkeypatch):
        monkeypatch.setattr(models, "_LBFGS_TOL", 0.0)
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        A = Q @ np.diag(np.logspace(0, 3, 30)) @ Q.T  # condition number 1000
        c = rng.standard_normal(30)
        x, history = models._lbfgs(quadratic(A, c), np.zeros(30), 500, 1e-3)
        expected = np.linalg.solve(A, c)
        assert np.abs(x - expected).max() <= 1e-6 * np.abs(expected).max()
        assert len(history) < 501
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))

    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    def test_max_iter_caps_the_iterations(self, monkeypatch, max_iter):
        monkeypatch.setattr(models, "_LBFGS_TOL", 0.0)
        A = np.diag(np.arange(1.0, 11.0))
        x0 = np.ones(10)
        x, history = models._lbfgs(quadratic(A, np.zeros(10)), x0, max_iter, 0.05)
        assert len(history) == max_iter + 1
        assert history[0] == 27.5  # 0.5 * (1 + 2 + ... + 10)
        if max_iter == 0:
            assert x is x0

    @pytest.mark.parametrize("first_step", [1.0, 0.25])
    def test_first_trial_step_is_first_step_times_the_gradient(self, first_step):
        # on 0.5 ||x||^2 the gradient is x, so the first trial point is (1 - first_step) x0
        trials = []
        fun_grad = quadratic(np.eye(4), np.zeros(4))

        def recording(x):
            trials.append(x.copy())
            return fun_grad(x)

        x0 = np.array([1.0, -2.0, 0.5, 4.0])
        models._lbfgs(recording, x0, 1, first_step)
        assert np.array_equal(trials[0], x0)
        assert np.array_equal(trials[1], (1.0 - first_step) * x0)


class TestExtremeSettings:
    """A first step or l2 so large that trial objectives overflow fails the line search:
    no floating-point warning, and the fit stays finite."""

    @pytest.mark.parametrize("trainer", [train_logreg, train_svm_linear])
    def test_overflow_is_a_failed_step(self, trainer):
        X, y = scaled_problem(6, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = trainer(X, y, TrainConfig(epochs=40, l2=1e300))
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
        history = model.loss_history
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))

    @pytest.mark.parametrize("objective", ["logreg", "svm"])
    def test_step_scale_past_any_halving_still_trains(self, objective):
        # 40 halvings of a 1e300 step still overflow; the unit-length restart must move
        X, y = scaled_problem(6, 1.0)
        y_idx = np.asarray(y)
        if objective == "logreg":
            def fun_grad(params):
                loss, grad_w, grad_b = models._logreg_loss_grad(
                    params[3:].reshape(3, X.dim), params[:3], X, y_idx, 1e-4)
                return loss, np.append(grad_b, grad_w)
            x0 = np.zeros(3 * (X.dim + 1))
        else:  # class 1 against the rest
            fun_grad = partial(models._svm_loss_grad, X=X,
                               y_signed=np.where(y_idx == 1, 1.0, -1.0), l2=1e-4)
            x0 = np.zeros(X.dim + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, history = models._lbfgs(fun_grad, x0, 40, first_step=1e300)
        assert np.isfinite(x).all()
        assert len(history) > 1 and history[-1] < history[0]
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))


def two_softmax_logreg(X, y, cfg):
    """train_logreg's L-BFGS run as first written: the objective and the gradient each take
    their own softmax of the batch's scores. Returns (weights, bias, history)."""
    codes = sorted(set(y))
    y_idx = np.searchsorted(codes, y)
    k, rows = len(codes), np.arange(len(X))

    def fun_grad(params):
        weights, bias = params[k:].reshape(k, X.dim), params[:k]
        scores = X.scores(weights, bias)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = probs / probs.sum(axis=-1, keepdims=True)
        probs[rows, y_idx] -= 1.0
        probs /= len(X)
        grad_w = cfg.l2 * weights
        X.add_outer(grad_w, probs)
        logp = scores - scores.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        loss = float(-logp[rows, y_idx].mean() + 0.5 * cfg.l2 * float((weights * weights).sum()))
        return loss, np.append(probs.sum(axis=0), grad_w)

    params, history = models._lbfgs(fun_grad, np.zeros(k * (X.dim + 1)), cfg.epochs,
                                    models._FIRST_STEP)
    return params[k:].reshape(k, X.dim), params[:k], history


class TestOneSoftmax:
    """The objective and the gradient share one softmax; the fit must not change by a bit."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_training_matches_two_softmax_reference(self, k):
        rng = random.Random(60 + k)
        for _ in range(4):
            X, y = random_problem(rng, n=rng.randint(10, 40), d=rng.randint(3, 12), k=k)
            cfg = TrainConfig(epochs=30, l2=rng.choice((0.0, 0.01)))
            model = train_logreg(X, y, cfg)
            weights, bias, history = two_softmax_logreg(X, y, cfg)
            assert np.array_equal(bits(model.weights), bits(weights))
            assert np.array_equal(bits(model.bias), bits(bias))
            assert model.loss_history == tuple(history)


def two_pass_scores(X, weights, bias):
    """SparseBatch.scores as first written: a fancy index into weights.T."""
    out = np.tile(bias, (len(X), 1))
    contrib = X.data[:, None] * weights.T[X.indices]
    starts = X.indptr[:-1]
    nonempty = starts < X.indptr[1:]
    out[nonempty] += np.add.reduceat(contrib, starts[nonempty], axis=0)
    return out


def two_pass_add_outer(X, acc, row_weights):
    """SparseBatch.add_outer as first written: one 2-D np.add.at on acc.T."""
    expanded = np.repeat(row_weights, np.diff(X.indptr), axis=0)
    np.add.at(acc.T, X.indices, X.data[:, None] * expanded)


def seeded_batch(rng, n, dim):
    """A batch of n rows over dim columns where about a quarter of the rows are empty."""
    indptr, indices = [0], []
    for _ in range(n):
        width = 0 if rng.random() < 0.25 else int(rng.integers(1, dim + 1))
        indices.extend(sorted(rng.choice(dim, size=width, replace=False).tolist()))
        indptr.append(len(indices))
    return SparseBatch(indptr, indices, rng.normal(size=len(indices)), dim)


def scaled_problem(seed, scale):
    """40 docs over 12 columns with every seventh row empty, values of about scale."""
    rng = random.Random(seed)
    rows = [[rng.gauss(0, scale) if rng.random() < 0.6 else 0.0 for _ in range(12)]
            if i % 7 else [0.0] * 12 for i in range(40)]
    y = [rng.randrange(3) for _ in rows]
    y[1:4] = [0, 1, 2]
    return dense_batch(rows, 12), y


class TestOneScoringPerStep:
    """scores and add_outer must give what the code they replaced gave, bit for bit:
    no tolerance."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_scores_and_add_outer_match_two_pass_reference(self, k):
        rng = np.random.default_rng(100 + k)
        for n, dim in ((1, 3), (17, 9), (60, 25)):
            X = seeded_batch(rng, n, dim)
            weights, bias = rng.normal(size=(k, dim)), rng.normal(size=k)
            assert np.array_equal(X.scores(weights, bias), two_pass_scores(X, weights, bias))
            row_weights = rng.normal(size=(n, k))
            acc = rng.normal(size=(k, dim))
            expected = acc.copy()
            two_pass_add_outer(X, expected, row_weights)
            X.add_outer(acc, row_weights)
            assert np.array_equal(acc, expected)
