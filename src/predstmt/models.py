"""From-scratch classifiers over sparse feature vectors.

Three trainers share one sparse-input, dense-parameter design:

* multinomial logistic regression, full-batch gradient descent on the
  softmax cross-entropy plus (l2/2)||W||^2, with step-halving so the loss
  never increases across epochs;
* one-vs-rest linear SVM trained by Pegasos-style SGD on the L2-regularized
  hinge loss, step size 1/(l2 * t). The weights are kept as w = a * v, so
  the shrink w *= 1 - step * l2 of every step scales the scalar a and only
  a hinge-active step touches v, on the row's nonzero columns
  (Shalev-Shwartz et al., Math. Prog. 2011);
* a random forest of CART trees split on Gini impurity decrease over
  random feature subsets.

All training is deterministic given the config seed. Ties in any argmax
break toward the lowest class code.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import DataError, from_dict, require_field
from .features import SparseVector

KIND_LOGREG = "logreg"
KIND_SVM = "svm_linear"
KIND_FOREST = "random_forest"


@dataclass(frozen=True)
class TrainConfig:
    """Shared training settings; forest_* fields apply to the forest only."""

    learning_rate: float = 0.1
    epochs: int = 100
    l2: float = 1e-4
    seed: int = 0
    n_trees: int = 100
    max_depth: int = 16
    min_samples_leaf: int = 2
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise DataError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2 < 0:
            raise DataError(f"l2 must be non-negative, got {self.l2}")
        if self.n_trees < 1:
            raise DataError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise DataError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


@dataclass(frozen=True, eq=False)
class LinearModel:
    kind: str
    weights: np.ndarray  # (n_classes, n_features)
    bias: np.ndarray  # (n_classes,)
    class_codes: tuple[int, ...]
    config: TrainConfig
    loss_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        k, d = self.weights.shape
        if self.bias.shape != (k,) or len(self.class_codes) != k:
            raise DataError("inconsistent linear model shapes")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise DataError("linear model parameters must be finite")

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1, dist set)."""

    feature: int
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    dist: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.feature >= 0:
            if self.left is None or self.right is None:
                raise DataError("internal tree node must have two children")
        else:
            if self.dist is None:
                raise DataError("leaf node must carry a class distribution")
            if abs(sum(self.dist) - 1.0) > 1e-9:
                raise DataError("leaf class distribution must sum to 1")


@dataclass(frozen=True, eq=False)
class ForestModel:
    trees: tuple[TreeNode, ...]
    n_features: int
    class_codes: tuple[int, ...]
    config: TrainConfig


# ---------------------------------------------------------------------------
# sparse batch representation

class _Csr:
    """Row-major concatenated sparse matrix used internally by the trainers."""

    def __init__(self, X: Sequence[SparseVector]):
        self.n = len(X)
        self.dim = X[0].dimension if X else 0
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for i, x in enumerate(X):
            indptr[i + 1] = indptr[i] + len(x.indices)
        self.indptr = indptr
        self.indices = np.concatenate([np.asarray(x.indices, dtype=np.int64) for x in X]) \
            if self.n else np.zeros(0, dtype=np.int64)
        self.data = np.concatenate([np.asarray(x.values, dtype=np.float64) for x in X]) \
            if self.n else np.zeros(0)

    def row_lengths(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def scores(self, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Per-row class scores: X @ weights.T + bias, shape (n, k)."""
        k = weights.shape[0]
        out = np.tile(bias, (self.n, 1))
        if self.data.size == 0:
            return out
        contrib = self.data[:, None] * weights.T[self.indices]
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        sums = np.add.reduceat(contrib, starts[nonempty], axis=0)
        out[nonempty] += sums
        return out

    def add_outer(self, acc: np.ndarray, row_weights: np.ndarray) -> None:
        """acc[c, j] += sum_i row_weights[i, c] * X[i, j], in place."""
        if self.data.size == 0:
            return
        expanded = np.repeat(row_weights, self.row_lengths(), axis=0)
        np.add.at(acc.T, self.indices, self.data[:, None] * expanded)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.dim))
        rows = np.repeat(np.arange(self.n), self.row_lengths())
        out[rows, self.indices] = self.data
        return out


def _check_inputs(X: Sequence[SparseVector], y: Sequence[int]) -> tuple[list[int], np.ndarray, int]:
    if len(X) != len(y):
        raise DataError(f"X and y lengths differ: {len(X)} vs {len(y)}")
    if len(X) < 2:
        raise DataError("training requires at least 2 documents")
    dim = X[0].dimension
    for x in X:
        if x.dimension != dim:
            raise DataError(f"inconsistent feature dimensions: {x.dimension} vs {dim}")
    codes = sorted({int(v) for v in y})
    if len(codes) < 2:
        raise DataError("training requires at least 2 distinct label classes")
    code_index = {c: i for i, c in enumerate(codes)}
    y_idx = np.array([code_index[int(v)] for v in y], dtype=np.int64)
    return codes, y_idx, dim


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# logistic regression

def logreg_objective(weights: np.ndarray, bias: np.ndarray,
                     X: Sequence[SparseVector], y_idx: Sequence[int],
                     l2: float) -> float:
    """Mean cross-entropy plus (l2/2)||W||^2; bias is not regularized."""
    csr = X if isinstance(X, _Csr) else _Csr(list(X))
    y_idx = np.asarray(y_idx, dtype=np.int64)
    scores = csr.scores(weights, bias)
    logp = scores - scores.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(csr.n), y_idx].mean()
    return float(nll + 0.5 * l2 * float((weights * weights).sum()))


def logreg_gradient(weights: np.ndarray, bias: np.ndarray,
                    X: Sequence[SparseVector], y_idx: Sequence[int],
                    l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic full-batch gradient of logreg_objective, as (dW, db)."""
    csr = X if isinstance(X, _Csr) else _Csr(list(X))
    y_idx = np.asarray(y_idx, dtype=np.int64)
    probs = _softmax(csr.scores(weights, bias))
    probs[np.arange(csr.n), y_idx] -= 1.0
    probs /= csr.n
    grad_w = l2 * weights
    csr.add_outer(grad_w, probs)
    return grad_w, probs.sum(axis=0)


def train_logreg(X: Sequence[SparseVector], y: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """Fit a multinomial softmax classifier by full-batch gradient descent.

    The step size halves whenever a step would raise the objective, so the
    recorded loss history is non-increasing (up to 1e-8) by construction.
    """
    codes, y_idx, dim = _check_inputs(X, y)
    csr = _Csr(list(X))
    k = len(codes)
    weights = np.zeros((k, dim))
    bias = np.zeros(k)
    lr = cfg.learning_rate
    loss = logreg_objective(weights, bias, csr, y_idx, cfg.l2)
    history = [loss]
    for _ in range(cfg.epochs):
        grad_w, grad_b = logreg_gradient(weights, bias, csr, y_idx, cfg.l2)
        while True:
            next_w = weights - lr * grad_w
            next_b = bias - lr * grad_b
            next_loss = logreg_objective(next_w, next_b, csr, y_idx, cfg.l2)
            if next_loss <= loss + 1e-8 or lr < 1e-12:
                break
            lr *= 0.5
        if next_loss <= loss + 1e-8:
            weights, bias, loss = next_w, next_b, next_loss
        history.append(loss)
    return LinearModel(
        kind=KIND_LOGREG,
        weights=weights,
        bias=bias,
        class_codes=tuple(codes),
        config=cfg,
        loss_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# linear SVM (one-vs-rest, Pegasos)

def svm_objective(w: np.ndarray, b: float, X: Sequence[SparseVector],
                  y_signed: Sequence[float], l2: float) -> float:
    """(l2/2)||w||^2 + mean hinge loss for one binary one-vs-rest problem."""
    csr = X if isinstance(X, _Csr) else _Csr(list(X))
    y_signed = np.asarray(y_signed, dtype=np.float64)
    margins = y_signed * (csr.scores(w[None, :], np.array([b]))[:, 0])
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * l2 * float(w @ w) + hinge.mean())


def svm_subgradient(w: np.ndarray, b: float, X: Sequence[SparseVector],
                    y_signed: Sequence[float], l2: float) -> tuple[np.ndarray, float]:
    """Full-batch subgradient of svm_objective, as (dw, db)."""
    csr = X if isinstance(X, _Csr) else _Csr(list(X))
    y_signed = np.asarray(y_signed, dtype=np.float64)
    margins = y_signed * (csr.scores(w[None, :], np.array([b]))[:, 0])
    active = (margins < 1.0).astype(np.float64)
    coeff = -(active * y_signed / csr.n)[:, None]
    grad_w = l2 * w.copy()
    csr.add_outer(grad_w[None, :], coeff)
    return grad_w, float(coeff.sum())


_SCALE_FLOOR = 1e-9  # below this, a is folded into v to keep v's entries in range


def _pegasos_binary(rows: list[tuple[np.ndarray, np.ndarray]], y_signed: np.ndarray,
                    cfg: TrainConfig, rng: np.random.Generator,
                    dim: int) -> tuple[np.ndarray, float]:
    """Pegasos SGD for one binary problem; rows are (indices, values) pairs.

    w = a * v throughout. At t = 1 the shrink factor 1 - step * l2 is
    exactly 0 for most l2, which zeroes w: v is reset and a restarts at 1.
    """
    v = np.zeros(dim)
    a = 1.0
    b = 0.0
    t = 0
    l2 = cfg.l2
    ys = y_signed.tolist()
    for _ in range(cfg.epochs):
        for i in rng.permutation(len(rows)).tolist():
            t += 1
            step = 1.0 / (l2 * t)
            idx, val = rows[i]
            y = ys[i]
            vi = v[idx]  # a copy, kept equal to v[idx] until the update below
            margin = y * (a * float(vi.dot(val)) + b)
            shrink = 1.0 - step * l2
            if shrink == 0.0:
                v[:] = 0.0
                vi[:] = 0.0
                a = 1.0
            else:
                a *= shrink
                if a < _SCALE_FLOOR:
                    v *= a
                    vi *= a
                    a = 1.0
            if margin < 1.0:
                v[idx] = vi + (step * y / a) * val
                b += step * y
    return a * v, b


def train_svm_linear(X: Sequence[SparseVector], y: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """Fit one Pegasos-trained binary separator per class (one-vs-rest).

    Requires l2 > 0 since the step size is 1/(l2 * t). The per-class RNG is
    derived from (seed, class position) so training is order-independent
    across classes and reproducible.
    """
    if cfg.l2 <= 0:
        raise DataError("linear SVM training requires l2 > 0")
    codes, y_idx, dim = _check_inputs(X, y)
    rows = [(np.asarray(x.indices, dtype=np.int64), np.asarray(x.values, dtype=np.float64))
            for x in X]
    weights = np.zeros((len(codes), dim))
    bias = np.zeros(len(codes))
    for ci in range(len(codes)):
        y_signed = np.where(y_idx == ci, 1.0, -1.0)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed & 0xFFFFFFFF,
                                                           spawn_key=(ci,)))
        weights[ci], bias[ci] = _pegasos_binary(rows, y_signed, cfg, rng, dim)
    return LinearModel(
        kind=KIND_SVM,
        weights=weights,
        bias=bias,
        class_codes=tuple(codes),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# random forest

def gini(counts: Sequence[float]) -> float:
    """Gini impurity 1 - sum(p_i^2) of a class-count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _grow_tree(dense: np.ndarray, y_idx: np.ndarray, rows: np.ndarray, depth: int,
               k: int, cfg: TrainConfig, n_sub: int, rng: np.random.Generator) -> TreeNode:
    counts = np.bincount(y_idx[rows], minlength=k)
    n = rows.size

    def leaf() -> TreeNode:
        return TreeNode(feature=-1, dist=tuple((counts / n).tolist()))

    if depth >= cfg.max_depth or n < 2 * cfg.min_samples_leaf or np.count_nonzero(counts) <= 1:
        return leaf()

    d = dense.shape[1]
    feats = rng.choice(d, size=n_sub, replace=False) if n_sub < d else np.arange(d)
    parent = gini(counts)
    best_gain = 1e-12
    best_feat = -1
    best_thr = 0.0
    for f in feats:
        col = dense[rows, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        sy = y_idx[rows][order]
        cut = np.nonzero(sv[1:] > sv[:-1])[0] + 1  # candidate left-side sizes
        cut = cut[(cut >= cfg.min_samples_leaf) & (n - cut >= cfg.min_samples_leaf)]
        if cut.size == 0:
            continue
        onehot = np.zeros((n, k))
        onehot[np.arange(n), sy] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[cut - 1]
        right = counts - left
        nl = cut.astype(np.float64)
        nr = n - nl
        gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
        gain = parent - (nl / n) * gini_l - (nr / n) * gini_r
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            best_gain = float(gain[j])
            best_feat = int(f)
            best_thr = float((sv[cut[j] - 1] + sv[cut[j]]) / 2.0)
    if best_feat < 0:
        return leaf()
    mask = dense[rows, best_feat] <= best_thr
    left_node = _grow_tree(dense, y_idx, rows[mask], depth + 1, k, cfg, n_sub, rng)
    right_node = _grow_tree(dense, y_idx, rows[~mask], depth + 1, k, cfg, n_sub, rng)
    return TreeNode(feature=best_feat, threshold=best_thr, left=left_node, right=right_node)


def train_random_forest(X: Sequence[SparseVector], y: Sequence[int], cfg: TrainConfig) -> ForestModel:
    """Fit a bagged ensemble of Gini CART trees.

    Each tree gets its own bootstrap sample and RNG stream spawned from the
    config seed; every split searches a random subset of ceil(sqrt(d))
    features and is kept only when it strictly decreases Gini impurity.
    """
    codes, y_idx, dim = _check_inputs(X, y)
    dense = _Csr(list(X)).to_dense()
    n = len(X)
    k = len(codes)
    n_sub = max(1, math.ceil(math.sqrt(dim))) if dim else 0
    master = np.random.SeedSequence(entropy=cfg.seed & 0xFFFFFFFF)
    trees = []
    for child in master.spawn(cfg.n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        if dim == 0:
            counts = np.bincount(y_idx[rows], minlength=k)
            trees.append(TreeNode(feature=-1, dist=tuple((counts / rows.size).tolist())))
            continue
        trees.append(_grow_tree(dense, y_idx, np.sort(rows), 0, k, cfg, n_sub, rng))
    return ForestModel(trees=tuple(trees), n_features=dim, class_codes=tuple(codes), config=cfg)


def _tree_class(node: TreeNode, x: np.ndarray) -> int:
    while node.feature >= 0:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return int(np.argmax(node.dist))


# ---------------------------------------------------------------------------
# prediction

def _check_dim(model: LinearModel | ForestModel, x: SparseVector) -> None:
    if x.dimension != model.n_features:
        raise DataError(
            f"feature dimension {x.dimension} does not match model ({model.n_features})"
        )


def decision_scores(model: LinearModel, x: SparseVector) -> np.ndarray:
    _check_dim(model, x)
    idx = np.asarray(x.indices, dtype=np.int64)
    val = np.asarray(x.values, dtype=np.float64)
    return model.weights[:, idx] @ val + model.bias


def predict_proba(model: LinearModel, x: SparseVector) -> np.ndarray:
    """Softmax class probabilities; defined for logistic regression models."""
    if model.kind != KIND_LOGREG:
        raise DataError(f"predict_proba requires a {KIND_LOGREG} model, got {model.kind}")
    return _softmax(decision_scores(model, x))


def predict(model: LinearModel | ForestModel, x: SparseVector) -> int:
    """Predicted class code; ties break toward the lowest code."""
    if isinstance(model, LinearModel):
        scores = decision_scores(model, x)
        return int(model.class_codes[int(np.argmax(scores))])
    _check_dim(model, x)
    dense = x.to_dense()
    votes = np.bincount(
        [_tree_class(tree, dense) for tree in model.trees],
        minlength=len(model.class_codes),
    )
    return int(model.class_codes[int(np.argmax(votes))])


def predict_many(model: LinearModel | ForestModel, X: Sequence[SparseVector]) -> list[int]:
    return [predict(model, x) for x in X]


# ---------------------------------------------------------------------------
# persistence

def _node_to_dict(node: TreeNode) -> dict:
    if node.feature < 0:
        return {"dist": list(node.dist)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data: object, n_features: int, k: int, where: str) -> TreeNode:
    if not isinstance(data, dict):
        raise DataError(f"{where}: tree node must be an object")
    if "dist" in data:
        dist = require_field(data, "dist", list, where)
        if len(dist) != k or not all(type(p) in (int, float) for p in dist):
            raise DataError(f"{where}: leaf 'dist' must be {k} numbers")
        return TreeNode(feature=-1, dist=tuple(dist))
    feature = require_field(data, "feature", int, where)
    if not 0 <= feature < n_features:
        raise DataError(f"{where}: split feature {feature} out of range [0, {n_features})")
    return TreeNode(
        feature=feature,
        threshold=require_field(data, "threshold", (int, float), where),
        left=_node_from_dict(require_field(data, "left", dict, where), n_features, k, where),
        right=_node_from_dict(require_field(data, "right", dict, where), n_features, k, where),
    )


def save_model(model: LinearModel | ForestModel, path: str | Path) -> None:
    """Write a model as JSON sufficient for exact reload."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(model, LinearModel):
        payload = {
            "kind": model.kind,
            "class_codes": list(model.class_codes),
            "n_features": model.n_features,
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
            "config": asdict(model.config),
            "loss_history": list(model.loss_history),
        }
    else:
        payload = {
            "kind": KIND_FOREST,
            "class_codes": list(model.class_codes),
            "n_features": model.n_features,
            "config": asdict(model.config),
            "trees": [_node_to_dict(t) for t in model.trees],
        }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LinearModel | ForestModel:
    """Read a model written by save_model; any schema violation raises DataError."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"cannot load model from {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path} does not contain a model")
    kind = payload.get("kind")
    if kind not in (KIND_LOGREG, KIND_SVM, KIND_FOREST):
        raise DataError(f"unknown model kind {kind!r} in {path}")
    codes = require_field(payload, "class_codes", list, path)
    if len(codes) < 2 or not all(type(c) is int for c in codes) or len(set(codes)) != len(codes):
        raise DataError(f"{path}: class_codes must be at least 2 distinct integers")
    n_features = require_field(payload, "n_features", int, path)
    if n_features < 0:
        raise DataError(f"{path}: n_features must be >= 0, got {n_features}")
    config = require_field(payload, "config", dict, path)
    try:
        cfg = from_dict(TrainConfig, config, "config")
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if kind == KIND_FOREST:
        trees = require_field(payload, "trees", list, path)
        if not trees:
            raise DataError(f"{path}: a forest needs at least one tree")
        return ForestModel(
            trees=tuple(_node_from_dict(t, n_features, len(codes), str(path)) for t in trees),
            n_features=n_features,
            class_codes=tuple(codes),
            config=cfg,
        )
    history = payload.get("loss_history", [])
    if not isinstance(history, list) or not all(type(v) in (int, float) for v in history):
        raise DataError(f"{path}: loss_history must be a list of numbers")
    weights = require_field(payload, "weights", list, path)
    bias = require_field(payload, "bias", list, path)
    try:
        weights = np.array(weights, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: weights and bias must be numeric arrays: {exc}") from None
    if weights.shape != (len(codes), n_features):
        raise DataError(f"{path}: weights shape {weights.shape} is not "
                        f"({len(codes)}, {n_features})")
    return LinearModel(
        kind=kind,
        weights=weights,
        bias=bias,
        class_codes=tuple(codes),
        config=cfg,
        loss_history=tuple(history),
    )
