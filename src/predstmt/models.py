"""From-scratch classifiers over sparse feature batches.

Three trainers share one sparse-input, dense-parameter design; each reads
the CSR arrays of a features.SparseBatch directly:

* multinomial logistic regression, full-batch gradient descent on the
  softmax cross-entropy plus (l2/2)||W||^2, with step-halving so the loss
  never increases across epochs;
* one-vs-rest linear SVM trained by Pegasos-style SGD on the L2-regularized
  hinge loss, step size 1/(l2 * t). The weights are kept as w = a * v, so
  the shrink w *= 1 - step * l2 of every step scales the scalar a and only
  a hinge-active step touches v, on the row's nonzero columns
  (Shalev-Shwartz et al., Math. Prog. 2011);
* a random forest of CART trees split on Gini impurity decrease over
  random feature subsets. A node's split search reads only its rows'
  nonzeros on the sampled features, plus one weighted entry per feature for
  the rows where it is zero, and sorts them once; no dense matrix is built
  (sparsity-aware split finding, Chen & Guestrin, KDD 2016).

predict_many classifies a whole batch at once; a forest sends all the rows
that reach a tree node left or right together. predict and predict_proba
take a one-row batch.

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

from .corpus import (
    DataError,
    from_dict,
    is_finite_number,
    parse_json,
    reject_unknown_keys,
    require_field,
)
from .config import TrainConfig
from .features import SparseBatch

KIND_LOGREG = "logreg"
KIND_SVM = "svm_linear"
KIND_FOREST = "random_forest"


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


def _check_inputs(X: SparseBatch, y: Sequence[int]) -> tuple[list[int], np.ndarray]:
    if len(X) != len(y):
        raise DataError(f"X and y lengths differ: {len(X)} vs {len(y)}")
    if len(X) < 2:
        raise DataError("training requires at least 2 documents")
    codes = sorted({int(v) for v in y})
    if len(codes) < 2:
        raise DataError("training requires at least 2 distinct label classes")
    return codes, np.searchsorted(codes, [int(v) for v in y])


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# logistic regression

def logreg_objective(weights: np.ndarray, bias: np.ndarray,
                     X: SparseBatch, y_idx: Sequence[int], l2: float) -> float:
    """Mean cross-entropy plus (l2/2)||W||^2; bias is not regularized."""
    y_idx = np.asarray(y_idx, dtype=np.int64)
    scores = X.scores(weights, bias)
    logp = scores - scores.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(len(X)), y_idx].mean()
    return float(nll + 0.5 * l2 * float((weights * weights).sum()))


def logreg_gradient(weights: np.ndarray, bias: np.ndarray,
                    X: SparseBatch, y_idx: Sequence[int],
                    l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic full-batch gradient of logreg_objective, as (dW, db)."""
    y_idx = np.asarray(y_idx, dtype=np.int64)
    probs = _softmax(X.scores(weights, bias))
    probs[np.arange(len(X)), y_idx] -= 1.0
    probs /= len(X)
    grad_w = l2 * weights
    X.add_outer(grad_w, probs)
    return grad_w, probs.sum(axis=0)


def train_logreg(X: SparseBatch, y: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """Fit a multinomial softmax classifier by full-batch gradient descent.

    The step size halves whenever a step would raise the objective, so the
    recorded loss history is non-increasing (up to 1e-8) by construction.
    """
    codes, y_idx = _check_inputs(X, y)
    k = len(codes)
    weights = np.zeros((k, X.dim))
    bias = np.zeros(k)
    lr = cfg.learning_rate
    loss = logreg_objective(weights, bias, X, y_idx, cfg.l2)
    history = [loss]
    for _ in range(cfg.epochs):
        grad_w, grad_b = logreg_gradient(weights, bias, X, y_idx, cfg.l2)
        while True:
            next_w = weights - lr * grad_w
            next_b = bias - lr * grad_b
            next_loss = logreg_objective(next_w, next_b, X, y_idx, cfg.l2)
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

def svm_objective(w: np.ndarray, b: float, X: SparseBatch,
                  y_signed: Sequence[float], l2: float) -> float:
    """(l2/2)||w||^2 + mean hinge loss for one binary one-vs-rest problem."""
    y_signed = np.asarray(y_signed, dtype=np.float64)
    margins = y_signed * (X.scores(w[None, :], np.array([b]))[:, 0])
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * l2 * float(w @ w) + hinge.mean())


def svm_subgradient(w: np.ndarray, b: float, X: SparseBatch,
                    y_signed: Sequence[float], l2: float) -> tuple[np.ndarray, float]:
    """Full-batch subgradient of svm_objective, as (dw, db)."""
    y_signed = np.asarray(y_signed, dtype=np.float64)
    margins = y_signed * (X.scores(w[None, :], np.array([b]))[:, 0])
    active = (margins < 1.0).astype(np.float64)
    coeff = -(active * y_signed / len(X))[:, None]
    grad_w = l2 * w.copy()
    X.add_outer(grad_w[None, :], coeff)
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


def train_svm_linear(X: SparseBatch, y: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """Fit one Pegasos-trained binary separator per class (one-vs-rest).

    Requires l2 > 0 since the step size is 1/(l2 * t). The per-class RNG is
    derived from (seed, class position) so training is order-independent
    across classes and reproducible.
    """
    if cfg.l2 <= 0:
        raise DataError("linear SVM training requires l2 > 0")
    codes, y_idx = _check_inputs(X, y)
    bounds = X.indptr.tolist()
    rows = [(X.indices[start:end], X.data[start:end]) for start, end in zip(bounds, bounds[1:])]
    weights = np.zeros((len(codes), X.dim))
    bias = np.zeros(len(codes))
    for ci in range(len(codes)):
        y_signed = np.where(y_idx == ci, 1.0, -1.0)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed & 0xFFFFFFFF,
                                                           spawn_key=(ci,)))
        weights[ci], bias[ci] = _pegasos_binary(rows, y_signed, cfg, rng, X.dim)
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


def _grow_tree(X: SparseBatch, y_idx: np.ndarray, rows: np.ndarray, mult: np.ndarray, depth: int,
               k: int, cfg: TrainConfig, n_sub: int, rng: np.random.Generator) -> TreeNode:
    """Grow one CART node over the distinct rows `rows`, row i counted mult[i] times.

    Candidates are scored from each sampled feature's nonzeros plus one
    weighted entry for its implicit zeros, all sorted together once; the
    winner is the first best feature in sampled order, then its first best
    cut, as a feature-by-feature scan of dense columns would find.
    """
    counts = np.bincount(y_idx[rows], weights=mult, minlength=k)
    n = int(mult.sum())

    def leaf() -> TreeNode:
        return TreeNode(feature=-1, dist=tuple((counts / n).tolist()))

    if depth >= cfg.max_depth or n < 2 * cfg.min_samples_leaf or np.count_nonzero(counts) <= 1:
        return leaf()

    feats = rng.choice(X.dim, size=n_sub, replace=False) if n_sub < X.dim \
        else np.arange(X.dim)
    rank = np.full(X.dim, -1)
    rank[feats] = np.arange(feats.size)

    # the node's explicit entries on sampled features: (rank, value, row position)
    starts = X.indptr[rows]
    lengths = X.indptr[rows + 1] - starts
    pos = np.repeat(np.arange(rows.size), lengths)
    ent = np.arange(pos.size) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    ent_rank = rank[X.indices[ent]]
    sampled = ent_rank >= 0
    ent, ent_rank, pos = ent[sampled], ent_rank[sampled], pos[sampled]
    ent_val = X.data[ent]
    ent_label = y_idx[rows[pos]]
    ent_weight = mult[pos]
    explicit = np.zeros((ent.size, k))
    explicit[np.arange(ent.size), ent_label] = ent_weight

    # one entry per sampled feature for its implicit zeros; none where no row is zero,
    # since an empty entry would add a cut at a value no row has
    zero_counts = counts - np.bincount(ent_rank * k + ent_label, weights=ent_weight,
                                       minlength=feats.size * k).reshape(feats.size, k)
    has_zero = zero_counts.sum(axis=1) > 0
    entry_rank = np.concatenate([ent_rank, np.flatnonzero(has_zero)])
    entry_val = np.concatenate([ent_val, np.zeros(int(has_zero.sum()))])
    entry_counts = np.concatenate([explicit, zero_counts[has_zero]])

    # sort by (rank, value); a cut sits where the value rises within a feature
    order = np.lexsort((entry_val, entry_rank))
    entry_rank, entry_val = entry_rank[order], entry_val[order]
    cum = np.zeros((order.size + 1, k))
    np.cumsum(entry_counts[order], axis=0, out=cum[1:])
    cut = np.flatnonzero((entry_rank[1:] == entry_rank[:-1]) & (entry_val[1:] > entry_val[:-1]))
    first = np.searchsorted(entry_rank, entry_rank[cut])  # where each cut's feature starts
    left = cum[cut + 1] - cum[first]
    nl = left.sum(axis=1)
    keep = (nl >= cfg.min_samples_leaf) & (n - nl >= cfg.min_samples_leaf)
    cut, left, nl = cut[keep], left[keep], nl[keep]
    if cut.size == 0:
        return leaf()
    # the dense scan's gain expression, elementwise, so ties and argmax fall the same way
    parent = gini(counts)
    right = counts - left
    nr = n - nl
    gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
    gain = parent - (nl / n) * gini_l - (nr / n) * gini_r
    j = int(np.argmax(gain))
    if gain[j] <= 1e-12:
        return leaf()
    i = cut[j]
    best_rank = entry_rank[i]
    best_feat = int(feats[best_rank])
    best_thr = float((entry_val[i] + entry_val[i + 1]) / 2.0)
    values = np.zeros(rows.size)
    chosen = ent_rank == best_rank
    values[pos[chosen]] = ent_val[chosen]
    mask = values <= best_thr
    left_node = _grow_tree(X, y_idx, rows[mask], mult[mask], depth + 1, k, cfg, n_sub, rng)
    right_node = _grow_tree(X, y_idx, rows[~mask], mult[~mask], depth + 1, k, cfg, n_sub, rng)
    return TreeNode(feature=best_feat, threshold=best_thr, left=left_node, right=right_node)


def train_random_forest(X: SparseBatch, y: Sequence[int], cfg: TrainConfig) -> ForestModel:
    """Fit a bagged ensemble of Gini CART trees.

    Each tree gets its own bootstrap sample and RNG stream spawned from the
    config seed; every split searches a random subset of ceil(sqrt(d))
    features and is kept only when it strictly decreases Gini impurity.
    """
    codes, y_idx = _check_inputs(X, y)
    n = len(X)
    k = len(codes)
    n_sub = max(1, math.ceil(math.sqrt(X.dim)))
    master = np.random.SeedSequence(entropy=cfg.seed & 0xFFFFFFFF)
    trees = []
    for child in master.spawn(cfg.n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        rows, mult = np.unique(rows, return_counts=True)
        trees.append(_grow_tree(X, y_idx, rows, mult, 0, k, cfg, n_sub, rng))
    return ForestModel(trees=tuple(trees), n_features=X.dim, class_codes=tuple(codes), config=cfg)


# ---------------------------------------------------------------------------
# prediction

def _check_dim(model: LinearModel | ForestModel, X: SparseBatch) -> None:
    if X.dim != model.n_features:
        raise DataError(f"feature dimension {X.dim} does not match model ({model.n_features})")


def _one_row(x: SparseBatch) -> SparseBatch:
    if len(x) != 1:
        raise DataError(f"expected a one-row batch, got {len(x)} rows")
    return x


def _forest_votes(model: ForestModel, X: SparseBatch) -> np.ndarray:
    """(n, k) tree votes per row; each node splits the rows that reach it at once,
    reading its feature's nonzeros from the entries sorted by column."""
    n = len(X)
    by_column = np.argsort(X.indices, kind="stable")
    columns = X.indices[by_column]
    col_rows = np.repeat(np.arange(n), np.diff(X.indptr))[by_column]
    col_vals = X.data[by_column]
    values = np.zeros(n)  # the split feature's value per row, zeroed after each split
    votes = np.zeros((n, len(model.class_codes)), dtype=np.int64)
    for tree in model.trees:
        stack = [(tree, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if node.feature < 0:
                votes[rows, int(np.argmax(node.dist))] += 1
            elif rows.size:
                entries = slice(*np.searchsorted(columns, (node.feature, node.feature + 1)))
                values[col_rows[entries]] = col_vals[entries]
                left = values[rows] <= node.threshold
                values[col_rows[entries]] = 0.0
                stack += [(node.left, rows[left]), (node.right, rows[~left])]
    return votes


def predict_many(model: LinearModel | ForestModel, X: SparseBatch) -> list[int]:
    """Predicted class code of every row; ties break toward the lowest code."""
    _check_dim(model, X)
    if isinstance(model, LinearModel):
        winners = np.argmax(X.scores(model.weights, model.bias), axis=1)
    else:
        winners = np.argmax(_forest_votes(model, X), axis=1)
    return [model.class_codes[i] for i in winners.tolist()]


def predict(model: LinearModel | ForestModel, x: SparseBatch) -> int:
    """Predicted class code of a one-row batch."""
    return predict_many(model, _one_row(x))[0]


def predict_proba(model: LinearModel, x: SparseBatch) -> np.ndarray:
    """Softmax class probabilities of a one-row batch; defined for logistic regression."""
    if model.kind != KIND_LOGREG:
        raise DataError(f"predict_proba requires a {KIND_LOGREG} model, got {model.kind}")
    _check_dim(model, x)
    return _softmax(_one_row(x).scores(model.weights, model.bias))[0]


# ---------------------------------------------------------------------------
# persistence

def _node_to_dict(node: TreeNode) -> dict:
    if node.feature < 0:
        return {"dist": list(node.dist)}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _node_to_dict(node.left), "right": _node_to_dict(node.right)}


def _node_from_dict(data: object, n_features: int, k: int, where: str) -> TreeNode:
    if not isinstance(data, dict):
        raise DataError(f"{where}: tree node must be an object")
    if "dist" in data:
        reject_unknown_keys(data, {"dist"}, f"{where}: leaf")
        dist = require_field(data, "dist", list, where)
        if len(dist) != k or not all(is_finite_number(p) and 0 <= p <= 1 for p in dist):
            raise DataError(f"{where}: leaf 'dist' must be {k} numbers in [0, 1]")
        return TreeNode(feature=-1, dist=tuple(dist))
    reject_unknown_keys(data, {"feature", "threshold", "left", "right"}, f"{where}: tree node")
    feature = require_field(data, "feature", int, where)
    if not 0 <= feature < n_features:
        raise DataError(f"{where}: split feature {feature} out of range [0, {n_features})")
    threshold = require_field(data, "threshold", (int, float), where)
    if not is_finite_number(threshold):
        raise DataError(f"{where}: split threshold must be a finite number")
    return TreeNode(
        feature=feature,
        threshold=float(threshold),
        left=_node_from_dict(require_field(data, "left", dict, where), n_features, k, where),
        right=_node_from_dict(require_field(data, "right", dict, where), n_features, k, where),
    )


def _finite_numbers(values: object, what: str, where: object) -> list:
    """values when it is a list of finite numbers; DataError otherwise."""
    if not isinstance(values, list) or not all(map(is_finite_number, values)):
        raise DataError(f"{where}: {what} must be a list of finite numbers")
    return values


def save_model(model: LinearModel | ForestModel, path: str | Path) -> None:
    """Write a model as JSON sufficient for exact reload."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "kind": model.kind if isinstance(model, LinearModel) else KIND_FOREST,
        "class_codes": list(model.class_codes),
        "n_features": model.n_features,
        "config": asdict(model.config),
    }
    if isinstance(model, LinearModel):
        payload.update(weights=model.weights.tolist(), bias=model.bias.tolist(),
                       loss_history=list(model.loss_history))
    else:
        payload["trees"] = [_node_to_dict(t) for t in model.trees]
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LinearModel | ForestModel:
    """Read a model written by save_model; any schema violation raises DataError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot load model from {path}: {exc}") from None
    payload = parse_json(text, lambda reason: DataError(f"cannot load model from {path}: {reason}"))
    if not isinstance(payload, dict):
        raise DataError(f"{path} does not contain a model")
    kind = payload.get("kind")
    if kind not in (KIND_LOGREG, KIND_SVM, KIND_FOREST):
        raise DataError(f"unknown model kind {kind!r} in {path}")
    reject_unknown_keys(payload, {"kind", "class_codes", "n_features", "config"} | (
        {"trees"} if kind == KIND_FOREST else {"weights", "bias", "loss_history"}), path)
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
    history = _finite_numbers(payload.get("loss_history", []), "loss_history", path)
    rows = require_field(payload, "weights", list, path)
    if len(rows) != len(codes) or not all(isinstance(row, list) and len(row) == n_features
                                          for row in rows):
        raise DataError(f"{path}: weights are not a ({len(codes)}, {n_features}) table")
    _finite_numbers([v for row in rows for v in row], "weights", path)
    bias = _finite_numbers(require_field(payload, "bias", list, path), "bias", path)
    return LinearModel(
        kind=kind,
        weights=np.array(rows, dtype=np.float64),
        bias=np.array(bias, dtype=np.float64),
        class_codes=tuple(codes),
        config=cfg,
        loss_history=tuple(history),
    )
