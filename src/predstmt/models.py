"""From-scratch classifiers over sparse feature batches.

Three trainers share one sparse-input, dense-parameter design; each reads
the CSR arrays of a features.SparseBatch directly:

* multinomial logistic regression on the softmax cross-entropy plus
  (l2/2)||W||^2, and a linear SVM on the L2-regularized squared hinge
  (Fan et al., JMLR 2008): one separator for two classes, scored as (-w, w)
  so class 1 wins exactly where w.x + b > 0, and one-vs-rest for three or
  more. Both minimize by one full-batch L-BFGS with Armijo backtracking,
  where a trial point costs one scoring of the batch and one add_outer;
* a random forest of CART trees split on Gini impurity decrease over
  random feature subsets (Breiman, Machine Learning 2001). All trees of a
  fit grow together, one depth level per step, over one column-major view
  of the batch: a step reads, for every node it may split, the nonzeros of
  the node's sampled columns whose row is in the node, plus one weighted
  entry per (node, feature) for the node's rows where the feature is zero.
  Each column's entries are sorted by value once per fit, so no step sorts
  and no dense matrix is built (sparsity-aware, column-block split finding,
  Chen & Guestrin, KDD 2016). A node's features are drawn from a stream
  keyed by the node itself, so a tree does not depend on growth order.
  Each level appends its nodes to flat feature/threshold/child/dist arrays
  (ForestModel); ForestModel.trees is a TreeNode view built on demand.

predict_many classifies a whole batch at once; in a forest every (tree,
row) pair descends one level per numpy step.

All training is deterministic given the config seed. Ties in any argmax
break toward the lowest class code.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .corpus import DataError
from .config import TrainConfig
from .features import SparseBatch

KIND_LOGREG = "logreg"
KIND_SVM = "svm_linear"


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
    """Every tree's nodes in flat arrays, as scikit-learn's _tree stores one, level by level.

    Node t < n_trees is tree t's root; each level's nodes follow the level
    above, and split j of the forest, counted in node order, has its children
    at n_trees + 2j and n_trees + 2j + 1. A split node i sends a row whose
    feature[i] value is at most threshold[i] to child[i], else to child[i] + 1.
    A leaf has feature and child -1, threshold 0 and its class distribution
    in dist[i]; a split's dist row is zero.
    """

    feature: np.ndarray  # (nodes,) int64
    threshold: np.ndarray  # (nodes,)
    child: np.ndarray  # (nodes,) int64
    dist: np.ndarray  # (nodes, n_classes)
    n_trees: int
    n_features: int
    class_codes: tuple[int, ...]
    config: TrainConfig

    @cached_property
    def trees(self) -> tuple[TreeNode, ...]:
        """The trees as TreeNode objects, built on first use.

        Nothing in the package reads them; the traced benchmark and the tests do.
        """
        built: list = [None] * self.feature.size
        nodes = zip(self.feature.tolist(), self.threshold.tolist(), self.child.tolist(),
                    self.dist.tolist())
        for i, (f, t, c, dist) in reversed(list(enumerate(nodes))):  # children come later
            built[i] = (TreeNode(feature=-1, dist=tuple(dist)) if c < 0 else
                        TreeNode(feature=f, threshold=t, left=built[c], right=built[c + 1]))
        return tuple(built[:self.n_trees])


def _children(feature: np.ndarray, n_trees: int) -> np.ndarray:
    """ForestModel.child of the level-major nodes with these split features."""
    split = feature >= 0
    return np.where(split, n_trees + 2 * (np.cumsum(split) - 1), -1)


def _check_inputs(X: SparseBatch, y: Sequence[int]) -> tuple[list[int], np.ndarray]:
    if len(X) != len(y):
        raise DataError(f"X and y lengths differ: {len(X)} vs {len(y)}")
    if len(X) < 2:
        raise DataError("training requires at least 2 documents")
    codes = sorted({int(v) for v in y})
    if len(codes) < 2:
        raise DataError("training requires at least 2 distinct label classes")
    return codes, np.searchsorted(codes, [int(v) for v in y])


# ---------------------------------------------------------------------------
# L-BFGS, for both linear models

_LBFGS_MEMORY = 10  # curvature pairs (s, y) kept
_LBFGS_TOL = 1e-5  # a run stops once an iteration lowers f by at most this share of max(|f|, 1)


def _lbfgs(fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray,
           max_iter: int, first_step: float) -> tuple[np.ndarray, list[float]]:
    """Minimize a smooth f, given as fun_grad(x) = (f(x), grad f(x)), by limited-memory BFGS.

    Liu & Nocedal, Math. Prog. 1989. The first trial step is -first_step *
    grad f while no curvature pair is stored, else -H grad f by the two-loop
    recursion. The step halves until f falls by Armijo's sufficient decrease
    with c1 = 1e-4, which a non-finite f fails; no floating-point warning is
    raised. When no step down to 1e-12 of the first passes and no pair is
    stored, the search starts once more from the unit-length step along
    -grad f, so a first_step too large for any halving to rescue still
    trains. The run ends at the current point when no step passes, after
    max_iter iterations, or after an iteration past the first, whose length
    first_step sets, that lowers f by at most _LBFGS_TOL * max(|f|, 1).
    Returns the last point and f at x0 and after every iteration, which
    never increases.
    """
    x = x0
    pairs: deque = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / s'y), oldest first
    with np.errstate(all="ignore"):
        f, g = fun_grad(x)
        history = [f]
        for it in range(max_iter):
            d, alphas = g, []  # d becomes H g by the two-loop recursion
            for s, y, rho in reversed(pairs):
                alphas.append(rho * float(s @ d))
                d = d - alphas[-1] * y
            if pairs:  # H0 = (s'y / y'y) I from the newest pair
                d = d / (pairs[-1][2] * float(pairs[-1][1] @ pairs[-1][1]))
            for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
                d = d + (alpha - rho * float(y @ d)) * s
            if not pairs or not float(g @ d) > 0:  # no pair yet, or rounding left no descent
                d = first_step * g
            slope, t, restart = -float(g @ d), 1.0, not pairs
            while True:
                x_next = x - t * d
                f_next, g_next = fun_grad(x_next)
                if f_next <= f + 1e-4 * t * slope:  # False for a NaN or infinite f_next
                    break
                t *= 0.5
                if t < 1e-12 and restart:  # once more, from the unit-length step
                    d, restart = g / math.sqrt(float(g @ g)), False
                    slope, t = -float(g @ d), 1.0
                elif t < 1e-12:
                    return x, history
            s, y = x_next - x, g_next - g
            if float(s @ y) > 0:  # else the pair would leave H not positive definite
                pairs.append((s, y, 1.0 / float(s @ y)))
            x, f_prev, f, g = x_next, f, f_next, g_next
            history.append(f)
            if it and f_prev - f <= _LBFGS_TOL * max(abs(f), 1.0):
                break
    return x, history


# ---------------------------------------------------------------------------
# logistic regression

def _logreg_loss_grad(weights: np.ndarray, bias: np.ndarray, X: SparseBatch,
                      y_idx: np.ndarray, l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """logreg_objective and its gradient (dW, db), from one scoring and one softmax."""
    shifted = X.scores(weights, bias)
    shifted -= shifted.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=1, keepdims=True)
    rows = np.arange(len(X))
    nll = -(shifted - np.log(sums))[rows, y_idx].mean()
    probs = exp / sums
    probs[rows, y_idx] -= 1.0
    probs /= len(X)
    grad_w = l2 * weights
    X.add_outer(grad_w, probs)
    return float(nll + 0.5 * l2 * float((weights * weights).sum())), grad_w, probs.sum(axis=0)


def logreg_objective(weights: np.ndarray, bias: np.ndarray,
                     X: SparseBatch, y_idx: Sequence[int], l2: float) -> float:
    """Mean cross-entropy plus (l2/2)||W||^2; bias is not regularized."""
    return _logreg_loss_grad(weights, bias, X, np.asarray(y_idx, dtype=np.int64), l2)[0]


def logreg_gradient(weights: np.ndarray, bias: np.ndarray,
                    X: SparseBatch, y_idx: Sequence[int],
                    l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic full-batch gradient of logreg_objective, as (dW, db)."""
    return _logreg_loss_grad(weights, bias, X, np.asarray(y_idx, dtype=np.int64), l2)[1:]


def train_logreg(X: SparseBatch, y: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """Fit a multinomial softmax classifier by L-BFGS on logreg_objective, from zero.

    cfg.epochs caps the iterations; the first trial step is -cfg.learning_rate
    times the gradient. One scoring of the batch per trial point gives both
    the objective and the gradient. The loss history holds the objective at
    the start and after every iteration.
    """
    codes, y_idx = _check_inputs(X, y)
    k = len(codes)

    def fun_grad(params: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad_w, grad_b = _logreg_loss_grad(params[k:].reshape(k, X.dim), params[:k], X,
                                                 y_idx, cfg.l2)
        return loss, np.append(grad_b, grad_w)

    params, history = _lbfgs(fun_grad, np.zeros(k * (X.dim + 1)), cfg.epochs, cfg.learning_rate)
    return LinearModel(
        kind=KIND_LOGREG,
        weights=params[k:].reshape(k, X.dim),
        bias=params[:k],
        class_codes=tuple(codes),
        config=cfg,
        loss_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# linear SVM (squared hinge; one separator for two classes, else one-vs-rest)

def _svm_loss_grad(params: np.ndarray, X: SparseBatch, y_signed: np.ndarray,
                   l2: float) -> tuple[float, np.ndarray]:
    """svm_objective and its gradient at (w, b) = (params[:-1], params[-1]), from one scoring."""
    w = params[:-1]
    slack = np.maximum(0.0, 1.0 - y_signed * X.scores(w[None, :], params[-1:])[:, 0])
    coeff = (-2.0 / len(X)) * y_signed * slack
    grad = np.append(l2 * w, coeff.sum())
    X.add_outer(grad[None, :-1], coeff[:, None])
    return float(0.5 * l2 * float(w @ w) + (slack * slack).mean()), grad


def svm_objective(w: np.ndarray, b: float, X: SparseBatch,
                  y_signed: Sequence[float], l2: float) -> float:
    """(l2/2)||w||^2 + mean squared hinge max(0, 1 - y(w.x + b))^2 for one binary separator."""
    return _svm_loss_grad(np.append(w, b), X, np.asarray(y_signed, dtype=np.float64), l2)[0]


def svm_subgradient(w: np.ndarray, b: float, X: SparseBatch,
                    y_signed: Sequence[float], l2: float) -> tuple[np.ndarray, float]:
    """Full-batch gradient of svm_objective, as (dw, db); the squared hinge is differentiable."""
    grad = _svm_loss_grad(np.append(w, b), X, np.asarray(y_signed, dtype=np.float64), l2)[1]
    return grad[:-1], float(grad[-1])


def train_svm_linear(X: SparseBatch, y: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """Fit squared-hinge binary separators: one for two classes, else one per class.

    Each separator minimizes svm_objective, LIBLINEAR's L2-loss SVM primal,
    by L-BFGS from zero as train_logreg does. With two classes, one separator
    (w, b) is trained for class position 1 against class 0 and stored as
    weights (-w, w) and bias (-b, b). Negation is exact, so predict_many
    picks class 1 exactly where w.x + b > 0; a score of exactly 0 is a tie
    and goes to the lower class code. With three or more classes, each class
    gets its own separator against the rest (one-vs-rest). Requires l2 > 0:
    without it, separable data has no minimum.
    """
    if cfg.l2 <= 0:
        raise DataError("linear SVM training requires l2 > 0")
    codes, y_idx = _check_inputs(X, y)
    k = len(codes)
    weights = np.zeros((k, X.dim))
    bias = np.zeros(k)
    for ci in ([1] if k == 2 else range(k)):
        fun_grad = partial(_svm_loss_grad, X=X, y_signed=np.where(y_idx == ci, 1.0, -1.0),
                           l2=cfg.l2)
        params, _ = _lbfgs(fun_grad, np.zeros(X.dim + 1), cfg.epochs, cfg.learning_rate)
        weights[ci], bias[ci] = params[:-1], params[-1]
    if k == 2:
        weights[0], bias[0] = -weights[1], -bias[1]
    return LinearModel(
        kind=KIND_SVM,
        weights=weights,
        bias=bias,
        class_codes=tuple(codes),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# random forest

def _column_view(X: SparseBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X column-major: column j's rows and values sit at col_ptr[j]:col_ptr[j + 1], by value."""
    by_column = np.lexsort((X.data, X.indices))
    col_ptr = np.zeros(X.dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(X.indices, minlength=X.dim), out=col_ptr[1:])
    col_rows = np.repeat(np.arange(len(X)), np.diff(X.indptr))[by_column]
    return col_ptr, col_rows, X.data[by_column]


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + lengths[i] - 1 for every i, concatenated."""
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return np.arange(shift.size) + shift


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SIDES = np.array([1, 2], dtype=np.uint64)  # hashed into a left and a right child's key


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 of every uint64 in x: x + gamma, well mixed (Steele et al., OOPSLA 2014)."""
    x = x + _GAMMA
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _root_keys(seed: int, n_trees: int) -> np.ndarray:
    """The feature-draw key of every tree's root."""
    seeds = _mix(np.full(n_trees, seed & 0xFFFFFFFF, dtype=np.uint64))
    return _mix(seeds ^ np.arange(n_trees, dtype=np.uint64))


def _child_keys(keys: np.ndarray) -> np.ndarray:
    """The keys of the left and right child of every node, interleaved.

    A key hashes its parent's key and its side, so it is a function of the
    seed, the tree and the node's path alone: a tree does not depend on the
    order in which its nodes are grown.
    """
    return _mix((keys[:, None] ^ _SIDES).ravel())


def _node_features(keys: np.ndarray, dim: int, n_sub: int) -> np.ndarray:
    """(nodes, n_sub): the features each node searches, in sampled order.

    A node samples without replacement: the first n_sub distinct values of
    word % dim over the splitmix64 stream of its key.
    """
    if n_sub >= dim:
        return np.tile(np.arange(dim), (keys.size, 1))
    # with n_sub about sqrt(dim), n_sub + 8 words almost always hold n_sub distinct
    # features; when a node's do not, every node reads a stream twice as long
    width = n_sub + 8
    while True:
        words = _mix(keys[:, None] + _GAMMA * np.arange(width, dtype=np.uint64))
        feats = (words % np.uint64(dim)).astype(np.int64)
        flat = (feats + np.arange(0, keys.size * dim, dim)[:, None]).ravel()
        order = np.argsort(flat, kind="stable")
        ordered = flat[order]
        fresh = np.empty(flat.size, dtype=bool)
        fresh[order] = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        fresh = fresh.reshape(feats.shape)
        if (fresh.sum(axis=1) >= n_sub).all():
            return feats[fresh & (np.cumsum(fresh, axis=1) <= n_sub)].reshape(keys.size, n_sub)
        width *= 2


def _grow_forest(X: SparseBatch, y_idx: np.ndarray, weights: np.ndarray, k: int,
                 cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grow tree t over the rows of X, row i counted weights[t, i] times, for every t at once.

    The trees grow together, one depth level per step. A step scores every
    cut of every splittable node of the level in one pass over the entries
    of each node's sampled columns whose row is in the node, plus one
    weighted entry per (node, feature) for the node's rows where the feature
    is zero. A node takes its first best feature in sampled order, then that
    feature's first best cut, as a feature-by-feature scan of dense columns
    would. Returns ForestModel's feature, threshold and dist arrays: each
    level appends its nodes in order, so split j of a level has its children
    at 2j and 2j + 1 of the next.
    """
    n_trees, n = weights.shape
    dim = X.dim
    n_sub = min(dim, max(1, math.ceil(math.sqrt(dim))))
    min_leaf = cfg.min_samples_leaf
    col_ptr, col_rows, col_vals = _column_view(X)
    col_len = np.diff(col_ptr)
    w_flat = weights.ravel()
    y_flat = np.tile(y_idx, n_trees)
    # the level's node holding (tree t, row i), at t * n + i; -1 when in no node of the level
    node_of = np.where(w_flat > 0, np.repeat(np.arange(n_trees), n), -1)
    goes_right = np.zeros(w_flat.size, dtype=bool)
    node_tree, node_key = np.arange(n_trees), _root_keys(cfg.seed, n_trees)
    features, thresholds, dists = [], [], []  # one array per level
    depth = 0
    while node_tree.size:
        m = node_tree.size
        act = np.flatnonzero(node_of >= 0)
        node_act = node_of[act]
        counts = np.bincount(node_act * k + y_flat[act], weights=w_flat[act],
                             minlength=m * k).reshape(m, k)
        total = counts.sum(axis=1)
        dist = counts / total[:, None]
        cand = np.flatnonzero((total >= 2 * min_leaf) & (np.count_nonzero(counts, axis=1) > 1)
                              & (depth < cfg.max_depth))
        feats = _node_features(node_key[cand], dim, n_sub)

        # a (node, sampled feature) pair is cand slot * n_sub + rank; gather each pair's column
        # entries whose row is in the node, which come sorted by (pair, value)
        pair_feat = feats.ravel()
        pair_node = np.repeat(cand, n_sub)
        n_pairs = pair_feat.size
        lengths = col_len[pair_feat]
        ent = _segments(col_ptr[pair_feat], lengths)
        pair = np.repeat(np.arange(n_pairs), lengths)
        flat = np.repeat(node_tree[pair_node] * n, lengths) + col_rows[ent]
        inside = np.flatnonzero(node_of[flat] == pair_node[pair])
        ent, pair, flat = ent[inside], pair[inside], flat[inside]
        val, label, weight = col_vals[ent], y_flat[flat], w_flat[flat]
        # one entry per pair for the node's implicit zeros, placed after the pair's negative
        # values; none where no row is zero, since an empty entry would add a cut at a value
        # no row has
        zero = np.repeat(counts[cand], n_sub, axis=0) - np.bincount(
            pair * k + label, weights=weight, minlength=n_pairs * k).reshape(n_pairs, k)
        has_zero = np.flatnonzero(zero.sum(axis=1) > 0)
        below_zero = np.bincount(pair[val < 0.0], minlength=n_pairs)[has_zero]
        zero_at = np.searchsorted(pair, has_zero) + below_zero + np.arange(has_zero.size)
        at = np.ones(pair.size + has_zero.size, dtype=bool)
        at[zero_at] = False
        at = np.flatnonzero(at)
        entry_pair = np.empty(at.size + has_zero.size, dtype=np.int64)
        entry_pair[at], entry_pair[zero_at] = pair, has_zero
        entry_val = np.zeros(entry_pair.size)
        entry_val[at] = val
        cum = np.zeros((entry_pair.size + 1, k))
        cum[1 + at, label] = weight
        cum[1 + zero_at] = zero[has_zero]
        np.cumsum(cum, axis=0, out=cum)

        # a cut sits where the value rises within a pair
        cut = np.flatnonzero((entry_pair[1:] == entry_pair[:-1])
                             & (entry_val[1:] > entry_val[:-1]))
        pair_start = np.searchsorted(entry_pair, np.arange(n_pairs))
        left = cum.take(cut + 1, axis=0) - cum.take(pair_start[entry_pair[cut]], axis=0)
        nl = left.sum(axis=1)
        node = pair_node[entry_pair[cut]]
        nn = total[node]
        keep = np.flatnonzero((nl >= min_leaf) & (nn - nl >= min_leaf))
        cut, left, nl, node, nn = cut[keep], left[keep], nl[keep], node[keep], nn[keep]
        # the dense scan's gain expression, elementwise, so ties and argmax fall the same way
        parent = 1.0 - (dist * dist).sum(axis=1)
        right = counts[node] - left
        nr = nn - nl
        gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
        gain = parent[node] - (nl / nn) * gini_l - (nr / nn) * gini_r
        # cuts come grouped by node; each node's first cut of its best gain
        firsts = np.flatnonzero(np.diff(node, prepend=-1))
        top = np.maximum.reduceat(gain, firsts) if firsts.size else gain
        best = np.flatnonzero(gain == np.repeat(top, np.diff(firsts, append=gain.size)))
        best = best[np.flatnonzero(np.diff(node[best], prepend=-1))]
        best = best[gain[best] > 1e-12]
        split = node[best]
        best_pair = entry_pair[cut[best]]
        threshold = (entry_val[cut[best]] + entry_val[cut[best] + 1]) / 2.0

        # route each split node's rows: a zero goes by 0 <= threshold, an entry of the
        # chosen column by its value
        thr_of_node = np.full(m, np.nan)
        thr_of_node[split] = threshold
        goes_right[act] = thr_of_node[node_act] < 0.0
        thr_of_pair = np.full(n_pairs, np.nan)
        thr_of_pair[best_pair] = threshold
        chosen = np.flatnonzero(~np.isnan(thr_of_pair[pair]))
        goes_right[flat[chosen]] = val[chosen] > thr_of_pair[pair[chosen]]
        child = np.full(m, -1)
        child[split] = np.arange(0, 2 * split.size, 2)
        child_act = child[node_act]
        node_of[act] = np.where(child_act >= 0, child_act + goes_right[act], -1)

        features.append(np.full(m, -1))
        features[-1][split] = pair_feat[best_pair]
        thresholds.append(np.zeros(m))
        thresholds[-1][split] = threshold
        dist[split] = 0.0
        dists.append(dist)
        node_tree, node_key = np.repeat(node_tree[split], 2), _child_keys(node_key[split])
        depth += 1
    return np.concatenate(features), np.concatenate(thresholds), np.concatenate(dists)


def train_random_forest(X: SparseBatch, y: Sequence[int], cfg: TrainConfig) -> ForestModel:
    """Fit a bagged ensemble of Gini CART trees.

    Each tree gets its own bootstrap sample, drawn from an RNG stream spawned
    from the config seed; every split searches a random subset of
    ceil(sqrt(d)) features, drawn from a stream keyed by (seed, tree, node),
    and is kept only when it strictly decreases Gini impurity.
    """
    codes, y_idx = _check_inputs(X, y)
    n = len(X)
    if cfg.bootstrap:
        master = np.random.SeedSequence(entropy=cfg.seed & 0xFFFFFFFF)
        weights = np.array([np.bincount(np.random.default_rng(child).integers(0, n, size=n),
                                        minlength=n) for child in master.spawn(cfg.n_trees)],
                           dtype=np.float64)
    else:
        weights = np.ones((cfg.n_trees, n))
    feature, threshold, dist = _grow_forest(X, y_idx, weights, len(codes), cfg)
    return ForestModel(feature=feature, threshold=threshold, child=_children(feature, cfg.n_trees),
                       dist=dist, n_trees=cfg.n_trees, n_features=X.dim,
                       class_codes=tuple(codes), config=cfg)


def forest_size(model: ForestModel) -> dict:
    """Node and leaf counts over all trees, and the mean and max of the tree depths."""
    n = model.feature.size
    depth, tree = np.zeros(n, dtype=np.int64), np.arange(n)
    lo, hi = 0, model.n_trees  # one level's nodes; its splits' children follow them
    while lo < hi:
        up = lo + np.flatnonzero(model.child[lo:hi] >= 0).repeat(2)
        depth[hi:hi + up.size], tree[hi:hi + up.size] = depth[up] + 1, tree[up]
        lo, hi = hi, hi + up.size
    depths = np.zeros(model.n_trees, dtype=np.int64)
    np.maximum.at(depths, tree, depth)
    return {"nodes": n, "leaves": int(np.count_nonzero(model.child < 0)),
            "mean_depth": int(depths.sum()) / model.n_trees, "max_depth": int(depths.max())}


# ---------------------------------------------------------------------------
# prediction

def _check_dim(model: LinearModel | ForestModel, X: SparseBatch) -> None:
    if X.dim != model.n_features:
        raise DataError(f"feature dimension {X.dim} does not match model ({model.n_features})")


def _forest_votes(model: ForestModel, X: SparseBatch) -> np.ndarray:
    """(n, k) tree votes per row; every (tree, row) pair descends one level per step.

    A split reads its row's value by one search over the batch's row * dim +
    column keys, which CSR order keeps rising; a key past them all ends the
    search for an absent feature, whose value is 0.
    """
    n, k = len(X), len(model.class_codes)
    keys = np.append(np.repeat(np.arange(n), np.diff(X.indptr)) * X.dim + X.indices, n * X.dim)
    values = np.append(X.data, 0.0)
    winner = np.argmax(model.dist, axis=1)
    row, node = np.tile(np.arange(n), model.n_trees), np.repeat(np.arange(model.n_trees), n)
    ballots = []  # row * k + the class a leaf votes for
    while True:
        leaf = model.child[node] < 0
        ballots.append(row[leaf] * k + winner[node[leaf]])
        if leaf.all():
            return np.bincount(np.concatenate(ballots), minlength=n * k).reshape(n, k)
        row, node = row[~leaf], node[~leaf]
        key = row * X.dim + model.feature[node]
        at = np.searchsorted(keys, key)
        value = np.where(keys[at] == key, values[at], 0.0)
        node = model.child[node] + ~(value <= model.threshold[node])


def predict_many(model: LinearModel | ForestModel, X: SparseBatch) -> list[int]:
    """Predicted class code of every row; ties break toward the lowest code."""
    _check_dim(model, X)
    if isinstance(model, LinearModel):
        winners = np.argmax(X.scores(model.weights, model.bias), axis=1)
    else:
        winners = np.argmax(_forest_votes(model, X), axis=1)
    return [model.class_codes[i] for i in winners.tolist()]
