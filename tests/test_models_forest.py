"""Random forest and decision tree tests."""

import hashlib
import math
import random

import numpy as np
import pytest

from conftest import build_planted_dataset, dense_batch, dense_rows
from predstmt import (
    DataError,
    ForestModel,
    SparseBatch,
    Task,
    TrainConfig,
    count_terms,
    fit_tfidf,
    predict_many,
    preprocess,
    save_dataset,
    stratified_folds,
    train_logreg,
    train_random_forest,
    train_svm_linear,
    transform_many,
)
from predstmt.cli import main
from predstmt.models import (
    TreeNode,
    _child_keys,
    _children,
    _column_view,
    _forest_votes,
    _node_features,
    _root_keys,
    forest_size,
)


def sv(values, dimension=None):
    """The one-row batch of a dense row."""
    return dense_batch([list(values)], dimension)


def hand_forest(feature, threshold, dist, n_trees, n_features, class_codes):
    """The ForestModel of level-major node arrays written out by hand."""
    feature = np.array(feature, dtype=np.int64)
    return ForestModel(feature=feature, threshold=np.array(threshold, dtype=np.float64),
                       child=_children(feature, n_trees), dist=np.array(dist, dtype=np.float64),
                       n_trees=n_trees, n_features=n_features, class_codes=class_codes,
                       config=TrainConfig())


def gini(counts):
    """Gini impurity 1 - sum(p_i^2) of a class-count vector: the split oracles' impurity."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


class TestGini:
    def test_hand_values(self):
        assert gini([2, 2, 4]) == pytest.approx(0.625, abs=1e-12)
        assert gini([1, 1]) == pytest.approx(0.5, abs=1e-12)
        assert gini([5]) == 0.0
        assert gini([0, 0]) == 0.0
        assert gini([1, 1, 1, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_bounds_property(self):
        rng = random.Random(2)
        for _ in range(300):
            k = rng.randint(1, 6)
            counts = [rng.randint(0, 20) for _ in range(k)]
            g = gini(counts)
            assert 0.0 <= g <= 1.0 - 1.0 / k + 1e-12

    def test_pure_is_zero_uniform_is_max(self):
        for k in range(2, 6):
            assert gini([7] + [0] * (k - 1)) == 0.0
            assert gini([3] * k) == pytest.approx(1.0 - 1.0 / k, abs=1e-12)


def best_depth1_gain(points, labels, min_leaf):
    """Exhaustive search over every (feature, midpoint threshold) split."""
    n = len(points)
    k = max(labels) + 1
    parent = gini(np.bincount(labels, minlength=k))
    best = 0.0
    for f in range(len(points[0])):
        vals = sorted({p[f] for p in points})
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            left = [lab for p, lab in zip(points, labels) if p[f] <= thr]
            right = [lab for p, lab in zip(points, labels) if p[f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            weighted = (len(left) / n) * gini(np.bincount(left, minlength=k)) \
                + (len(right) / n) * gini(np.bincount(right, minlength=k))
            best = max(best, parent - weighted)
    return best


def split_gain(points, labels, feature, threshold):
    n = len(points)
    k = max(labels) + 1
    parent = gini(np.bincount(labels, minlength=k))
    left = [lab for p, lab in zip(points, labels) if p[feature] <= threshold]
    right = [lab for p, lab in zip(points, labels) if p[feature] > threshold]
    weighted = (len(left) / n) * gini(np.bincount(left, minlength=k)) \
        + (len(right) / n) * gini(np.bincount(right, minlength=k))
    return parent - weighted


class TestSingleTree:
    # one tree, no bootstrap, depth 1: the root split must be a best split
    def test_depth1_split_matches_exhaustive_oracle(self):
        rng = random.Random(19)
        for trial in range(15):
            points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]
            labels = [rng.randrange(2) for _ in range(8)]
            labels[0], labels[1] = 0, 1
            cfg = TrainConfig(n_trees=1, bootstrap=False, max_depth=1,
                              min_samples_leaf=1, seed=trial)
            model = train_random_forest(dense_batch(points), labels, cfg)
            root = model.trees[0]
            oracle = best_depth1_gain(points, labels, min_leaf=1)
            if oracle <= 1e-12:
                assert root.feature == -1
            else:
                assert root.feature >= 0
                achieved = split_gain(points, labels, root.feature, root.threshold)
                assert achieved == pytest.approx(oracle, abs=1e-12)

    def test_sign_of_first_feature_learned_exactly(self):
        # class is sign(x0); a single depth-1 tree can separate this perfectly
        rng = random.Random(31)
        points = []
        for _ in range(12):
            x0 = rng.choice([-1, 1]) * rng.uniform(0.2, 2.0)
            points.append((x0, rng.uniform(-2, 2)))
        labels = [1 if p[0] > 0 else 0 for p in points]
        cfg = TrainConfig(n_trees=1, bootstrap=False, max_depth=1,
                          min_samples_leaf=1, seed=7)
        model = train_random_forest(dense_batch(points), labels, cfg)
        hits = sum(predict_many(model, sv(p))[0] == t for p, t in zip(points, labels))
        assert hits == len(points)

    def test_pure_node_becomes_leaf(self):
        X = dense_batch([[0.1, 5.0], [0.9, -3.0], [0.4, 1.0], [0.6, 2.0]])
        y = [0, 0, 0, 1]
        cfg = TrainConfig(n_trees=1, bootstrap=False, max_depth=8,
                          min_samples_leaf=1, seed=0)
        model = train_random_forest(X, y, cfg)

        def leaves(node):
            if node.feature == -1:
                yield node
            else:
                yield from leaves(node.left)
                yield from leaves(node.right)

        for leaf in leaves(model.trees[0]):
            assert sum(leaf.dist) == pytest.approx(1.0, abs=1e-9)
            # every leaf in this tiny separable problem should be pure
            assert max(leaf.dist) == pytest.approx(1.0, abs=1e-12)

    def test_max_depth_respected(self):
        rng = random.Random(23)
        X = dense_batch([[rng.uniform(0, 1) for _ in range(3)] for _ in range(40)])
        y = [rng.randrange(3) for _ in range(40)]
        y[0], y[1], y[2] = 0, 1, 2
        for depth_cap in (1, 2, 3):
            cfg = TrainConfig(n_trees=3, bootstrap=False, max_depth=depth_cap,
                              min_samples_leaf=1, seed=5)
            model = train_random_forest(X, y, cfg)

            def depth(node):
                if node.feature == -1:
                    return 0
                return 1 + max(depth(node.left), depth(node.right))

            assert all(depth(t) <= depth_cap for t in model.trees)

    def test_min_samples_leaf_respected(self):
        rng = random.Random(29)
        X = dense_batch([[rng.uniform(0, 1)] for _ in range(30)])
        y = [rng.randrange(2) for _ in range(30)]
        y[0], y[1] = 0, 1
        cfg = TrainConfig(n_trees=1, bootstrap=False, max_depth=16,
                          min_samples_leaf=5, seed=1)
        model = train_random_forest(X, y, cfg)
        dense = dense_rows(X)

        def check(node, rows):
            if node.feature == -1:
                assert rows.size >= 5
                return
            mask = dense[rows, node.feature] <= node.threshold
            check(node.left, rows[mask])
            check(node.right, rows[~mask])

        check(model.trees[0], np.arange(30))


def dense_grow_tree(dense, y_idx, rows, depth, k, cfg, n_sub, key):
    """The split search as first written: a dense column scan, one feature at a time.

    Depth-first and recursive; each node draws its features from its own key,
    as the level-by-level grower does, so equal trees also show that a tree
    does not depend on the order its nodes are grown in.
    """
    counts = np.bincount(y_idx[rows], minlength=k)
    n = rows.size

    def leaf():
        return TreeNode(feature=-1, dist=tuple((counts / n).tolist()))

    if depth >= cfg.max_depth or n < 2 * cfg.min_samples_leaf or np.count_nonzero(counts) <= 1:
        return leaf()

    d = dense.shape[1]
    feats = _node_features(np.array([key]), d, n_sub)[0]
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
    left_key, right_key = _child_keys(np.array([key]))
    left_node = dense_grow_tree(dense, y_idx, rows[mask], depth + 1, k, cfg, n_sub, left_key)
    right_node = dense_grow_tree(dense, y_idx, rows[~mask], depth + 1, k, cfg, n_sub, right_key)
    return TreeNode(feature=best_feat, threshold=best_thr, left=left_node, right=right_node)


def dense_forest(X, y, cfg):
    """Trees of train_random_forest as first written, on the dense n x d matrix."""
    codes = sorted(set(y))
    y_idx = np.array([codes.index(v) for v in y])
    dense = dense_rows(X)
    n, dim = dense.shape
    n_sub = max(1, math.ceil(math.sqrt(dim)))
    trees = []
    seeds = np.random.SeedSequence(entropy=cfg.seed & 0xFFFFFFFF).spawn(cfg.n_trees)
    for child, key in zip(seeds, _root_keys(cfg.seed, cfg.n_trees)):
        rows = np.random.default_rng(child).integers(0, n, size=n) if cfg.bootstrap \
            else np.arange(n)
        trees.append(dense_grow_tree(dense, y_idx, np.sort(rows), 0, len(codes), cfg, n_sub, key))
    return tuple(trees)


def signed_sparse_problem(rng, n, d, k):
    """Rows mixing tied, negative and random values, explicit 0.0 / -0.0, and empty rows."""
    pool = (-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0)
    density = rng.choice((0.2, 0.5, 0.95))
    indptr, indices, data = [0], [], []
    for _ in range(n):
        if rng.random() > 0.1:
            for j in range(d):
                if rng.random() < density:
                    indices.append(j)
                    data.append(rng.choice(pool) if rng.random() < 0.6
                                else rng.uniform(-2.0, 2.0))
        indptr.append(len(indices))
    X = SparseBatch(indptr, indices, data, d)
    codes = rng.sample(range(-3, 9), k)
    y = [rng.choice(codes) for _ in range(n)]
    y[:k] = codes
    return X, y


class TestSparseSplitSearch:
    """train_random_forest searches nonzeros only; its trees must equal the dense scan's."""

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 9, 30])  # ceil(sqrt(d)) >= d only for d <= 2
    def test_matches_dense_reference(self, bootstrap, d):
        rng = random.Random(1000 * d + bootstrap)
        for trial in range(6):
            X, y = signed_sparse_problem(rng, n=rng.randint(8, 60), d=d, k=rng.randint(2, 4))
            cfg = TrainConfig(n_trees=3, bootstrap=bootstrap, seed=trial,
                              min_samples_leaf=rng.randint(1, 3), max_depth=rng.randint(1, 8))
            model = train_random_forest(X, y, cfg)
            assert model.trees == dense_forest(X, y, cfg)

    def test_matches_dense_reference_on_a_cv_fold(self):
        ds = build_planted_dataset(Task.DIRECTION, {1: 30, 2: 24, 3: 18}, seed=5)
        assignment = stratified_folds(ds, Task.DIRECTION, 5, 42)
        train = [doc for doc in ds.labeled(Task.DIRECTION) if assignment.folds[doc.id] != 0]
        rows = count_terms(preprocess(doc.text) for doc in train)
        X = transform_many(fit_tfidf(rows), rows)
        y = [doc.label(Task.DIRECTION) for doc in train]
        cfg = TrainConfig(n_trees=5, seed=3, min_samples_leaf=1)
        model = train_random_forest(X, y, cfg)
        assert sum(t.feature >= 0 for t in model.trees) > 0
        assert model.trees == dense_forest(X, y, cfg)


    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_matches_dense_reference_at_uncapped_depth(self, bootstrap):
        rng = random.Random(77 + bootstrap)
        depths = []
        for trial in range(4):
            X, y = signed_sparse_problem(rng, n=rng.randint(60, 120), d=rng.choice((3, 9, 30)),
                                         k=rng.randint(2, 4))
            cfg = TrainConfig(n_trees=3, bootstrap=bootstrap, seed=trial, min_samples_leaf=1,
                              max_depth=10_000)
            model = train_random_forest(X, y, cfg)
            assert model.trees == dense_forest(X, y, cfg)
            depths += [tree_depth(tree) for tree in model.trees]
        assert max(depths) > TrainConfig().max_depth  # deeper than the default cap

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_first_trees_do_not_depend_on_forest_size(self, bootstrap):
        X, y = signed_sparse_problem(random.Random(88), n=50, d=30, k=3)
        three = train_random_forest(X, y, TrainConfig(n_trees=3, bootstrap=bootstrap, seed=6))
        five = train_random_forest(X, y, TrainConfig(n_trees=5, bootstrap=bootstrap, seed=6))
        assert five.trees[:3] == three.trees
        assert any(tree.feature >= 0 for tree in three.trees)

    def test_no_eligible_split_gives_leaves(self):
        rng = random.Random(99)
        X, y = signed_sparse_problem(rng, n=20, d=9, k=3)
        constant = dense_batch([[0.5, 0.0, -1.0]] * 12)  # splittable nodes, but no cut
        cases = [(X, y, TrainConfig(n_trees=4, seed=1, min_samples_leaf=11)),
                 (X, y, TrainConfig(n_trees=4, seed=1, bootstrap=False, min_samples_leaf=11)),
                 (constant, [0, 1, 2] * 4, TrainConfig(n_trees=4, seed=2, min_samples_leaf=1))]
        for X, y, cfg in cases:
            model = train_random_forest(X, y, cfg)
            assert all(tree.feature == -1 for tree in model.trees)
            assert model.trees == dense_forest(X, y, cfg)


def tree_depth(node):
    return 0 if node.feature == -1 else 1 + max(tree_depth(node.left), tree_depth(node.right))


class TestFeatureDraw:
    """Each node's features: a uniform sample without replacement, keyed by the node."""

    def test_samples_are_distinct_and_uniform(self):
        feats = _node_features(_root_keys(3, 4000), 10, 4)
        assert feats.shape == (4000, 4)
        assert all(len(set(row)) == 4 for row in feats.tolist())
        for rank in range(4):  # each feature at each rank about 400 times; sd about 19
            counts = np.bincount(feats[:, rank], minlength=10)
            assert np.abs(counts - 400).max() < 80

    def test_nearly_full_sample_reads_further_down_the_stream(self):
        feats = _node_features(_child_keys(_root_keys(0, 30)), 40, 39)
        assert feats.shape == (60, 39)
        assert all(len(set(row)) == 39 and max(row) < 40 for row in feats.tolist())

    def test_whole_range_when_the_subset_covers_it(self):
        assert _node_features(_root_keys(0, 2), 2, 2).tolist() == [[0, 1], [0, 1]]
        assert _node_features(_root_keys(0, 2), 0, 0).shape == (2, 0)

    def test_keys_differ_by_seed_tree_and_path(self):
        roots = _root_keys(5, 50)
        children = _child_keys(roots)
        grandchildren = _child_keys(children)
        keys = np.concatenate([roots, _root_keys(6, 50), children, grandchildren])
        assert np.unique(keys).size == keys.size
        assert (_child_keys(roots[7:8]) == children[14:16]).all()


def per_document_predict(model, X):
    """Forest prediction as first written: each row made dense and walked down every tree."""
    out = []
    for x in dense_rows(X):
        votes = np.zeros(len(model.class_codes), dtype=np.int64)
        for node in model.trees:
            while node.feature >= 0:
                node = node.left if x[node.feature] <= node.threshold else node.right
            votes[int(np.argmax(node.dist))] += 1
        out.append(model.class_codes[int(np.argmax(votes))])
    return out


class TestBatchPredict:
    """predict_many routes the whole batch through each tree; it must equal the per-row walk."""

    @pytest.mark.parametrize("d", [0, 1, 3, 9, 30])
    def test_matches_per_document_walk(self, d):
        rng = random.Random(500 + d)
        for trial in range(5):
            X, y = signed_sparse_problem(rng, n=rng.randint(8, 60), d=d, k=rng.randint(2, 4))
            cfg = TrainConfig(n_trees=5, seed=trial, min_samples_leaf=1,
                              max_depth=rng.randint(1, 8))
            model = train_random_forest(X, y, cfg)
            unseen, _ = signed_sparse_problem(rng, n=40, d=d, k=2)  # values on thresholds too
            for batch in (X, unseen):
                expected = per_document_predict(model, batch)
                assert predict_many(model, batch) == expected
                assert [predict_many(model, row)[0] for row in batch] == expected

    def test_matches_per_document_walk_on_a_cv_fold(self):
        ds = build_planted_dataset(Task.DIRECTION, {1: 30, 2: 24, 3: 18}, seed=8)
        assignment = stratified_folds(ds, Task.DIRECTION, 5, 42)
        docs = ds.labeled(Task.DIRECTION)
        train = count_terms(preprocess(doc.text) for doc in docs if assignment.folds[doc.id] != 0)
        test = count_terms(preprocess(doc.text) + ["unseen"] for doc in docs
                           if assignment.folds[doc.id] == 0)
        tfidf = fit_tfidf(train)
        y = [doc.label(Task.DIRECTION) for doc in docs if assignment.folds[doc.id] != 0]
        model = train_random_forest(transform_many(tfidf, train), y,
                                    TrainConfig(n_trees=7, seed=4))
        X = transform_many(tfidf, test)
        assert predict_many(model, X) == per_document_predict(model, X)


def trained_forests():
    """Forests of signed sparse problems, with and without bootstrap, and of a cv fold."""
    rng = random.Random(606)
    for trial in range(6):
        X, y = signed_sparse_problem(rng, n=rng.randint(20, 80), d=rng.choice((1, 3, 9, 30)),
                                     k=rng.randint(2, 4))
        yield X, train_random_forest(X, y, TrainConfig(
            n_trees=rng.randint(1, 6), bootstrap=trial % 2 == 0, seed=trial,
            min_samples_leaf=1, max_depth=rng.choice((1, 4, 10_000))))
    ds = build_planted_dataset(Task.DIRECTION, {1: 30, 2: 24, 3: 18}, seed=9)
    rows = count_terms(preprocess(doc.text) for doc in ds.labeled(Task.DIRECTION))
    X = transform_many(fit_tfidf(rows), rows)
    y = [doc.label(Task.DIRECTION) for doc in ds.labeled(Task.DIRECTION)]
    yield X, train_random_forest(X, y, TrainConfig(n_trees=10, seed=2))


def tree_node_votes(model, X):
    """_forest_votes as first written: each TreeNode splits the rows that reach it at once,
    reading its feature's nonzeros from the column view."""
    n = len(X)
    col_ptr, col_rows, col_vals = _column_view(X)
    values = np.zeros(n)  # the split feature's value per row, zeroed after each split
    votes = np.zeros((n, len(model.class_codes)), dtype=np.int64)
    for tree in model.trees:
        stack = [(tree, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            if node.feature < 0:
                votes[rows, int(np.argmax(node.dist))] += 1
            elif rows.size:
                entries = slice(col_ptr[node.feature], col_ptr[node.feature + 1])
                values[col_rows[entries]] = col_vals[entries]
                left = values[rows] <= node.threshold
                values[col_rows[entries]] = 0.0
                stack += [(node.left, rows[left]), (node.right, rows[~left])]
    return votes


class TestFlatLayout:
    """ForestModel's level-major node arrays, and the TreeNode view built from them."""

    def test_arrays_form_a_forest(self):
        for _, model in trained_forests():
            n, roots = model.feature.size, model.n_trees
            split = np.flatnonzero(model.child >= 0)
            assert np.array_equal(split, np.flatnonzero(model.feature >= 0))
            assert (model.feature[model.child < 0] == -1).all()
            assert (model.child[split] > split).all()
            # every node but the roots 0..T-1 is the child of exactly one split
            kids = np.concatenate((model.child[split], model.child[split] + 1))
            assert np.array_equal(np.sort(kids), np.arange(roots, n))
            reached = np.zeros(n, dtype=np.int64)
            stack = list(range(roots))
            while stack:
                node = stack.pop()
                reached[node] += 1
                if model.child[node] >= 0:
                    stack += [model.child[node], model.child[node] + 1]
            assert (reached == 1).all()
            leaves = model.dist[model.child < 0]
            assert np.allclose(leaves.sum(axis=1), 1.0) and (model.dist[split] == 0.0).all()
            assert (model.threshold[model.child < 0] == 0.0).all()

    def test_votes_match_the_tree_node_walk(self):
        for X, model in trained_forests():
            split = np.flatnonzero(model.feature >= 0)[:40]
            # a row per split whose value sits exactly on the split's threshold, an empty row
            # last, and a batch of no rows
            on_threshold = np.zeros((split.size + 1, X.dim))
            on_threshold[np.arange(split.size), model.feature[split]] = model.threshold[split]
            for batch in (X, dense_batch(on_threshold.tolist(), X.dim),
                          SparseBatch([0], [], [], X.dim)):
                assert np.array_equal(_forest_votes(model, batch), tree_node_votes(model, batch))

    def test_cv_rf_artifact_bytes_are_pinned(self, tmp_path, monkeypatch):
        # the bytes before the flat layout; a tree, vote or size change moves them
        monkeypatch.chdir(tmp_path)
        save_dataset(build_planted_dataset(Task.DIRECTION, {1: 30, 2: 24, 3: 18}, seed=5),
                     "planted.jsonl")
        (tmp_path / "train.json").write_text('{"train": {"n_trees": 5, "max_depth": 2}}')
        assert main(["cv", "--config", "train.json", "--dataset", "planted.jsonl", "--task", "2",
                     "--model", "rf", "--k", "3", "--seed", "11", "--out", "out",
                     "--tag", "pin"]) == 0
        digest = hashlib.sha256((tmp_path / "out/cv/pin/cv_rf.json").read_bytes()).hexdigest()
        assert digest == "7887cb7839eba2d9d8f7a08bfa72a3fb83a257b06a06b0ee6f6f1589959cab6b"


class TestForest:
    def test_fits_training_data(self):
        rng = random.Random(37)
        rows, y = [], []
        for i in range(60):
            c = i % 3
            base = [0.0, 0.0, 0.0]
            base[c] = 1.0 + rng.uniform(0, 0.2)
            rows.append(base)
            y.append(c + 1)
        X = dense_batch(rows)
        model = train_random_forest(X, y, TrainConfig(n_trees=20, seed=3))
        hits = sum(predict_many(model, x)[0] == t for x, t in zip(X, y))
        assert hits == 60

    def test_deterministic(self):
        rng = random.Random(41)
        X = dense_batch([[rng.uniform(0, 1) for _ in range(4)] for _ in range(30)])
        y = [rng.randrange(3) for _ in range(30)]
        y[0], y[1], y[2] = 0, 1, 2
        cfg = TrainConfig(n_trees=7, seed=12)
        m1 = train_random_forest(X, y, cfg)
        m2 = train_random_forest(X, y, cfg)
        assert predict_many(m1, X) == predict_many(m2, X)

    def test_vote_tie_breaks_to_lowest_code(self):
        # two one-leaf trees, one vote each
        model = hand_forest([-1, -1], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], n_trees=2,
                            n_features=1, class_codes=(2, 5))
        assert predict_many(model, sv([0.3])) == [2]

    def test_single_pure_leaf_predicts_that_class(self):
        model = hand_forest([-1], [0.0], [[0.0, 1.0]], n_trees=1, n_features=2,
                            class_codes=(3, 7))
        assert predict_many(model, sv([0.0, 9.0])) == [7]

    def test_leaf_distributions_sum_to_one(self):
        rng = random.Random(43)
        X = dense_batch([[rng.uniform(0, 1) for _ in range(3)] for _ in range(25)])
        y = [rng.randrange(2) for _ in range(25)]
        y[0], y[1] = 0, 1
        model = train_random_forest(X, y, TrainConfig(n_trees=5, seed=2))

        def walk(node):
            if node.feature == -1:
                assert sum(node.dist) == pytest.approx(1.0, abs=1e-9)
                assert all(p >= 0 for p in node.dist)
            else:
                walk(node.left)
                walk(node.right)

        for tree in model.trees:
            walk(tree)

    def test_single_class_rejected_by_all_trainers(self):
        X = dense_batch([[1.0], [2.0], [3.0]])
        y = [1, 1, 1]
        for trainer in (train_logreg, train_svm_linear, train_random_forest):
            with pytest.raises(DataError, match="distinct label"):
                trainer(X, y, TrainConfig())

    def test_predict_dimension_mismatch(self):
        X = dense_batch([[1.0], [-1.0]])
        model = train_random_forest(X, [0, 1], TrainConfig(n_trees=2, seed=1))
        with pytest.raises(DataError, match="dimension"):
            predict_many(model, sv([1.0, 2.0]))

    def test_forest_size_by_hand(self):
        # tree 0 splits at its root (node 0) and at its right child (node 3); tree 1 is the
        # leaf node 1; nodes 2, 4 and 5 are tree 0's leaves
        leaf, split = [1.0, 0.0], [0.0, 0.0]
        model = hand_forest([0, -1, -1, 1, -1, -1], [0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
                            [split, leaf, leaf, split, leaf, leaf], n_trees=2, n_features=2,
                            class_codes=(0, 1))
        assert forest_size(model) == {"nodes": 6, "leaves": 4, "mean_depth": 1.0,
                                      "max_depth": 2}

    def test_feature_subset_size(self):
        # ceil(sqrt(9)) = 3 of 9 features per split; just confirm training
        # runs and uses in-range feature ids
        rng = random.Random(47)
        X = dense_batch([[rng.uniform(0, 1) for _ in range(9)] for _ in range(40)])
        y = [rng.randrange(2) for _ in range(40)]
        y[0], y[1] = 0, 1
        assert math.ceil(math.sqrt(9)) == 3
        model = train_random_forest(X, y, TrainConfig(n_trees=4, seed=9))

        def features_used(node):
            if node.feature == -1:
                return
            assert 0 <= node.feature < 9
            features_used(node.left)
            features_used(node.right)

        for tree in model.trees:
            features_used(tree)


def tree_node_size(model):
    """forest_size as a walk over the TreeNode view: every node visited with its depth."""
    nodes = leaves = 0
    depths = []
    for root in model.trees:
        deepest, stack = 0, [(root, 0)]
        while stack:
            node, depth = stack.pop()
            nodes += 1
            deepest = max(deepest, depth)
            if node.feature < 0:
                leaves += 1
            else:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
        depths.append(deepest)
    return {"nodes": nodes, "leaves": leaves, "mean_depth": sum(depths) / len(depths),
            "max_depth": max(depths)}


class TestForestSize:
    """forest_size reads counts and depths from the arrays; the TreeNode walk is the oracle."""

    @pytest.mark.parametrize("n_trees, max_depth, min_samples_leaf, bootstrap, d", [
        (1, 1, 1, False, 3),
        (1, 10_000, 1, False, 9),
        (3, 2, 1, True, 9),
        (4, 4, 2, True, 30),
        (5, 16, 1, True, 30),
        (6, 16, 5, False, 9),
        (7, 3, 1, False, 1),
        (8, 10_000, 1, True, 0),  # no features: every tree is one leaf
    ])
    def test_matches_the_tree_node_walk(self, n_trees, max_depth, min_samples_leaf,
                                        bootstrap, d):
        rng = random.Random(1000 * n_trees + max_depth % 97 + d)
        X, y = signed_sparse_problem(rng, n=rng.randint(30, 90), d=d, k=rng.randint(2, 4))
        model = train_random_forest(X, y, TrainConfig(
            n_trees=n_trees, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            bootstrap=bootstrap, seed=n_trees))
        size = forest_size(model)
        assert size == tree_node_size(model)
        assert size["leaves"] == (size["nodes"] + model.n_trees) / 2  # every split has two
        assert size["max_depth"] <= max_depth


class TestTreeNode:
    """A TreeNode is a split with two children or a leaf whose distribution sums to one."""

    LEAF = TreeNode(feature=-1, dist=(1.0, 0.0))

    @pytest.mark.parametrize("fields, message", [
        ({"feature": 0, "left": LEAF}, "internal tree node must have two children"),
        ({"feature": 2, "right": LEAF}, "internal tree node must have two children"),
        ({"feature": -1}, "leaf node must carry a class distribution"),
        ({"feature": -1, "dist": (0.5, 0.4)}, "leaf class distribution must sum to 1"),
        ({"feature": -1, "dist": (0.75, 0.5)}, "leaf class distribution must sum to 1"),
    ], ids=["no-left", "no-right", "no-dist", "dist-below-one", "dist-above-one"])
    def test_malformed_node_is_data_error(self, fields, message):
        with pytest.raises(DataError) as info:
            TreeNode(**fields)
        assert str(info.value) == message

    def test_view_of_hand_built_arrays(self):
        leaf, split = [1.0, 0.0], [0.0, 0.0]
        model = hand_forest([0, -1, -1, 1, -1, -1], [0.5, 0.0, 0.0, 0.25, 0.0, 0.0],
                            [split, [0.0, 1.0], leaf, split, leaf, [0.25, 0.75]], n_trees=2,
                            n_features=2, class_codes=(0, 1))
        right = TreeNode(feature=1, threshold=0.25, left=TreeNode(feature=-1, dist=(1.0, 0.0)),
                         right=TreeNode(feature=-1, dist=(0.25, 0.75)))
        assert model.trees == (
            TreeNode(feature=0, threshold=0.5, left=TreeNode(feature=-1, dist=(1.0, 0.0)),
                     right=right),
            TreeNode(feature=-1, dist=(0.0, 1.0)),
        )
        assert model.trees is model.trees  # built once per model
