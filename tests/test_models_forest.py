"""Random forest and decision tree tests."""

import json
import math
import random

import numpy as np
import pytest

from predstmt import (
    DataError,
    ForestModel,
    SparseVector,
    TrainConfig,
    load_model,
    predict,
    save_model,
    train_logreg,
    train_random_forest,
    train_svm_linear,
)
from predstmt.models import TreeNode, gini


def sv(values, dimension=None):
    values = list(values)
    dimension = dimension or len(values)
    pairs = [(i, v) for i, v in enumerate(values) if v != 0.0]
    return SparseVector(
        indices=tuple(i for i, _ in pairs),
        values=tuple(v for _, v in pairs),
        dimension=dimension,
    )


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
            model = train_random_forest([sv(p) for p in points], labels, cfg)
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
        model = train_random_forest([sv(p) for p in points], labels, cfg)
        hits = sum(predict(model, sv(p)) == t for p, t in zip(points, labels))
        assert hits == len(points)

    def test_pure_node_becomes_leaf(self):
        X = [sv([0.1, 5.0]), sv([0.9, -3.0]), sv([0.4, 1.0]), sv([0.6, 2.0])]
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
        X = [sv([rng.uniform(0, 1) for _ in range(3)]) for _ in range(40)]
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
        X = [sv([rng.uniform(0, 1)]) for _ in range(30)]
        y = [rng.randrange(2) for _ in range(30)]
        y[0], y[1] = 0, 1
        cfg = TrainConfig(n_trees=1, bootstrap=False, max_depth=16,
                          min_samples_leaf=5, seed=1)
        model = train_random_forest(X, y, cfg)
        dense = np.array([x.to_dense() for x in X])

        def check(node, rows):
            if node.feature == -1:
                assert rows.size >= 5
                return
            mask = dense[rows, node.feature] <= node.threshold
            check(node.left, rows[mask])
            check(node.right, rows[~mask])

        check(model.trees[0], np.arange(30))


class TestForest:
    def test_fits_training_data(self):
        rng = random.Random(37)
        X, y = [], []
        for i in range(60):
            c = i % 3
            base = [0.0, 0.0, 0.0]
            base[c] = 1.0 + rng.uniform(0, 0.2)
            X.append(sv(base))
            y.append(c + 1)
        model = train_random_forest(X, y, TrainConfig(n_trees=20, seed=3))
        hits = sum(predict(model, x) == t for x, t in zip(X, y))
        assert hits == 60

    def test_deterministic_and_persistence(self, tmp_path):
        rng = random.Random(41)
        X = [sv([rng.uniform(0, 1) for _ in range(4)]) for _ in range(30)]
        y = [rng.randrange(3) for _ in range(30)]
        y[0], y[1], y[2] = 0, 1, 2
        cfg = TrainConfig(n_trees=7, seed=12)
        m1 = train_random_forest(X, y, cfg)
        m2 = train_random_forest(X, y, cfg)
        assert [predict(m1, x) for x in X] == [predict(m2, x) for x in X]

        path = tmp_path / "forest.json"
        save_model(m1, path)
        again = load_model(path)
        assert isinstance(again, ForestModel)
        assert again.n_features == m1.n_features
        assert again.class_codes == m1.class_codes
        assert [predict(again, x) for x in X] == [predict(m1, x) for x in X]

    def test_vote_tie_breaks_to_lowest_code(self):
        tree_a = TreeNode(feature=-1, dist=(1.0, 0.0))
        tree_b = TreeNode(feature=-1, dist=(0.0, 1.0))
        model = ForestModel(trees=(tree_a, tree_b), n_features=1,
                            class_codes=(2, 5), config=TrainConfig())
        assert predict(model, sv([0.3])) == 2

    def test_single_pure_leaf_predicts_that_class(self):
        leaf = TreeNode(feature=-1, dist=(0.0, 1.0))
        model = ForestModel(trees=(leaf,), n_features=2,
                            class_codes=(3, 7), config=TrainConfig())
        assert predict(model, sv([0.0, 9.0])) == 7

    def test_leaf_distributions_sum_to_one(self):
        rng = random.Random(43)
        X = [sv([rng.uniform(0, 1) for _ in range(3)]) for _ in range(25)]
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
        X = [sv([1.0]), sv([2.0]), sv([3.0])]
        y = [1, 1, 1]
        for trainer in (train_logreg, train_svm_linear, train_random_forest):
            with pytest.raises(DataError, match="distinct label"):
                trainer(X, y, TrainConfig())

    def test_predict_dimension_mismatch(self):
        X = [sv([1.0]), sv([-1.0])]
        model = train_random_forest(X, [0, 1], TrainConfig(n_trees=2, seed=1))
        with pytest.raises(DataError, match="dimension"):
            predict(model, sv([1.0, 2.0]))

    def test_feature_subset_size(self):
        # ceil(sqrt(9)) = 3 of 9 features per split; just confirm training
        # runs and uses in-range feature ids
        rng = random.Random(47)
        X = [sv([rng.uniform(0, 1) for _ in range(9)]) for _ in range(40)]
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

    @pytest.mark.parametrize("tree", [
        {"dist": [1.0]},  # one class short
        {"dist": [0.5, "0.5"]},
        {"dist": [0.3, 0.3]},  # does not sum to 1
        {"feature": 0, "threshold": 0.5, "left": {"dist": [1.0, 0.0]}},  # no right child
        {"feature": 2, "threshold": 0.5, "left": {"dist": [1.0, 0.0]},
         "right": {"dist": [0.0, 1.0]}},  # feature out of range
        {"feature": 0, "threshold": "0.5", "left": {"dist": [1.0, 0.0]},
         "right": {"dist": [0.0, 1.0]}},
        {"feature": 0, "threshold": 0.5, "left": [1.0, 0.0], "right": {"dist": [0.0, 1.0]}},
        [0.0, 1.0],
    ])
    def test_malformed_tree_is_data_error(self, tmp_path, tree):
        path = tmp_path / "forest.json"
        path.write_text(json.dumps({"kind": "random_forest", "class_codes": [0, 1],
                                    "n_features": 2, "config": {}, "trees": [tree]}))
        with pytest.raises(DataError):
            load_model(path)
