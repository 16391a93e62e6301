"""Metrics, kappa, cross-validation, and report rendering tests."""

import random
from fractions import Fraction

import numpy as np
import pytest

from predstmt import (
    ClassMetrics,
    ConfusionMatrix,
    DataError,
    Dataset,
    Document,
    MetricsReport,
    Task,
    TfidfModel,
    TrainConfig,
    classification_report,
    cohen_kappa,
    confusion,
    cross_validate,
    cross_validate_models,
    metrics,
    preprocess,
    stratified_folds,
    summary_table,
)

from predstmt import evaluation

from conftest import build_planted_dataset
from test_features import per_document_transform


class TestConfusion:
    def test_hand_case(self):
        cm = confusion([0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1])
        assert cm.class_codes == (0, 1)
        assert cm.counts.tolist() == [[4, 0], [1, 1]]
        assert cm.counts.diagonal().tolist() == [4, 1]  # hits
        assert cm.counts.sum(axis=1).tolist() == [4, 2]  # gold: tp + fn
        assert cm.counts.sum(axis=0).tolist() == [5, 1]  # predicted: tp + fp
        assert cm.total == 6
        report = metrics(cm)
        assert [(m.precision, m.recall, m.support) for m in report.per_class.values()] \
            == [(4 / 5, 4 / 4, 4), (1 / 1, 1 / 2, 2)]

    def test_one_majority_flip(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1])
        assert cm.counts.tolist() == [[1, 1], [0, 2]]

    def test_identity_is_diagonal(self):
        gold = [2, 0, 1, 2, 0, 1, 1]
        cm = confusion(gold, list(gold))
        assert cm.counts.tolist() == [[2, 0, 0], [0, 3, 0], [0, 0, 2]]
        assert metrics(cm).accuracy == 1.0

    def test_three_class_hand_case(self):
        cm = confusion([1, 2, 3, 1, 2], [1, 3, 3, 2, 2])
        assert cm.class_codes == (1, 2, 3)
        assert cm.counts.tolist() == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]

    def test_explicit_class_codes_keep_absent_rows(self):
        cm = confusion([0, 0], [0, 0], class_codes=[0, 1])
        assert cm.counts.tolist() == [[2, 0], [0, 0]]
        assert cm.counts.sum(axis=1).tolist() == [2, 0]
        absent = metrics(cm).per_class[1]
        assert (absent.precision, absent.recall, absent.f1, absent.support) == (0.0, 0.0, 0.0, 0)

    def test_errors(self):
        with pytest.raises(DataError, match="lengths differ"):
            confusion([0], [0, 1])
        with pytest.raises(DataError, match="zero evaluated"):
            confusion([], [])
        with pytest.raises(DataError, match="not in class codes"):
            confusion([0, 5], [0, 0], class_codes=[0, 1])
        with pytest.raises(DataError, match="not in class codes"):
            confusion([0, 0], [0, 7], class_codes=[0, 1])


def oracle_metrics(gold, pred):
    """Definition-level per-class metrics and averages, pure python."""
    codes = sorted(set(gold) | set(pred))
    per = {}
    for c in codes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[c] = (prec, rec, f1, sum(1 for g in gold if g == c))
    n = len(gold)
    k = len(codes)
    macro = tuple(sum(per[c][i] for c in codes) / k for i in range(3))
    weighted = tuple(sum(per[c][3] / n * per[c][i] for c in codes) for i in range(3))
    accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / n
    return per, macro, weighted, accuracy


class TestMetrics:
    def test_frozen_hand_case(self):
        rep = metrics(confusion([0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]))
        assert rep.per_class[0].precision == pytest.approx(0.8, abs=1e-12)
        assert rep.per_class[0].recall == 1.0
        assert rep.per_class[0].f1 == pytest.approx(0.888888888888889, abs=1e-12)
        assert rep.per_class[1].precision == 1.0
        assert rep.per_class[1].recall == 0.5
        assert rep.per_class[1].f1 == pytest.approx(0.6666666666666666, abs=1e-12)
        assert rep.accuracy == pytest.approx(5 / 6, abs=1e-12)
        assert rep.macro_f1 == pytest.approx(0.7777777777777778, abs=1e-12)
        assert rep.weighted_f1 == pytest.approx(0.8148148148148148, abs=1e-12)
        assert rep.n_classes == 2

    def test_matches_definition_oracle(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(5, 60)
            k = rng.choice([2, 3, 4])
            gold = [rng.randrange(k) for _ in range(n)]
            pred = [rng.randrange(k) for _ in range(n)]
            rep = metrics(confusion(gold, pred))
            per, macro, weighted, accuracy = oracle_metrics(gold, pred)
            for c, (prec, rec, f1, sup) in per.items():
                got = rep.per_class[c]
                assert got.precision == pytest.approx(prec, abs=1e-12)
                assert got.recall == pytest.approx(rec, abs=1e-12)
                assert got.f1 == pytest.approx(f1, abs=1e-12)
                assert got.support == sup
            assert rep.macro_precision == pytest.approx(macro[0], abs=1e-12)
            assert rep.macro_recall == pytest.approx(macro[1], abs=1e-12)
            assert rep.macro_f1 == pytest.approx(macro[2], abs=1e-12)
            assert rep.weighted_precision == pytest.approx(weighted[0], abs=1e-12)
            assert rep.weighted_recall == pytest.approx(weighted[1], abs=1e-12)
            assert rep.weighted_f1 == pytest.approx(weighted[2], abs=1e-12)
            assert rep.accuracy == pytest.approx(accuracy, abs=1e-12)

    def test_macro_equals_weighted_under_equal_support(self):
        gold = [0] * 10 + [1] * 10
        pred = [0] * 7 + [1] * 3 + [1] * 6 + [0] * 4
        rep = metrics(confusion(gold, pred))
        assert rep.macro_precision == pytest.approx(rep.weighted_precision, abs=1e-12)
        assert rep.macro_recall == pytest.approx(rep.weighted_recall, abs=1e-12)
        assert rep.macro_f1 == pytest.approx(rep.weighted_f1, abs=1e-12)

    def test_weighted_recall_equals_accuracy(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(4, 40)
            gold = [rng.randrange(3) for _ in range(n)]
            pred = [rng.randrange(3) for _ in range(n)]
            # weighted recall sums tp_i / total, which is the accuracy
            rep = metrics(confusion(gold, pred, class_codes=[0, 1, 2]))
            assert rep.weighted_recall == pytest.approx(rep.accuracy, abs=1e-12)

    def test_zero_division_yields_zero(self):
        # class 1 never predicted and never correct: all three metrics 0
        rep = metrics(confusion([1, 1], [0, 0], class_codes=[0, 1]))
        got = rep.per_class[1]
        assert (got.precision, got.recall, got.f1) == (0.0, 0.0, 0.0)
        # class 0 has no gold examples: recall 0 by convention
        assert rep.per_class[0].recall == 0.0
        # macro still averages over both classes
        assert rep.macro_recall == 0.0
        assert rep.n_classes == 2

    def test_perfect_prediction(self):
        rep = metrics(confusion([0, 1, 2, 0], [0, 1, 2, 0]))
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0
        assert rep.weighted_f1 == 1.0


class TestCohenKappa:
    def test_frozen_fixture(self):
        assert cohen_kappa([0, 0, 1, 1], [0, 1, 1, 1]) == 0.5

    def test_disjoint_constant_raters(self):
        assert cohen_kappa([0, 0], [1, 1]) == 0.0

    def test_identical_raters(self):
        assert cohen_kappa([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0
        assert cohen_kappa([1, 1, 1], [1, 1, 1]) == 1.0

    def test_symmetry(self):
        rng = random.Random(79)
        for _ in range(50):
            n = rng.randint(2, 30)
            a = [rng.randrange(3) for _ in range(n)]
            b = [rng.randrange(3) for _ in range(n)]
            if set(a) == set(b) == {a[0]} and a == b:
                continue
            try:
                k_ab = cohen_kappa(a, b)
            except DataError:
                continue
            assert k_ab == pytest.approx(cohen_kappa(b, a), abs=1e-12)
            assert -1.0 - 1e-12 <= k_ab <= 1.0 + 1e-12

    @pytest.mark.parametrize("n, labels, agreement", [
        (2, 2, 0.5), (10, 2, 0.7), (25, 3, 0.4), (40, 3, 0.9), (60, 5, 0.5), (200, 4, 0.0),
    ])
    def test_matches_the_contingency_table_definition(self, n, labels, agreement):
        # kappa = (sum_i t_ii / n - sum_i r_i c_i / n^2) / (1 - sum_i r_i c_i / n^2) over the
        # table t of the two raters, in exact fractions
        rng = random.Random(n * labels)
        a = [rng.randrange(labels) for _ in range(n)]
        b = [x if rng.random() < agreement else rng.randrange(labels) for x in a]
        a[0], b[0] = 0, 1  # the raters differ somewhere, so chance agreement is below one
        table = np.zeros((labels, labels), dtype=np.int64)
        np.add.at(table, (a, b), 1)
        p0 = Fraction(int(np.trace(table)), n)
        pe = sum(Fraction(int(r) * int(c), n * n)
                 for r, c in zip(table.sum(axis=1), table.sum(axis=0)))
        assert cohen_kappa(a, b) == pytest.approx(float((p0 - pe) / (1 - pe)), abs=1e-12)

    def test_hand_computed_three_way(self):
        a = [1, 2, 3, 1, 2, 3]
        b = [1, 2, 3, 2, 3, 1]
        # p0 = 3/6, pe = 3 * (2/6)^2 = 1/3 -> kappa = (1/2 - 1/3)/(2/3) = 1/4
        assert cohen_kappa(a, b) == pytest.approx(0.25, abs=1e-12)

    def test_errors(self):
        with pytest.raises(DataError, match="lengths differ"):
            cohen_kappa([0], [0, 1])
        with pytest.raises(DataError, match="empty"):
            cohen_kappa([], [])


@pytest.fixture(scope="module")
def planted():
    return build_planted_dataset(Task.PREDICTIVENESS, per_class={0: 15, 1: 15}, seed=3)


class TestCrossValidate:
    def test_pooled_counts_cover_every_document(self, planted):
        cfg = TrainConfig(epochs=25, seed=0)
        report = cross_validate(planted, Task.PREDICTIVENESS, "logreg", cfg, k=3, seed=11)
        assert report.k == 3
        assert len(report.per_fold) == 3
        assert sum(report.fold_sizes) == 30
        assert report.pooled.confusion.total == 30
        assert sum(r.confusion.total for r in report.per_fold) == 30

    def test_deterministic(self, planted):
        cfg = TrainConfig(epochs=25, seed=0)
        r1 = cross_validate(planted, Task.PREDICTIVENESS, "logreg", cfg, k=3, seed=11)
        r2 = cross_validate(planted, Task.PREDICTIVENESS, "logreg", cfg, k=3, seed=11)
        assert r1.to_dict() == r2.to_dict()

    def test_planted_signal_recovered(self, planted):
        cfg = TrainConfig(epochs=40, seed=0)
        report = cross_validate(planted, Task.PREDICTIVENESS, "logreg", cfg, k=3, seed=11)
        assert report.pooled.macro_f1 >= 0.95

    def test_pooled_equals_sum_of_fold_matrices(self, planted):
        cfg = TrainConfig(epochs=25, seed=0)
        report = cross_validate(planted, Task.PREDICTIVENESS, "logreg", cfg, k=3, seed=11)
        summed = sum(r.confusion.counts for r in report.per_fold)
        assert np.array_equal(report.pooled.confusion.counts, summed)

    def test_fold_means_keys(self, planted):
        cfg = TrainConfig(epochs=25, seed=0)
        report = cross_validate(planted, Task.PREDICTIVENESS, "logreg", cfg, k=3, seed=11)
        means = report.fold_means()
        assert set(means) == {
            "accuracy",
            "macro_precision", "macro_recall", "macro_f1",
            "weighted_precision", "weighted_recall", "weighted_f1",
        }
        assert all(0.0 <= v <= 1.0 for v in means.values())

    def test_forest_size_recorded_per_fold(self, planted):
        cfg = TrainConfig(n_trees=4, max_depth=3, seed=2)
        folds = cross_validate(planted, Task.PREDICTIVENESS, "rf", cfg, k=3, seed=11).to_dict()
        for fold in folds["per_fold"]:
            size = fold["forest"]
            assert set(size) == {"nodes", "leaves", "mean_depth", "max_depth"}
            assert size["nodes"] == 2 * size["leaves"] - cfg.n_trees  # binary trees
            assert 0 <= size["mean_depth"] <= size["max_depth"] <= cfg.max_depth

    @pytest.mark.parametrize("kind", ["logreg", "svm"])
    def test_linear_reports_carry_no_forest_size(self, planted, kind):
        cfg = TrainConfig(epochs=5, seed=0)
        report = cross_validate(planted, Task.PREDICTIVENESS, kind, cfg, k=3, seed=11)
        assert report.forest_sizes == ()
        assert all("forest" not in fold for fold in report.to_dict()["per_fold"])

    def test_unknown_model_kind(self, planted):
        with pytest.raises(DataError, match="unknown model kind 'mystery'"):
            cross_validate(planted, Task.PREDICTIVENESS, "mystery", TrainConfig(), k=3)


class TestCrossValidateModels:
    """Several model kinds share each fold's folds, tokens and features."""

    def test_reports_equal_one_cross_validate_per_kind(self, planted):
        cfg = TrainConfig(epochs=15, n_trees=4, max_depth=4, seed=1)
        kinds = ("logreg", "svm", "rf")
        reports = cross_validate_models(planted, Task.PREDICTIVENESS, kinds, cfg, k=3, seed=11)
        assert tuple(reports) == kinds
        for kind in kinds:
            alone = cross_validate(planted, Task.PREDICTIVENESS, kind, cfg, k=3, seed=11)
            assert reports[kind].to_dict() == alone.to_dict()

    @pytest.mark.parametrize("kinds", [("mystery",), ("logreg", "mystery"),
                                       ("svm", "rf", "mystery")])
    def test_unknown_kind_anywhere_raises_before_any_work(self, planted, monkeypatch, kinds):
        calls = []
        for kind, trainer in list(evaluation._TRAINERS.items()):
            monkeypatch.setitem(evaluation._TRAINERS, kind,
                                lambda *a, _kind=kind, _train=trainer: calls.append(_kind))
        monkeypatch.setattr(evaluation, "preprocess", lambda *a: calls.append("preprocess"))
        with pytest.raises(DataError, match="unknown model kind 'mystery'"):
            cross_validate_models(planted, Task.PREDICTIVENESS, kinds, TrainConfig(), k=3)
        assert calls == []

    def test_repeated_kind_is_refused(self, planted):
        with pytest.raises(DataError, match="model kinds must be distinct"):
            cross_validate_models(planted, Task.PREDICTIVENESS, ("svm", "logreg", "svm"),
                                  TrainConfig(epochs=2), k=3)

    def test_each_document_s_tokens_are_iterated_once(self, planted, monkeypatch):
        class Tokens(list):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        made = []

        def counted(text):
            made.append(Tokens(preprocess(text)))
            return made[-1]

        monkeypatch.setattr(evaluation, "preprocess", counted)
        cross_validate_models(planted, Task.PREDICTIVENESS, ("logreg", "svm"),
                              TrainConfig(epochs=3), k=3, seed=11)
        assert len(made) == len(planted.labeled(Task.PREDICTIVENESS))
        assert [tokens.iterations for tokens in made] == [1] * len(made)


def options_corpus() -> Dataset:
    """Zipf-like documents with repeated terms, one of terms no other document has, one empty."""
    rng = random.Random(41)
    vocab = [f"term{i:02d}" for i in range(70)]
    weights = [1.0 / (r + 1) for r in range(len(vocab))]
    texts = [" ".join(rng.choices(vocab, weights, k=rng.randint(1, 14))) for _ in range(46)]
    texts += ["onlyhere nowhereelse onlyhere", "?! ... ok"]  # the last cleans to no tokens
    return Dataset(documents=tuple(Document(id=f"o{i:02d}", text=text, task1=i % 2)
                                   for i, text in enumerate(texts)), name="options")


def reference_tfidf(tokens) -> TfidfModel:
    """The TfidfModel of tokenized documents, one term at a time: every term, sorted."""
    df = {}
    for doc in tokens:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    kept = sorted(df)
    return TfidfModel(tuple(kept), tuple(df[t] for t in kept), len(tokens))


@pytest.mark.parametrize("tokenless, k, seed", [
    (False, 4, 5), (False, 2, 3), (False, 5, 11), (True, 4, 5),
], ids=["default", "two_folds", "five_folds", "empty_vocabulary"])
def test_cv_fold_features_equal_the_per_document_transform(monkeypatch, tokenless, k, seed):
    ds, task = options_corpus(), Task.PREDICTIVENESS
    if tokenless:  # no text holds a token of 3+ characters, so no fold has a vocabulary
        ds = Dataset(documents=tuple(Document(id=doc.id, text="?! ... ok", task1=doc.task1)
                                     for doc in ds.documents), name="tokenless")
    captured = []
    train = evaluation._TRAINERS["logreg"]
    monkeypatch.setitem(evaluation._TRAINERS, "logreg",
                        lambda X, y, cfg: captured.append([X, y]) or train(X, y, cfg))
    predict = evaluation.predict_many
    monkeypatch.setattr(evaluation, "predict_many",
                        lambda model, X: captured[-1].append(X) or predict(model, X))
    if tokenless:  # no model may train on all-empty rows
        with pytest.raises(DataError) as info:
            cross_validate_models(ds, task, ("logreg",), TrainConfig(epochs=2), k=k, seed=seed)
        assert str(info.value) == ("fold 1 of 4: no training document has a token, "
                                   "so the TF-IDF vocabulary is empty")
        assert captured == []
        return
    reports = cross_validate_models(ds, task, ("logreg",), TrainConfig(epochs=2), k=k, seed=seed)
    assert sum(reports["logreg"].fold_sizes) == len(ds.documents)

    folds = stratified_folds(ds, task, k, seed).folds
    docs = ds.labeled(task)
    assert len(captured) == k
    for fold, (x_train, y_train, x_test) in enumerate(captured):
        train_docs = [doc for doc in docs if folds[doc.id] != fold]
        test_docs = [doc for doc in docs if folds[doc.id] == fold]
        model = reference_tfidf([preprocess(doc.text) for doc in train_docs])
        assert y_train == [doc.label(task) for doc in train_docs]
        for batch, split in ((x_train, train_docs), (x_test, test_docs)):
            assert len(batch) == len(split) and batch.dim == model.dimension
            for row, doc in zip(batch, split):
                indices, values = per_document_transform(model, preprocess(doc.text))
                assert tuple(row.indices.tolist()) == indices
                assert [v.hex() for v in row.data.tolist()] == [v.hex() for v in values]
        if folds["o46"] == fold:  # held out, its terms are unseen
            assert not set(preprocess(docs[46].text)) & set(model.terms)
    assert docs[46].id == "o46" and preprocess(docs[47].text) == []


class TestRendering:
    def test_classification_report_row_format(self):
        cm = ConfusionMatrix(class_codes=(3,), counts=np.array([[1]]))
        rep = MetricsReport(
            confusion=cm,
            per_class={3: ClassMetrics(precision=0.8224, recall=0.8368,
                                       f1=0.8296, support=112)},
            accuracy=0.8368,
            macro_precision=0.8224, macro_recall=0.8368, macro_f1=0.8296,
            weighted_precision=0.8224, weighted_recall=0.8368, weighted_f1=0.8296,
            n_classes=1,
        )
        text = classification_report(rep, task=Task.DIRECTION)
        lines = text.splitlines()
        assert lines[0] == "| Label | Precision | Recall | F1-Score |"
        assert "| Predictive Neutral | 0.8224 | 0.8368 | 0.8296 |" in lines
        assert lines[-1] == "| Accuracy | | | 0.8368 |"

    def test_classification_report_binary_names(self):
        rep = metrics(confusion([0, 0, 1, 1], [0, 0, 1, 0]))
        text = classification_report(rep, task=Task.PREDICTIVENESS)
        assert "| Non-Predictive |" in text
        assert "| Predictive |" in text

    def test_perfect_classifier_renders_all_ones(self):
        rep = metrics(confusion([0, 1, 0, 1], [0, 1, 0, 1]))
        text = classification_report(rep, task=Task.PREDICTIVENESS)
        for line in text.splitlines()[2:]:
            cells = [c.strip() for c in line.strip("|").split("|")]
            for cell in cells[1:]:
                if cell:
                    assert cell == "1.0000"

    def test_summary_table_layout(self):
        rows = {
            "logreg": dict(weighted_precision=0.9012, weighted_recall=0.9,
                           weighted_f1=0.8994, macro_precision=0.88,
                           macro_recall=0.87, macro_f1=0.875, accuracy=0.9),
        }
        text = summary_table(rows, "Results")
        lines = text.splitlines()
        assert lines[0] == "Results"
        assert lines[2] == "| Model | W-Prec | W-Rec | W-F1 | M-Prec | M-Rec | M-F1 | Accuracy |"
        assert lines[4] == ("| logreg | 0.9012 | 0.9000 | 0.8994 "
                            "| 0.8800 | 0.8700 | 0.8750 | 0.9000 |")
