"""Metrics and the cross-validated experiment harness.

Confusion matrices are gold-by-predicted count tables. Per-class precision,
recall, and F1 use the zero-division-to-zero convention; macro metrics are
unweighted means over all classes and weighted metrics are support-weighted
sums. Cross-validation refits the TF-IDF vocabulary inside every training
split so no test-fold statistics leak into the features. cross_validate_models
evaluates several model kinds on the same folds: each document is cleaned
and its terms counted once, and each fold is featurized from its rows of
those counts once for all of them, by _fold_predictions, the per-fold
"fit TF-IDF, train, predict" step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .config import MODEL_KINDS, TrainConfig
from .corpus import LABEL_NAMES, DataError, Dataset, Task, jsonable, stratified_folds
from .features import SparseBatch, count_terms, fit_tfidf, transform_many
from .models import (
    ForestModel,
    forest_size,
    predict_many,
    train_logreg,
    train_random_forest,
    train_svm_linear,
)
from .preprocess import preprocess

_TRAINERS = {
    "logreg": train_logreg,
    "svm": train_svm_linear,
    "rf": train_random_forest,
}


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """k x k count table; rows are gold classes, columns are predictions."""

    class_codes: tuple[int, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.class_codes)
        if self.counts.shape != (k, k):
            raise DataError("confusion matrix shape does not match class codes")
        if (self.counts < 0).any():
            raise DataError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


#: The headline fields of a MetricsReport, as its reports list them.
HEADLINE = ("accuracy", "macro_precision", "macro_recall", "macro_f1",
            "weighted_precision", "weighted_recall", "weighted_f1")


@dataclass(frozen=True, eq=False)
class MetricsReport:
    confusion: ConfusionMatrix
    per_class: Mapping[int, ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    n_classes: int


def confusion(gold: Sequence[int], pred: Sequence[int],
              class_codes: Sequence[int] | None = None) -> ConfusionMatrix:
    """Count gold/predicted label pairs into a matrix.

    class_codes fixes the class set and ordering; when omitted it is the
    sorted union of labels seen in either sequence.
    """
    if len(gold) != len(pred):
        raise DataError(f"gold and pred lengths differ: {len(gold)} vs {len(pred)}")
    if not gold:
        raise DataError("cannot build a confusion matrix from zero evaluated pairs")
    gold = [int(v) for v in gold]
    pred = [int(v) for v in pred]
    if class_codes is None:
        class_codes = sorted(set(gold) | set(pred))
    codes = tuple(int(c) for c in class_codes)
    index = {c: i for i, c in enumerate(codes)}
    counts = np.zeros((len(codes), len(codes)), dtype=np.int64)
    for g, p in zip(gold, pred):
        if g not in index:
            raise DataError(f"gold label {g} not in class codes {codes}")
        if p not in index:
            raise DataError(f"predicted label {p} not in class codes {codes}")
        counts[index[g], index[p]] += 1
    return ConfusionMatrix(class_codes=codes, counts=counts)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derive accuracy, per-class P/R/F1, and macro/weighted aggregates.

    Macro metrics average over all k classes, including classes with zero
    support. Weighted metrics sum per-class values scaled by support/total.
    """
    total = cm.total
    if total == 0:
        raise DataError("cannot compute metrics on a zero-total confusion matrix")
    per_class: dict[int, ClassMetrics] = {}
    k = len(cm.class_codes)
    counts = cm.counts  # rows are gold classes, columns predictions
    hits = np.diag(counts).tolist()
    gold, predicted = counts.sum(axis=1).tolist(), counts.sum(axis=0).tolist()
    for i, code in enumerate(cm.class_codes):
        precision = _safe_div(hits[i], predicted[i])
        recall = _safe_div(hits[i], gold[i])
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[code] = ClassMetrics(precision=precision, recall=recall, f1=f1, support=gold[i])
    values = list(per_class.values())
    weight = [m.support / total for m in values]
    # the macro mean is written as a uniform-weight dot product so that with
    # equal supports it is the same float expression as the weighted sum
    inv_k = 1.0 / k
    return MetricsReport(
        confusion=cm,
        per_class=per_class,
        accuracy=float(np.trace(cm.counts)) / total,
        macro_precision=sum(inv_k * m.precision for m in values),
        macro_recall=sum(inv_k * m.recall for m in values),
        macro_f1=sum(inv_k * m.f1 for m in values),
        weighted_precision=sum(w * m.precision for w, m in zip(weight, values)),
        weighted_recall=sum(w * m.recall for w, m in zip(weight, values)),
        weighted_f1=sum(w * m.f1 for w, m in zip(weight, values)),
        n_classes=k,
    )


# ---------------------------------------------------------------------------
# cross-validation

@dataclass(frozen=True, eq=False)
class CvReport:
    task: Task
    model_kind: str
    k: int
    seed: int
    train_config: TrainConfig
    per_fold: tuple[MetricsReport, ...]
    forest_sizes: tuple[dict, ...] = ()  # forest_size of each fold's model; rf only

    @cached_property
    def pooled(self) -> MetricsReport:
        """Metrics of the fold confusion matrices summed into one."""
        return metrics(ConfusionMatrix(class_codes=self.per_fold[0].confusion.class_codes,
                                       counts=sum(r.confusion.counts for r in self.per_fold)))

    @property
    def fold_sizes(self) -> tuple[int, ...]:
        return tuple(r.confusion.total for r in self.per_fold)

    def fold_means(self) -> dict[str, float]:
        """Unweighted means of the headline metrics across folds."""
        return {name: sum(getattr(r, name) for r in self.per_fold) / len(self.per_fold)
                for name in HEADLINE}

    def to_dict(self) -> dict:
        """jsonable(self) with pooled, fold_sizes, fold_means and each fold's forest size."""
        payload = jsonable(self)
        for fold, size in zip(payload["per_fold"], payload.pop("forest_sizes")):
            fold["forest"] = size
        return {**payload, "pooled": jsonable(self.pooled), "fold_sizes": self.fold_sizes,
                "fold_means": self.fold_means()}


def cross_validate(dataset: Dataset, task: Task, model_kind: str, train_cfg: TrainConfig,
                   k: int = 5, seed: int = 42) -> CvReport:
    """Run stratified k-fold evaluation of one model kind on one task."""
    return cross_validate_models(dataset, task, (model_kind,), train_cfg, k=k,
                                 seed=seed)[model_kind]


def cross_validate_models(dataset: Dataset, task: Task, model_kinds: Sequence[str],
                          train_cfg: TrainConfig, k: int = 5,
                          seed: int = 42) -> dict[str, CvReport]:
    """Run stratified k-fold evaluation of several model kinds on the same folds.

    Each document is preprocessed and its terms counted once. Every fold
    refits TF-IDF on its training rows only, featurizes both splits once,
    then trains a fresh model of each kind, in the order given, and scores
    the held-out fold.
    A kind's pooled report merges its fold confusion matrices; per-fold
    reports and their means are kept alongside. The reports are keyed by
    kind and equal those of one cross_validate call per kind.
    """
    for kind in model_kinds:
        if kind not in _TRAINERS:
            raise DataError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if len(set(model_kinds)) != len(model_kinds):
        raise DataError(f"model kinds must be distinct, got {list(model_kinds)}")
    task = Task(task)
    assignment = stratified_folds(dataset, task, k, seed)
    docs = dataset.labeled(task)
    counts = count_terms(preprocess(doc.text) for doc in docs)
    labels = [doc.label(task) for doc in docs]
    doc_folds = [assignment.folds[doc.id] for doc in docs]
    class_codes = sorted(set(labels))

    per_fold = {kind: [] for kind in model_kinds}
    forest_sizes = {kind: [] for kind in model_kinds}
    for fold in range(k):
        train = [i for i, f in enumerate(doc_folds) if f != fold]
        test = [i for i, f in enumerate(doc_folds) if f == fold]
        y_test = [labels[i] for i in test]
        for kind, model, predictions in _fold_predictions(
                counts[train], [labels[i] for i in train], counts[test], model_kinds,
                train_cfg, f"fold {fold + 1} of {k}"):
            if isinstance(model, ForestModel):
                forest_sizes[kind].append(forest_size(model))
            per_fold[kind].append(metrics(confusion(y_test, predictions, class_codes)))
    return {
        kind: CvReport(
            task=task,
            model_kind=kind,
            k=k,
            seed=seed,
            train_config=train_cfg,
            per_fold=tuple(per_fold[kind]),
            forest_sizes=tuple(forest_sizes[kind]),
        )
        for kind in model_kinds
    }


def _fold_predictions(train_rows: SparseBatch, y_train: Sequence[int], test_rows: SparseBatch,
                      model_kinds: Sequence[str], train_cfg: TrainConfig, fold_name: str):
    """Yield (kind, model, test predictions) for each kind on one train/test split.

    The splits are count rows from count_terms. TF-IDF is fitted on the
    training rows alone, and both splits are featurized once for all kinds.
    A vocabulary left empty, which no model can learn from, is a DataError
    that starts with fold_name.
    """
    tfidf = fit_tfidf(train_rows)
    if not tfidf.dimension:
        raise DataError(f"{fold_name}: no training document has a token, "
                        "so the TF-IDF vocabulary is empty")
    x_train = transform_many(tfidf, train_rows)
    x_test = transform_many(tfidf, test_rows)
    for kind in model_kinds:
        model = _TRAINERS[kind](x_train, y_train, train_cfg)
        yield kind, model, predict_many(model, x_test)


# ---------------------------------------------------------------------------
# rendering

def classification_report(report: MetricsReport, task: Task | None = None) -> str:
    """Markdown per-label table of precision/recall/F1 at 4 decimal places.

    Labels are named after task's LABEL_NAMES, or by code without a task.
    """
    label_names = LABEL_NAMES.get(Task(task), {}) if task is not None else {}
    lines = [
        "| Label | Precision | Recall | F1-Score |",
        "| --- | --- | --- | --- |",
    ]
    for code, cm in report.per_class.items():
        name = label_names.get(code, str(code))
        lines.append(f"| {name} | {cm.precision:.4f} | {cm.recall:.4f} | {cm.f1:.4f} |")
    lines.append(f"| Accuracy | | | {report.accuracy:.4f} |")
    return "\n".join(lines)


def summary_table(rows: Mapping[str, Mapping[str, float]], caption: str) -> str:
    """Markdown model-comparison table (weighted, macro, accuracy columns)."""
    lines = [
        caption,
        "",
        "| Model | W-Prec | W-Rec | W-F1 | M-Prec | M-Rec | M-F1 | Accuracy |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for model_name, vals in rows.items():
        cells = [vals[f"{mean}_{m}"] for mean in ("weighted", "macro")
                 for m in ("precision", "recall", "f1")] + [vals["accuracy"]]
        lines.append("| " + " | ".join([model_name] + [f"{v:.4f}" for v in cells]) + " |")
    return "\n".join(lines)
