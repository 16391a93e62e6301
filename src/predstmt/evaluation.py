"""Metrics, agreement, and the cross-validated experiment harness.

Confusion matrices are gold-by-predicted count tables. Per-class precision,
recall, and F1 use the zero-division-to-zero convention; macro metrics are
unweighted means over all classes and weighted metrics are support-weighted
sums. Cross-validation refits the TF-IDF vocabulary inside every training
split so no test-fold statistics leak into the features.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import LABEL_NAMES, DataError, Dataset, Task, stratified_folds
from .features import TfidfConfig, fit_tfidf, transform_many
from .models import (
    TrainConfig,
    predict_many,
    train_logreg,
    train_random_forest,
    train_svm_linear,
)
from .preprocess import DEFAULT_CLEAN, CleanConfig, preprocess

MODEL_KINDS = ("logreg", "svm", "rf")

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

    def tp(self, i: int) -> int:
        return int(self.counts[i, i])

    def fp(self, i: int) -> int:
        return int(self.counts[:, i].sum()) - self.tp(i)

    def fn(self, i: int) -> int:
        return int(self.counts[i, :].sum()) - self.tp(i)

    def tn(self, i: int) -> int:
        return self.total - self.tp(i) - self.fp(i) - self.fn(i)

    def support(self, i: int) -> int:
        return int(self.counts[i, :].sum())

    def to_dict(self) -> dict:
        return {
            "class_codes": list(self.class_codes),
            "counts": self.counts.tolist(),
        }


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
        }


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

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.to_dict(),
            "per_class": {str(code): cm.to_dict() for code, cm in self.per_class.items()},
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "n_classes": self.n_classes,
        }


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
    for i, code in enumerate(cm.class_codes):
        tp = cm.tp(i)
        precision = _safe_div(tp, tp + cm.fp(i))
        recall = _safe_div(tp, tp + cm.fn(i))
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[code] = ClassMetrics(
            precision=precision, recall=recall, f1=f1, support=cm.support(i)
        )
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


def cohen_kappa(a: Sequence[int], b: Sequence[int]) -> float:
    """Chance-corrected agreement (p0 - pe) / (1 - pe) between two raters."""
    if len(a) != len(b):
        raise DataError(f"annotation lengths differ: {len(a)} vs {len(b)}")
    if not a:
        raise DataError("cannot compute kappa on empty annotations")
    n = len(a)
    agree = sum(1 for x, y in zip(a, b) if x == y)
    p0 = agree / n
    labels = set(a) | set(b)
    count_a = {lab: 0 for lab in labels}
    count_b = {lab: 0 for lab in labels}
    for x in a:
        count_a[x] += 1
    for y in b:
        count_b[y] += 1
    pe = sum((count_a[lab] / n) * (count_b[lab] / n) for lab in labels)
    if pe >= 1.0:
        if p0 == 1.0:
            return 1.0
        raise DataError("chance agreement is 1 but raters disagree")
    return (p0 - pe) / (1.0 - pe)


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
    pooled: MetricsReport
    fold_sizes: tuple[int, ...]

    def fold_means(self) -> dict[str, float]:
        """Unweighted means of the headline metrics across folds."""
        names = (
            "accuracy",
            "macro_precision", "macro_recall", "macro_f1",
            "weighted_precision", "weighted_recall", "weighted_f1",
        )
        return {
            name: sum(getattr(r, name) for r in self.per_fold) / len(self.per_fold)
            for name in names
        }

    def to_dict(self) -> dict:
        return {
            "task": int(self.task),
            "model_kind": self.model_kind,
            "k": self.k,
            "seed": self.seed,
            "train_config": asdict(self.train_config),
            "fold_sizes": list(self.fold_sizes),
            "per_fold": [r.to_dict() for r in self.per_fold],
            "fold_means": self.fold_means(),
            "pooled": self.pooled.to_dict(),
        }


def cross_validate(dataset: Dataset, task: Task, model_kind: str, train_cfg: TrainConfig,
                   k: int = 5, seed: int = 42,
                   clean_cfg: CleanConfig = DEFAULT_CLEAN,
                   tfidf_cfg: TfidfConfig = TfidfConfig()) -> CvReport:
    """Run stratified k-fold evaluation of one model kind on one task.

    Every fold refits TF-IDF on its training split only, trains a fresh
    model, and scores the held-out fold. The pooled report merges all fold
    confusion matrices; per-fold reports and their means are kept alongside.
    """
    if model_kind not in _TRAINERS:
        raise DataError(f"unknown model kind {model_kind!r}; expected one of {MODEL_KINDS}")
    task = Task(task)
    assignment = stratified_folds(dataset, task, k, seed)
    docs = dataset.labeled(task)
    tokens = {doc.id: preprocess(doc.text, clean_cfg) for doc in docs}
    labels = {doc.id: doc.label(task) for doc in docs}
    class_codes = sorted(set(labels.values()))

    per_fold = []
    fold_sizes = []
    pooled_counts = np.zeros((len(class_codes), len(class_codes)), dtype=np.int64)
    for fold in range(k):
        train_docs = [d for d in docs if assignment.folds[d.id] != fold]
        test_docs = [d for d in docs if assignment.folds[d.id] == fold]
        fold_sizes.append(len(test_docs))
        tfidf = fit_tfidf([tokens[d.id] for d in train_docs], tfidf_cfg)
        x_train = transform_many(tfidf, [tokens[d.id] for d in train_docs])
        y_train = [labels[d.id] for d in train_docs]
        model = _TRAINERS[model_kind](x_train, y_train, train_cfg)
        x_test = transform_many(tfidf, [tokens[d.id] for d in test_docs])
        y_test = [labels[d.id] for d in test_docs]
        predictions = predict_many(model, x_test)
        cm = confusion(y_test, predictions, class_codes)
        per_fold.append(metrics(cm))
        pooled_counts += cm.counts
    pooled = metrics(ConfusionMatrix(class_codes=tuple(class_codes), counts=pooled_counts))
    return CvReport(
        task=task,
        model_kind=model_kind,
        k=k,
        seed=seed,
        train_config=train_cfg,
        per_fold=tuple(per_fold),
        pooled=pooled,
        fold_sizes=tuple(fold_sizes),
    )


# ---------------------------------------------------------------------------
# rendering

def classification_report(report: MetricsReport, task: Task | None = None,
                          label_names: Mapping[int, str] | None = None) -> str:
    """Markdown per-label table of precision/recall/F1 at 4 decimal places."""
    if label_names is None:
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
        lines.append(
            "| {} | {:.4f} | {:.4f} | {:.4f} | {:.4f} | {:.4f} | {:.4f} | {:.4f} |".format(
                model_name,
                vals["weighted_precision"], vals["weighted_recall"], vals["weighted_f1"],
                vals["macro_precision"], vals["macro_recall"], vals["macro_f1"],
                vals["accuracy"],
            )
        )
    return "\n".join(lines)


def report_headline(report: MetricsReport) -> dict[str, float]:
    return {
        "accuracy": report.accuracy,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "weighted_precision": report.weighted_precision,
        "weighted_recall": report.weighted_recall,
        "weighted_f1": report.weighted_f1,
    }
