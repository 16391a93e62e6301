"""Per-layer metrics from the spans of a traced run.

The names, units and directions of the per-layer metrics are the
per_layer list of BENCHMARK.json. WORKS_ON gives, for each of them, the
workloads on which its layer does work; there the metric must read nonzero,
or the traced run fails. The comments above each group name the end-to-end
metric the group should move.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CV = ("cv-linear", "cv-forest")
LINEAR = ("cv-linear",)
FOREST = ("cv-forest",)
TEXT = ("text-10x",)
ALL = CV + TEXT
# percentiles are reported only for functions called at least this often in a run
PERCENTILE_MIN_CALLS = 1000

WORKS_ON: dict[str, tuple[str, ...]] = {
    # should move wall_s
    "features.transform_many.calls": CV,
    "features.transform_many.busy_s": CV,
    "features.transform_many.us_per_doc": CV,
    "features.fit_tfidf.busy_s": CV,
    "features.dim": CV,
    "features.nnz": CV,
    "features.bytes_computed": CV,
    "models.train_logreg.busy_s": LINEAR,
    "models.logreg.epochs_moved": LINEAR,
    "models.train_svm_linear.busy_s": LINEAR,
    # nominal: epochs x docs x classes, fixed by the config and the corpus
    "models.svm.steps": LINEAR,
    "models.predict_many.logreg.busy_s": LINEAR,
    "models.predict_many.svm.busy_s": LINEAR,
    "preprocess.preprocess.calls": ALL,
    "preprocess.preprocess.busy_s": ALL,
    "preprocess.preprocess.p50_us": ALL,
    "preprocess.preprocess.p99_us": ALL,
    "emotion.tag_document.calls": TEXT,
    "emotion.tag_document.self_s": TEXT,
    "emotion.tag_document.p50_us": TEXT,
    "emotion.tag_document.p99_us": TEXT,
    "emotion.aggregate.busy_s": TEXT,
    "emotion.load_lexicon.busy_s": TEXT,
    "emotion.hit_ratio": TEXT,
    "evaluation.cross_validate.busy_s": CV,
    "evaluation.cross_validate.self_s": CV,
    "evaluation.confusion.busy_s": CV,
    "evaluation.metrics.busy_s": CV,
    "cli.main.busy_s": ALL,
    "cli.self_s": ALL,
    "cli.artifact_bytes": ALL,
    # should move wall_s and peak_rss_mb
    "models.train_random_forest.busy_s": FOREST,
    "models.forest.nodes": FOREST,
    "models.forest.max_depth": FOREST,
    "models.predict_many.rf.busy_s": FOREST,
    # should move wall_s and shortfall_docs (augment.shortfall_docs)
    "augment.balance.busy_s": TEXT,
    "augment.balance.self_s": TEXT,
    "augment.paraphrase.calls": TEXT,
    "augment.paraphrase.p50_us": TEXT,
    "augment.paraphrase.p99_us": TEXT,
    "augment.accept_ratio": TEXT,
    "augment.shortfall_errors": (),
    "augment.shortfall_docs": (),
    # should move setup_s everywhere, and wall_s on text-10x
    "corpus.load_dataset.busy_s": ALL,
    "corpus.save_dataset.busy_s": TEXT,
    "corpus.stratified_folds.busy_s": CV,
    "corpus.distribution.busy_s": TEXT,
    # the pooled macro-F1 of cv_<model>.json; a change in it is a changed model
    "evaluation.macro_f1.logreg": LINEAR,
    "evaluation.macro_f1.svm": LINEAR,
    "evaluation.macro_f1.rf": FOREST,
    # traced wall time minus the untraced median; may be negative
    "trace.overhead_s": (),
}


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and the name, unit and direction of every metric."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


class SpanStats:
    """Calls, busy time, self time and durations per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}

    def add(self, spans: list[list]) -> None:
        """Add the spans of one process: [name, start, end, parent index]."""
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(spans, child_time):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - children
            self.durations.setdefault(name, []).append(duration)

    def percentile_us(self, name: str, pct: int) -> float:
        values = self.durations.get(name, [])
        if len(values) < PERCENTILE_MIN_CALLS:
            return 0.0
        return statistics.quantiles(values, n=100)[pct - 1] * 1e6

    def metric(self, metric: str) -> float | None:
        """The value of a span-based metric, or None when the name is not one."""
        for suffix, table in ((".calls", self.calls), (".busy_s", self.busy),
                              (".self_s", self.self_time)):
            if metric.endswith(suffix):
                return float(table.get(metric[: -len(suffix)], 0))
        for suffix, pct in ((".p50_us", 50), (".p99_us", 99)):
            if metric.endswith(suffix):
                return self.percentile_us(metric[: -len(suffix)], pct)
        return None


def per_layer(stats: SpanStats, counters: dict[str, float], outputs: dict[str, float]) -> dict:
    """Every per_layer metric as {"value", "unit"}; layers a workload skips read 0."""
    transform_docs = counters.get("features.docs", 0)
    paraphrase_calls = stats.calls.get("augment.paraphrase", 0)
    tag_calls = stats.calls.get("emotion.tag_document", 0)
    derived = {
        "features.transform_many.us_per_doc":
            stats.busy.get("features.transform_many", 0.0) / transform_docs * 1e6
            if transform_docs else 0.0,
        "features.dim": counters.get("features.dim", 0),
        "features.nnz": counters.get("features.nnz", 0),
        "features.bytes_computed": counters.get("features.nnz", 0) * 16,
        "models.logreg.epochs_moved": counters.get("models.logreg.epochs_moved", 0),
        "models.svm.steps": counters.get("models.svm.steps", 0),
        "models.forest.nodes": counters.get("models.forest.nodes", 0),
        "models.forest.max_depth": counters.get("models.forest.max_depth", 0),
        "augment.accept_ratio":
            outputs.get("synthetic_docs", 0) / paraphrase_calls if paraphrase_calls else 0.0,
        "augment.shortfall_errors":
            counters.get("augment.paraphrase.raised.ParaphraseShortfallError", 0),
        "emotion.hit_ratio": counters.get("emotion.hits", 0) / tag_calls if tag_calls else 0.0,
        "cli.self_s": stats.self_time.get("cli.main", 0.0),
    }
    metrics = {}
    for spec in benchmark_spec()["per_layer"]:
        name = spec["name"]
        value = derived.get(name, stats.metric(name))
        if value is None:
            value = outputs.get(name, 0.0)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def missing_work(workload: str, metrics: dict) -> list[str]:
    """Metrics that read 0 on a workload whose layer should do work, or that WORKS_ON lacks."""
    problems = [f"{name} reads 0 on {workload}" for name, metric in metrics.items()
                if workload in WORKS_ON.get(name, ()) and not metric["value"]]
    problems += [f"{name} is not in layers.WORKS_ON" for name in metrics if name not in WORKS_ON]
    problems += [f"{name} is not in BENCHMARK.json per_layer" for name in WORKS_ON
                 if name not in metrics]
    return problems
