"""Run one predstmt CLI command with spans recorded at module boundaries.

Usage: python3 perfbench/traced.py SPANS.json PREDSTMT-ARGS...

The package is imported unchanged. Before the command runs, this script
replaces the names through which callers reach each layer (the trainer
table in evaluation, functions imported into evaluation, emotion and cli,
and the offline paraphraser's method) with wrappers that record a span:
name, start, end and the index of the enclosing span. Spans and counters
stay in memory and are written to SPANS.json when the command exits.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from predstmt import augment, cli, emotion, evaluation

_PREDICT_NAMES = {"logreg": "logreg", "svm_linear": "svm"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, observe=None):
        """Wrap fn in a span. name is a string or a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            self.spans.append([span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{span_name}.raised.{type(exc).__name__}")
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, TypeError):
                    # a changed return type loses this counter; run.py fails the run
                    self.count(f"{span_name}.unobserved")
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _tree_stats(tree) -> tuple[int, int]:
    """(node count, depth) of a tree of nodes with feature, left and right."""
    nodes, max_depth, stack = 0, 0, [(tree, 0)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        max_depth = max(max_depth, level)
        if node.feature >= 0:
            stack.extend(((node.left, level + 1), (node.right, level + 1)))
    return nodes, max_depth


def _observe_transform(tracer, args, kwargs, result):
    tracer.count("features.docs", len(args[1]))
    tracer.count("features.nnz", sum(len(vec.indices) for vec in result))


def _observe_fit(tracer, args, kwargs, result):
    tracer.counters["features.dim"] = max(tracer.counters.get("features.dim", 0),
                                          result.dimension)


def _observe_logreg(tracer, args, kwargs, result):
    history = result.loss_history
    tracer.count("models.logreg.epochs_moved",
                 sum(1 for a, b in zip(history, history[1:]) if b < a))


def _observe_svm(tracer, args, kwargs, result):
    # the nominal step count, epochs x docs x classes: the trainer returns no count of its
    # own, so this is fixed by the config and the corpus and cannot move with the code
    cfg = args[2]
    tracer.count("models.svm.steps", cfg.epochs * len(args[0]) * len(result.class_codes))


def _observe_forest(tracer, args, kwargs, result):
    for tree in result.trees:
        nodes, depth = _tree_stats(tree)
        tracer.count("models.forest.nodes", nodes)
        tracer.counters["models.forest.max_depth"] = max(
            tracer.counters.get("models.forest.max_depth", 0), depth)


def _observe_tag(tracer, args, kwargs, result):
    if result:
        tracer.count("emotion.hits")


def _predict_name(args, kwargs) -> str:
    kind = getattr(args[0], "kind", None)
    return f"models.predict_many.{_PREDICT_NAMES.get(kind, 'rf')}"


def install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    trainers = evaluation._TRAINERS
    trainers["logreg"] = wrap("models.train_logreg", trainers["logreg"], _observe_logreg)
    trainers["svm"] = wrap("models.train_svm_linear", trainers["svm"], _observe_svm)
    trainers["rf"] = wrap("models.train_random_forest", trainers["rf"], _observe_forest)
    evaluation.fit_tfidf = wrap("features.fit_tfidf", evaluation.fit_tfidf, _observe_fit)
    evaluation.transform_many = wrap("features.transform_many", evaluation.transform_many,
                                     _observe_transform)
    evaluation.predict_many = wrap(_predict_name, evaluation.predict_many)
    evaluation.preprocess = wrap("preprocess.preprocess", evaluation.preprocess)
    evaluation.stratified_folds = wrap("corpus.stratified_folds", evaluation.stratified_folds)
    evaluation.confusion = wrap("evaluation.confusion", evaluation.confusion)
    evaluation.metrics = wrap("evaluation.metrics", evaluation.metrics)
    emotion.preprocess = wrap("preprocess.preprocess", emotion.preprocess)
    emotion.tag_document = wrap("emotion.tag_document", emotion.tag_document, _observe_tag)
    augment.distribution = wrap("corpus.distribution", augment.distribution)
    paraphraser = augment.OfflineParaphraser
    paraphraser.paraphrase = wrap("augment.paraphrase", paraphraser.paraphrase)
    cli.cross_validate = wrap("evaluation.cross_validate", cli.cross_validate)
    cli.load_dataset = wrap("corpus.load_dataset", cli.load_dataset)
    cli.save_dataset = wrap("corpus.save_dataset", cli.save_dataset)
    cli.distribution = wrap("corpus.distribution", cli.distribution)
    cli.balance = wrap("augment.balance", cli.balance)
    cli.aggregate = wrap("emotion.aggregate", cli.aggregate)
    cli.load_lexicon = wrap("emotion.load_lexicon", cli.load_lexicon)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
