"""The benchmark's traced round must keep observing every layer of the package.

perfbench/traced.py wraps the names through which the CLI reaches each
layer and reads what they return (row counts of the feature batch, tree
sizes, loss curves). A change to one of those return types loses a counter
there; this test makes such a change fail the suite, not only the traced
benchmark round. It only reads perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import build_planted_dataset
from predstmt import Task, save_dataset

ROOT = Path(__file__).resolve().parents[1]


def test_traced_cv_observes_every_layer(tmp_path):
    save_dataset(build_planted_dataset(Task.DIRECTION, {1: 12, 2: 10, 3: 8}, seed=3),
                 tmp_path / "corpus.jsonl")
    (tmp_path / "train.json").write_text(json.dumps({"train": {"epochs": 5, "n_trees": 3}}))
    argv = [sys.executable, str(ROOT / "perfbench" / "traced.py"), "spans.json",
            "cv", "--task", "2", "--model", "logreg", "--model", "svm", "--model", "rf",
            "--dataset", "corpus.jsonl", "--config", "train.json", "--out", "out", "--tag", "r"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    counters = json.loads((tmp_path / "spans.json").read_text())["counters"]
    assert [name for name in counters if name.endswith(".unobserved")] == []
    for name in ("features.docs", "features.nnz", "features.dim", "models.logreg.epochs_moved",
                 "models.svm.steps", "models.forest.nodes"):
        assert counters.get(name, 0) > 0, name


def test_traced_text_path_observes_every_layer(tmp_path):
    save_dataset(build_planted_dataset(Task.DIRECTION, {1: 12, 2: 10, 3: 8}, seed=5),
                 tmp_path / "corpus.jsonl")
    traced = [sys.executable, str(ROOT / "perfbench" / "traced.py")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spans = {}
    for command in (["balance", "--task", "2", "--dataset", "corpus.jsonl"],
                    ["emotion", "--dataset", "out/balance/r/balanced.jsonl"]):
        argv = traced + [f"{command[0]}.json", *command, "--out", "out", "--tag", "r"]
        proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        record = json.loads((tmp_path / f"{command[0]}.json").read_text())
        assert [name for name in record["counters"] if name.endswith(".unobserved")] == []
        for name, start, end, _ in record["spans"]:
            spans[name] = spans.get(name, 0.0) + end - start
    # a fast path that bypasses one of these names would leave its layer unmeasured
    for name in ("corpus.load_dataset", "augment.balance", "emotion.aggregate",
                 "preprocess.preprocess", "emotion.tag_document", "augment.paraphrase",
                 "corpus.save_dataset", "corpus.distribution"):
        assert spans.get(name, 0.0) > 0, name
