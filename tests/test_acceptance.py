"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained: it builds its own fixtures, states its
tolerance, and asserts its own runtime budget where one applies.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import FILLER_WORDS, build_planted_dataset, dense_batch, dense_rows
from predstmt import (
    Coin,
    Dataset,
    Document,
    OfflineParaphraser,
    Task,
    TrainConfig,
    aggregate,
    balance,
    cohen_kappa,
    compute_plan,
    confusion,
    cross_validate,
    distribution,
    load_lexicon,
    metrics,
    render_markdown,
    save_dataset,
    stratified_folds,
)
from predstmt.cli import main
from predstmt.models import (
    logreg_gradient,
    logreg_objective,
    svm_objective,
    svm_subgradient,
)


def brute_force_metrics(gold, pred):
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
    n, k = len(gold), len(codes)
    return {
        "per_class": per,
        "accuracy": sum(1 for g, p in zip(gold, pred) if g == p) / n,
        "macro": tuple(sum(per[c][i] for c in codes) / k for i in range(3)),
        "weighted": tuple(sum(per[c][3] / n * per[c][i] for c in codes)
                          for i in range(3)),
    }


def test_criterion_01_metric_oracle_equivalence():
    """metrics() agrees with a definition-level oracle to 1e-9 over 1000+ cases."""
    rng = random.Random(101)
    t0 = time.perf_counter()
    checked = 0
    while checked < 1000:
        k = rng.choice([2, 3, 5])
        n = rng.randint(2, 200)
        gold = [rng.randrange(k) for _ in range(n)]
        pred = [rng.randrange(k) for _ in range(n)]
        rep = metrics(confusion(gold, pred))
        want = brute_force_metrics(gold, pred)
        assert rep.accuracy == pytest.approx(want["accuracy"], abs=1e-9)
        for c, (prec, rec, f1, sup) in want["per_class"].items():
            got = rep.per_class[c]
            assert got.precision == pytest.approx(prec, abs=1e-9)
            assert got.recall == pytest.approx(rec, abs=1e-9)
            assert got.f1 == pytest.approx(f1, abs=1e-9)
            assert got.support == sup
        assert rep.macro_precision == pytest.approx(want["macro"][0], abs=1e-9)
        assert rep.macro_recall == pytest.approx(want["macro"][1], abs=1e-9)
        assert rep.macro_f1 == pytest.approx(want["macro"][2], abs=1e-9)
        assert rep.weighted_precision == pytest.approx(want["weighted"][0], abs=1e-9)
        assert rep.weighted_recall == pytest.approx(want["weighted"][1], abs=1e-9)
        assert rep.weighted_f1 == pytest.approx(want["weighted"][2], abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s for {checked} cases"


def test_criterion_02_equal_support_identity():
    """With equal class supports, weighted metrics equal macro metrics exactly."""
    rng = random.Random(202)
    for _ in range(500):
        k = rng.choice([2, 3, 5])
        s = rng.randint(1, 40)
        gold = [c for c in range(k) for _ in range(s)]
        pred = [rng.randrange(k) for _ in gold]
        rep = metrics(confusion(gold, pred, class_codes=range(k)))
        assert rep.weighted_f1 == rep.macro_f1
        assert rep.weighted_precision == rep.macro_precision
        assert rep.weighted_recall == rep.macro_recall


def test_criterion_03_kappa_checks():
    """Kappa is 1 on identical raters, 0.5 on the frozen fixture, symmetric."""
    rng = random.Random(303)
    for _ in range(20):
        n = rng.randint(2, 50)
        a = [rng.randrange(3) for _ in range(n)]
        assert cohen_kappa(a, a) == 1.0
    assert cohen_kappa([0, 0, 1, 1], [0, 1, 1, 1]) == 0.5
    for _ in range(200):
        n = rng.randint(2, 50)
        a = [rng.randrange(3) for _ in range(n)]
        b = [rng.randrange(3) for _ in range(n)]
        assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a), abs=1e-12)


def test_criterion_04_balancing_arithmetic(reference_corpus):
    """Upsampling plans and final counts reproduce the reference arithmetic."""
    plan1 = compute_plan(distribution(reference_corpus, Task.PREDICTIVENESS))
    assert plan1.target_per_class == 2000
    assert plan1.needed == {1: 884}
    balanced1 = balance(reference_corpus, Task.PREDICTIVENESS,
                        OfflineParaphraser(), seed=42)
    dist1 = distribution(balanced1, Task.PREDICTIVENESS)
    assert dist1.counts == {0: 2000, 1: 2000}
    assert dist1.total == 4000

    plan2 = compute_plan(distribution(reference_corpus, Task.DIRECTION))
    assert plan2.needed == {2: 136, 3: 458}
    balanced2 = balance(reference_corpus, Task.DIRECTION,
                        OfflineParaphraser(), seed=42)
    dist2 = distribution(balanced2, Task.DIRECTION)
    assert dist2.counts == {1: 570, 2: 570, 3: 570}
    assert dist2.total == 1710


def test_criterion_05_fold_arithmetic(reference_corpus):
    """5 stratified folds over 3116 documents: sizes in {623, 624}, per-class skew <= 1."""
    assignment = stratified_folds(reference_corpus, Task.PREDICTIVENESS,
                                  k=5, seed=42)
    sizes = assignment.sizes()
    assert sorted(sizes) == [623, 623, 623, 623, 624]
    labels = {doc.id: doc.task1 for doc in reference_corpus}
    for code in (0, 1):
        per_fold = [0] * 5
        for doc_id, fold in assignment.folds.items():
            if labels[doc_id] == code:
                per_fold[fold] += 1
        assert max(per_fold) - min(per_fold) <= 1


def test_criterion_06_gradient_checks():
    """Analytic gradients match central finite differences to 1e-4 relative."""

    rng = random.Random(606)
    t0 = time.perf_counter()
    eps = 1e-6

    for _ in range(6):
        n, d, k = rng.randint(8, 20), rng.randint(3, 6), rng.choice([2, 3])
        X = dense_batch([[rng.gauss(0, 1) for _ in range(d)] for _ in range(n)], d)
        y = [rng.randrange(k) for _ in range(n)]
        for c in range(k):
            y[c] = c
        W = np.array([[rng.gauss(0, 0.5) for _ in range(d)] for _ in range(k)])
        b = np.array([rng.gauss(0, 0.5) for _ in range(k)])
        grad_w, grad_b = logreg_gradient(W, b, X, y, l2=0.01)
        for _ in range(8):
            i, j = rng.randrange(k), rng.randrange(d)
            w_hi = W.copy(); w_hi[i, j] += eps
            w_lo = W.copy(); w_lo[i, j] -= eps
            fd = (logreg_objective(w_hi, b, X, y, 0.01)
                  - logreg_objective(w_lo, b, X, y, 0.01)) / (2 * eps)
            assert abs(fd - grad_w[i, j]) <= 1e-4 * max(1.0, abs(fd))
        for i in range(k):
            b_hi = b.copy(); b_hi[i] += eps
            b_lo = b.copy(); b_lo[i] -= eps
            fd = (logreg_objective(W, b_hi, X, y, 0.01)
                  - logreg_objective(W, b_lo, X, y, 0.01)) / (2 * eps)
            assert abs(fd - grad_b[i]) <= 1e-4 * max(1.0, abs(fd))

    checked = 0
    while checked < 6:
        n, d = rng.randint(8, 16), rng.randint(3, 5)
        X = dense_batch([[rng.gauss(0, 1) for _ in range(d)] for _ in range(n)], d)
        y_signed = [rng.choice([-1.0, 1.0]) for _ in range(n)]
        w = np.array([rng.gauss(0, 1) for _ in range(d)])
        b = rng.gauss(0, 1)
        margins = [ys * (x @ w + b) for x, ys in zip(dense_rows(X), y_signed)]
        if min(abs(m - 1.0) for m in margins) < 1e-3:
            continue  # hinge kink, not differentiable there
        grad_w, grad_b = svm_subgradient(w, b, X, y_signed, l2=0.05)
        for j in range(d):
            w_hi = w.copy(); w_hi[j] += eps
            w_lo = w.copy(); w_lo[j] -= eps
            fd = (svm_objective(w_hi, b, X, y_signed, 0.05)
                  - svm_objective(w_lo, b, X, y_signed, 0.05)) / (2 * eps)
            assert abs(fd - grad_w[j]) <= 1e-4 * max(1.0, abs(fd))
        fd = (svm_objective(w, b + eps, X, y_signed, 0.05)
              - svm_objective(w, b - eps, X, y_signed, 0.05)) / (2 * eps)
        assert abs(fd - grad_b) <= 1e-4 * max(1.0, abs(fd))
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_07_learning_sanity():
    """All three model kinds recover a planted-token signal: pooled macro-F1 >= 0.95."""
    t0 = time.perf_counter()
    ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 60, 1: 60}, seed=17)
    for kind in ("logreg", "svm", "rf"):
        report = cross_validate(ds, Task.PREDICTIVENESS, kind,
                                TrainConfig(seed=1), k=5, seed=42)
        assert report.pooled.macro_f1 >= 0.95, (
            f"{kind} pooled macro-F1 {report.pooled.macro_f1:.4f} below 0.95"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_08_balancing_improves_macro_f1(record_property):
    """Offline upsampling of a 9:1 corpus strictly raises pooled macro-F1."""
    rng = random.Random(21)
    coins = list(Coin)
    docs = []
    for i in range(180):
        words = rng.sample(FILLER_WORDS, 6)
        if rng.random() < 0.05:
            words.append("moonshot")
        rng.shuffle(words)
        docs.append(Document(id=f"mj{i:04d}", text=" ".join(words),
                             coin=coins[i % len(coins)], task1=0))
    for i in range(20):
        words = rng.sample(FILLER_WORDS, 6)
        if rng.random() < 0.75:
            words.append("moonshot")
        rng.shuffle(words)
        docs.append(Document(id=f"mn{i:04d}", text=" ".join(words),
                             coin=coins[i % len(coins)], task1=1))
    ds = Dataset(documents=tuple(docs), name="imbalanced")

    # the signal token must survive paraphrasing untouched
    provider = OfflineParaphraser()
    assert "moonshot" not in provider.synonyms
    assert all("moonshot" not in alts for alts in provider.synonyms.values())

    cfg = TrainConfig(seed=0)
    before = cross_validate(ds, Task.PREDICTIVENESS, "logreg", cfg, k=5, seed=42)
    balanced = balance(ds, Task.PREDICTIVENESS, provider, seed=7)
    after = cross_validate(balanced, Task.PREDICTIVENESS, "logreg", cfg, k=5, seed=42)

    delta = after.pooled.macro_f1 - before.pooled.macro_f1
    record_property("macro_f1_before", round(before.pooled.macro_f1, 4))
    record_property("macro_f1_after", round(after.pooled.macro_f1, 4))
    record_property("macro_f1_delta", round(delta, 4))
    print(f"balancing delta: macro-F1 {before.pooled.macro_f1:.4f} -> "
          f"{after.pooled.macro_f1:.4f} ({delta:+.4f})")
    assert delta > 0, f"balancing did not help: delta {delta:+.4f}"


def test_criterion_09_emotion_aggregation(tmp_path):
    """A hand-counted cell renders exactly, with zero percentages as dashes."""
    lexicon_path = tmp_path / "lex.json"
    lexicon_path.write_text(json.dumps({
        "entries": {
            "happy": [["joy", 0.7]],
            "hyped": [["enthusiasm", 0.8]],
            "scared": [["fear", 0.8]],
            "angry": [["anger", 0.8]],
        },
        "grouping": {
            "joy": "delight_joy",
            "enthusiasm": "enthusiasm_eagerness",
            "fear": "fear_anxiety",
            "anger": "rage_anger",
        },
    }))
    lexicon = load_lexicon(lexicon_path)
    docs = (
        Document(id="b1", text="happy and hyped about this run",
                 coin=Coin.BNB, task1=1, task2=1),
        Document(id="b2", text="happy but scared of leverage",
                 coin=Coin.BNB, task1=1, task2=1),
        Document(id="b3", text="angry at the dump",
                 coin=Coin.BNB, task1=1, task2=1),
    )
    report = aggregate(Dataset(documents=docs, name="cell"), lexicon)
    table = render_markdown(report)
    lines = table.splitlines()
    # hand count over 3 documents: joy 2, enthusiasm 1, fear 1, anger 1
    assert lines[2] == "| BNB | Incremental | 66.67 | 33.33 | – | – | 33.33 | 33.33 |"
    assert len(lines) == 3


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Every command, rerun with the same seed and tag, rewrites identical bytes."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    t1 = data_dir / "t1.jsonl"
    save_dataset(build_planted_dataset(Task.PREDICTIVENESS, {0: 12, 1: 6}, seed=3), t1)
    t2 = data_dir / "t2.jsonl"
    save_dataset(build_planted_dataset(Task.DIRECTION, {1: 6, 2: 3, 3: 4}, seed=4), t2)
    ann_a, ann_b = data_dir / "a.jsonl", data_dir / "b.jsonl"
    ann_a.write_text('{"id": "x1", "label": 0}\n{"id": "x2", "label": 1}\n')
    ann_b.write_text('{"id": "x1", "label": 0}\n{"id": "x2", "label": 0}\n')

    commands = {
        "stats": ["stats", "--dataset", str(t1)],
        "cv": ["cv", "--dataset", str(t1), "--model", "logreg", "--k", "3"],
        "balance": ["balance", "--dataset", str(t1), "--provider", "offline"],
        "emotion": ["emotion", "--dataset", str(t2)],
        "kappa": ["kappa", str(ann_a), str(ann_b)],
    }
    out_root = tmp_path / "out"
    for name, argv in commands.items():
        argv = argv + ["--seed", "5", "--out", str(out_root), "--tag", "fixed"]
        assert main(list(argv)) == 0
        stdout_first = capsys.readouterr().out
        run_dir = out_root / name / "fixed"
        first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert any(p.endswith(".json") for p in first), name
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == stdout_first, name
        second = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert first == second, f"{name} rerun changed its outputs"


def test_criterion_11_offline_and_fast():
    """The suite runs with sockets restricted to loopback and inside its time budget."""
    assert conftest.NETWORK_GUARD_ACTIVE, "loopback-only socket guard is not installed"
    stub = Path(__file__).with_name("test_remote_provider.py")
    assert stub.exists(), "remote-provider stub coverage is missing"
    elapsed = time.perf_counter() - conftest.SESSION_START
    assert elapsed < 120.0, f"suite already over budget at {elapsed:.1f}s"
