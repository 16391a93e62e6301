"""Command line interface tests; every command runs in-process via main()."""

import argparse
import ast
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from predstmt import (
    Coin,
    DataError,
    Dataset,
    Document,
    ProviderConfig,
    Task,
    TrainConfig,
    bundled_lexicon_path,
    distribution,
    save_dataset,
)
from predstmt import augment, cli, evaluation
from predstmt.cli import RunConfig, _config_echo, main
from predstmt.corpus import from_dict, jsonable

from conftest import build_planted_dataset


@pytest.fixture(scope="module")
def planted_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 12, 1: 8}, seed=3)
    save_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def reference_corpus_file(tmp_path_factory, reference_corpus):
    path = tmp_path_factory.mktemp("data") / "reference.jsonl"
    save_dataset(reference_corpus, path)
    return path


def run(*argv):
    return main(list(argv))


class TestStats:
    def test_reference_distribution_tables(self, reference_corpus_file, tmp_path, capsys):
        code = run("stats", "--dataset", str(reference_corpus_file), "--out", str(tmp_path),
                   "--tag", "r1")
        out = capsys.readouterr().out
        assert code == 0
        assert "| Non-Predictive | 2000 |" in out
        assert "| Predictive | 1116 |" in out
        assert "| Total | 3116 |" in out
        assert "| Predictive Incremental | 570 |" in out
        assert "| Predictive Decremental | 434 |" in out
        assert "| Predictive Neutral | 112 |" in out

        run_dir = tmp_path / "stats" / "r1"
        payload = json.loads((run_dir / "stats.json").read_text())
        assert payload["task1"] == {"Non-Predictive": 2000, "Predictive": 1116,
                                    "total": 3116}
        assert payload["task2"]["total"] == 1116
        assert payload["documents"] == 3116
        assert len(payload["config_hash"]) == 64
        assert (run_dir / "stats.md").read_text() == out
        assert (tmp_path / "stats" / "latest").read_text() == "r1\n"

    def test_empty_dataset_is_fine(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run("stats", "--dataset", str(empty), "--out", str(tmp_path / "o"))
        assert code == 0
        assert "| Total | 0 |" in capsys.readouterr().out

    def test_csv_dataset_is_data_error(self, planted_path, tmp_path, capsys):
        """Datasets are JSONL: a .csv path fails before anything is read or written."""
        out = tmp_path / "o"
        assert run("stats", "--dataset", str(planted_path), "--out", str(out),
                   "--tag", "good") == 0
        capsys.readouterr()
        data = tmp_path / "x.csv"
        data.write_text("id,text,coin,task1,task2,source,parent_id,annotations\n"
                        "a,ada up,ADA,1,1,original,,\n", encoding="utf-8")
        code = run("stats", "--dataset", str(data), "--out", str(out), "--tag", "bad")
        assert code == 2
        assert capsys.readouterr() == ("", "data error: cannot infer dataset format from "
                                           "'x.csv': datasets are JSONL (.jsonl or .ndjson)\n")
        assert sorted(p.name for p in (out / "stats").iterdir()) == ["good", "latest"]
        assert (out / "stats" / "latest").read_text() == "good\n"

    def test_missing_dataset_file_is_data_error(self, tmp_path, capsys):
        code = run("stats", "--dataset", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o"))
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_no_dataset_is_usage_error(self, tmp_path, capsys):
        code = run("stats", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "dataset is required" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, planted_path, tmp_path, capsys):
        code = run("stats", "--dataset", str(planted_path), "--task", "5",
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_command_prints_usage(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err.lower()


class TestCv:
    def test_summary_and_reports_written(self, tmp_path, capsys):
        data = tmp_path / "balanced.jsonl"
        save_dataset(build_planted_dataset(Task.PREDICTIVENESS, {0: 15, 1: 15},
                                           seed=3), data)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": {"epochs": 60}}))
        code = run("cv", "--config", str(config), "--dataset", str(data),
                   "--model", "logreg", "--k", "3", "--seed", "11",
                   "--out", str(tmp_path), "--tag", "r1")
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Pooled (micro) metrics across folds:")
        assert "| logreg |" in out
        run_dir = tmp_path / "cv" / "r1"
        payload = json.loads((run_dir / "cv_logreg.json").read_text())
        assert payload["model_kind"] == "logreg"
        assert payload["k"] == 3
        assert sum(payload["fold_sizes"]) == 30
        report = (run_dir / "report.md").read_text()
        assert "### logreg: pooled per-label report" in report
        assert "| Non-Predictive |" in report
        # the planted corpus is separable, so the pooled macro F1 column
        # (second from the right) should be near perfect
        row = next(line for line in out.splitlines() if line.startswith("| logreg |"))
        macro_f1 = float(row.strip("|").split("|")[-2])
        assert macro_f1 >= 0.95

    def test_summary_tables_hold_the_artifacts_rows(self, planted_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": {"epochs": 5, "n_trees": 3}}))
        code, err = run_captured("cv", "--config", str(config), "--dataset", str(planted_path),
                                 "--model", "logreg", "--model", "rf", "--k", "3",
                                 "--out", str(tmp_path), "--tag", "r")
        assert (code, err) == (0, "")
        run_dir = tmp_path / "cv" / "r"
        report = (run_dir / "report.md").read_text(encoding="utf-8")
        tables = report.split("Pooled (micro) metrics across folds:")[1].split("### ")[0]
        pooled, means = tables.split("Per-fold means:")
        columns = [f"{mean}_{m}" for mean in ("weighted", "macro")
                   for m in ("precision", "recall", "f1")] + ["accuracy"]
        for kind in ("logreg", "rf"):
            payload = json.loads((run_dir / f"cv_{kind}.json").read_text(encoding="utf-8"))
            for table, key in ((pooled, "pooled"), (means, "fold_means")):
                rows = [line for line in table.splitlines() if line.startswith(f"| {kind} |")]
                assert rows == ["| " + " | ".join(
                    [kind] + [f"{payload[key][column]:.4f}" for column in columns]) + " |"]

    def test_reruns_are_byte_identical(self, planted_path, tmp_path, capsys):
        argv = ("cv", "--dataset", str(planted_path), "--model", "logreg",
                "--k", "3", "--seed", "11", "--out", str(tmp_path), "--tag", "t")
        assert run(*argv) == 0
        first_out = capsys.readouterr().out
        run_dir = tmp_path / "cv" / "t"
        first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert run(*argv) == 0
        assert capsys.readouterr().out == first_out
        second = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert first == second

    def test_unknown_model_kind_from_config(self, planted_path, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"models": ["mystery"]}))
        code = run("cv", "--config", str(config), "--dataset", str(planted_path),
                   "--k", "3", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unknown model kind 'mystery'" in capsys.readouterr().err

    def test_repeated_model_flag_is_one_line_usage_error(self, planted_path, tmp_path,
                                                         capsys):
        code = run("cv", "--dataset", str(planted_path), "--model", "svm", "--model", "logreg",
                   "--model", "svm", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err == "usage error: model kind 'svm' is listed twice\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("models", [["svm"], ["logreg", "svm"]])
    def test_svm_with_zero_l2_is_usage_error_before_loading(self, tmp_path, capsys,
                                                            monkeypatch, models):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"models": models, "train": {"l2": 0}}))
        monkeypatch.setattr(cli, "load_dataset", lambda path: pytest.fail("dataset was read"))
        code = run("cv", "--config", str(config), "--dataset", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: train.l2 must be > 0 for the svm model, got 0\n")
        assert not (tmp_path / "o").exists()

    def test_zero_l2_still_trains_logreg_and_runs_stats(self, planted_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": {"l2": 0, "epochs": 5}}))
        for argv in (("cv", "--model", "logreg", "--k", "3"), ("stats",)):
            code, err = run_captured(*argv, "--config", str(config), "--dataset",
                                     str(planted_path), "--out", str(tmp_path), "--tag", "r")
            assert (code, err) == (0, "")
        assert (tmp_path / "cv" / "r" / "cv_logreg.json").exists()

    def test_two_models_share_folds_tokens_and_features(self, planted_path, tmp_path, monkeypatch):
        calls = {"cross_validate": 0, "preprocess": 0, "fit_tfidf": 0, "transform_many": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every name that perfbench/traced.py wraps on the cv path
        monkeypatch.setattr(cli, "cross_validate", counting("cross_validate", cli.cross_validate))
        for name in ("preprocess", "fit_tfidf", "transform_many"):
            monkeypatch.setattr(evaluation, name, counting(name, getattr(evaluation, name)))
        code, err = run_captured("cv", "--dataset", str(planted_path), "--model", "logreg",
                                 "--model", "svm", "--k", "4", "--out", str(tmp_path),
                                 "--tag", "r")
        assert code == 0 and err == ""
        payloads = [json.loads((tmp_path / "cv" / "r" / f"cv_{kind}.json").read_text())
                    for kind in ("logreg", "svm")]
        docs = sum(payloads[0]["fold_sizes"])
        assert payloads[1]["fold_sizes"] == payloads[0]["fold_sizes"]
        assert calls == {"cross_validate": 1, "preprocess": docs, "fit_tfidf": 4,
                         "transform_many": 8}


class TestBalance:
    def test_offline_balancing_counts(self, tmp_path, capsys):
        path = tmp_path / "small.jsonl"
        save_dataset(build_planted_dataset(Task.PREDICTIVENESS, {0: 4, 1: 2}, seed=5),
                     path)
        code = run("balance", "--dataset", str(path), "--out", str(tmp_path),
                   "--tag", "r1", "--seed", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "balanced task 1: 6 -> 8 documents (target 4 per class)" in out
        run_dir = tmp_path / "balance" / "r1"
        payload = json.loads((run_dir / "balance.json").read_text())
        assert payload["before"] == {"0": 4, "1": 2}
        assert payload["after"] == {"0": 4, "1": 4}
        assert payload["shortfall"] == {}
        lines = (run_dir / "balanced.jsonl").read_text().splitlines()
        assert len(lines) == 8

    def test_three_way_balancing_equalizes_direction_labels(self, reference_corpus_file,
                                                            tmp_path, capsys):
        code = run("balance", "--dataset", str(reference_corpus_file), "--task", "2",
                   "--out", str(tmp_path), "--tag", "r1", "--seed", "3")
        assert code == 0
        capsys.readouterr()
        run_dir = tmp_path / "balance" / "r1"
        payload = json.loads((run_dir / "balance.json").read_text())
        assert payload["after"] == {"1": 570, "2": 570, "3": 570}
        assert payload["seed"] == 3
        assert len(payload["config_hash"]) == 64
        counts = {}
        for line in (run_dir / "balanced.jsonl").read_text().splitlines():
            label = json.loads(line).get("task2")
            if label is not None:
                counts[label] = counts.get(label, 0) + 1
        assert counts == {1: 570, 2: 570, 3: 570}

    @staticmethod
    def shortfall_corpus(tmp_path):
        """A one-parent class with no synonym or conjunction: it runs out of distinct variants."""
        docs = [Document(id=f"m{i:02d}", text=f"plain words number {i} here", coin=Coin.ADA,
                         task1=0) for i in range(60)]
        docs.append(Document(id="p00", text="tiny sample text", coin=Coin.ADA, task1=1))
        path = tmp_path / "short.jsonl"
        save_dataset(Dataset(documents=tuple(docs), name="short"), path)
        return path

    def test_shortfall_is_reported_and_recorded(self, tmp_path, capsys):
        path = self.shortfall_corpus(tmp_path)
        code = run("balance", "--dataset", str(path), "--task", "1", "--out", str(tmp_path),
                   "--tag", "r")
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: balancing fell short of the plan (class 1: 26)\n"
        assert captured.out == "balanced task 1: 61 -> 94 documents (target 60 per class)\n"
        run_dir = tmp_path / "balance" / "r"
        payload = json.loads((run_dir / "balance.json").read_text())
        assert payload["shortfall"] == {"1": 26}
        assert payload["after"] == {"0": 60, "1": 34}
        assert payload["documents_after"] == 94
        assert len((run_dir / "balanced.jsonl").read_text().splitlines()) == 94

    def test_offline_budget_ignores_remote_max_retries(self, tmp_path, capsys):
        # a remote setting must not change an offline run
        path = self.shortfall_corpus(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"provider_config": {
            "endpoint": "http://e", "api_key_env": "K", "model": "m", "max_retries": 0}}))
        code = run("balance", "--config", str(config), "--provider", "offline",
                   "--dataset", str(path), "--task", "1", "--out", str(tmp_path), "--tag", "r")
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: balancing fell short of the plan (class 1: 26)\n")
        payload = json.loads((tmp_path / "balance" / "r" / "balance.json").read_text())
        assert payload["shortfall"] == {"1": 26}

    def test_escaped_lone_surrogate_is_data_error_before_the_run(self, planted_path, tmp_path):
        out = tmp_path / "o"
        assert run_captured("balance", "--dataset", str(planted_path), "--out", str(out),
                            "--tag", "good") == (0, "")
        path = tmp_path / "d.jsonl"
        path.write_text(planted_path.read_text(encoding="utf-8")
                        + '{"id": "x", "text": "ada \\ud800 up", "task1": 0}\n', encoding="utf-8")
        lineno = len(path.read_text(encoding="utf-8").splitlines())
        code, err = run_captured("balance", "--dataset", str(path), "--out", str(out),
                                 "--tag", "bad")
        assert (code, err) == (2, f"data error: d.jsonl:{lineno}: 'text' holds lone surrogate "
                                  "U+D800, which UTF-8 cannot encode\n")
        assert sorted(p.name for p in (out / "balance").iterdir()) == ["good", "latest"]
        assert (out / "balance" / "latest").read_text() == "good\n"

    def test_remote_without_endpoint_is_provider_error(self, planted_path, tmp_path,
                                                       capsys):
        code = run("balance", "--dataset", str(planted_path), "--provider", "remote",
                   "--out", str(tmp_path / "o"))
        assert code == 3
        assert "provider error" in capsys.readouterr().err


class TestEmotion:
    def test_bundled_lexicon_table(self, tmp_path, capsys):
        path = tmp_path / "emo.jsonl"
        docs = build_planted_dataset(Task.DIRECTION, {1: 2, 2: 1, 3: 1}, seed=9)
        save_dataset(docs, path)
        code = run("emotion", "--dataset", str(path), "--out", str(tmp_path),
                   "--tag", "r1")
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("| Coin | Label |")
        # planted filler text carries no lexicon terms, so cells are dashes
        assert "| – | – | – | – | – | – |" in out
        payload = json.loads((tmp_path / "emotion" / "r1" / "emotion.json").read_text())
        assert "cells" in payload

    def test_threshold_flag_accepted(self, tmp_path, capsys):
        path = tmp_path / "emo.jsonl"
        save_dataset(build_planted_dataset(Task.DIRECTION, {1: 1, 2: 1, 3: 1}, seed=2),
                     path)
        assert run("emotion", "--dataset", str(path), "--threshold", "0.5",
                   "--out", str(tmp_path), "--tag", "r2") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("term, emotion, grouped, where, code_point", [
        ("thrilled\ud800", "joy", "joy", "lexicon term 'thrilled\\ud800'", "D800"),
        ("over the \udfffmoon", "joy", "joy", "lexicon term 'over the \\udfffmoon'", "DFFF"),
        ("thrilled", "joy\ud800", "joy\ud800", "base emotion 'joy\\ud800' in 'grouping'",
         "D800"),
        ("thrilled", "joy\ud800", "joy",
         "lexicon entry 'thrilled': base emotion 'joy\\ud800'", "D800"),
    ], ids=["one-word", "later-word", "grouped-emotion", "entry-emotion"])
    def test_escaped_lone_surrogate_in_a_term_is_data_error_before_the_run(
            self, planted_path, tmp_path, term, emotion, grouped, where, code_point):
        """A term "thrilled\\ud800" once loaded and then never matched a text, and a base
        emotion "joy\\ud800", grouped and used, once loaded and ran."""
        out = tmp_path / "o"
        assert run_captured("emotion", "--dataset", str(planted_path), "--out", str(out),
                            "--tag", "good") == (0, "")
        lexicon = tmp_path / "lex.json"
        lexicon.write_text(json.dumps({"entries": {term: [[emotion, 0.9]]},
                                       "grouping": {grouped: "delight_joy"}}), encoding="utf-8")
        code, err = run_captured("emotion", "--dataset", str(planted_path), "--lexicon",
                                 str(lexicon), "--out", str(out), "--tag", "bad")
        assert (code, err) == (2, f"data error: {where} holds lone "
                                  f"surrogate U+{code_point}, which UTF-8 cannot encode\n")
        assert sorted(p.name for p in (out / "emotion").iterdir()) == ["good", "latest"]
        assert (out / "emotion" / "latest").read_text() == "good\n"


def write_annotations(path, labels):
    with path.open("w", encoding="utf-8") as fh:
        for doc_id, label in labels.items():
            fh.write(json.dumps({"id": doc_id, "label": label}) + "\n")


class TestKappa:
    def test_perfect_agreement(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(a, {"d1": 0, "d2": 1, "d3": 1})
        write_annotations(b, {"d1": 0, "d2": 1, "d3": 1})
        code = run("kappa", str(a), str(b), "--out", str(tmp_path), "--tag", "r1")
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0000"
        payload = json.loads((tmp_path / "kappa" / "r1" / "kappa.json").read_text())
        assert payload["kappa"] == 1.0
        assert payload["n"] == 3

    def test_frozen_fixture_value(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(a, {"d1": 0, "d2": 0, "d3": 1, "d4": 1})
        write_annotations(b, {"d1": 0, "d2": 1, "d3": 1, "d4": 1})
        assert run("kappa", str(a), str(b), "--out", str(tmp_path), "--tag", "r2") == 0
        assert capsys.readouterr().out.strip() == "0.5000"

    def test_blank_lines_between_records_are_skipped(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('\n{"id": "d1", "label": 0}\n\n  \n{"id": "d2", "label": 0}\n'
                     '\t\n{"id": "d3", "label": 1}\n\n{"id": "d4", "label": 1}\n\n')
        write_annotations(b, {"d1": 0, "d2": 1, "d3": 1, "d4": 1})
        assert run("kappa", str(a), str(b), "--out", str(tmp_path), "--tag", "r3") == 0
        assert capsys.readouterr().out.strip() == "0.5000"
        assert json.loads((tmp_path / "kappa" / "r3" / "kappa.json").read_text())["n"] == 4

    @pytest.mark.parametrize("ids_a, ids_b, where, code_point", [
        (("x\ud800", "d2"), ("x\ud800", "d2"), "a.jsonl:1", "D800"),
        (("d1", "d2"), ("d1", "y\udfff"), "b.jsonl:2", "DFFF"),
        (("\udc00", "d2"), ("d1", "d2"), "a.jsonl:1", "DC00"),
    ], ids=["both-files", "second-file-later-line", "low-surrogate-alone"])
    def test_escaped_lone_surrogate_id_is_data_error_before_the_run(self, tmp_path, ids_a,
                                                                     ids_b, where, code_point):
        """Two files whose first id is "x\\ud800" once scored 1.0000."""
        a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "o"
        for path in (a, b):
            write_annotations(path, {"d1": 0, "d2": 1})
        assert run_captured("kappa", str(a), str(b), "--out", str(out), "--tag", "good") == (0, "")
        for path, ids in ((a, ids_a), (b, ids_b)):
            write_annotations(path, dict(zip(ids, (0, 1))))  # json.dumps escapes a surrogate
        code, err = run_captured("kappa", str(a), str(b), "--out", str(out), "--tag", "bad")
        assert (code, err) == (2, f"data error: {where}: 'id' holds lone surrogate "
                                  f"U+{code_point}, which UTF-8 cannot encode\n")
        assert sorted(p.name for p in (out / "kappa").iterdir()) == ["good", "latest"]
        assert (out / "kappa" / "latest").read_text() == "good\n"

    def test_mismatched_ids(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(a, {"d1": 0, "d2": 1})
        write_annotations(b, {"d1": 0, "d9": 1})
        code = run("kappa", str(a), str(b), "--out", str(tmp_path))
        assert code == 2
        assert "different ids" in capsys.readouterr().err

    def test_duplicate_id_rejected(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('{"id": "d1", "label": 0}\n{"id": "d1", "label": 1}\n')
        write_annotations(b, {"d1": 0})
        code = run("kappa", str(a), str(b), "--out", str(tmp_path))
        assert code == 2
        assert "duplicate id" in capsys.readouterr().err

    @pytest.mark.parametrize("task", [None, "1", "2"])
    def test_labels_outside_the_task_are_rejected(self, tmp_path, capsys, task):
        """Labels 99/-5 and 99/7 once scored 0.3333; no task has the code 99."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(a, {"d1": 99, "d2": -5})
        write_annotations(b, {"d1": 99, "d2": 7})
        flags = [] if task is None else ["--task", task]
        code = run("kappa", str(a), str(b), *flags, "--out", str(tmp_path), "--tag", "r")
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: a.jsonl:1: unknown label code 99 for task {task or 1}\n")
        assert not (tmp_path / "kappa").exists()

    @pytest.mark.parametrize("task, labels, bad", [
        ("1", (0, 1), 2), ("2", (1, 2, 3), 0), ("2", (1, 2, 3), 4),
    ], ids=["task1-2", "task2-0", "task2-4"])
    def test_labels_are_the_codes_of_the_task(self, tmp_path, capsys, task, labels, bad):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(a, {f"d{i}": label for i, label in enumerate(labels)})
        write_annotations(b, {f"d{i}": label for i, label in enumerate(labels)})
        assert run("kappa", str(a), str(b), "--task", task, "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == "1.0000\n"
        write_annotations(b, {f"d{i}": bad for i, _ in enumerate(labels)})
        assert run("kappa", str(a), str(b), "--task", task, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"data error: b.jsonl:1: unknown label code {bad} for task {task}\n")


class TestConfigPrecedence:
    def test_flags_override_config_file(self, planted_path, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "seed": 7,
            "out_dir": str(tmp_path / "from_config"),
            "dataset": "ignored.jsonl",
        }))
        code = run("stats", "--config", str(config), "--dataset", str(planted_path),
                   "--seed", "9", "--out", str(tmp_path / "from_flag"), "--tag", "r1")
        assert code == 0
        capsys.readouterr()
        assert not (tmp_path / "from_config").exists()
        payload = json.loads(
            (tmp_path / "from_flag" / "stats" / "r1" / "stats.json").read_text())
        assert payload["seed"] == 9

    def test_config_values_used_when_flags_absent(self, planted_path, tmp_path,
                                                  capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": str(planted_path),
            "seed": 7,
            "out_dir": str(tmp_path / "od"),
            "tag": "fromconfig",
            "provider_config": None,
        }))
        assert run("stats", "--config", str(config)) == 0
        capsys.readouterr()
        payload = json.loads(
            (tmp_path / "od" / "stats" / "fromconfig" / "stats.json").read_text())
        assert payload["seed"] == 7

    def test_unknown_config_key_is_usage_error(self, planted_path, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mystery_knob": 1}))
        code = run("stats", "--config", str(config), "--dataset", str(planted_path),
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_empty_fold_vocabulary_is_data_error(self, tmp_path, capsys):
        """Texts without a token of 3+ characters leave every fold without a vocabulary."""
        path = tmp_path / "tokenless.jsonl"
        save_dataset(Dataset(tuple(Document(id=f"d{i}", text=f"{i % 10} ok!", coin=Coin.ADA,
                                            task1=i % 2) for i in range(12))), path)
        code = run("cv", "--dataset", str(path), "--k", "2", "--out", str(tmp_path / "o"))
        assert (code, capsys.readouterr().err) == (2, (
            "data error: fold 1 of 2: no training document has a token, "
            "so the TF-IDF vocabulary is empty\n"))
        assert not (tmp_path / "o" / "cv").exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"seed": "\xff"}', "cannot read config file"),
        (b'{"seed": ', "is not valid JSON"),
        (b'[1]', "must contain a JSON object"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "is not valid JSON: nested too deeply",
                     id="nested"),
        pytest.param(b'{"seed": 1' + b"0" * 5000 + b"}", "is not valid JSON: integer too long",
                     id="long-integer"),
        pytest.param(b'{"k": 2, "seed": 1, "k": 3}', ": duplicate key 'k'\n", id="duplicate-key"),
        pytest.param(b'{"train": {"epochs": 2, "epochs": 3}}', ": duplicate key 'epochs'\n",
                     id="nested-duplicate-key"),
    ])
    def test_unreadable_config_file_is_usage_error(self, planted_path, tmp_path, capsys,
                                                   content, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code = run("stats", "--config", str(path), "--dataset", str(planted_path),
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command, config, message", [
        ("stats", {"task": 3}, "task must be 1 or 2"),
        ("cv", {"task": "1"}, "task must be an integer"),
        ("cv", {"k": "5"}, "k must be an integer"),
        ("cv", {"k": 1}, "k must be an integer >= 2"),
        ("cv", {"models": ["xgb"]}, "unknown model kind 'xgb'"),
        ("cv", {"models": []}, "models must name at least one"),
        ("cv", {"models": ["rf", "logreg", "rf"]}, "model kind 'rf' is listed twice"),
        ("stats", {"seed": "7"}, "seed must be an integer"),
        ("emotion", {"threshold": "high"}, "threshold must be a number"),
        ("stats", {"tag": 5}, "tag must be a string"),
        ("cv", {"train": {"epoch": 10}}, "unknown config keys: train.epoch"),
        # sections and keys of settings that are now constants
        ("cv", {"tfidf": {}}, "unknown config keys: tfidf"),
        ("cv", {"train": {"learning_rate": 0.1}}, "unknown config keys: train.learning_rate"),
        ("cv", {"train": {"epochs": True}}, "train.epochs must be an integer"),
        ("cv", {"train": {"epochs": "5"}}, "train.epochs must be an integer"),
        ("cv", {"train": {"epochs": 0}}, "train: epochs must be >= 1"),
        ("cv", {"clean": {}}, "unknown config keys: clean"),
        ("balance", {"provider_config": {"endpoint": "x"}},
         "missing config keys: provider_config.api_key_env, provider_config.model"),
        ("balance", {"provider_config": {}}, "missing config keys: provider_config.endpoint"),
        ("balance", {"provider_config": []}, "provider_config must be an object or null"),
        ("stats", {"threshold": float("inf")}, "threshold must be a number"),
        ("stats", {"train": 5}, "train must be an object"),
        ("stats", {"tag": "latest"}, "tag must be a plain directory name"),
        ("stats", {"tag": ""}, "tag must be a plain directory name"),
        ("stats", {"tag": "../elsewhere"}, "tag must be a plain directory name"),
        ("stats", {"\n": None}, "unknown config keys: \\n"),
        ("stats", {"train": {"a\rb": 1}}, "unknown config keys: train.a\\rb"),
        ("stats", {"threshold": 10 ** 400}, "threshold must be a number, got int"),
        ("cv", {"train": {"l2": 10 ** 400}}, "train.l2 must be a number, got int"),
        ("stats", {"tag": "t\udcff"},  # what --tag $'t\xff' gives
         "tag must be a UTF-8 encodable string without NUL characters, got 't\\udcff'"),
        ("stats", {"tag": "a\x00b"},
         "tag must be a UTF-8 encodable string without NUL characters, got 'a\\x00b'"),
        ("emotion", {"lexicon": "l\ud800.json"},
         "lexicon must be a path the file system can encode without NUL characters"),
        ("emotion", {"lexicon": "l\x00.json"},
         "lexicon must be a path the file system can encode without NUL characters"),
        ("balance", {"provider": "remote", "provider_config": {
            "endpoint": "http://127.0.0.1:9/v1", "api_key_env": "K\ud800", "model": "m"}},
         "provider_config: api_key_env must be a UTF-8 encodable string without NUL"),
        ("balance", {"provider": "remote", "provider_config": {
            "endpoint": "http://127.0.0.1:9/v1", "api_key_env": "K\x00", "model": "m"}},
         "provider_config: api_key_env must be a UTF-8 encodable string without NUL"),
        *(("balance", {"provider": "remote", "provider_config": {
            "endpoint": "http://127.0.0.1:9/v1", "api_key_env": "K", "model": "m",
            "timeout_s": timeout}}, f"provider_config: timeout_s must be > 0, got {timeout}")
          for timeout in (0, -1.5)),
        # past a day, socket timeouts and time.sleep overflow the platform's time_t
        ("balance", {"provider": "remote", "provider_config": {
            "endpoint": "http://127.0.0.1:9/v1", "api_key_env": "K", "model": "m",
            "timeout_s": 1e20}}, "provider_config: timeout_s must be at most 86400 (one day)"),
        *(("balance", {"provider": "remote", "provider_config": {
            "endpoint": "http://127.0.0.1:9/v1", "api_key_env": "K", "model": "m",
            "request_delay_ms": delay}},
           "provider_config: request_delay_ms must be at most 86400000 (one day)")
          for delay in (10 ** 30, 10 ** 400)),
        *(("stats", {"threshold": value}, f"usage error: threshold must be a number, got {value}\n")
          for value in (float("inf"), float("nan"))),
        ("cv", {"train": {"l2": float("-inf")}},
         "usage error: train.l2 must be a number, got -inf\n"),
        # a malformed endpoint is not a transient fault to retry at request time
        *(("balance", {"provider": "remote", "provider_config": {
            "endpoint": endpoint, "api_key_env": "K", "model": "m"}},
           f"usage error: provider_config: endpoint must be an http:// or https:// URL with "
           f"a host, got {endpoint!r}\n")
          for endpoint in ("localhost:8080/v1", "ftp://host/v1", "http:///v1", "http://[::1/v1",
                           "", "http://127.0.0.1:notaport/v1", "http://host:70000/v1",
                           "http://host:-1/v1")),
        # the cleaner has no settings; emotion tags the same tokens as cv
        ("emotion", {"clean": {"lowercase": False}}, "usage error: unknown config keys: clean"),
    ])
    def test_ill_typed_config_value_is_one_line_usage_error(self, planted_path, tmp_path,
                                                            capsys, command, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = run(command, "--config", str(path), "--dataset", str(planted_path),
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("key, value", [
        ("out_dir", "o\x00x"), ("out_dir", "o\ud800"),
        ("dataset", "d\x00.jsonl"), ("dataset", "d\ud800.jsonl"),
    ])
    def test_unusable_path_in_config_is_one_line_usage_error(self, tmp_path, capsys,
                                                            monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d.jsonl", key: value}))
        code = run("stats", "--config", str(path), "--tag", "r")
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: {key} must be a path the file system can encode without NUL "
            f"characters, got {value!r}\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_undecodable_tag_flag_is_usage_error(self, planted_path, tmp_path, capsys):
        out = tmp_path / "o"
        # on POSIX, argv bytes that are not UTF-8 arrive as lone surrogates
        code = run("stats", "--dataset", str(planted_path), "--out", str(out),
                   "--tag", os.fsdecode(b"t\xff"))
        assert code == 1
        assert capsys.readouterr().err == ("usage error: tag must be a UTF-8 encodable string "
                                           "without NUL characters, got 't\\udcff'\n")
        assert not out.exists()

    def test_undecodable_path_flags_are_fine(self, planted_path, tmp_path, capsys):
        dataset = Path(os.fsdecode(bytes(tmp_path) + b"/d\xff.jsonl"))
        dataset.write_bytes(planted_path.read_bytes())
        out = Path(os.fsdecode(bytes(tmp_path) + b"/o\xff"))
        assert run("stats", "--dataset", str(dataset), "--out", str(out), "--tag", "r") == 0
        capsys.readouterr()
        assert (out / "stats" / "latest").read_text() == "r\n"

    def test_empty_tag_flag_is_usage_error(self, planted_path, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("stats", "--dataset", str(planted_path), "--out", str(out), "--tag", "")
        assert code == 1
        assert capsys.readouterr().err == ("usage error: tag must be a plain directory name "
                                           "other than 'latest', got ''\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "cv", "balance", "emotion", "kappa"])
    def test_unknown_provider_is_usage_error(self, planted_path, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"provider": "xyz"}))
        extra = ["a.jsonl", "b.jsonl"] if command == "kappa" else ["--dataset", str(planted_path)]
        code = run(command, "--config", str(path), "--out", str(tmp_path / "o"), *extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "usage error: unknown provider 'xyz'; expected offline or remote\n"
        assert not (tmp_path / "o").exists()

    def test_config_hash_tracks_settings_not_out_dir(self, planted_path, tmp_path,
                                                     capsys):
        h = {}
        for label, out_dir, seed in (("a", "o1", 5), ("b", "o2", 5), ("c", "o3", 6)):
            assert run("stats", "--dataset", str(planted_path), "--seed", str(seed),
                       "--out", str(tmp_path / out_dir), "--tag", "r") == 0
            payload = json.loads(
                (tmp_path / out_dir / "stats" / "r" / "stats.json").read_text())
            h[label] = payload["config_hash"]
        capsys.readouterr()
        assert h["a"] == h["b"]
        assert h["a"] != h["c"]

    @pytest.mark.parametrize("config, command, digest", [
        (RunConfig(dataset="d.jsonl"), "cv",
         "c7c559c69fe1d1f9d50dbc070561201bddd286c79c2e4d2d72980a3e6467f4f7"),
        # ints given for float fields are kept as ints, as they always were
        (from_dict(RunConfig, {
            "dataset": "d.jsonl", "models": ["svm"], "threshold": 1, "provider": "remote",
            "train": {"epochs": 3, "l2": 0},
            "provider_config": {"endpoint": "http://e", "api_key_env": "K", "model": "m",
                                "timeout_s": 5},
         }), "balance", "d53d8af1a889d2ac4e5663d0ef4a1e43e8b72b6ed498a53f888a48df8cf54927"),
    ])
    def test_config_hash_is_pinned(self, config, command, digest):
        # the dataset's bytes stand for its path; these are the SHA-256 of b""
        sha = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert _config_echo(config, command, sha)["config_hash"] == digest

    def test_cv_config_hash_is_the_digest_of_its_canonical_json(self):
        """The default cv hash covers the seed, the fields cv reads and, for the dataset's
        path, the digest of its bytes, as sorted JSON."""
        sha = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        canonical = (
            f'{{"dataset_sha256": "{sha}", "k": 5, "models": ["logreg", "svm", "rf"], '
            '"seed": 42, "task": 1, "train": {"bootstrap": true, "epochs": 100, "l2": 0.0001, '
            '"max_depth": 16, "min_samples_leaf": 2, "n_trees": 100, "seed": 0}}')
        assert _config_echo(RunConfig(dataset="d.jsonl"), "cv", sha)["config_hash"] == (
            hashlib.sha256(canonical.encode("utf-8")).hexdigest())

    def test_readme_config_example_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        from_dict(RunConfig, example)
        defaults = jsonable(RunConfig())
        assert example.keys() == defaults.keys()
        for key in example.keys() - {"dataset", "provider_config"}:
            assert example[key] == defaults[key], key


#: The flags every command takes, and the flags of the fields each command reads.
COMMON_FLAGS = {"--config", "--seed", "--out", "--tag"}
ROW_FLAGS = {
    "stats": {"--dataset"},
    "cv": {"--dataset", "--task", "--model", "--k"},
    "balance": {"--dataset", "--task", "--provider"},
    "emotion": {"--dataset", "--lexicon", "--threshold"},
    "kappa": {"--task"},
}
FLAG_VALUES = {"--dataset": "planted.jsonl", "--task": "1", "--model": "rf", "--k": "3",
               "--provider": "offline", "--lexicon": "lex.json", "--threshold": "0.5"}


class TestWhatEachCommandReads:
    def test_each_command_takes_the_common_flags_and_those_of_its_row(self):
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert subparsers.choices.keys() == ROW_FLAGS.keys()
        for command, sub in subparsers.choices.items():
            options = {flag for action in sub._actions for flag in action.option_strings}
            assert options - {"-h", "--help"} == COMMON_FLAGS | ROW_FLAGS[command], command

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in ROW_FLAGS.items()
        for flag in FLAG_VALUES if flag not in flags
    ])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, planted_path, tmp_path,
                                                               capsys, command, flag):
        if command == "kappa":
            a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            write_annotations(a, {"d1": 0, "d2": 1})
            write_annotations(b, {"d1": 0, "d2": 1})
            argv = [str(a), str(b)]
        else:
            argv = ["--dataset", str(planted_path)]
        out = tmp_path / "o"
        code = run(command, *argv, flag, FLAG_VALUES[flag], "--out", str(out), "--tag", "t")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
        assert flag in captured.err
        assert not out.exists()

    def _hashes(self, tmp_path, command, *argv, config=None, digests=("dataset_sha256",)):
        """config_hash and the named file digests of one run of command."""
        out = tmp_path / "o"
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ("--config", str(tmp_path / "cfg.json"))
        assert run(command, *argv, "--out", str(out), "--tag", "t") == 0
        artifact = "cv_logreg.json" if command == "cv" else f"{command}.json"
        payload = json.loads((out / command / "t" / artifact).read_text())
        return (payload["config_hash"], *(payload[name] for name in digests))

    @pytest.mark.parametrize("config", [
        {"k": 9}, {"lexicon": "nonexistent.json"}, {"threshold": 5}, {"train": {"epochs": 3}},
    ], ids=["k", "lexicon", "threshold", "train"])
    def test_stats_hash_ignores_keys_stats_does_not_read(self, planted_path, tmp_path, capsys,
                                                          config):
        plain = self._hashes(tmp_path / "plain", "stats", "--dataset", str(planted_path))
        assert self._hashes(tmp_path, "stats", "--dataset", str(planted_path),
                            config=config) == plain

    def test_cv_hash_follows_the_dataset_bytes_not_its_path(self, planted_path, tmp_path,
                                                            capsys):
        data = planted_path.read_bytes()
        cv = ("--model", "logreg", "--k", "2")
        moved = tmp_path / "elsewhere" / "renamed.jsonl"
        moved.parent.mkdir()
        moved.write_bytes(data)
        original = self._hashes(tmp_path / "a", "cv", "--dataset", str(planted_path), *cv)
        assert original[1] == hashlib.sha256(data).hexdigest()
        assert self._hashes(tmp_path / "b", "cv", "--dataset", str(moved), *cv) == original

        # one byte of one document's text changes; the path stays
        at = data.index(b'"text": "') + len(b'"text": "')
        moved.write_bytes(data[:at] + (b"z" if data[at:at + 1] != b"z" else b"y")
                          + data[at + 1:])
        edited = self._hashes(tmp_path / "c", "cv", "--dataset", str(moved), *cv)
        assert edited[1] == hashlib.sha256(moved.read_bytes()).hexdigest()
        assert edited[0] != original[0] and edited[1] != original[1]

    def test_emotion_hash_follows_the_lexicon_bytes_not_its_path(self, planted_path, tmp_path,
                                                                 capsys):
        bundled = bundled_lexicon_path().read_bytes()
        lexicon, moved = tmp_path / "lex.json", tmp_path / "elsewhere.json"
        lexicon.write_bytes(bundled)
        moved.write_bytes(bundled)

        def hashes(name, *flags):
            return self._hashes(tmp_path / name, "emotion", "--dataset", str(planted_path),
                                *flags, digests=("lexicon_sha256",))

        # the bundled lexicon counts by its bytes too, so a copy of it hashes alike
        original = hashes("a")
        assert original[1] == hashlib.sha256(bundled).hexdigest()
        assert hashes("b", "--lexicon", str(lexicon)) == original
        assert hashes("c", "--lexicon", str(moved)) == original

        # thrilled and scared leave the lexicon; the path stays
        edited = json.loads(bundled)
        del edited["entries"]["thrilled"], edited["entries"]["scared"]
        lexicon.write_text(json.dumps(edited))
        changed = hashes("d", "--lexicon", str(lexicon))
        assert changed[1] == hashlib.sha256(lexicon.read_bytes()).hexdigest()
        assert changed[0] != original[0] and changed[1] != original[1]

    def test_kappa_hash_follows_the_files_bytes_in_argument_order(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(a, {"d1": 0, "d2": 1, "d3": 1})
        write_annotations(b, {"d1": 0, "d2": 1, "d3": 0})
        moved = tmp_path / "elsewhere"
        moved.mkdir()
        for path in (a, b):
            (moved / f"renamed-{path.name}").write_bytes(path.read_bytes())

        def hashes(name, first, second):
            return self._hashes(tmp_path / name, "kappa", str(first), str(second),
                                digests=("file_a_sha256", "file_b_sha256"))

        original = hashes("o1", a, b)
        assert original[1:] == tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (a, b))
        assert hashes("o2", moved / "renamed-a.jsonl", moved / "renamed-b.jsonl") == original
        swapped = hashes("o3", b, a)
        assert swapped[1:] == original[:0:-1] and swapped[0] != original[0]

        # one label of the second file changes; the paths stay
        write_annotations(b, {"d1": 0, "d2": 1, "d3": 1})
        edited = hashes("o4", a, b)
        assert edited[1] == original[1] and edited[2] != original[2]
        assert edited[0] != original[0]


class TestDigestsAreOfTheBytesLoaded:
    """A file rewritten once its loader returns: the echoed digest is of what was loaded."""

    @pytest.mark.parametrize("command, loader, digests", [
        ("stats", "load_dataset", ("dataset_sha256",)),
        ("cv", "load_dataset", ("dataset_sha256",)),
        ("emotion", "load_lexicon", ("lexicon_sha256",)),
        ("kappa", "_read_annotation_file", ("file_a_sha256", "file_b_sha256")),
    ])
    def test_digest_is_of_the_bytes_the_loader_parsed(self, planted_path, tmp_path, capsys,
                                                      monkeypatch, command, loader, digests):
        data, lexicon = tmp_path / "data.jsonl", tmp_path / "lex.json"
        data.write_bytes(planted_path.read_bytes())
        lexicon.write_bytes(bundled_lexicon_path().read_bytes())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(a, {"d1": 0, "d2": 1, "d3": 1})
        write_annotations(b, {"d1": 0, "d2": 1, "d3": 0})
        argv = {"stats": ["--dataset", str(data)],
                "cv": ["--dataset", str(data), "--model", "logreg", "--k", "2"],
                "emotion": ["--dataset", str(data), "--lexicon", str(lexicon)],
                "kappa": [str(a), str(b)]}[command]
        loaded = []
        load = getattr(cli, loader)

        def load_then_rewrite(path, *args, **kwargs):
            loaded.append(Path(path).read_bytes())
            result = load(path, *args, **kwargs)
            Path(path).write_bytes(loaded[-1] + b"\n")  # one more blank line
            return result

        monkeypatch.setattr(cli, loader, load_then_rewrite)
        assert run(command, *argv, "--out", str(tmp_path / "o"), "--tag", "t") == 0
        artifact = "cv_logreg.json" if command == "cv" else f"{command}.json"
        payload = json.loads((tmp_path / "o" / command / "t" / artifact).read_text())
        assert [payload[name] for name in digests] == [
            hashlib.sha256(content).hexdigest() for content in loaded]


class TestRunDirectory:
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        data = tmp_path / "six.jsonl"
        save_dataset(build_planted_dataset(Task.PREDICTIVENESS, {0: 3, 1: 3}, seed=3), data)
        code = run("cv", "--dataset", str(data), "--k", "5", "--model", "logreg",
                   "--out", str(tmp_path / "o"), "--tag", "t1")
        assert code == 2
        assert "fewer than k=5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_write_keeps_previous_run_and_latest(self, planted_path, tmp_path,
                                                        capsys, monkeypatch):
        out = tmp_path / "o"
        assert run("balance", "--dataset", str(planted_path), "--out", str(out),
                   "--tag", "good") == 0
        before = {p.name: p.read_bytes() for p in (out / "balance" / "good").iterdir()}

        def failing_save(dataset, path):
            path.write_text("half a line")
            raise DataError("disk full")

        monkeypatch.setattr("predstmt.cli.save_dataset", failing_save)
        for tag in ("bad", "good"):
            code = run("balance", "--dataset", str(planted_path), "--out", str(out),
                       "--tag", tag)
            assert code == 2
        capsys.readouterr()
        assert sorted(p.name for p in (out / "balance").iterdir()) == ["good", "latest"]
        assert (out / "balance" / "latest").read_text() == "good\n"
        after = {p.name: p.read_bytes() for p in (out / "balance" / "good").iterdir()}
        assert after == before

    @pytest.mark.parametrize("blocker", ["out", "out/stats"])
    def test_unusable_out_is_one_line_usage_error(self, planted_path, tmp_path, capsys,
                                                  blocker):
        (tmp_path / blocker).parent.mkdir(exist_ok=True)
        (tmp_path / blocker).write_text("a file, not a directory")
        code = run("stats", "--dataset", str(planted_path), "--out", str(tmp_path / "out"),
                   "--tag", "r")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: cannot write run directory ") and err.count("\n") == 1
        assert str(tmp_path / "out" / "stats" / "r") in err
        assert (tmp_path / blocker).read_text() == "a file, not a directory"
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            {"out", blocker.split("/")[-1]})

    def test_failed_rename_keeps_previous_run_and_latest(self, planted_path, tmp_path,
                                                         capsys, monkeypatch):
        out = tmp_path / "o"
        argv = ("stats", "--dataset", str(planted_path), "--out", str(out), "--tag", "r")
        assert run(*argv) == 0
        before = {p.name: p.read_bytes() for p in (out / "stats" / "r").iterdir()}
        real_rename = os.rename

        def failing_rename(src, dst):
            if ".partial-" in str(src):
                raise PermissionError(13, "Permission denied", str(dst))
            real_rename(src, dst)

        monkeypatch.setattr(os, "rename", failing_rename)
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: cannot write run directory ") and err.count("\n") == 1
        assert "Permission denied" in err
        assert sorted(p.name for p in (out / "stats").iterdir()) == ["latest", "r"]
        assert (out / "stats" / "latest").read_text() == "r\n"
        assert {p.name: p.read_bytes() for p in (out / "stats" / "r").iterdir()} == before

    @pytest.mark.parametrize("tag", ["bad", "good"], ids=["new-tag", "rerun"])
    @pytest.mark.parametrize("target", ["predstmt.cli.save_dataset", "os.replace"],
                             ids=["writer", "latest"])
    def test_os_error_is_one_line_usage_error_that_keeps_the_previous_run(
            self, planted_path, tmp_path, capsys, monkeypatch, target, tag):
        out = tmp_path / "o"
        assert run("balance", "--dataset", str(planted_path), "--out", str(out),
                   "--tag", "good") == 0
        before = {p.name: p.read_bytes() for p in (out / "balance" / "good").iterdir()}

        def failing(*args):
            raise OSError(27, "File too large")

        monkeypatch.setattr(target, failing)
        code = run("balance", "--dataset", str(planted_path), "--out", str(out), "--tag", tag)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"usage error: cannot write run directory "
                       f"{str(out / 'balance' / tag)!r}: File too large\n")
        assert sorted(p.name for p in (out / "balance").iterdir()) == ["good", "latest"]
        assert (out / "balance" / "latest").read_text() == "good\n"
        assert {p.name: p.read_bytes() for p in (out / "balance" / "good").iterdir()} == before

    def test_rerun_replaces_the_run_directory(self, planted_path, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ("stats", "--dataset", str(planted_path), "--out", str(out), "--tag", "r")
        assert run(*argv) == 0
        first = {p.name: p.read_bytes() for p in (out / "stats" / "r").iterdir()}
        (out / "stats" / "r" / "stale.txt").write_text("from an older run")
        assert run("stats", "--dataset", str(planted_path), "--out", str(out),
                   "--tag", "other") == 0
        assert (out / "stats" / "latest").read_text() == "other\n"
        assert run(*argv) == 0
        capsys.readouterr()
        assert {p.name: p.read_bytes() for p in (out / "stats" / "r").iterdir()} == first
        assert sorted(p.name for p in (out / "stats").iterdir()) == ["latest", "other", "r"]
        assert (out / "stats" / "latest").read_text() == "r\n"


DEEP = "[" * 100_000 + "]" * 100_000


def run_captured(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


class TestUnparseableInputs:
    """Every JSON input boundary turns malformed, too deep or undecodable input into one line."""

    @pytest.mark.parametrize("line, message", [
        (DEEP, "invalid JSON (nested too deeply)"),
        ('{"id": "x", "text": "t", "coin": ["ADA"]}', "unknown coin ['ADA']"),
        ('{"id": "x", "text": "   ", "task1": 1}',
         "document 'x': text must hold a non-whitespace character"),
        ('{"id": "d0", "text": "a", "text": "b"}', "duplicate key 'text'"),
        ('{"id": "x", "text": "t", "annotations": [{"annotator": "a", "task": 1, "label": 1}]}',
         "'annotations' must be absent, null or []: agreement labels go in kappa files"),
    ], ids=["nested", "unhashable-coin", "whitespace-text", "duplicate-key",
            "reserved-annotations"])
    def test_bad_dataset_line_is_data_error(self, planted_path, tmp_path, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text(planted_path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        lineno = len(path.read_text(encoding="utf-8").splitlines())
        code, err = run_captured("stats", "--dataset", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == f"data error: d.jsonl:{lineno}: {message}\n"

    def test_undecodable_dataset_is_data_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"id": "x", "text": "caf\xe9"}\n')
        code, err = run_captured("stats", "--dataset", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith(f"data error: cannot read dataset {path}: ") and err.count("\n") == 1

    def test_deeply_nested_lexicon_is_data_error(self, planted_path, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text(DEEP)
        code, err = run_captured("emotion", "--dataset", str(planted_path), "--lexicon", str(path),
                                 "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == f"data error: lexicon {path} is not valid JSON: nested too deeply\n"

    @pytest.mark.parametrize("content, message", [
        (DEEP.encode(), "a.jsonl:2: invalid JSON (nested too deeply)"),
        (b'{"id": 1' + b"0" * 5000 + b', "label": 1}', "a.jsonl:2: invalid JSON (integer too long)"),
        (b'{"id": ["d2"], "label": 1}', "a.jsonl:2: 'id' must be a non-empty string"),
        (b'{"id": 2, "label": 1}', "a.jsonl:2: 'id' must be a non-empty string"),
        (b'{"id": "", "label": 1}', "a.jsonl:2: 'id' must be a non-empty string"),
        (b'{"id": "caf\xe9", "label": 1}', "cannot read annotation file"),
        (b'{"id": "d2", "label": 0, "lable": 5}', "a.jsonl:2: unknown keys ['lable']"),
        (b'\n \t\n{"id": "d2"}', "a.jsonl:4: expected an object with 'id' and 'label'"),
        (b'{"label": 1}', "a.jsonl:2: expected an object with 'id' and 'label'"),
        (b'["d2", 1]', "a.jsonl:2: expected an object with 'id' and 'label'"),
        (b'{"id": "d2", "label": 1.0}', "a.jsonl:2: 'label' must be an integer"),
        (b'{"id": "d2", "label": "1"}', "a.jsonl:2: 'label' must be an integer"),
        (b'{"id": "d2", "label": true}', "a.jsonl:2: 'label' must be an integer"),
        (b'{"id": "d2", "label": 1, "label": 0}', "a.jsonl:2: duplicate key 'label'"),
        # whitespace JSON does not allow: the line is no blank line
        ("\u2028".encode(), "a.jsonl:2: invalid JSON (Expecting value)"),
        ("\x85".encode(), "a.jsonl:2: invalid JSON (Expecting value)"),
        (b"\x0b", "a.jsonl:2: invalid JSON (Expecting value)"),
        (b"\x0c", "a.jsonl:2: invalid JSON (Expecting value)"),
        (b"\x1c", "a.jsonl:2: invalid JSON (Expecting value)"),
        (b"\x1f", "a.jsonl:2: invalid JSON (Expecting value)"),
    ], ids=["nested", "long-integer", "unhashable-id", "integer-id", "empty-id", "not-utf-8",
            "unknown-key", "after-blank-lines", "no-id", "not-an-object", "float-label",
            "string-label", "bool-label", "duplicate-key", "only-2028", "only-0085",
            "only-000b", "only-000c", "only-001c", "only-001f"])
    def test_bad_annotation_file_is_data_error(self, tmp_path, content, message):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b'{"id": "d1", "label": 0}\n' + content + b"\n")
        write_annotations(b, {"d1": 0, "d2": 1})
        code, err = run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("line", [' {"id": "d2", "label": 1}', '{"id": "d2", "label": 1} \t',
                                      '\t{"id": "d2", "label": 1}\r'])
    def test_whitespace_around_an_annotation_is_read(self, tmp_path, line):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('{"id": "d1", "label": 0}\n' + line + "\n", encoding="utf-8")
        write_annotations(b, {"d1": 0, "d2": 1})
        assert run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o")) == (0, "")

    def test_missing_annotation_file_is_data_error(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_annotations(b, {"d1": 0})
        code, err = run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o"))
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"data error: cannot read annotation file {a}: [Errno 2] ")

    def test_crlf_annotation_file_reads_and_counts_lines(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b'{"id": "d1", "label": 0}\r\n{"id": "d2", "label": 1}\r\n')
        write_annotations(b, {"d1": 0, "d2": 1})
        assert run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o")) == (0, "")
        a.write_bytes(b'{"id": "d1", "label": 0}\r\n\r\n{"id": "d2", "label": 7}\r\n')
        assert run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o")) == (
            2, "data error: a.jsonl:3: unknown label code 7 for task 1\n")

    # kappa files share the dataset's one decoder, which words errors as json.loads does
    @pytest.mark.parametrize("line, message", [
        ('\ufeff{"id": "d2", "label": 1}', "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"id": "d2", "label": 1}{"id": "d3", "label": 1}', "Extra data"),
        ('{"id": "d2", "label": 1} x', "Extra data"),
        ('{"id": "d2",\n"label": 1}', "Expecting property name enclosed in double quotes"),
    ])
    def test_parsed_annotation_line_keeps_json_loads_errors(self, tmp_path, line, message):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('{"id": "d1", "label": 0}\n' + line + "\n", encoding="utf-8")
        write_annotations(b, {"d1": 0, "d2": 1})
        code, err = run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o"))
        assert (code, err) == (2, f"data error: a.jsonl:2: invalid JSON ({message})\n")

    def test_annotation_record_error_comes_before_a_later_decode_error(self, tmp_path):
        """The file is parsed as it is read, so a bad record is named before bytes past it
        that are not UTF-8; datasets are read the same way."""
        filler = "".join(f'{{"id": "f{i}", "label": 0}}\n' for i in range(5000)).encode()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b'{"id": "d1", "label": 0}\n{"id": "d2", "label": "1"}\n' + filler
                      + b'{"id": "caf\xe9", "label": 1}\n')
        write_annotations(b, {"d1": 0, "d2": 1})
        code, err = run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o"))
        assert (code, err) == (2, "data error: a.jsonl:2: 'label' must be an integer\n")
        a.write_bytes(b'{"id": "d1", "label": 0}\n' + filler + b'{"id": "caf\xe9", "label": 1}\n'
                      + b'{"id": "d2", "label": "1"}\n')
        code, err = run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o"))
        assert code == 2 and err.startswith(f"data error: cannot read annotation file {a}: ")

    @pytest.mark.parametrize("what", ["dataset", "annotation file", "config file"])
    def test_decode_error_names_the_line_and_file_offset(self, planted_path, tmp_path, what):
        """The decoder reads the file in 8 KB chunks; the bad byte is named by its line
        and its offset in the file, not by its offset in a chunk."""
        bad, args, code = tmp_path / "bad.json", (), 2
        if what == "dataset":
            bad = bad.with_suffix(".jsonl")
            head = "".join(f'{{"id": "f{i}", "text": "filler text"}}\n' for i in range(900))
            tail = b'{"id": "caf\xe9", "text": "x"}\n'
            args = ("stats", "--dataset", str(bad))
        elif what == "annotation file":  # CRLF line ends count once each
            bad = bad.with_suffix(".jsonl")
            head = "".join(f'{{"id": "d{i}", "label": 0}}\r\n' for i in range(900))
            tail = b'{"id": "caf\xe9", "label": 1}\r\n'
            write_annotations(tmp_path / "b.jsonl", {"d1": 0})
            args = ("kappa", str(bad), str(tmp_path / "b.jsonl"))
        else:
            head, tail, code = "{" + " " * 8000 + "\n" * 900, b'"tag": "caf\xe9"}\n', 1
            args = ("stats", "--dataset", str(planted_path), "--config", str(bad))
        bad.write_bytes(head.encode() + tail)
        offset = len(head) + tail.index(b"\xe9")
        assert offset > 8192
        prefix = "data error: " if code == 2 else "usage error: "
        assert run_captured(*args, "--out", str(tmp_path / "o")) == (code, (
            f"{prefix}cannot read {what} {bad}: line 901, file offset {offset}: "
            "byte 0xe9 is not UTF-8 (invalid continuation byte)\n"))

    @pytest.mark.parametrize("content", [b"", b"\n \n\t\n"], ids=["empty", "blank-lines"])
    def test_annotation_file_without_records_is_data_error(self, tmp_path, content):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(content)
        write_annotations(b, {"d1": 0})
        code, err = run_captured("kappa", str(a), str(b), "--out", str(tmp_path / "o"))
        assert (code, err) == (2, "data error: a.jsonl: no annotations found\n")


class TestBalanceInputDistribution:
    def test_each_run_counts_its_input_once(self, planted_path, tmp_path, monkeypatch):
        seen = []

        def counting(dataset, task):
            seen.append(len(dataset))
            return distribution(dataset, task)

        # every name through which a balance run reaches distribution
        monkeypatch.setattr(cli, "distribution", counting)
        monkeypatch.setattr(augment, "distribution", counting)
        code, err = run_captured("balance", "--dataset", str(planted_path),
                                 "--out", str(tmp_path), "--tag", "r")
        assert code == 0 and err == ""
        payload = json.loads((tmp_path / "balance" / "r" / "balance.json").read_text())
        assert seen == [payload["documents_before"], payload["documents_after"]]
        assert payload["plan"]["needed"] == {"1": 4}

    def test_input_distribution_computed_once(self, planted_path, tmp_path, monkeypatch):
        seen = []

        def counting(dataset, task):
            seen.append(len(dataset))
            return distribution(dataset, task)

        monkeypatch.setattr(cli, "distribution", counting)
        code, err = run_captured("balance", "--dataset", str(planted_path),
                                 "--out", str(tmp_path), "--tag", "r")
        assert code == 0 and err == ""
        payload = json.loads((tmp_path / "balance" / "r" / "balance.json").read_text())
        # once for the input (plan and "before"), once for the balanced output
        assert seen == [payload["documents_before"], payload["documents_after"]]
        assert payload["before"] == {"0": 12, "1": 8} and payload["after"] == {"0": 12, "1": 12}


def test_offline_commands_never_import_requests(planted_path, tmp_path):
    """requests is imported only by the remote client, so offline runs start faster."""
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import predstmt.cli\n"
        "assert 'requests' not in sys.modules, 'imported by predstmt.cli'\n"
        "out, data = sys.argv[1], sys.argv[2]\n"
        "for argv in (['stats', '--dataset', data], ['balance', '--dataset', data],\n"
        "             ['emotion', '--dataset', data]):\n"
        "    assert predstmt.cli.main(argv + ['--out', out]) == 0, argv\n"
        "assert 'requests' not in sys.modules, 'imported by an offline command'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "o"), str(planted_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_only_cv_imports_numpy(planted_path, tmp_path):
    """numpy is loaded by features, models and evaluation, which only cv reaches."""
    src = Path(cli.__file__).resolve().parents[1]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_annotations(a, {"d1": 0, "d2": 1, "d3": 1})
    write_annotations(b, {"d1": 0, "d2": 1, "d3": 0})
    script = (
        "import sys\n"
        "import predstmt.cli\n"
        "assert 'numpy' not in sys.modules, 'imported by predstmt.cli'\n"
        "import predstmt\n"
        "assert 'numpy' not in sys.modules, 'imported by predstmt'\n"
        "out, data, a, b = sys.argv[1:]\n"
        "for argv in (['stats', '--dataset', data], ['balance', '--dataset', data],\n"
        "             ['emotion', '--dataset', data], ['kappa', a, b]):\n"
        "    assert predstmt.cli.main(argv + ['--out', out]) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, f'imported by {argv[0]}'\n"
        "argv = ['cv', '--dataset', data, '--model', 'logreg', '--k', '3', '--out', out]\n"
        "assert predstmt.cli.main(argv) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "o"), str(planted_path),
                           str(a), str(b)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "| logreg |" in proc.stdout


@pytest.mark.parametrize("command, loaded", [
    ("stats", []),
    ("cv", []),
    ("balance", ["predstmt.augment"]),
    ("emotion", ["predstmt.emotion"]),
])
def test_each_command_imports_only_the_modules_it_runs(planted_path, tmp_path, command,
                                                       loaded):
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        "import predstmt.cli\n"
        "modules = ('predstmt.augment', 'predstmt.emotion')\n"
        "assert not any(m in sys.modules for m in modules), 'imported by predstmt.cli'\n"
        "command, data, out = sys.argv[1:]\n"
        "argv = [command, '--dataset', data, '--out', out]\n"
        "if command == 'cv':\n"
        "    argv += ['--model', 'logreg', '--k', '3']\n"
        "assert predstmt.cli.main(argv) == 0\n"
        "print(json.dumps([m for m in modules if m in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, command, str(planted_path),
                           str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


@pytest.fixture
def caller_gc_threshold():
    """A threshold of the caller's own, set for the test and put back after it."""
    saved = gc.get_threshold()
    gc.set_threshold(555, 7, 9)
    yield (555, 7, 9)
    gc.set_threshold(*saved)


@pytest.mark.parametrize("argv, code", [
    (["stats", "--dataset", "PLANTED"], 0),
    (["stats"], 1),  # no dataset: the command itself raises the usage error
    (["stats", "--dataset", "missing.jsonl"], 2),
    (["balance", "--dataset", "PLANTED", "--provider", "remote"], 3),
], ids=["ok", "usage", "data", "provider"])
def test_main_restores_the_callers_gc_threshold(planted_path, tmp_path, capsys,
                                                caller_gc_threshold, argv, code):
    """main leaves the collector as it found it; only the program entry freezes the heap."""
    frozen = gc.get_freeze_count()
    argv = [str(planted_path) if a == "PLANTED" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert gc.get_threshold() == caller_gc_threshold
    assert gc.get_freeze_count() == frozen


def test_command_runs_with_the_batch_gc_threshold(planted_path, tmp_path, monkeypatch,
                                                  caller_gc_threshold):
    seen = []

    def command(cfg, args):
        seen.append((gc.get_threshold(), gc.isenabled()))
        if len(seen) == 2:
            raise RuntimeError("boom")
        return 0

    monkeypatch.setitem(cli._COMMANDS, "stats", (command, *cli._COMMANDS["stats"][1:]))
    assert main(["stats", "--out", str(tmp_path)]) == 0
    with pytest.raises(RuntimeError, match="boom"):
        main(["stats", "--out", str(tmp_path)])
    # only the young generation changes, and the collector stays enabled
    assert seen == [((100_000, 7, 9), True)] * 2
    assert gc.get_threshold() == caller_gc_threshold


SRC = Path(cli.__file__).resolve().parents[1]


def run_module(argv, cwd, **kwargs) -> subprocess.CompletedProcess:
    """`python -m predstmt.cli argv` in a fresh process, its stderr captured as bytes."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "predstmt.cli", *argv], cwd=cwd,
                          stderr=subprocess.PIPE, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, **kwargs)


@pytest.mark.parametrize("argv, code", [
    (["stats", "--dataset", "planted.jsonl", "--tag", "t"], 0),
    (["cv", "--dataset", "planted.jsonl", "--k", "1"], 1),
    (["stats", "--dataset", "missing.jsonl"], 2),
], ids=["ok", "usage", "data"])
def test_module_entry_exits_and_prints_as_main_returns_and_prints(
        planted_path, tmp_path, monkeypatch, capsysbinary, argv, code):
    shutil.copy(planted_path, tmp_path / "planted.jsonl")
    monkeypatch.chdir(tmp_path)
    proc = run_module([*argv, "--out", "module"], tmp_path)
    assert main([*argv, "--out", "in-process"]) == code
    captured = capsysbinary.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def test_program_entry_exits_with_a_frozen_heap(tmp_path):
    """Interpreter shutdown's collections skip the permanent generation, where the entry
    moves every object once main has returned; atexit handlers still run."""
    script = ("import atexit, gc, sys\n"
              "from predstmt import cli\n"
              "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 1000))\n"
              "sys.argv[1:] = ['stats']\n"
              "cli.entry()\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stdout) == (1, b"frozen: True\n"), proc.stderr


def test_script_target_is_the_function_the_module_entry_calls():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S)
    target = re.fullmatch(r'predstmt = "([\w.]+):(\w+)"', scripts.group(1).strip())
    module, function = target.groups()
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(statement) for statement in block.body] == [f"{function}()"]


@pytest.mark.parametrize("argv", [
    ["stats", "--dataset", "PLANTED"],
    ["kappa", "a.jsonl", "a.jsonl"],
], ids=["stats", "kappa"])
def test_closed_stdout_is_one_line_and_its_own_exit_code(planted_path, tmp_path, argv):
    """A command whose stdout reader had gone once exited 1, the usage-error code, with a
    BrokenPipeError traceback, after committing its run directory."""
    write_annotations(tmp_path / "a.jsonl", {"d1": 0, "d2": 1})
    argv = [str(planted_path) if a == "PLANTED" else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        proc = run_module([*argv, "--out", "out", "--tag", "t"], tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 4 == cli.EXIT_STDOUT_CLOSED
    assert proc.stderr == b"output error: standard output was closed by its reader\n"
    command_dir = tmp_path / "out" / argv[0]
    assert sorted(p.name for p in command_dir.iterdir()) == ["latest", "t"]
    assert (command_dir / "latest").read_text() == "t\n"


@pytest.mark.parametrize("user, expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, None),
], ids=["default", "openblas-set", "omp-set"])
def test_cv_starts_numpy_with_one_blas_thread_by_default(planted_path, tmp_path, user,
                                                         expected):
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import json, os, sys\n"
        "import predstmt.cli\n"
        "argv = ['cv', '--dataset', sys.argv[1], '--model', 'logreg', '--k', '3',\n"
        "        '--out', sys.argv[2]]\n"
        "assert predstmt.cli.main(argv) == 0\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", script, str(planted_path), str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=120,
                          env={**env, **user, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    value, threads = json.loads(proc.stdout.splitlines()[-1])
    assert value == expected
    if not user and threads is not None:
        assert threads == 1


# ---------------------------------------------------------------------------
# property test: whatever a config file holds, the CLI fails cleanly

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=4,
)
_PLAUSIBLE = st.sampled_from([0, 1, 2, 3, 5, -1, 0.5, 1e-4, True, False, None, "",
                              "logreg", "x", ["svm"], ["rf", "xgb"], []])


def _config_object(cls) -> st.SearchStrategy:
    """JSON objects over cls's keys, typo'd keys and random values, nested sections too."""
    nested = {"train": TrainConfig, "provider_config": ProviderConfig}
    names = [f.name for f in fields(cls)]
    defaults = {f.name: st.just(f.default) for f in fields(cls)
                if type(f.default) in (int, float, bool, str, type(None))}
    entries = {
        name: st.one_of(_config_object(nested[name]), _PLAUSIBLE, _JSON)
        if name in nested else st.one_of(defaults.get(name, _PLAUSIBLE), _PLAUSIBLE, _JSON)
        for name in names
    }
    typos = st.dictionaries(st.sampled_from([name[:-1] for name in names]), _PLAUSIBLE,
                            max_size=1)
    return st.builds(lambda known, typo: {**known, **typo},
                     st.fixed_dictionaries({}, optional=entries), typos)


@settings(max_examples=60, deadline=None, database=None)
@given(config=st.one_of(_config_object(RunConfig), _JSON))
def test_any_config_succeeds_or_is_one_line_usage_error(tmp_path_factory, config):
    tmp = tmp_path_factory.mktemp("fuzz")
    data, path = tmp / "d.jsonl", tmp / "cfg.json"
    save_dataset(build_planted_dataset(Task.PREDICTIVENESS, {0: 2, 1: 2}, seed=1), data)
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        # the flags keep every write inside tmp, whatever the file says
        code = main(["stats", "--config", str(path), "--dataset", str(data),
                     "--out", str(tmp / "o"), "--tag", "r"])
    event(f"exit code {code}")
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert err.getvalue().startswith("usage error: ") and err.getvalue().count("\n") == 1
        assert not (tmp / "o").exists()


# ---------------------------------------------------------------------------
# property tests: whatever a dataset line or a lexicon holds, the CLI fails cleanly

def _maybe(valid: list) -> st.SearchStrategy:
    return st.one_of(st.sampled_from(valid), _JSON)


_RECORD = st.fixed_dictionaries({
    "id": _maybe(["a", "b", "c", "d", "", ["a"]]),
    "text": _maybe(["ada will rise", "x", ""]),
}, optional={
    "coin": _maybe(["ADA", "Other", "DOGE", ["ADA"], None]),
    "task1": _maybe([0, 1, 2, None, True, 1.0]),
    "task2": _maybe([1, 2, 3, 4, None]),
    "source": _maybe(["original", "synthetic", "scraped", None]),
    "parent_id": _maybe(["a", "zz", None, 3]),
    "annotations": _maybe([[], None]),
    "extra": _PLAUSIBLE,
})
_LINE = st.one_of(_RECORD.map(json.dumps), _JSON.map(json.dumps), st.text(max_size=12))


def _one_line_or_success(code: int, err: str, allowed: int, prefix: str) -> None:
    event(f"exit code {code}")
    if code == 0:
        assert err == ""
    else:
        assert code == allowed
        assert err.startswith(prefix) and err.count("\n") == 1


@settings(max_examples=80, deadline=None, database=None)
@given(lines=st.lists(_LINE, min_size=1, max_size=3))
def test_any_dataset_line_loads_or_is_one_line_data_error(tmp_path_factory, lines):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "d.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
    code, err = run_captured("stats", "--dataset", str(path), "--out", str(tmp / "o"),
                             "--tag", "r")
    _one_line_or_success(code, err, 2, "data error: ")


_EMOTIONS = ["joy", "fear", "JOY", "zeal"]
_LEXICON = st.one_of(
    st.fixed_dictionaries({
        "entries": st.one_of(st.dictionaries(
            st.sampled_from(["happy", "Happy", "over the moon", " ", "moon"]) | st.text(max_size=4),
            st.one_of(st.lists(st.one_of(
                st.tuples(st.sampled_from(_EMOTIONS) | _JSON,
                          st.sampled_from([0, 0.5, 1, 1.5, -0.1, True, 10 ** 400, "x"]) | _JSON
                          ).map(list),
                _JSON), max_size=3), _JSON),
            max_size=3), _JSON),
        "grouping": st.one_of(st.dictionaries(
            st.sampled_from(_EMOTIONS) | st.text(max_size=4),
            st.sampled_from(["delight_joy", "fear_anxiety", "ecstasy"]) | _JSON,
            max_size=3), _JSON),
    }, optional={"extra": _PLAUSIBLE}),
    _JSON,
)


@settings(max_examples=80, deadline=None, database=None)
@given(lexicon=_LEXICON)
def test_any_lexicon_loads_or_is_one_line_data_error(tmp_path_factory, planted_path, lexicon):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "lex.json"
    path.write_text(json.dumps(lexicon), encoding="utf-8", errors="surrogatepass")
    code, err = run_captured("emotion", "--dataset", str(planted_path), "--lexicon", str(path),
                             "--out", str(tmp / "o"), "--tag", "r")
    _one_line_or_success(code, err, 2, "data error: ")
