"""Command line interface tests; every command runs in-process via main()."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from predstmt import (
    CleanConfig,
    DataError,
    ProviderConfig,
    Task,
    TfidfConfig,
    TrainConfig,
    save_dataset,
)
from predstmt.cli import RunConfig, _config_echo, main
from predstmt.corpus import from_dict

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

    @pytest.mark.parametrize("content, message", [
        (b'{"seed": "\xff"}', "cannot read config file"),
        (b'{"seed": ', "is not valid JSON"),
        (b'[1]', "must contain a JSON object"),
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
        ("stats", {"seed": "7"}, "seed must be an integer"),
        ("emotion", {"threshold": "high"}, "threshold must be a number"),
        ("stats", {"tag": 5}, "tag must be a string"),
        ("cv", {"train": {"epoch": 10}}, "unknown config keys: train.epoch"),
        ("cv", {"tfidf": {"min_dff": 3}}, "unknown config keys: tfidf.min_dff"),
        ("cv", {"tfidf": {"sublinear_tf": "no"}}, "tfidf.sublinear_tf must be true or false"),
        ("cv", {"train": {"epochs": True}}, "train.epochs must be an integer"),
        ("cv", {"train": {"epochs": "5"}}, "train.epochs must be an integer"),
        ("cv", {"train": {"epochs": 0}}, "train: epochs must be >= 1"),
        ("cv", {"clean": {"lowercase": "no"}}, "clean.lowercase must be true or false"),
        ("balance", {"provider_config": {"endpoint": "x"}},
         "missing config keys: provider_config.api_key_env, provider_config.model"),
        ("balance", {"provider_config": {}}, "missing config keys: provider_config.endpoint"),
        ("balance", {"provider_config": []}, "provider_config must be an object or null"),
        ("stats", {"threshold": float("inf")}, "threshold must be a number"),
        ("stats", {"train": 5}, "train must be an object"),
        ("stats", {"tag": "latest"}, "tag must be a plain directory name"),
        ("stats", {"tag": "../elsewhere"}, "tag must be a plain directory name"),
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

    @pytest.mark.parametrize("config, digest", [
        (RunConfig(dataset="d.jsonl"),
         "f356b9ab64b693ffc47720d0a57fc13b42aba688e58866e9f949a1ba83538cbf"),
        # ints given for float fields are kept as ints, as they always were
        (from_dict(RunConfig, {
            "dataset": "d.jsonl", "models": ["svm"], "threshold": 1, "provider": "remote",
            "train": {"epochs": 3, "l2": 0}, "clean": {"special_chars": "#$"},
            "provider_config": {"endpoint": "http://e", "api_key_env": "K", "model": "m",
                                "timeout_s": 5},
         }), "6eaa9bcf8a1173ae586a95b105c63ff0d3e9bb9da59bf27b32ce718c869aa9c3"),
    ])
    def test_config_hash_is_pinned(self, config, digest):
        assert _config_echo(config)["config_hash"] == digest


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
    nested = {"train": TrainConfig, "clean": CleanConfig, "tfidf": TfidfConfig,
              "provider_config": ProviderConfig}
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
