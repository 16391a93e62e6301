"""jsonable and write_json: one encoder gives every artifact.

The reference encoders below are the hand-written to_dict bodies and payload
builders that jsonable replaced; each test checks that write_json's bytes
equal theirs.
"""

import enum
import hashlib
import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from predstmt import (
    Coin,
    Dataset,
    Document,
    Task,
    TrainConfig,
    compute_plan,
    distribution,
    load_dataset,
    save_dataset,
)
from predstmt.cli import RunConfig, _config_echo, main
from predstmt.config import ProviderConfig
from predstmt.corpus import jsonable, write_json
from predstmt.evaluation import (
    HEADLINE,
    ConfusionMatrix,
    cross_validate_models,
    metrics,
)

from conftest import FILLER_WORDS, PLANT_WORDS

# ---------------------------------------------------------------------------
# the reference encoders


def _old_confusion(cm):
    return {"class_codes": list(cm.class_codes), "counts": cm.counts.tolist()}


def _old_metrics(report):
    return {
        "confusion": _old_confusion(report.confusion),
        "per_class": {str(code): asdict(cm) for code, cm in report.per_class.items()},
        **{name: getattr(report, name) for name in HEADLINE},
        "n_classes": report.n_classes,
    }


def _old_cv(report):
    per_fold = [_old_metrics(r) for r in report.per_fold]
    for fold, size in zip(per_fold, report.forest_sizes):
        fold["forest"] = size
    return {
        "task": int(report.task),
        "model_kind": report.model_kind,
        "k": report.k,
        "seed": report.seed,
        "train_config": asdict(report.train_config),
        "fold_sizes": list(report.fold_sizes),
        "per_fold": per_fold,
        "fold_means": report.fold_means(),
        "pooled": _old_metrics(report.pooled),
    }


def _old_plan(plan):
    return {
        "task": int(plan.task),
        "target_per_class": plan.target_per_class,
        "needed": {str(code): n for code, n in sorted(plan.needed.items())},
    }


#: The RunConfig fields each command reads besides seed, out_dir and tag.
_READS = {
    "stats": {"dataset"},
    "cv": {"dataset", "task", "models", "k", "train"},
    "balance": {"dataset", "task", "provider", "provider_config"},
    "emotion": {"dataset", "lexicon", "threshold"},
    "kappa": {"task"},
}

#: The SHA-256 of b"", standing for a dataset's bytes where no file is read.
_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

#: Stand-ins for the digests of the files a command reads besides its dataset.
_DIGESTS = {"emotion": {"lexicon_sha256": "1" * 64},
            "kappa": {"file_a_sha256": "a" * 64, "file_b_sha256": "b" * 64}}


def _old_config_echo(cfg, command, dataset_sha256=None):
    payload = {name: value for name, value in asdict(cfg).items()
               if name == "seed" or (name in _READS[command] and name != "lexicon")}
    echo = dict(_DIGESTS.get(command, {}))
    if "dataset" in payload:
        del payload["dataset"]
        echo["dataset_sha256"] = dataset_sha256
    payload.update(echo)
    canonical = json.dumps(payload, sort_keys=True)
    return {"config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            **echo, "seed": cfg.seed}


def _old_bytes(payload):
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _written(tmp_path, payload):
    path = tmp_path / "written.json"
    write_json(path, payload)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# a noisy corpus: the planted word names the label 7 times in 10

_LABELS = {(0, None): 24, (1, 1): 14, (1, 2): 10, (1, 3): 6}


@pytest.fixture(scope="module")
def noisy():
    rng = random.Random(4)
    codes = [task2 or 0 for _, task2 in _LABELS]
    docs = []
    for (task1, task2), n in _LABELS.items():
        for _ in range(n):
            code = task2 or 0
            plant = code if rng.random() < 0.7 else rng.choice(codes)
            text = " ".join(rng.sample(FILLER_WORDS, 4) + [PLANT_WORDS[plant]])
            docs.append(Document(id=f"n{len(docs):03d}", text=text, coin=Coin.ADA,
                                 task1=task1, task2=task2))
    return Dataset(documents=tuple(docs), name="noisy")


TRAIN = TrainConfig(epochs=6, n_trees=3, max_depth=4, seed=1)


@pytest.mark.parametrize("task", [Task.PREDICTIVENESS, Task.DIRECTION])
def test_cv_artifacts_match_the_reference(noisy, tmp_path, task):
    cfg = RunConfig(dataset="noisy.jsonl", task=int(task), train=TRAIN, k=3)
    reports = cross_validate_models(noisy, task, ("logreg", "svm", "rf"), TRAIN, k=3, seed=5)
    assert reports["rf"].forest_sizes
    for report in reports.values():
        written = _written(tmp_path, {**_config_echo(cfg, "cv", _SHA), **report.to_dict()})
        assert written == _old_bytes({**_old_config_echo(cfg, "cv", _SHA), **_old_cv(report)})


def test_confusion_with_two_digit_codes_sorts_keys_as_strings(tmp_path):
    cm = ConfusionMatrix(class_codes=(2, 10), counts=np.array([[3, 1], [2, 5]]))
    report = metrics(cm)
    assert _written(tmp_path, cm) == _old_bytes(_old_confusion(cm))
    written = _written(tmp_path, report)
    assert written == _old_bytes(_old_metrics(report))
    assert written.index(b'"10": {') < written.index(b'"2": {')


def test_balance_plan_and_artifact_match_the_reference(noisy, tmp_path):
    dataset_path = tmp_path / "noisy.jsonl"
    save_dataset(noisy, dataset_path)
    plan = compute_plan(distribution(noisy, Task.DIRECTION))
    assert plan.needed == {2: 4, 3: 8}
    assert _written(tmp_path, plan) == _old_bytes(_old_plan(plan))

    out = tmp_path / "out"
    assert main(["balance", "--dataset", str(dataset_path), "--task", "2", "--out", str(out),
                 "--tag", "b"]) == 0
    result = load_dataset(out / "balance" / "b" / "balanced.jsonl")
    before, after = distribution(noisy, Task.DIRECTION), distribution(result, Task.DIRECTION)
    shortfall = sorted(compute_plan(after).needed.items())
    cfg = RunConfig(dataset=str(dataset_path), task=2)
    expected = {
        **_old_config_echo(cfg, "balance", hashlib.sha256(dataset_path.read_bytes()).hexdigest()),
        "task": 2,
        "plan": _old_plan(plan),
        "before": {str(c): n for c, n in sorted(before.counts.items())},
        "after": {str(c): n for c, n in sorted(after.counts.items())},
        "documents_before": len(noisy),
        "documents_after": len(result),
        "shortfall": {str(c): n for c, n in shortfall},
    }
    assert (out / "balance" / "b" / "balance.json").read_bytes() == _old_bytes(expected)


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    RunConfig(dataset="d.jsonl", task=2, models=["rf", "svm"], out_dir="o", tag="t",
              train=TRAIN, lexicon="lex.json", threshold=0.25),
    RunConfig(provider="remote", provider_config=ProviderConfig(
        endpoint="http://127.0.0.1:9/v1", api_key_env="K", model="m", timeout_s=2.5)),
], ids=["defaults", "cv", "remote"])
def test_config_echo_matches_the_reference(cfg):
    for command in _READS:
        # a command is given the digest of each file it read, and kappa reads no dataset
        dataset = {"dataset_sha256": _SHA} if "dataset" in _READS[command] else {}
        assert (_config_echo(cfg, command, **dataset, **_DIGESTS.get(command, {}))
                == _old_config_echo(cfg, command, _SHA)), command


# ---------------------------------------------------------------------------
# the encoding rules


class _Colour(enum.Enum):
    RED = "red"


def test_jsonable_rules():
    assert jsonable({Task.DIRECTION: (1, 2.5), 7: _Colour.RED, "k": [Task.PREDICTIVENESS]}) \
        == {"2": [1, 2.5], "7": "red", "k": [1]}
    assert type(jsonable(Task.DIRECTION)) is int
    value = jsonable([np.float64(0.1), np.int64(3), np.arange(3).reshape(1, 3), True, None])
    assert value == [0.1, 3, [[0, 1, 2]], True, None]
    assert [type(v) for v in value[:2]] == [float, int]


def test_int_keys_are_formatted_before_sorting(tmp_path):
    assert _written(tmp_path, {9: 1, Task.DIRECTION: 2, 10: 3}) == \
        b'{\n  "10": 3,\n  "2": 2,\n  "9": 1\n}\n'


def test_a_float_key_is_a_type_error():
    with pytest.raises(TypeError):
        jsonable({1.5: "x"})
