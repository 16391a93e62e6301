"""Command-line entry point.

Subcommands: stats, cv, balance, emotion, kappa. One JSON config file can
set everything; flags override it. Output files embed the seed and a hash
of what the command read, and no timestamps, so reruns with the same tag
are byte-identical. Exit codes: 0 success, 1 usage error, 2 data error, 3
provider error, 4 standard output closed. Each command imports only the
modules it runs: cv loads numpy, through evaluation, with one BLAS thread
unless the user set a count; balance loads augment and emotion loads
emotion. A command runs with the cyclic garbage collector set for batch
work (see main), and the program exits without the collector's shutdown
passes (see entry).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

from .config import (
    MODEL_KINDS,
    ProviderConfig,
    ProviderError,
    TrainConfig,
    check_os_string,
)
from .corpus import (
    LABEL_NAMES,
    DataError,
    Task,
    _check_encodable,
    cohen_kappa,
    distribution,
    from_dict,
    jsonable,
    load_dataset,
    parse_json,
    read_json,
    read_jsonl,
    save_dataset,
    write_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3
EXIT_STDOUT_CLOSED = 4

PROVIDERS = ("offline", "remote")


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclass
class RunConfig:
    dataset: str | None = None
    task: int = 1
    models: list[str] = field(default_factory=lambda: list(MODEL_KINDS))
    k: int = 5
    seed: int = 42
    out_dir: str = "out"
    provider: str = "offline"
    tag: str | None = None
    lexicon: str | None = None
    threshold: float = 0.0
    train: TrainConfig = field(default_factory=TrainConfig)
    provider_config: ProviderConfig | None = None

    def __post_init__(self) -> None:
        if self.task not in (1, 2):
            raise DataError(f"task must be 1 or 2, got {self.task!r}")
        if self.k < 2:
            raise DataError(f"k must be an integer >= 2, got {self.k!r}")
        if self.provider not in PROVIDERS:
            raise DataError(
                f"unknown provider {self.provider!r}; expected {' or '.join(PROVIDERS)}")
        if not self.models:
            raise DataError(f"models must name at least one of {', '.join(MODEL_KINDS)}")
        for i, kind in enumerate(self.models):
            if kind not in MODEL_KINDS:
                raise DataError(
                    f"unknown model kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}")
            if kind in self.models[:i]:
                raise DataError(f"model kind {kind!r} is listed twice")
        for name in ("dataset", "out_dir", "lexicon"):
            check_os_string(name, getattr(self, name), path=True)
        check_os_string("tag", self.tag, path=False)  # also written to the UTF-8 `latest` file
        # the run directory and the staging names beside it must not collide
        if self.tag is not None and (self.tag in ("", "latest") or self.tag.startswith(".")
                                     or "/" in self.tag):
            raise DataError(f"tag must be a plain directory name other than 'latest', "
                            f"got {self.tag!r}")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's object with the given flags laid over it, parsed once."""
    raw = {}
    if args.config:
        path = Path(args.config)
        try:
            raw = read_json(path, "config file")
        except DataError as exc:
            raise UsageError(str(exc)) from None
        if not isinstance(raw, dict):
            raise UsageError(f"config file {path} must contain a JSON object")
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    try:
        return from_dict(RunConfig, {**raw, **flags})
    except DataError as exc:
        raise UsageError(str(exc)) from None


def _config_echo(cfg: RunConfig, command: str, dataset_sha256: str | None = None,
                 **digests: str) -> dict:
    """Hash the seed, the fields that command's row of _COMMANDS reads and each file's SHA-256.

    digests, dataset_sha256 included, maps <name>_sha256 to the digest of each
    file the command read; the row's field <name>, that file's path, is left
    out. Digests are echoed.
    """
    if dataset_sha256 is not None:
        digests = {"dataset_sha256": dataset_sha256, **digests}
    read = {name: getattr(cfg, name) for name in ("seed", *_COMMANDS[command][2])
            if f"{name}_sha256" not in digests}
    canonical = json.dumps(jsonable({**read, **digests}), sort_keys=True)
    return {"config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            **digests, "seed": cfg.seed}


def _hashed(load, path: str | Path, *args) -> tuple:
    """load(path, *args) and the SHA-256 of the bytes it read, which load hashes as it reads."""
    sha256 = hashlib.sha256()
    return load(path, *args, sha256=sha256), sha256.hexdigest()


@contextmanager
def _run_dir(cfg: RunConfig, command: str):
    """Yield a staging directory that becomes <out_dir>/<command>/<tag> on success.

    The staging directory sits beside the final one and is renamed into
    place once the body returns; `latest` is rewritten after that, through
    os.replace. A body that raises leaves no new directory and `latest`
    unchanged. A rerun with an existing tag replaces that run directory.
    An OSError while creating, writing, staging or renaming it, or while
    rewriting `latest`, is a UsageError that leaves the previous run and
    `latest` as they were.
    """
    tag = cfg.tag or datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    command_dir = Path(cfg.out_dir) / command
    final = command_dir / tag
    created = []  # directories this run creates, deepest first
    staging = command_dir / f".partial-{os.getpid()}"
    pointer = command_dir / f".latest-{os.getpid()}"

    def discard() -> None:
        shutil.rmtree(staging, ignore_errors=True)
        with suppress(OSError):
            pointer.unlink(missing_ok=True)
        for directory in created:
            with suppress(OSError):
                directory.rmdir()

    def unusable(exc: OSError) -> UsageError:
        discard()
        return UsageError(f"cannot write run directory {str(final)!r}: {exc.strerror or exc}")

    try:
        parent = command_dir
        while not parent.exists():
            created.append(parent)
            parent = parent.parent
        command_dir.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
    except OSError as exc:
        raise unusable(exc) from None
    try:
        yield staging
    except OSError as exc:
        raise unusable(exc) from None
    except BaseException:
        discard()
        raise
    old = command_dir / f".replaced-{os.getpid()}"
    replaced = final.exists()
    renamed = []  # (src, dst) of each rename done, undone in reverse on failure
    try:
        pointer.write_text(tag + "\n", encoding="utf-8")
        if replaced:
            os.rename(final, old)
            renamed.append((final, old))
        os.rename(staging, final)
        renamed.append((staging, final))
        os.replace(pointer, command_dir / "latest")
    except OSError as exc:
        for src, dst in reversed(renamed):
            with suppress(OSError):
                os.rename(dst, src)
        raise unusable(exc) from None
    if replaced:
        shutil.rmtree(old)


def _load_required_dataset(cfg: RunConfig):
    """The dataset and the SHA-256 of the bytes it was loaded from."""
    if not cfg.dataset:
        raise UsageError("a dataset is required; pass --dataset or set it in the config")
    return _hashed(load_dataset, cfg.dataset)


# ---------------------------------------------------------------------------
# commands

def _distribution_section(dataset, task: Task) -> tuple[dict, list[str]]:
    dist = distribution(dataset, task)
    names = LABEL_NAMES[task]
    counts = {names[code]: dist.count(code) for code in sorted(names)}
    lines = [
        f"### Task {int(task)} label distribution",
        "",
        "| Label | Count |",
        "| --- | --- |",
    ]
    for name, count in counts.items():
        lines.append(f"| {name} | {count} |")
    lines.append(f"| Total | {dist.total} |")
    return {**counts, "total": dist.total}, lines


def cmd_stats(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset, sha256 = _load_required_dataset(cfg)
    payload = {**_config_echo(cfg, "stats", dataset_sha256=sha256), "dataset": dataset.name,
               "documents": len(dataset)}
    md_lines: list[str] = []
    for task in (Task.PREDICTIVENESS, Task.DIRECTION):
        section, lines = _distribution_section(dataset, task)
        payload[f"task{int(task)}"] = section
        md_lines.extend(lines + [""])
    markdown = "\n".join(md_lines).rstrip() + "\n"
    with _run_dir(cfg, "stats") as run_dir:
        write_json(run_dir / "stats.json", payload)
        (run_dir / "stats.md").write_text(markdown, encoding="utf-8")
    print(markdown, end="")
    return EXIT_OK


def cross_validate(*args, **kwargs):
    """evaluation.cross_validate_models, imported on first call: only cv loads numpy."""
    from .evaluation import cross_validate_models

    return cross_validate_models(*args, **kwargs)


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """Start numpy's BLAS with one thread unless the user chose a thread count.

    Nothing in cv does BLAS matrix work, so a thread pool only costs start-up
    time. OpenBLAS reads the variable once, when numpy loads; a process that
    has loaded numpy already keeps its environment as it is.
    """
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def cmd_cv(cfg: RunConfig, args: argparse.Namespace) -> int:
    _one_blas_thread()
    from .evaluation import classification_report, summary_table

    # the squared hinge needs l2 > 0; catch l2 = 0 here, not after a fold's features
    if "svm" in cfg.models and cfg.train.l2 <= 0:
        raise UsageError(f"train.l2 must be > 0 for the svm model, got {cfg.train.l2}")
    dataset, sha256 = _load_required_dataset(cfg)
    echo = _config_echo(cfg, "cv", dataset_sha256=sha256)
    task = Task(cfg.task)
    payloads = {}
    pooled_rows = {}
    mean_rows = {}
    md_parts = [f"## Cross-validation, task {int(task)}, k={cfg.k}, seed={cfg.seed}", ""]
    reports = cross_validate(dataset, task, cfg.models, cfg.train, k=cfg.k, seed=cfg.seed)
    for kind, report in reports.items():
        payload = payloads[f"cv_{kind}.json"] = {**echo, **report.to_dict()}
        pooled_rows[kind] = payload["pooled"]
        mean_rows[kind] = payload["fold_means"]
        md_parts.extend([
            f"### {kind}: pooled per-label report",
            "",
            classification_report(report.pooled, task=task),
            "",
        ])
    pooled_table = summary_table(pooled_rows, "Pooled (micro) metrics across folds:")
    means_table = summary_table(mean_rows, "Per-fold means:")
    markdown = "\n".join([md_parts[0], "", pooled_table, "", means_table, ""] + md_parts[2:])
    with _run_dir(cfg, "cv") as run_dir:
        for name, payload in payloads.items():
            write_json(run_dir / name, payload)
        (run_dir / "report.md").write_text(markdown, encoding="utf-8")
    print(pooled_table)
    return EXIT_OK


def balance(*args, **kwargs):
    """augment.balance, imported on first call: only balance loads augment."""
    from .augment import balance

    return balance(*args, **kwargs)


def _make_provider(cfg: RunConfig):
    from .augment import OfflineParaphraser, RemoteParaphraser

    if cfg.provider == "offline":
        return OfflineParaphraser()
    if cfg.provider_config is None:
        raise ProviderError(
            "remote provider selected but no endpoint configured; "
            "set provider_config in the config file"
        )
    return RemoteParaphraser(cfg.provider_config)


def cmd_balance(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .augment import compute_plan

    dataset, sha256 = _load_required_dataset(cfg)
    task = Task(cfg.task)
    provider = _make_provider(cfg)
    before = distribution(dataset, task)
    plan = compute_plan(before)
    budget = {"max_retries": cfg.provider_config.max_retries} if cfg.provider == "remote" else {}
    result = balance(dataset, task, provider, seed=cfg.seed, plan=plan, **budget)
    after = distribution(result, task)
    # the majority class is never upsampled, so what the result still needs is the shortfall
    shortfall = compute_plan(after).needed
    if shortfall:
        missing = ", ".join(f"class {c}: {n}" for c, n in sorted(shortfall.items()))
        print(f"warning: balancing fell short of the plan ({missing})", file=sys.stderr)
    with _run_dir(cfg, "balance") as run_dir:
        save_dataset(result, run_dir / "balanced.jsonl")
        write_json(run_dir / "balance.json", {
            **_config_echo(cfg, "balance", dataset_sha256=sha256),
            "task": int(task),
            "plan": plan,
            "before": before.counts,
            "after": after.counts,
            "documents_before": len(dataset),
            "documents_after": len(result),
            "shortfall": shortfall,
        })
    print(
        f"balanced task {int(task)}: {len(dataset)} -> {len(result)} documents "
        f"(target {plan.target_per_class} per class)"
    )
    return EXIT_OK


def aggregate(*args, **kwargs):
    """emotion.aggregate, imported on first call: only emotion loads that module."""
    from .emotion import aggregate

    return aggregate(*args, **kwargs)


def load_lexicon(*args, **kwargs):
    """emotion.load_lexicon, imported on first call."""
    from .emotion import load_lexicon

    return load_lexicon(*args, **kwargs)


def cmd_emotion(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .emotion import bundled_lexicon_path, render_markdown

    dataset, sha256 = _load_required_dataset(cfg)
    lexicon_path = Path(cfg.lexicon) if cfg.lexicon else bundled_lexicon_path()
    lexicon, lexicon_sha256 = _hashed(load_lexicon, lexicon_path)
    echo = _config_echo(cfg, "emotion", dataset_sha256=sha256, lexicon_sha256=lexicon_sha256)
    report = aggregate(dataset, lexicon, threshold=cfg.threshold)
    markdown = render_markdown(report) + "\n"
    with _run_dir(cfg, "emotion") as run_dir:
        write_json(run_dir / "emotion.json", {**echo, "cells": report.to_dict()})
        (run_dir / "emotion.md").write_text(markdown, encoding="utf-8")
    print(markdown, end="")
    return EXIT_OK


def _read_annotation_file(path: Path, task: Task, sha256: hashlib._Hash) -> dict[str, int]:
    """The label of each id in a JSONL file of {id, label} records; labels are task's codes.

    The file follows the dataset's line rules, those of corpus.read_jsonl.
    """
    labels: dict[str, int] = {}

    def add(rec: object) -> None:
        if not isinstance(rec, dict) or "id" not in rec or "label" not in rec:
            raise DataError("expected an object with 'id' and 'label'")
        unknown = rec.keys() - {"id", "label"}
        if unknown:
            raise DataError(f"unknown keys {sorted(unknown)}")
        doc_id = rec["id"]
        if not isinstance(doc_id, str) or not doc_id:
            raise DataError("'id' must be a non-empty string")
        _check_encodable({"'id'": doc_id})
        if doc_id in labels:
            raise DataError(f"duplicate id {doc_id!r}")
        label = rec["label"]
        if not isinstance(label, int) or isinstance(label, bool):
            raise DataError("'label' must be an integer")
        if label not in LABEL_NAMES[task]:
            raise DataError(f"unknown label code {label} for task {int(task)}")
        labels[doc_id] = label

    read_jsonl(path, "annotation file", lambda line: add(parse_json(line)), sha256)
    if not labels:
        raise DataError(f"{path.name}: no annotations found")
    return labels


def cmd_kappa(cfg: RunConfig, args: argparse.Namespace) -> int:
    path_a, path_b = Path(args.annotations[0]), Path(args.annotations[1])
    task = Task(cfg.task)
    a, file_a_sha256 = _hashed(_read_annotation_file, path_a, task)
    b, file_b_sha256 = _hashed(_read_annotation_file, path_b, task)
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:5]
        only_b = sorted(set(b) - set(a))[:5]
        raise DataError(
            f"annotator files cover different ids (only in {path_a.name}: {only_a}, "
            f"only in {path_b.name}: {only_b})"
        )
    ids = sorted(a)
    kappa = cohen_kappa([a[i] for i in ids], [b[i] for i in ids])
    echo = _config_echo(cfg, "kappa", file_a_sha256=file_a_sha256, file_b_sha256=file_b_sha256)
    with _run_dir(cfg, "kappa") as run_dir:
        write_json(run_dir / "kappa.json", {
            **echo,
            "kappa": kappa,
            "n": len(ids),
            "file_a": path_a.name,
            "file_b": path_b.name,
        })
    print(f"{kappa:.4f}")
    return EXIT_OK


#: Each command's handler, description and the RunConfig fields it reads besides seed, out_dir
#: and tag: its flags are theirs and the common four, its config hash covers them and the seed.
_COMMANDS = {
    "stats": (cmd_stats, "print and save label distribution tables", ("dataset",)),
    "cv": (cmd_cv, "stratified cross-validation of the configured models",
           ("dataset", "task", "models", "k", "train")),
    "balance": (cmd_balance, "upsample minority classes with paraphrases",
                ("dataset", "task", "provider", "provider_config")),
    "emotion": (cmd_emotion, "aggregate lexicon emotion percentages per coin and label",
                ("dataset", "lexicon", "threshold")),
    "kappa": (cmd_kappa, "inter-annotator agreement between two annotation files", ("task",)),
}

#: The flag of each RunConfig field that has one; the others are set in the config file.
_FLAGS = {
    "dataset": ("--dataset", dict(metavar="PATH", help="dataset JSONL")),
    "task": ("--task", dict(type=int, choices=(1, 2))),
    "models": ("--model", dict(action="append", choices=MODEL_KINDS, help="repeatable")),
    "k": ("--k", dict(type=int, help="number of folds")),
    "provider": ("--provider", dict(choices=PROVIDERS)),
    "lexicon": ("--lexicon", dict(metavar="PATH", help="emotion lexicon JSON")),
    "threshold": ("--threshold", dict(type=float, help="emotion weight threshold")),
}


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="predstmt",
        description="Predictive-statement classification pipeline for crypto tweets.",
    )
    subparsers = parser.add_subparsers(dest="command")
    for name, (_, description, reads) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=description, description=description)
        sub.add_argument("--config", metavar="PATH", help="JSON config file")
        sub.add_argument("--seed", type=int)
        sub.add_argument("--out", metavar="DIR", dest="out_dir", help="output directory root")
        sub.add_argument("--tag", help="run directory name (default: UTC timestamp)")
        for key in filter(_FLAGS.__contains__, reads):
            sub.add_argument(_FLAGS[key][0], dest=key, **_FLAGS[key][1])
        if name == "kappa":
            sub.add_argument("annotations", nargs=2, metavar="FILE",
                             help="two JSONL files of {id, label} records, "
                                  "labels being codes of --task")
    return parser


#: Young-generation collector threshold while a command runs. At CPython's
#: default of 700, `balance` and `emotion` on 31,160 documents each ran about
#: 100 collections (40-75 ms on a 2-vCPU VM) that re-walked the loaded
#: documents and freed next to nothing; at 100,000 each runs one.
_BATCH_GC_THRESHOLD = 100_000


def main(argv: list[str] | None = None) -> int:
    """Run one command; the caller's collector thresholds are restored after it.

    Commands build tens of thousands of long-lived, acyclic documents, which
    the cyclic collector would otherwise walk again every 700 allocations.
    The collector stays enabled, so cycles are still freed.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        cfg = _resolve_config(args)
        thresholds = gc.get_threshold()
        gc.set_threshold(_BATCH_GC_THRESHOLD, *thresholds[1:])
        try:
            return _COMMANDS[args.command][0](cfg, args)
        finally:
            gc.set_threshold(*thresholds)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


def entry() -> NoReturn:
    """Program entry of the `predstmt` script and `python -m predstmt.cli`: main, then exit.

    A standard output whose reader has gone ends the program with one stderr
    line and EXIT_STDOUT_CLOSED; the run directory a command committed
    before printing stays. Before exiting, gc.freeze() moves every tracked
    object to the permanent generation, which the collections of interpreter
    shutdown skip: they would walk every object numpy and the command left
    (about 30 ms of a cv process on a 2-vCPU VM) to free memory the OS reclaims.
    Objects are still freed by reference counting, atexit handlers run and
    stdio is flushed. In-process callers of main keep a heap they can collect.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # later flushes of what stdout still buffers go nowhere instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("output error: standard output was closed by its reader", file=sys.stderr)
        code = EXIT_STDOUT_CLOSED
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
