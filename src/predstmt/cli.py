"""Command-line entry point.

Subcommands: stats, cv, balance, emotion, kappa. One JSON config file can
set everything; flags override it. Every output file embeds the resolved
config hash and seed, and contains no timestamps, so reruns with the same
tag are byte-identical. Exit codes: 0 success, 1 usage error, 2 data
error, 3 provider error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

from .augment import (
    BalanceShortfallWarning,
    OfflineParaphraser,
    ProviderConfig,
    ProviderError,
    RemoteParaphraser,
    balance,
    compute_plan,
)
from .corpus import (
    LABEL_NAMES,
    DataError,
    Task,
    distribution,
    from_dict,
    load_dataset,
    save_dataset,
)
from .emotion import aggregate, bundled_lexicon_path, load_lexicon, render_markdown
from .evaluation import (
    MODEL_KINDS,
    classification_report,
    cohen_kappa,
    cross_validate,
    report_headline,
    summary_table,
)
from .features import TfidfConfig
from .models import TrainConfig
from .preprocess import CleanConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


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
    clean: CleanConfig = field(default_factory=CleanConfig)
    tfidf: TfidfConfig = field(default_factory=TfidfConfig)
    provider_config: ProviderConfig | None = None

    def __post_init__(self) -> None:
        if self.task not in (1, 2):
            raise DataError(f"task must be 1 or 2, got {self.task!r}")
        if self.k < 2:
            raise DataError(f"k must be an integer >= 2, got {self.k!r}")
        if not self.models:
            raise DataError(f"models must name at least one of {', '.join(MODEL_KINDS)}")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise DataError(
                    f"unknown model kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}")
        # the run directory and the staging names beside it must not collide
        if self.tag and (self.tag == "latest" or self.tag.startswith(".") or "/" in self.tag):
            raise DataError(f"tag must be a plain directory name other than 'latest', "
                            f"got {self.tag!r}")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's object with the given flags laid over it, parsed once."""
    raw = {}
    if args.config:
        path = Path(args.config)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise UsageError(f"config file {path} must contain a JSON object")
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    try:
        return from_dict(RunConfig, {**raw, **flags})
    except DataError as exc:
        raise UsageError(str(exc)) from None


def _config_echo(cfg: RunConfig) -> dict:
    payload = asdict(cfg)
    del payload["out_dir"], payload["tag"]
    canonical = json.dumps(payload, sort_keys=True)
    return {
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": cfg.seed,
    }


@contextmanager
def _run_dir(cfg: RunConfig, command: str):
    """Yield a staging directory that becomes <out_dir>/<command>/<tag> on success.

    The staging directory sits beside the final one and is renamed into
    place once the body returns; `latest` is rewritten after that, through
    os.replace. A body that raises leaves no new directory and `latest`
    unchanged. A rerun with an existing tag replaces that run directory.
    """
    tag = cfg.tag or datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    command_dir = Path(cfg.out_dir) / command
    created = []  # directories this run creates, deepest first
    parent = command_dir
    while not parent.exists():
        created.append(parent)
        parent = parent.parent
    command_dir.mkdir(parents=True, exist_ok=True)
    staging = command_dir / f".partial-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    try:
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        for directory in created:
            with suppress(OSError):
                directory.rmdir()
        raise
    final = command_dir / tag
    if final.exists():
        old = command_dir / f".replaced-{os.getpid()}"
        os.rename(final, old)
        os.rename(staging, final)
        shutil.rmtree(old)
    else:
        os.rename(staging, final)
    pointer = command_dir / f".latest-{os.getpid()}"
    pointer.write_text(tag + "\n", encoding="utf-8")
    os.replace(pointer, command_dir / "latest")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_required_dataset(cfg: RunConfig):
    if not cfg.dataset:
        raise UsageError("a dataset is required; pass --dataset or set it in the config")
    return load_dataset(cfg.dataset)


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
    dataset = _load_required_dataset(cfg)
    payload = {**_config_echo(cfg), "dataset": dataset.name, "documents": len(dataset)}
    md_lines: list[str] = []
    for task in (Task.PREDICTIVENESS, Task.DIRECTION):
        section, lines = _distribution_section(dataset, task)
        payload[f"task{int(task)}"] = section
        md_lines.extend(lines + [""])
    markdown = "\n".join(md_lines).rstrip() + "\n"
    with _run_dir(cfg, "stats") as run_dir:
        _write_json(run_dir / "stats.json", payload)
        (run_dir / "stats.md").write_text(markdown, encoding="utf-8")
    print(markdown, end="")
    return EXIT_OK


def cmd_cv(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = _load_required_dataset(cfg)
    task = Task(cfg.task)
    payloads = {}
    pooled_rows = {}
    mean_rows = {}
    md_parts = [f"## Cross-validation, task {int(task)}, k={cfg.k}, seed={cfg.seed}", ""]
    for kind in cfg.models:
        report = cross_validate(
            dataset, task, kind, cfg.train,
            k=cfg.k, seed=cfg.seed, clean_cfg=cfg.clean, tfidf_cfg=cfg.tfidf,
        )
        payloads[f"cv_{kind}.json"] = {**_config_echo(cfg), **report.to_dict()}
        pooled_rows[kind] = report_headline(report.pooled)
        mean_rows[kind] = report.fold_means()
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
            _write_json(run_dir / name, payload)
        (run_dir / "report.md").write_text(markdown, encoding="utf-8")
    print(pooled_table)
    return EXIT_OK


def _make_provider(cfg: RunConfig):
    if cfg.provider == "offline":
        return OfflineParaphraser()
    if cfg.provider == "remote":
        if cfg.provider_config is None or not cfg.provider_config.endpoint:
            raise ProviderError(
                "remote provider selected but no endpoint configured; "
                "set provider_config in the config file"
            )
        return RemoteParaphraser(cfg.provider_config)
    raise UsageError(f"unknown provider {cfg.provider!r}; expected offline or remote")


def cmd_balance(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = _load_required_dataset(cfg)
    task = Task(cfg.task)
    provider = _make_provider(cfg)
    plan = compute_plan(distribution(dataset, task))
    max_retries = cfg.provider_config.max_retries if cfg.provider_config else 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = balance(dataset, task, provider, seed=cfg.seed, max_retries=max_retries)
    shortfall = {}
    for warning in caught:
        if isinstance(warning.message, BalanceShortfallWarning):
            shortfall = {str(c): n for c, n in warning.message.shortfall.items()}
            print(f"warning: {warning.message}", file=sys.stderr)
    before = distribution(dataset, task)
    after = distribution(result, task)
    with _run_dir(cfg, "balance") as run_dir:
        save_dataset(result, run_dir / "balanced.jsonl")
        _write_json(run_dir / "balance.json", {
            **_config_echo(cfg),
            "task": int(task),
            "plan": plan.to_dict(),
            "before": {str(c): n for c, n in sorted(before.counts.items())},
            "after": {str(c): n for c, n in sorted(after.counts.items())},
            "documents_before": len(dataset),
            "documents_after": len(result),
            "shortfall": shortfall,
        })
    print(
        f"balanced task {int(task)}: {len(dataset)} -> {len(result)} documents "
        f"(target {plan.target_per_class} per class)"
    )
    return EXIT_OK


def cmd_emotion(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = _load_required_dataset(cfg)
    lexicon_path = Path(cfg.lexicon) if cfg.lexicon else bundled_lexicon_path()
    lexicon = load_lexicon(lexicon_path)
    report = aggregate(dataset, lexicon, threshold=cfg.threshold, clean_cfg=cfg.clean)
    markdown = render_markdown(report) + "\n"
    with _run_dir(cfg, "emotion") as run_dir:
        _write_json(run_dir / "emotion.json", {**_config_echo(cfg), "cells": report.to_dict()})
        (run_dir / "emotion.md").write_text(markdown, encoding="utf-8")
    print(markdown, end="")
    return EXIT_OK


def _read_annotation_file(path: Path) -> dict[str, int]:
    if not path.exists():
        raise DataError(f"annotation file not found: {path}")
    labels: dict[str, int] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path.name}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON ({exc.msg})") from None
            if not isinstance(rec, dict) or "id" not in rec or "label" not in rec:
                raise DataError(f"{where}: expected an object with 'id' and 'label'")
            doc_id = rec["id"]
            if doc_id in labels:
                raise DataError(f"{where}: duplicate id {doc_id!r}")
            if not isinstance(rec["label"], int) or isinstance(rec["label"], bool):
                raise DataError(f"{where}: 'label' must be an integer")
            labels[doc_id] = rec["label"]
    if not labels:
        raise DataError(f"{path.name}: no annotations found")
    return labels


def cmd_kappa(cfg: RunConfig, args: argparse.Namespace) -> int:
    path_a, path_b = Path(args.annotations[0]), Path(args.annotations[1])
    a = _read_annotation_file(path_a)
    b = _read_annotation_file(path_b)
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:5]
        only_b = sorted(set(b) - set(a))[:5]
        raise DataError(
            f"annotator files cover different ids (only in {path_a.name}: {only_a}, "
            f"only in {path_b.name}: {only_b})"
        )
    ids = sorted(a)
    kappa = cohen_kappa([a[i] for i in ids], [b[i] for i in ids])
    with _run_dir(cfg, "kappa") as run_dir:
        _write_json(run_dir / "kappa.json", {
            **_config_echo(cfg),
            "kappa": kappa,
            "n": len(ids),
            "file_a": path_a.name,
            "file_b": path_b.name,
        })
    print(f"{kappa:.4f}")
    return EXIT_OK


_COMMANDS = {
    "stats": cmd_stats,
    "cv": cmd_cv,
    "balance": cmd_balance,
    "emotion": cmd_emotion,
    "kappa": cmd_kappa,
}


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="predstmt",
        description="Predictive-statement classification pipeline for crypto tweets.",
    )
    subparsers = parser.add_subparsers(dest="command")
    descriptions = {
        "stats": "print and save label distribution tables",
        "cv": "stratified cross-validation of the configured models",
        "balance": "upsample minority classes with paraphrases",
        "emotion": "aggregate lexicon emotion percentages per coin and label",
        "kappa": "inter-annotator agreement between two annotation files",
    }
    for name, description in descriptions.items():
        sub = subparsers.add_parser(name, help=description, description=description)
        sub.add_argument("--config", metavar="PATH", help="JSON config file")
        sub.add_argument("--dataset", metavar="PATH", help="dataset JSONL or CSV")
        sub.add_argument("--task", type=int, choices=(1, 2))
        sub.add_argument("--model", action="append", choices=MODEL_KINDS, dest="models",
                         help="model kind; repeatable")
        sub.add_argument("--k", type=int, help="number of folds")
        sub.add_argument("--seed", type=int)
        sub.add_argument("--out", metavar="DIR", dest="out_dir", help="output directory root")
        sub.add_argument("--provider", choices=("offline", "remote"))
        sub.add_argument("--tag", help="run directory name (default: UTC timestamp)")
        sub.add_argument("--lexicon", metavar="PATH", help="emotion lexicon JSON")
        sub.add_argument("--threshold", type=float, help="emotion weight threshold")
        if name == "kappa":
            sub.add_argument("annotations", nargs=2, metavar="FILE",
                             help="two JSONL files of {id, label} records")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


if __name__ == "__main__":
    sys.exit(main())
