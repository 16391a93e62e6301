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
import sys
import warnings
from dataclasses import dataclass, field
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
from .preprocess import DEFAULT_CLEAN, CleanConfig

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


_CONFIG_KEYS = {
    "dataset", "task", "models", "k", "seed", "out_dir", "provider", "tag",
    "lexicon", "threshold", "train", "clean", "tfidf", "provider_config",
}


def _config_from_file(path: Path) -> RunConfig:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must contain a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys in {path}: {sorted(unknown)}")
    try:
        provider_config = (
            ProviderConfig.from_dict(raw["provider_config"])
            if raw.get("provider_config") else None
        )
    except TypeError as exc:
        raise UsageError(f"incomplete provider_config in {path}: {exc}") from None
    try:
        return RunConfig(
            dataset=raw.get("dataset"),
            task=raw.get("task", 1),
            models=list(raw.get("models", MODEL_KINDS)),
            k=raw.get("k", 5),
            seed=raw.get("seed", 42),
            out_dir=raw.get("out_dir", "out"),
            provider=raw.get("provider", "offline"),
            tag=raw.get("tag"),
            lexicon=raw.get("lexicon"),
            threshold=raw.get("threshold", 0.0),
            train=TrainConfig.from_dict(raw.get("train", {})),
            clean=CleanConfig.from_dict(raw.get("clean", {})),
            tfidf=TfidfConfig.from_dict(raw.get("tfidf", {})),
            provider_config=provider_config,
        )
    except (DataError, ValueError, TypeError) as exc:
        raise UsageError(f"invalid config file {path}: {exc}") from None


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = _config_from_file(Path(args.config)) if args.config else RunConfig()
    if args.dataset is not None:
        cfg.dataset = args.dataset
    if args.task is not None:
        cfg.task = args.task
    if args.models:
        cfg.models = list(args.models)
    if args.k is not None:
        cfg.k = args.k
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.provider is not None:
        cfg.provider = args.provider
    if args.tag is not None:
        cfg.tag = args.tag
    if args.lexicon is not None:
        cfg.lexicon = args.lexicon
    if args.threshold is not None:
        cfg.threshold = args.threshold
    return cfg


def _check_config(cfg: RunConfig) -> None:
    """Reject resolved settings of the wrong type or out of range as usage errors."""
    if type(cfg.task) is not int or cfg.task not in (1, 2):
        raise UsageError(f"task must be 1 or 2, got {cfg.task!r}")
    if type(cfg.k) is not int or cfg.k < 2:
        raise UsageError(f"k must be an integer >= 2, got {cfg.k!r}")
    if type(cfg.seed) is not int:
        raise UsageError(f"seed must be an integer, got {cfg.seed!r}")
    if type(cfg.threshold) not in (int, float):
        raise UsageError(f"threshold must be a number, got {cfg.threshold!r}")
    for name, optional in (("out_dir", False), ("provider", False),
                           ("dataset", True), ("tag", True), ("lexicon", True)):
        value = getattr(cfg, name)
        if not (isinstance(value, str) or optional and value is None):
            raise UsageError(f"{name} must be a string, got {value!r}")
    if not cfg.models:
        raise UsageError(f"models must name at least one of {', '.join(MODEL_KINDS)}")
    for kind in cfg.models:
        if kind not in MODEL_KINDS:
            raise UsageError(
                f"unknown model kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}")


def _config_payload(cfg: RunConfig) -> dict:
    return {
        "dataset": cfg.dataset,
        "task": cfg.task,
        "models": list(cfg.models),
        "k": cfg.k,
        "seed": cfg.seed,
        "provider": cfg.provider,
        "lexicon": cfg.lexicon,
        "threshold": cfg.threshold,
        "train": cfg.train.to_dict(),
        "clean": cfg.clean.to_dict(),
        "tfidf": cfg.tfidf.to_dict(),
        "provider_config": cfg.provider_config.to_dict() if cfg.provider_config else None,
    }


def _config_echo(cfg: RunConfig) -> dict:
    canonical = json.dumps(_config_payload(cfg), sort_keys=True)
    return {
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": cfg.seed,
    }


def _prepare_out(cfg: RunConfig, command: str) -> Path:
    tag = cfg.tag or datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    command_dir = Path(cfg.out_dir) / command
    run_dir = command_dir / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    (command_dir / "latest").write_text(tag + "\n", encoding="utf-8")
    return run_dir


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
    run_dir = _prepare_out(cfg, "stats")
    payload = {**_config_echo(cfg), "dataset": dataset.name, "documents": len(dataset)}
    md_lines: list[str] = []
    for task in (Task.PREDICTIVENESS, Task.DIRECTION):
        section, lines = _distribution_section(dataset, task)
        payload[f"task{int(task)}"] = section
        md_lines.extend(lines + [""])
    markdown = "\n".join(md_lines).rstrip() + "\n"
    _write_json(run_dir / "stats.json", payload)
    (run_dir / "stats.md").write_text(markdown, encoding="utf-8")
    print(markdown, end="")
    return EXIT_OK


def cmd_cv(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = _load_required_dataset(cfg)
    run_dir = _prepare_out(cfg, "cv")
    task = Task(cfg.task)
    pooled_rows = {}
    mean_rows = {}
    md_parts = [f"## Cross-validation, task {int(task)}, k={cfg.k}, seed={cfg.seed}", ""]
    for kind in cfg.models:
        report = cross_validate(
            dataset, task, kind, cfg.train,
            k=cfg.k, seed=cfg.seed, clean_cfg=cfg.clean, tfidf_cfg=cfg.tfidf,
        )
        _write_json(run_dir / f"cv_{kind}.json", {**_config_echo(cfg), **report.to_dict()})
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
    run_dir = _prepare_out(cfg, "balance")
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
    run_dir = _prepare_out(cfg, "emotion")
    lexicon_path = Path(cfg.lexicon) if cfg.lexicon else bundled_lexicon_path()
    lexicon = load_lexicon(lexicon_path)
    report = aggregate(dataset, lexicon, threshold=cfg.threshold, clean_cfg=cfg.clean)
    markdown = render_markdown(report) + "\n"
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
    run_dir = _prepare_out(cfg, "kappa")
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
        sub.add_argument("--out", metavar="DIR", help="output directory root")
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
        _check_config(cfg)
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
