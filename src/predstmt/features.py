"""TF-IDF features over tokenized documents.

The weighting is the smoothed variant

    idf(t) = ln((1 + N) / (1 + df(t))) + 1

with raw term counts by default (optionally 1 + ln(tf)) and L2-normalized
document vectors. Vocabulary indices follow lexicographic term order, so a
fitted model is independent of document order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import DataError, from_dict, parse_json, require_field


@dataclass(frozen=True)
class TfidfConfig:
    min_df: int = 1
    max_features: int | None = None
    sublinear_tf: bool = False

    def __post_init__(self) -> None:
        if self.min_df < 1:
            raise DataError(f"min_df must be >= 1, got {self.min_df}")
        if self.max_features is not None and self.max_features < 1:
            raise DataError(f"max_features must be >= 1, got {self.max_features}")


@dataclass(frozen=True)
class SparseVector:
    """L2-normalized sparse feature vector with strictly increasing indices."""

    indices: tuple[int, ...]
    values: tuple[float, ...]
    dimension: int

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise DataError("indices and values must have equal length")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise DataError("indices must be strictly increasing")
            prev = i
        if prev >= self.dimension:
            raise DataError(f"index {prev} out of range for dimension {self.dimension}")
        for v in self.values:
            if not math.isfinite(v):
                raise DataError("vector values must be finite")

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dimension)
        for i, v in zip(self.indices, self.values):
            out[i] = v
        return out


@dataclass(frozen=True)
class TfidfModel:
    """Fitted vocabulary with per-term document frequencies and idf weights."""

    terms: tuple[str, ...]
    doc_freq: tuple[int, ...]
    idf: tuple[float, ...]
    n_docs: int
    config: TfidfConfig

    @property
    def dimension(self) -> int:
        return len(self.terms)

    @cached_property
    def index(self) -> dict[str, int]:
        """Term -> column lookup, built on first use and kept with the model.

        Every caller gets the same dict, so it must not be modified.
        """
        return {t: i for i, t in enumerate(self.terms)}


def fit_tfidf(docs: Sequence[Sequence[str]], config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Build a TF-IDF model from tokenized documents.

    min_df drops rare terms first; max_features then keeps the terms with
    the highest document frequency, ties broken lexicographically. The
    surviving terms are indexed in sorted order.
    """
    if not docs:
        raise DataError("cannot fit TF-IDF on an empty document collection")
    df: dict[str, int] = {}
    for tokens in docs:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    terms = [t for t, c in df.items() if c >= config.min_df]
    if config.max_features is not None and len(terms) > config.max_features:
        terms.sort(key=lambda t: (-df[t], t))
        terms = terms[: config.max_features]
    terms.sort()
    n = len(docs)
    idf = tuple(math.log((1 + n) / (1 + df[t])) + 1.0 for t in terms)
    return TfidfModel(
        terms=tuple(terms),
        doc_freq=tuple(df[t] for t in terms),
        idf=idf,
        n_docs=n,
        config=config,
    )


def transform(model: TfidfModel, tokens: Sequence[str]) -> SparseVector:
    """Map one tokenized document to an L2-normalized TF-IDF vector.

    Out-of-vocabulary tokens are ignored; a document with no known tokens
    maps to the zero vector.
    """
    index = model.index
    counts: dict[int, int] = {}
    for term in tokens:
        i = index.get(term)
        if i is not None:
            counts[i] = counts.get(i, 0) + 1
    if not counts:
        return SparseVector(indices=(), values=(), dimension=model.dimension)
    indices = sorted(counts)
    values = []
    for i in indices:
        tf = float(counts[i])
        if model.config.sublinear_tf:
            tf = 1.0 + math.log(tf)
        values.append(tf * model.idf[i])
    norm = math.sqrt(sum(v * v for v in values))
    if norm > 0:
        values = [v / norm for v in values]
    return SparseVector(indices=tuple(indices), values=tuple(values), dimension=model.dimension)


def transform_many(model: TfidfModel, docs: Sequence[Sequence[str]]) -> list[SparseVector]:
    return [transform(model, tokens) for tokens in docs]


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "kind": "tfidf",
        "config": asdict(model.config),
        "n_docs": model.n_docs,
        "terms": list(model.terms),
        "doc_freq": list(model.doc_freq),
        "idf": list(model.idf),
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_tfidf(path: str | Path) -> TfidfModel:
    """Read a model written by save_tfidf; any schema violation raises DataError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot load TF-IDF model from {path}: {exc}") from None
    payload = parse_json(text, lambda reason: DataError(
        f"cannot load TF-IDF model from {path}: {reason}"))
    if not isinstance(payload, dict) or payload.get("kind") != "tfidf":
        raise DataError(f"{path} does not contain a TF-IDF model")
    terms = require_field(payload, "terms", list, path)
    doc_freq = require_field(payload, "doc_freq", list, path)
    idf = require_field(payload, "idf", list, path)
    n_docs = require_field(payload, "n_docs", int, path)
    config = require_field(payload, "config", dict, path)
    if not len(terms) == len(doc_freq) == len(idf):
        raise DataError(f"{path}: terms, doc_freq and idf must have equal length")
    if not all(isinstance(t, str) for t in terms) or terms != sorted(set(terms)):
        raise DataError(f"{path}: terms must be distinct strings in sorted order")
    if n_docs < 1:
        raise DataError(f"{path}: n_docs must be >= 1, got {n_docs}")
    if not all(type(c) is int and 1 <= c <= n_docs for c in doc_freq):
        raise DataError(f"{path}: doc_freq entries must be integers in [1, n_docs]")
    if not all(type(v) in (int, float) and math.isfinite(v) for v in idf):
        raise DataError(f"{path}: idf entries must be finite numbers")
    try:
        tfidf_config = from_dict(TfidfConfig, config, "config")
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return TfidfModel(
        terms=tuple(terms),
        doc_freq=tuple(doc_freq),
        idf=tuple(idf),
        n_docs=n_docs,
        config=tfidf_config,
    )
