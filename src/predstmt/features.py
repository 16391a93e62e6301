"""TF-IDF features over tokenized documents, in one sparse batch format.

The weighting is the smoothed variant

    idf(t) = ln((1 + N) / (1 + df(t))) + 1

with raw term counts by default (optionally 1 + ln(tf)) and L2-normalized
document vectors. Vocabulary indices follow lexicographic term order, so a
fitted model is independent of document order.

Features travel as one SparseBatch (CSR arrays) from transform_many to
the trainers and predict_many in models. Indexing a batch gives a one-row
batch, which the benchmark's traced round and the tests iterate over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .corpus import DataError
from .config import TfidfConfig


class SparseBatch:
    """n sparse rows over dim columns in CSR form, checked once when built.

    Row r has the strictly increasing columns indices[indptr[r]:indptr[r + 1]]
    and the finite values at the same positions of data. Indexing (and so
    iteration) gives one-row batches that share the arrays.
    """

    __slots__ = ("indptr", "indices", "data", "dim")

    def __init__(self, indptr, indices, data, dim: int) -> None:
        try:
            arrays = [np.asarray(a) for a in (indptr, indices, data)]
        except ValueError:  # ragged
            raise DataError("indptr, indices and data must be flat arrays") from None
        if any(a.ndim != 1 or a.size and a.dtype.kind not in kinds
               for a, kinds in zip(arrays, ("iu", "iu", "iuf"))):
            raise DataError("indptr and indices must hold integers and data numbers")
        if type(dim) is bool or not isinstance(dim, (int, np.integer)) or dim < 0:
            raise DataError(f"dimension must be a non-negative integer, got {dim!r}")
        self.indptr, self.indices = (a.astype(np.int64, copy=False) for a in arrays[:2])
        self.data, self.dim = arrays[2].astype(np.float64, copy=False), int(dim)
        nnz = self.indices.size
        if self.data.size != nnz:
            raise DataError("indices and values must have equal length")
        if self.indptr.size == 0 or self.indptr[0] != 0 or self.indptr[-1] != nnz \
                or (np.diff(self.indptr) < 0).any():
            raise DataError(f"indptr must rise from 0 to the {nnz} entries")
        rising = np.diff(self.indices) > 0
        starts = self.indptr[1:-1]
        rising[starts[(starts > 0) & (starts < nnz)] - 1] = True  # a row may start lower
        if not rising.all():
            raise DataError("indices must be strictly increasing within a row")
        outside = self.indices[(self.indices < 0) | (self.indices >= self.dim)]
        if outside.size:
            raise DataError(f"index {outside[0]} out of range for dimension {self.dim}")
        if not np.isfinite(self.data).all():
            raise DataError("vector values must be finite")

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, row: int) -> SparseBatch:
        r = range(len(self))[row]
        start, end = self.indptr[r], self.indptr[r + 1]
        one = object.__new__(SparseBatch)  # the rows of a checked batch need no check
        one.indptr, one.indices, one.data, one.dim = (
            np.array([0, end - start]), self.indices[start:end], self.data[start:end], self.dim)
        return one

    def scores(self, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Per-row class scores: X @ weights.T + bias, shape (n, k)."""
        out = np.tile(bias, (len(self), 1))
        # a row gather from the transposed copy beats a fancy index into weights.T
        contrib = np.ascontiguousarray(weights.T, dtype=np.float64).take(self.indices, axis=0)
        contrib *= self.data[:, None]
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        out[nonempty] += np.add.reduceat(contrib, starts[nonempty], axis=0)
        return out

    def add_outer(self, acc: np.ndarray, row_weights: np.ndarray) -> None:
        """acc[c, j] += sum_i row_weights[i, c] * X[i, j], in place."""
        # one flat np.add.at per class: each acc[c, j] gets the same sums in the same order
        # as one 2-D np.add.at on acc.T, far faster
        row_lengths = np.diff(self.indptr)
        for c in range(acc.shape[0]):
            np.add.at(acc[c], self.indices, self.data * np.repeat(row_weights[:, c], row_lengths))


@dataclass(frozen=True)
class TfidfModel:
    """Fitted vocabulary with per-term document frequencies; the idf weights follow from them."""

    terms: tuple[str, ...]
    doc_freq: tuple[int, ...]
    n_docs: int
    config: TfidfConfig

    @property
    def dimension(self) -> int:
        return len(self.terms)

    @cached_property
    def idf(self) -> tuple[float, ...]:
        """ln((1 + n_docs) / (1 + df)) + 1 per term, computed once per model."""
        n = self.n_docs
        return tuple(math.log((1 + n) / (1 + df)) + 1.0 for df in self.doc_freq)

    @cached_property
    def index(self) -> dict[str, int]:
        """Term -> column lookup, built once per model; callers must not modify it."""
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
    return TfidfModel(tuple(terms), tuple(df[t] for t in terms), len(docs), config)


def transform_many(model: TfidfModel, docs: Sequence[Sequence[str]]) -> SparseBatch:
    """The batch of L2-normalized TF-IDF rows of tokenized documents.

    Out-of-vocabulary tokens are ignored, so a document without known ones
    is an empty row. The float operations and their order are those of one
    document at a time: the squares of a row are summed left to right.
    """
    n, stride = len(docs), max(model.dimension, 1)
    sizes = np.fromiter(map(len, docs), dtype=np.int64, count=n)
    ids = np.fromiter(map(model.index.get, chain.from_iterable(docs), repeat(-1)),
                      dtype=np.int64, count=int(sizes.sum()))
    known = ids >= 0  # -1: out of vocabulary
    doc_of = np.repeat(np.arange(n, dtype=np.int64), sizes)[known]
    keys, counts = np.unique(doc_of * stride + ids[known], return_counts=True)
    rows, indices = np.divmod(keys, stride)
    lengths = np.bincount(rows, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    if model.config.sublinear_tf:  # math.log, as numpy's log may round differently
        distinct, inverse = np.unique(counts, return_inverse=True)
        counts = np.array([1.0 + math.log(c) for c in distinct.tolist()])[inverse]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the check
        values = counts * np.array(model.idf, dtype=np.float64)[indices]
        # bincount adds each row's squares in entry order, starting from 0.0
        norm = np.sqrt(np.bincount(rows, weights=values * values, minlength=n))
        norm[norm == 0.0] = 1.0
        values /= np.repeat(norm, lengths)
    return SparseBatch(indptr, indices, values, model.dimension)
