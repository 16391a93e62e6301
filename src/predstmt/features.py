"""TF-IDF features over tokenized documents, in one sparse batch format.

The weighting is the smoothed variant

    idf(t) = ln((1 + N) / (1 + df(t))) + 1

with raw term counts by default (optionally 1 + ln(tf)) and L2-normalized
document vectors. Vocabulary indices follow lexicographic term order, so a
fitted model is independent of document order.

count_terms walks the token lists once, into a SparseBatch of raw term
counts; fit_tfidf and transform_many take rows of it (an index array selects
them) and use array operations only. Features travel as one SparseBatch
(CSR arrays) from transform_many to the trainers and predict_many in models.
Indexing a batch by an int gives a one-row batch, which the benchmark's
traced round and the tests iterate over.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .corpus import DataError
from .config import TfidfConfig


class SparseBatch:
    """n sparse rows over dim columns in CSR form, checked once when built.

    Row r has the strictly increasing columns indices[indptr[r]:indptr[r + 1]]
    and the finite values at the same positions of data. terms names the
    columns of a count batch from count_terms and is None otherwise.
    Indexing by an int (and so iteration) gives one-row batches that share
    the arrays; indexing by an index array selects those rows in its order.
    """

    __slots__ = ("indptr", "indices", "data", "dim", "terms")

    def __init__(self, indptr, indices, data, dim: int, terms: tuple | None = None) -> None:
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
        if terms is not None and len(terms) != self.dim:
            raise DataError(f"{len(terms)} terms name {self.dim} columns")
        self.terms = terms

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, rows) -> SparseBatch:
        part = object.__new__(SparseBatch)  # the rows of a checked batch need no check
        part.dim, part.terms = self.dim, self.terms
        if isinstance(rows, (int, np.integer)):
            r = range(len(self))[rows]
            start, end = self.indptr[r], self.indptr[r + 1]
            part.indptr = np.array([0, end - start])
            part.indices, part.data = self.indices[start:end], self.data[start:end]
            return part
        starts = self.indptr[:-1][rows]
        lengths = self.indptr[1:][rows] - starts
        part.indptr = np.concatenate(([0], np.cumsum(lengths)))
        at = np.repeat(starts - part.indptr[:-1], lengths) + np.arange(part.indptr[-1])
        part.indices, part.data = self.indices[at], self.data[at]
        return part

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
        """ln((1 + n_docs) / (1 + df)) + 1 per term, computed once per distinct df."""
        n = self.n_docs
        by_df = {df: math.log((1 + n) / (1 + df)) + 1.0 for df in set(self.doc_freq)}
        return tuple(map(by_df.__getitem__, self.doc_freq))

    @cached_property
    def index(self) -> dict[str, int]:
        """Term -> column lookup, built once per model; callers must not modify it."""
        return {t: i for i, t in enumerate(self.terms)}


def count_terms(docs: Iterable[Sequence[str]]) -> SparseBatch:
    """The raw term counts of tokenized documents, one row each, iterating each once.

    The columns are the documents' distinct terms in sorted order, named by
    the batch's terms; a row holds the counts of its document's terms.
    """
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # term -> id in order of first sight
    sizes, flat = [], array("q")
    for tokens in docs:
        flat.extend(map(ids.__getitem__, tokens))
        sizes.append(len(tokens))
    n, stride = len(sizes), max(len(ids), 1)
    first_seen = list(ids)
    order = sorted(range(len(ids)), key=first_seen.__getitem__)
    column = np.argsort(np.array(order, dtype=np.int64))  # id -> sorted position
    doc_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
    keys, counts = np.unique(doc_of * stride + column[np.frombuffer(flat, dtype=np.int64)],
                             return_counts=True)
    rows, indices = np.divmod(keys, stride)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return SparseBatch(indptr, indices, counts, len(ids), tuple(first_seen[i] for i in order))


def fit_tfidf(rows: SparseBatch, config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Build a TF-IDF model from the count rows of the training documents.

    min_df drops rare terms first; max_features then keeps the terms with
    the highest document frequency, ties broken lexicographically. The
    surviving terms are indexed in sorted order.
    """
    if not len(rows):
        raise DataError("cannot fit TF-IDF on an empty document collection")
    df = np.bincount(rows.indices, minlength=rows.dim)  # a row holds each column once
    kept = np.flatnonzero(df >= config.min_df)  # min_df >= 1, so unseen terms go too
    if config.max_features is not None and kept.size > config.max_features:
        # columns are in lexicographic order, so a stable sort breaks ties by term
        kept = np.sort(kept[np.argsort(-df[kept], kind="stable")[:config.max_features]])
    return TfidfModel(tuple(rows.terms[c] for c in kept.tolist()), tuple(df[kept].tolist()),
                      len(rows), config)


def transform_many(model: TfidfModel, rows: SparseBatch) -> SparseBatch:
    """The batch of L2-normalized TF-IDF rows of documents' count rows.

    Terms outside the model are ignored, so a document without known ones
    is an empty row. The float operations and their order are those of one
    document at a time: the squares of a row are summed left to right.
    """
    n = len(rows)
    # both vocabularies are sorted, so a row's known columns stay increasing
    column = np.fromiter(map(model.index.get, rows.terms, repeat(-1)), dtype=np.int64,
                         count=rows.dim)[rows.indices]
    known = column >= 0  # -1: not in the model
    indices, counts = column[known], rows.data[known]
    row_of = np.repeat(np.arange(n), np.diff(rows.indptr))[known]
    lengths = np.bincount(row_of, minlength=n)
    if model.config.sublinear_tf:  # math.log, as numpy's log may round differently
        distinct, inverse = np.unique(counts, return_inverse=True)
        counts = np.array([1.0 + math.log(c) for c in distinct.tolist()])[inverse]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the check
        values = counts * np.array(model.idf, dtype=np.float64)[indices]
        # bincount adds each row's squares in entry order, starting from 0.0
        norm = np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))
        norm[norm == 0.0] = 1.0
        values /= np.repeat(norm, lengths)
    return SparseBatch(np.concatenate(([0], np.cumsum(lengths))), indices, values,
                       model.dimension)
