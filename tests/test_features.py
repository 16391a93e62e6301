"""TF-IDF fitting and transformation tests."""

import dataclasses
import math
import random

import numpy as np
import pytest

from predstmt import DataError, SparseBatch, TfidfConfig, count_terms, features

TWO_DOCS = [["btc", "up", "up"], ["btc", "down"]]


def fit_tfidf(docs, config=TfidfConfig()):
    """features.fit_tfidf of tokenized documents, counted by count_terms."""
    return features.fit_tfidf(count_terms(docs), config)


def transform_many(model, docs):
    """features.transform_many of tokenized documents, counted by count_terms."""
    return features.transform_many(model, count_terms(docs))


class TestSparseBatch:
    def test_invariants_enforced(self):
        with pytest.raises(DataError, match="length"):
            SparseBatch([0, 2], [0, 1], [1.0], 3)
        with pytest.raises(DataError, match="increasing"):
            SparseBatch([0, 2], [1, 1], [1.0, 2.0], 3)
        with pytest.raises(DataError, match="out of range"):
            SparseBatch([0, 1], [3], [1.0], 3)
        with pytest.raises(DataError, match="finite"):
            SparseBatch([0, 1], [0], [float("nan")], 3)

    @pytest.mark.parametrize("indptr, indices, data, dim, message", [
        ([0, 2, 2], [2, 1], [1.0, 1.0], 3, "increasing"),  # falls within a row
        ([0, 1, 2], [0, -1], [1.0, 1.0], 3, "out of range"),
        ([0, 1], [0], [float("inf")], 3, "finite"),
        ([1, 1], [0], [1.0], 3, "indptr"),  # does not start at 0
        ([0, 2, 1], [0, 1], [1.0, 1.0], 3, "indptr"),  # falls
        ([0, 1], [0, 1], [1.0, 1.0], 3, "indptr"),  # ends before the last entry
        ([], [], [], 3, "indptr"),
        ([0, 1], [0.5], [1.0], 3, "integers"),
        ([0, 1], [True], [1.0], 3, "integers"),
        ([0, 1], [0], ["1.0"], 3, "numbers"),
        ([0, 1], [0], [10 ** 400], 3, "numbers"),
        ([0, 1], [[0]], [[1.0]], 3, "integers"),  # not flat
        ([0, 1], [[0], [0, 1]], [1.0], 3, "flat"),  # ragged
        ([0, 1], [0], [1.0], -1, "dimension"),
        ([0, 1], [0], [1.0], True, "dimension"),
    ])
    def test_malformed_arrays_are_data_errors(self, indptr, indices, data, dim, message):
        with pytest.raises(DataError, match=message):
            SparseBatch(indptr, indices, data, dim)

    def test_rows_may_restart_low_and_be_empty(self):
        batch = SparseBatch([0, 0, 2, 2, 4, 4], [1, 2, 0, 1], [1.0, 2.0, 3.0, 4.0], 3)
        assert len(batch) == 5
        rows = [(row.indices.tolist(), row.data.tolist(), row.dim) for row in batch]
        assert rows == [([], [], 3), ([1, 2], [1.0, 2.0], 3), ([], [], 3),
                        ([0, 1], [3.0, 4.0], 3), ([], [], 3)]
        assert batch[-2].indices.tolist() == [0, 1] and len(batch[-2]) == 1
        with pytest.raises(IndexError):
            batch[5]

    def test_empty_batch(self):
        batch = SparseBatch([0], [], [], 4)
        assert len(batch) == 0 and list(batch) == []

    def test_index_array_selects_rows_in_its_order(self):
        batch = SparseBatch([0, 0, 2, 2, 4, 4], [1, 2, 0, 1], [1.0, 2.0, 3.0, 4.0], 3)
        part = batch[np.array([3, 1, 3, 0, -5])]
        assert part.indptr.tolist() == [0, 2, 4, 6, 6, 6] and part.dim == 3
        assert part.indices.tolist() == [0, 1, 1, 2, 0, 1]
        assert part.data.tolist() == [3.0, 4.0, 1.0, 2.0, 3.0, 4.0]
        assert len(batch[[]]) == 0
        with pytest.raises(IndexError):
            batch[np.array([5])]


class TestCountTerms:
    def test_counts_over_the_sorted_vocabulary(self):
        batch = count_terms(iter([["up", "btc", "up"], [], ["down", "btc"]]))
        assert batch.terms == ("btc", "down", "up") and batch.dim == 3
        assert batch.indptr.tolist() == [0, 2, 2, 4]
        assert batch.indices.tolist() == [0, 2, 0, 1]
        assert batch.data.tolist() == [1.0, 2.0, 1.0, 1.0]
        assert batch[np.array([2, 0])].terms == batch[1].terms == batch.terms

    def test_no_documents_give_no_columns(self):
        batch = count_terms([])
        assert len(batch) == 0 and batch.dim == 0 and batch.terms == ()

    def test_terms_must_name_every_column(self):
        with pytest.raises(DataError, match="terms"):
            SparseBatch([0], [], [], 2, ("a",))

    def test_scores_equal_dense_product(self):
        rng = np.random.default_rng(3)
        batch = SparseBatch([0, 2, 2, 5], [0, 3, 1, 2, 3], rng.normal(size=5), 4)
        dense = np.zeros((3, 4))
        dense[[0, 0, 2, 2, 2], batch.indices] = batch.data
        weights, bias = rng.normal(size=(2, 4)), rng.normal(size=2)
        np.testing.assert_allclose(batch.scores(weights, bias), dense @ weights.T + bias,
                                   rtol=1e-12)


class TestFit:
    def test_idf_values_on_two_doc_corpus(self):
        model = fit_tfidf(TWO_DOCS)
        assert model.terms == ("btc", "down", "up")
        by_term = dict(zip(model.terms, model.idf))
        # idf(t) = ln((1+N)/(1+df)) + 1 with N=2
        assert by_term["btc"] == pytest.approx(1.0, abs=1e-12)
        expected_rare = math.log(3 / 2) + 1
        assert by_term["up"] == pytest.approx(expected_rare, abs=1e-12)
        assert by_term["down"] == pytest.approx(expected_rare, abs=1e-12)
        assert model.doc_freq == (2, 1, 1)
        assert model.n_docs == 2

    def test_single_document_idf_is_one(self):
        model = fit_tfidf([["solo", "doc", "solo"]])
        assert all(w == pytest.approx(1.0, abs=1e-12) for w in model.idf)

    def test_vocabulary_sorted_and_bijective(self):
        model = fit_tfidf([["zeta", "alpha", "mid"], ["alpha", "extra"]])
        assert model.terms == tuple(sorted(model.terms))
        index = model.index
        assert sorted(index.values()) == list(range(len(model.terms)))

    def test_order_independence(self):
        docs = [["a", "b"], ["b", "c"], ["c", "d", "a"]]
        m1 = fit_tfidf(docs)
        m2 = fit_tfidf(list(reversed(docs)))
        assert m1.terms == m2.terms
        assert m1.idf == m2.idf
        assert m1.doc_freq == m2.doc_freq

    def test_min_df_filters(self):
        model = fit_tfidf(TWO_DOCS, TfidfConfig(min_df=2))
        assert model.terms == ("btc",)

    def test_max_features_tie_breaks_lexicographically(self):
        # all terms have df=1: highest-df ties resolve to lexicographic order
        model = fit_tfidf([["delta"], ["beta"], ["alpha"]], TfidfConfig(max_features=2))
        assert model.terms == ("alpha", "beta")

    def test_max_features_prefers_high_df(self):
        docs = [["common", "rare1"], ["common", "rare2"], ["common"]]
        model = fit_tfidf(docs, TfidfConfig(max_features=1))
        assert model.terms == ("common",)

    @pytest.mark.parametrize("min_df, max_features", [
        (1, None), (2, None), (4, None), (1, 1), (1, 7), (2, 12), (3, 5), (1, 10_000),
    ])
    def test_vocabulary_follows_the_selection_rule(self, min_df, max_features):
        # a Zipf-like corpus, so document frequencies tie often
        rng = random.Random(17 * min_df + (max_features or 0))
        vocab = [f"w{i:02d}" for i in range(50)]
        weights = [1.0 / (r + 1) for r in range(len(vocab))]
        docs = [rng.choices(vocab, weights, k=rng.randint(0, 9)) for _ in range(60)]
        df = {}
        for tokens in docs:
            for term in set(tokens):
                df[term] = df.get(term, 0) + 1
        kept = sorted((term for term in df if df[term] >= min_df), key=lambda t: (-df[t], t))
        kept = sorted(kept[:max_features])
        model = fit_tfidf(docs, TfidfConfig(min_df=min_df, max_features=max_features))
        assert model.terms == tuple(kept)
        assert model.doc_freq == tuple(df[t] for t in kept)
        assert model.n_docs == len(docs)
        assert fit_tfidf(docs[::-1], model.config) == model

    def test_empty_collection_rejected(self):
        with pytest.raises(DataError, match="empty"):
            fit_tfidf([])

    def test_config_validation(self):
        with pytest.raises(DataError):
            TfidfConfig(min_df=0)
        with pytest.raises(DataError):
            TfidfConfig(max_features=0)


class TestTransform:
    def test_hand_computed_vector(self):
        model = fit_tfidf(TWO_DOCS)
        vec = transform_many(model, [["btc", "up", "up"]])
        by_term = {model.terms[i]: v for i, v in zip(vec.indices, vec.data)}
        idf_up = math.log(3 / 2) + 1
        norm = math.hypot(1.0, 2 * idf_up)
        assert by_term["btc"] == pytest.approx(1.0 / norm, abs=1e-9)
        assert by_term["up"] == pytest.approx(2 * idf_up / norm, abs=1e-9)
        # frozen reference values
        assert by_term["btc"] == pytest.approx(0.33518, abs=1e-5)
        assert by_term["up"] == pytest.approx(0.94215, abs=1e-5)

    def test_oov_ignored(self):
        model = fit_tfidf(TWO_DOCS)
        vec = transform_many(model, [["btc", "unknownword"]])
        assert [model.terms[i] for i in vec.indices] == ["btc"]

    def test_all_oov_gives_zero_vector(self):
        model = fit_tfidf(TWO_DOCS)
        vec = transform_many(model, [["nothing", "matches"]])
        assert vec.indices.size == 0 and np.linalg.norm(vec.data) == 0.0
        assert vec.dim == model.dimension

    def test_empty_tokens_give_zero_vector(self):
        model = fit_tfidf(TWO_DOCS)
        assert transform_many(model, [[]]).indices.size == 0

    def test_unit_norm_property(self):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(30)]
        docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 15))] for _ in range(40)]
        model = fit_tfidf(docs)
        for tokens in docs:
            norm = np.linalg.norm(transform_many(model, [tokens]).data)
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_sublinear_tf(self):
        model = fit_tfidf(TWO_DOCS, TfidfConfig(sublinear_tf=True))
        vec = transform_many(model, [["up", "up", "btc"]])
        by_term = {model.terms[i]: v for i, v in zip(vec.indices, vec.data)}
        idf_up = math.log(3 / 2) + 1
        raw = {"btc": 1.0, "up": (1 + math.log(2)) * idf_up}
        norm = math.hypot(raw["btc"], raw["up"])
        assert by_term["up"] == pytest.approx(raw["up"] / norm, abs=1e-12)

    def test_indices_strictly_increasing(self):
        model = fit_tfidf(TWO_DOCS)
        vec = transform_many(model, [["up", "btc", "down", "btc"]])
        assert list(vec.indices) == sorted(vec.indices)
        assert len(vec) == 1

    def test_idf_is_derived_from_the_counts(self):
        model = fit_tfidf([["a", "b"], ["a"], ["a", "c"], ["c"]])
        assert model.doc_freq == (3, 1, 2) and model.n_docs == 4
        assert model.idf == tuple(math.log(5 / (1 + df)) + 1.0 for df in model.doc_freq)
        assert model.idf is model.idf  # computed once per model
        assert "idf" not in {f.name for f in dataclasses.fields(model)}


def per_document_transform(model, tokens):
    """transform as first written, one document at a time: (indices, values) tuples."""
    index = model.index
    counts = {}
    for term in tokens:
        i = index.get(term)
        if i is not None:
            counts[i] = counts.get(i, 0) + 1
    if not counts:
        return (), ()
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
    return tuple(indices), tuple(values)


class TestTransformMany:
    """transform_many must equal the per-document transform, field for field and bit for bit."""

    def assert_equals_per_document(self, model, docs):
        batch = transform_many(model, docs)
        assert len(batch) == len(docs) and batch.dim == model.dimension
        for row, tokens in zip(batch, docs):
            indices, values = per_document_transform(model, tokens)
            assert tuple(row.indices.tolist()) == indices
            assert [v.hex() for v in row.data.tolist()] == [v.hex() for v in values]
        return batch

    @pytest.mark.parametrize("sublinear", [False, True])
    def test_equals_per_document_transform(self, sublinear):
        rng = random.Random(29)
        vocab = [f"t{i:03d}" for i in range(60)]
        train = [[rng.choice(vocab[:40]) for _ in range(rng.randint(1, 12))] for _ in range(50)]
        model = fit_tfidf(train, TfidfConfig(min_df=2, sublinear_tf=sublinear))
        docs = [[rng.choice(vocab) for _ in range(rng.randint(0, 15))] for _ in range(80)]
        docs += [
            [],  # empty document
            ["t055", "unseen", "t059"],  # only unknown tokens
            ["t001"] * 7 + ["t002", "t001"],  # repeated tokens
        ]
        batch = self.assert_equals_per_document(model, docs)
        assert batch[-3].indices.size == 0 and batch[-2].indices.size == 0
        assert len(batch[-1].indices) == 2

    @pytest.mark.parametrize("sublinear", [False, True])
    def test_equals_per_document_transform_on_long_zipfian_rows(self, sublinear):
        # rows of up to 120 distinct terms, where the order of the norm's sum shows
        rng = random.Random(71)
        vocab = [f"w{i}" for i in range(400)]
        weights = [1.0 / (r + 1) for r in range(len(vocab))]
        docs = [rng.choices(vocab, weights, k=rng.randint(0, 200)) for _ in range(300)]
        model = fit_tfidf(docs[:200], TfidfConfig(sublinear_tf=sublinear))
        self.assert_equals_per_document(model, docs)

    @pytest.mark.parametrize("sublinear, min_df", [(False, 1), (True, 1), (False, 3),
                                                     (True, 3)])
    def test_each_document_alone_gives_its_batch_row(self, sublinear, min_df):
        rng = random.Random(53 + min_df)
        vocab = [f"v{i}" for i in range(80)]
        docs = [[rng.choice(vocab) for _ in range(rng.randint(0, 25))] for _ in range(70)]
        model = fit_tfidf(docs[:50], TfidfConfig(min_df=min_df, sublinear_tf=sublinear))
        batch = transform_many(model, docs)
        for row, tokens in zip(batch, docs):
            alone = transform_many(model, [tokens])
            assert len(alone) == 1 and alone.dim == batch.dim
            assert alone.indices.tolist() == row.indices.tolist()
            assert [v.hex() for v in alone.data.tolist()] == [v.hex() for v in row.data.tolist()]

    def test_no_documents_give_an_empty_batch(self):
        batch = transform_many(fit_tfidf(TWO_DOCS), [])
        assert len(batch) == 0 and batch.dim == 3

    def test_index_built_once_per_model(self):
        model = fit_tfidf(TWO_DOCS)
        assert model.index is model.index
        assert model.index == {"btc": 0, "down": 1, "up": 2}
