"""TF-IDF fitting and transformation tests."""

import json
import math
import random

import numpy as np
import pytest

from predstmt import (
    DataError,
    SparseVector,
    TfidfConfig,
    fit_tfidf,
    load_tfidf,
    save_tfidf,
    transform,
    transform_many,
)

TWO_DOCS = [["btc", "up", "up"], ["btc", "down"]]


class TestSparseVector:
    def test_invariants_enforced(self):
        with pytest.raises(DataError, match="length"):
            SparseVector(indices=(0, 1), values=(1.0,), dimension=3)
        with pytest.raises(DataError, match="increasing"):
            SparseVector(indices=(1, 1), values=(1.0, 2.0), dimension=3)
        with pytest.raises(DataError, match="out of range"):
            SparseVector(indices=(3,), values=(1.0,), dimension=3)
        with pytest.raises(DataError, match="finite"):
            SparseVector(indices=(0,), values=(float("nan"),), dimension=3)

    def test_dense_round_trip(self):
        v = SparseVector(indices=(0, 2), values=(0.5, 1.5), dimension=4)
        assert v.to_dense().tolist() == [0.5, 0.0, 1.5, 0.0]


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
        vec = transform(model, ["btc", "up", "up"])
        by_term = {model.terms[i]: v for i, v in zip(vec.indices, vec.values)}
        idf_up = math.log(3 / 2) + 1
        norm = math.hypot(1.0, 2 * idf_up)
        assert by_term["btc"] == pytest.approx(1.0 / norm, abs=1e-9)
        assert by_term["up"] == pytest.approx(2 * idf_up / norm, abs=1e-9)
        # frozen reference values
        assert by_term["btc"] == pytest.approx(0.33518, abs=1e-5)
        assert by_term["up"] == pytest.approx(0.94215, abs=1e-5)

    def test_oov_ignored(self):
        model = fit_tfidf(TWO_DOCS)
        vec = transform(model, ["btc", "unknownword"])
        assert [model.terms[i] for i in vec.indices] == ["btc"]

    def test_all_oov_gives_zero_vector(self):
        model = fit_tfidf(TWO_DOCS)
        vec = transform(model, ["nothing", "matches"])
        assert vec.indices == () and vec.norm() == 0.0
        assert vec.dimension == model.dimension

    def test_empty_tokens_give_zero_vector(self):
        model = fit_tfidf(TWO_DOCS)
        assert transform(model, []).indices == ()

    def test_unit_norm_property(self):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(30)]
        docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 15))] for _ in range(40)]
        model = fit_tfidf(docs)
        for tokens in docs:
            assert transform(model, tokens).norm() == pytest.approx(1.0, abs=1e-9)

    def test_sublinear_tf(self):
        model = fit_tfidf(TWO_DOCS, TfidfConfig(sublinear_tf=True))
        vec = transform(model, ["up", "up", "btc"])
        by_term = {model.terms[i]: v for i, v in zip(vec.indices, vec.values)}
        idf_up = math.log(3 / 2) + 1
        raw = {"btc": 1.0, "up": (1 + math.log(2)) * idf_up}
        norm = math.hypot(raw["btc"], raw["up"])
        assert by_term["up"] == pytest.approx(raw["up"] / norm, abs=1e-12)

    def test_indices_strictly_increasing(self):
        model = fit_tfidf(TWO_DOCS)
        vec = transform(model, ["up", "btc", "down", "btc"])
        assert list(vec.indices) == sorted(vec.indices)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        model = fit_tfidf(TWO_DOCS, TfidfConfig(min_df=1, max_features=10, sublinear_tf=True))
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        again = load_tfidf(path)
        assert again.terms == model.terms
        assert again.idf == model.idf
        assert again.doc_freq == model.doc_freq
        assert again.n_docs == model.n_docs
        assert again.config == model.config

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something"}')
        with pytest.raises(DataError, match="TF-IDF"):
            load_tfidf(path)

    @pytest.mark.parametrize("change", [
        {"terms": None},  # missing key
        {"idf": None},
        {"config": None},
        {"terms": "btc"},  # ill-typed
        {"n_docs": "2"},
        {"n_docs": True},
        {"config": []},
        {"config": {"min_df": "3"}},
        {"doc_freq": [2, 1, "1"]},
        {"doc_freq": [2, 1, 3]},  # above n_docs
        {"idf": [1.0, 1.4]},  # length mismatch
        {"idf": [1.0, None, 1.4]},
        {"terms": ["up", "btc", "down"]},  # not sorted
        {"terms": ["btc", "btc", "up"]},
        {"config": {"min_dff": 3}},  # unknown config key
        {"config": {"sublinear_tf": "no"}},
        {"config": {"max_features": 2.5}},
    ])
    def test_malformed_payload_is_data_error(self, tmp_path, change):
        path = tmp_path / "tfidf.json"
        save_tfidf(fit_tfidf(TWO_DOCS), path)
        payload = json.loads(path.read_text())
        for key, value in change.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_tfidf(path)

    @pytest.mark.parametrize("text", ['{"kind": "tfidf"}', '["tfidf"]', '"tfidf"'])
    def test_payload_without_fields_is_data_error(self, tmp_path, text):
        path = tmp_path / "tfidf.json"
        path.write_text(text)
        with pytest.raises(DataError):
            load_tfidf(path)


class TestTransformMany:
    """transform_many must equal per-document transform, field for field and bit for bit."""

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
        batch = transform_many(model, docs)
        single = [transform(model, tokens) for tokens in docs]
        assert len(batch) == len(single)
        for got, want in zip(batch, single):
            assert got.dimension == want.dimension
            assert got.indices == want.indices
            assert [v.hex() for v in got.values] == [v.hex() for v in want.values]
        assert batch[-3].indices == () and batch[-2].indices == ()
        assert len(batch[-1].indices) == 2

    def test_index_built_once_per_model(self):
        model = fit_tfidf(TWO_DOCS)
        assert model.index is model.index
        assert model.index == {"btc": 0, "down": 1, "up": 2}
