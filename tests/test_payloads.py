"""Fuzzing of saved-model and TF-IDF payloads: each file loads or is a one-line DataError.

The well-formed payloads below are the seeds the mutations start from.
"""

import copy
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from predstmt import DataError, SparseBatch, load_model, load_tfidf, predict_many, transform

LINEAR = {
    "kind": "logreg",
    "class_codes": [0, 1],
    "n_features": 2,
    "weights": [[0.5, -1.0], [0.0, 2.0]],
    "bias": [0.1, -0.1],
    "config": {"epochs": 3},
    "loss_history": [0.7, 0.6],
}
SVM = {**LINEAR, "kind": "svm_linear", "loss_history": []}
FOREST = {
    "kind": "random_forest",
    "class_codes": [0, 1],
    "n_features": 2,
    "config": {"n_trees": 1},
    "trees": [{"feature": 0, "threshold": 0.5, "left": {"dist": [1.0, 0.0]},
               "right": {"dist": [0.25, 0.75]}}],
}
TFIDF = {
    "kind": "tfidf",
    "config": {"min_df": 1, "max_features": None, "sublinear_tf": False},
    "n_docs": 2,
    "terms": ["btc", "down", "up"],
    "doc_freq": [2, 1, 1],
    "idf": [1.0, 1.4054651081081644, 1.4054651081081644],
}


@pytest.mark.parametrize("payload", [LINEAR, SVM, FOREST, TFIDF],
                         ids=["logreg", "svm", "forest", "tfidf"])
def test_fuzz_seeds_load(tmp_path, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    (load_tfidf if payload["kind"] == "tfidf" else load_model)(path)


# ---------------------------------------------------------------------------
# property tests: whatever a saved model or TF-IDF file holds, loading fails cleanly

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=4,
)
_VALUE = st.one_of(
    st.sampled_from([0, 1, 2, -1, 0.5, 2.5, True, "1.0", None, float("nan"), float("inf"),
                     10 ** 400, 10 ** 18, [], {}, [0.5, 0.5], [1.0, 0.0, 0.0], [[0.0, 0.0]],
                     {"dist": [0.0, 1.0]}, "logreg", "random_forest", "tfidf"]),
    _JSON,
)


def _paths(node, prefix=()):
    """The path of every entry below node, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_payload(draw):
    """A well-formed payload with up to three entries replaced, deleted or added."""
    payload = copy.deepcopy(draw(st.sampled_from([LINEAR, SVM, FOREST, TFIDF])))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        paths = list(_paths(payload))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["set", "delete", "add"]))
        # a copy, so no drawn list or object is shared or ends up inside itself
        value = copy.deepcopy(draw(st.one_of(st.floats(), st.integers(), _VALUE)
                                   if type(parent[path[-1]]) in (int, float) else _VALUE))
        if action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.text(max_size=4))] = value
        else:
            parent[path[-1]] = value
    return payload


@settings(max_examples=300, deadline=None, database=None)
@given(payload=st.one_of(_mutated_payload(), _mutated_payload(), _JSON))
def test_any_payload_loads_or_is_one_line_data_error(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "payload.json"
    path.write_text(json.dumps(payload), encoding="utf-8", errors="surrogatepass")
    for loader in (load_model, load_tfidf):
        try:
            loaded = loader(path)
        except DataError as exc:
            assert "\n" not in str(exc)
            continue
        event(f"{loader.__name__} loaded")
        # a loaded model works: it classifies an empty row, or featurizes its own terms
        if loader is load_model:
            empty = SparseBatch([0, 0], [], [], loaded.n_features)
            assert predict_many(loaded, empty)[0] in loaded.class_codes
        else:
            assert len(transform(loaded, list(loaded.terms))) == 1
