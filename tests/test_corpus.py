"""Dataset schema, serialization, distribution, and fold tests."""

import importlib.util
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predstmt import (
    Coin,
    DataError,
    Dataset,
    Document,
    OfflineParaphraser,
    Source,
    Task,
    Task1Label,
    Task2Label,
    balance,
    distribution,
    load_dataset,
    save_dataset,
    stratified_folds,
)
from predstmt import corpus
from predstmt.corpus import (
    _COINS,
    _KEYS,
    _ORIGINAL,
    _SOURCES,
    _checked_labels,
    _doc_from_record,
    _jsonl_line,
    _prechecked,
)


#: The error of a record whose reserved 'annotations' key holds anything but null or [].
RESERVED = "'annotations' must be absent, null or []: agreement labels go in kappa files"


def doc(i="d1", text="ada looks strong today", **kw):
    return Document(id=i, text=text, **kw)


class TestDocumentValidation:
    def test_minimal_document(self):
        d = doc()
        assert d.task1 is None and d.task2 is None
        assert d.source is Source.ORIGINAL

    def test_labels_coerce_to_enums(self):
        d = doc(task1=1, task2=3)
        assert d.task1 is Task1Label.PREDICTIVE
        assert d.task2 is Task2Label.NEUTRAL
        assert d.label(Task.PREDICTIVENESS) == 1
        assert d.label(Task.DIRECTION) == 3

    def test_empty_id_rejected(self):
        with pytest.raises(DataError, match="id"):
            Document(id="", text="x")

    def test_empty_text_rejected(self):
        with pytest.raises(DataError, match="text"):
            Document(id="a", text="")

    @pytest.mark.parametrize("text", [" ", "   ", "\t\n", "\u3000\x85"])
    def test_whitespace_only_text_rejected(self, text):
        with pytest.raises(DataError) as info:
            Document(id="a", text=text)
        assert str(info.value) == "document 'a': text must hold a non-whitespace character"
        assert Document(id="a", text=text + ".").text == text + "."

    def test_direction_requires_predictive(self):
        with pytest.raises(DataError, match="task1"):
            doc(task2=1)
        with pytest.raises(DataError, match="task1"):
            doc(task1=0, task2=1)

    def test_unknown_label_codes(self):
        with pytest.raises(DataError, match="unknown label code 2"):
            doc(task1=2)
        with pytest.raises(DataError, match="unknown label code 0"):
            doc(task1=1, task2=0)

    def test_synthetic_requires_parent(self):
        with pytest.raises(DataError, match="parent_id"):
            doc(source=Source.SYNTHETIC)

    def test_original_must_not_have_parent(self):
        with pytest.raises(DataError, match="parent_id"):
            doc(parent_id="other")

    # Fields save_dataset cannot write: each made a TypeError or AttributeError
    # traceback there, or a file load_dataset rejects, before Document refused them.
    @pytest.mark.parametrize("kwargs, message", [
        ({"id": 5}, "document id must be a non-empty string"),
        ({"id": ["d1"]}, "document id must be a non-empty string"),
        ({"source": Source.SYNTHETIC, "parent_id": 5},
         "document 'd1': 'parent_id' must be a string or null"),
        ({"coin": "ADA"}, "document 'd1': unknown coin 'ADA'"),
        ({"source": "original"}, "document 'd1': unknown source 'original'"),
        ({"source": None}, "document 'd1': unknown source None"),
    ], ids=["int-id", "list-id", "int-parent-id", "coin-string", "source-string", "source-none"])
    def test_fields_save_dataset_cannot_write_are_rejected(self, kwargs, message):
        with pytest.raises(DataError) as info:
            Document(**{"id": "d1", "text": "ada looks strong today", **kwargs})
        assert str(info.value) == message

    def test_label_of_unknown_task_raises(self):
        with pytest.raises(ValueError, match="3 is not a valid Task"):
            doc(task1=1).label(3)


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate document id"):
            Dataset(documents=(doc("a"), doc("a")))

    def test_synthetic_parent_must_exist(self):
        syn = Document(id="s", text="x", source=Source.SYNTHETIC, parent_id="missing")
        with pytest.raises(DataError, match="missing"):
            Dataset(documents=(syn,))

    def test_synthetic_parent_must_be_original(self):
        parent = doc("p")
        mid = Document(id="m", text="y", source=Source.SYNTHETIC, parent_id="p")
        bad = Document(id="b", text="z", source=Source.SYNTHETIC, parent_id="m")
        with pytest.raises(DataError, match="not an original"):
            Dataset(documents=(parent, mid, bad))

    # Each of these died with an AttributeError or a TypeError, or constructed.
    @pytest.mark.parametrize("kwargs, message", [
        ({"documents": (1,)}, "each document must be a Document, got int"),
        ({"documents": ("x",)}, "each document must be a Document, got str"),
        ({"documents": 5}, "dataset documents must be a tuple or list, got int"),
        ({"documents": [], "name": 5}, "dataset name must be a string, got int"),
    ], ids=["int-document", "str-document", "int-documents", "int-name"])
    def test_malformed_dataset_rejected(self, kwargs, message):
        with pytest.raises(DataError) as info:
            Dataset(**kwargs)
        assert str(info.value) == message

    def test_labeled_preserves_order(self):
        ds = Dataset(documents=(doc("a", task1=1), doc("b"), doc("c", task1=0)))
        assert [d.id for d in ds.labeled(Task.PREDICTIVENESS)] == ["a", "c"]


class TestRejectDuplicateKeys:
    def test_distinct_keys_keep_their_order_and_values(self):
        parsed = corpus.parse_json('{"b": 1, "a": [2, {"x": 0}], "c": {"d": 3}}', ValueError)
        assert parsed == {"b": 1, "a": [2, {"x": 0}], "c": {"d": 3}}
        assert list(parsed) == ["b", "a", "c"]

    @pytest.mark.parametrize("text, key", [
        ('{"k": 1, "k": 1}', "k"),
        ('{"a": {"x": 1, "x": 2}}', "x"),
        ('{"a": 1, "b": 2, "b": 3, "a": 4}', "b"),
        ('[{"z": 0}, {"z": 0, "z": 0}]', "z"),
    ], ids=["equal-values", "nested", "first-repeat", "in-a-list"])
    def test_repeated_key_is_named_past_parse_json(self, text, key):
        with pytest.raises(DataError) as info:
            corpus.parse_json(text, ValueError)
        assert str(info.value) == f"duplicate key {key!r}"


class TestJsonl:
    def test_load_valid_records(self, tmp_path):
        lines = [
            {"id": "a", "text": "ada to the moon", "coin": "ADA", "task1": 1,
             "task2": 1, "source": "original", "parent_id": None},
            {"id": "b", "text": "just had lunch", "coin": None, "task1": 0,
             "task2": None, "source": "original", "parent_id": None, "annotations": []},
            {"id": "c", "text": "ada will moon shortly", "coin": "ADA", "task1": 1,
             "task2": 1, "source": "synthetic", "parent_id": "a", "annotations": []},
        ]
        path = tmp_path / "ds.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in lines))
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.documents[0].coin is Coin.ADA
        assert ds.documents[2].parent_id == "a"
        assert ds.name == "ds"

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\n{"id": "b", "text": "x", "coin": "DOGE"}\n')
        with pytest.raises(DataError, match=r"bad\.jsonl:2.*DOGE"):
            load_dataset(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\nnot json\n')
        with pytest.raises(DataError, match=r"bad\.jsonl:2.*invalid JSON"):
            load_dataset(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok", "extra": 1}\n')
        with pytest.raises(DataError, match="extra"):
            load_dataset(path)

    def test_unknown_label_code_at_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok", "task1": 7}\n')
        with pytest.raises(DataError, match=r"bad\.jsonl:1.*unknown label code 7"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("line, message", [
        ('[1]', "expected a JSON object, got list"),
        ('{"id": "a", "text": "t", "zz": 1, "aa": 2}', "unknown fields ['aa', 'zz']"),
        ('{"id": "", "text": "t"}', "'id' must be a non-empty string"),
        ('{"id": "a", "text": 5}', "'text' must be a string"),
        ('{"id": "a", "text": ""}', "document 'a': text must be a non-empty string"),
        ('{"id": "a", "text": "   "}', "document 'a': text must hold a non-whitespace character"),
        ('{"id": "a", "text": "\\t\\n\\u2028", "task1": 1, "task2": 2, "coin": "ADA"}',
         "document 'a': text must hold a non-whitespace character"),
        ('{"id": "a", "text": "t", "coin": "DOGE"}', "unknown coin 'DOGE'"),
        ('{"id": "a", "text": "t", "coin": ["ADA"]}', "unknown coin ['ADA']"),
        ('{"id": "a", "text": "t", "coin": {"ADA": 1}}', "unknown coin {'ADA': 1}"),
        ('{"id": "a", "text": "t", "source": "scraped"}', "unknown source 'scraped'"),
        ('{"id": "a", "text": "t", "source": ["original"]}', "unknown source ['original']"),
        ('{"id": "a", "text": "t", "parent_id": 3}', "'parent_id' must be a string or null"),
        ('{"id": "a", "text": "t", "task1": true}', "document 'a': task1 label must be an integer"),
        ('{"id": "a", "text": "t", "task1": [1]}', "document 'a': task1 label must be an integer"),
        ('{"id": "a", "text": "t", "task1": 1, "task2": 4}',
         "document 'a': unknown label code 4 for task 2"),
        ('{"id": "a", "text": "t", "task2": 1}',
         "document 'a': direction label requires task1 == 1 (predictive)"),
        ('{"id": "a", "text": "t", "source": "synthetic"}',
         "document 'a': synthetic documents require a parent_id"),
        ('{"id": "a", "text": "t"', "invalid JSON (Expecting ',' delimiter)"),
        pytest.param('{"id": "d0", "text": "a", "text": "b"}', "duplicate key 'text'",
                     id="duplicate-key"),
        # a repeated key is found past leading whitespace and before trailing text
        pytest.param(' {"id": "d0", "text": "a", "text": "b"}', "duplicate key 'text'",
                     id="duplicate-key-leading-space"),
        pytest.param('{"id": "d0", "text": "a", "text": "b"} x', "duplicate key 'text'",
                     id="duplicate-key-trailing-text"),
        pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON (nested too deeply)",
                     id="nested-line"),
        pytest.param('{"id": "a", "text": "t", "annotations": '
                     + "[" * 100_000 + "]" * 100_000 + "}",
                     "invalid JSON (nested too deeply)", id="nested-annotations"),
        pytest.param('{"id": "a", "text": "t", "task1": 1' + "0" * 5000 + "}",
                     "invalid JSON (integer too long)", id="long-integer"),
        # a line of whitespace JSON does not allow is no blank line
        *(pytest.param(space, "invalid JSON (Expecting value)", id=f"only-{ord(space[-1]):04x}")
          for space in ["\u2028", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                        " \t\u3000"]),
    ])
    def test_record_errors_name_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == f"bad.jsonl:3: {message}"

    # the one decoder words a line's errors as json.loads does
    @pytest.mark.parametrize("line, message", [
        ('\ufeff{"id": "a", "text": "t"}', "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"id": "a", "text": "t"}{"id": "b", "text": "u"}', "Extra data"),
        ('{"id": "a", "text": "t"} x', "Extra data"),
        ('{"id": "a",\n"text": "t"}', "Expecting property name enclosed in double quotes"),
    ])
    def test_parsed_line_keeps_json_loads_errors(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == f"bad.jsonl:2: invalid JSON ({message})"
        with pytest.raises(json.JSONDecodeError) as reference:
            json.loads(line.split("\n")[0] + "\n")
        assert reference.value.msg == message

    @pytest.mark.parametrize("line", [' {"id": "a", "text": "t"}', '{"id": "a", "text": "t"} \t',
                                      '\t{"id": "a", "text": "t"}\r'])
    def test_whitespace_around_a_record_is_read(self, tmp_path, line):
        path = tmp_path / "ok.jsonl"
        path.write_text(line + "\n" + '{"id": "b", "text": "u"}', encoding="utf-8")
        assert [doc.id for doc in load_dataset(path)] == ["a", "b"]

    @pytest.mark.parametrize("blank", ["", " ", "\t", " \t ", " \t\r"],
                             ids=["empty", "space", "tab", "spaces-and-tab", "carriage-return"])
    def test_json_whitespace_lines_are_skipped_and_counted(self, tmp_path, blank):
        """A line of JSON whitespace alone is no record, but still a line of the file."""
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"id": "a", "text": "t"}\n' + blank + '\n{"id": "b", "text": "u"}\n',
                        encoding="utf-8")
        assert [doc.id for doc in load_dataset(path)] == ["a", "b"]
        path.write_text(blank + "\n" + blank + '\n{"id": "a", "text": "t", "task1": 7}\n',
                        encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == "gaps.jsonl:3: document 'a': unknown label code 7 for task 1"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_line_end_reads_and_counts_lines(self, tmp_path, end):
        """Datasets are read with universal newlines: CRLF and a lone CR end a line once."""
        ds = Dataset(documents=(doc("a", "ada up", task1=1, task2=1),
                                doc("b", "ada down", coin=Coin.OTHER, task1=0)))
        body = "".join(line.replace("\n", end) for line in map(_jsonl_line, ds)) + end
        path = tmp_path / "ends.jsonl"
        path.write_text(body, encoding="utf-8", newline="")
        assert load_dataset(path).documents == ds.documents
        path.write_text(body + '{"id": "c", "text": "t", "task1": 7}' + end,
                        encoding="utf-8", newline="")
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == "ends.jsonl:4: document 'c': unknown label code 7 for task 1"

    def test_unreadable_file_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id": "a", "text": "caf\xe9"}\n')
        with pytest.raises(DataError, match="cannot read dataset .*latin1.jsonl"):
            load_dataset(path)
        (tmp_path / "dir.jsonl").mkdir()
        with pytest.raises(DataError, match="cannot read dataset .*dir.jsonl"):
            load_dataset(tmp_path / "dir.jsonl")

    @pytest.mark.parametrize("name", ["data.parquet", "data.csv", "data.CSV"])
    def test_unknown_format(self, tmp_path, name):
        """Datasets are JSONL: any other suffix, CSV's included, is refused both ways."""
        message = (f"cannot infer dataset format from {name!r}: "
                   "datasets are JSONL (.jsonl or .ndjson)")
        (tmp_path / name).write_text("id,text\na,ada up\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_dataset(tmp_path / name)
        assert str(info.value) == message
        with pytest.raises(DataError) as info:
            save_dataset(Dataset(documents=(doc(),)), tmp_path / "out" / name)
        assert str(info.value) == message
        assert not (tmp_path / "out").exists()



def _surrogate_error(field: str, code_point: int) -> str:
    return f"'{field}' holds lone surrogate U+{code_point:04X}, which UTF-8 cannot encode"


class TestLoneSurrogates:
    """A lone surrogate, which a JSON escape such as \\ud800 decodes to and UTF-8
    cannot encode, is a data error where it enters, not a save_dataset traceback."""

    SYNTHETIC = {"id": "s1", "text": "ada will moon", "coin": "ADA", "task1": 1, "task2": 1,
                 "source": "synthetic", "parent_id": "p1"}

    @pytest.mark.parametrize("field, code_point", [
        ("id", 0xD800), ("text", 0xDFFF), ("parent_id", 0xDC00),
    ], ids=["id", "text", "parent-id"])
    def test_each_field_is_checked_by_loader_and_document(self, tmp_path, field, code_point):
        rec = {**self.SYNTHETIC, field: f"{self.SYNTHETIC[field]} {chr(code_point)} x"}
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\n' + json.dumps(rec) + "\n",
                        encoding="utf-8")
        assert f"\\u{code_point:04x}" in path.read_text(encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == f"bad.jsonl:2: {_surrogate_error(field, code_point)}"
        with pytest.raises(DataError) as info:
            Document(**{**rec, "coin": Coin.ADA, "source": Source.SYNTHETIC})
        assert str(info.value) == _surrogate_error(field, code_point)

    # the check comes after parent_id's type check and before every later one
    @pytest.mark.parametrize("changes, message", [
        ({"coin": "DOGE"}, "unknown coin 'DOGE'"),
        ({"source": "scraped"}, "unknown source 'scraped'"),
        ({"parent_id": 5}, "'parent_id' must be a string or null"),
        ({"annotations": [1]}, None),
        ({"task1": 7}, None),
        ({"task1": 0}, None),
        ({"source": "original"}, None),
    ], ids=["coin", "source", "parent-id-type", "annotations", "label", "direction",
            "provenance"])
    def test_place_in_the_check_order(self, changes, message):
        rec = {**self.SYNTHETIC, "text": "ada \udfff", **changes}
        with pytest.raises(DataError) as info:
            _doc_from_record(rec)
        assert str(info.value) == (message or _surrogate_error("text", 0xDFFF))

    def test_canonical_pattern_yields_no_surrogate(self, tmp_path):
        """No benchmark line pays for the check: a pattern group holds no backslash, so
        an escaped surrogate goes to the parser, and the file is strict UTF-8, so raw
        surrogate bytes are a decode error."""
        line = _jsonl_line(Document(id="a", text="ada up"))
        assert corpus._CANONICAL.fullmatch(line)
        assert not corpus._CANONICAL.fullmatch(line.replace("ada up", "ada \\ud800"))
        path = tmp_path / "raw.jsonl"
        path.write_bytes(line.replace("ada up", "ada \ud800").encode("utf-8", "surrogatepass"))
        with pytest.raises(DataError, match=f"^cannot read dataset {re.escape(str(path))}: "):
            load_dataset(path)


def _reference_doc_from_record(rec: object) -> Document:
    """The loader before it checked each field once: its own checks, then Document(...)."""
    if not isinstance(rec, dict):
        raise DataError(f"expected a JSON object, got {type(rec).__name__}")
    unknown = rec.keys() - {"id", "text", "coin", "task1", "task2", "source", "parent_id",
                            "annotations"}
    if unknown:
        raise DataError(f"unknown fields {sorted(unknown)}")
    doc_id = rec.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError("'id' must be a non-empty string")
    text = rec.get("text")
    if not isinstance(text, str):
        raise DataError("'text' must be a string")
    coin_raw = rec.get("coin")
    coin = None
    if coin_raw is not None:
        coin = {c.value: c for c in Coin}.get(coin_raw) if isinstance(coin_raw, str) else None
        if coin is None:
            raise DataError(f"unknown coin {coin_raw!r}")
    source_raw = rec.get("source")
    source = Source.ORIGINAL
    if source_raw is not None:
        source = {s.value: s for s in Source}.get(source_raw) \
            if isinstance(source_raw, str) else None
        if source is None:
            raise DataError(f"unknown source {source_raw!r}")
    parent_id = rec.get("parent_id")
    if parent_id is not None and not isinstance(parent_id, str):
        raise DataError("'parent_id' must be a string or null")
    if rec.get("annotations") not in (None, []):
        raise DataError(RESERVED)
    return Document(id=doc_id, text=text, coin=coin, task1=rec.get("task1"),
                    task2=rec.get("task2"), source=source, parent_id=parent_id)


_FIELD_VALUES = {
    "id": ["a", "", 5, None, ["a"]],
    "text": ["t", "", 3, None],
    "coin": [None, "ADA", "Other", "DOGE", ["ADA"], 1],
    "task1": [None, 0, 1, 2, True, 1.0, "1", [1]],
    "task2": [None, 1, 2, 3, 4, 0, False, 2.0],
    "source": [None, "original", "synthetic", "scraped", 1],
    "parent_id": [None, "p", "", 3],
    "annotations": [None, [], {}, "", 0, False, [1],
                    [{"annotator": "x", "task": 1, "label": 1}]],
    "zz": [1],
}


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(
    st.fixed_dictionaries({}, optional={key: st.sampled_from(values)
                                        for key, values in _FIELD_VALUES.items()}),
    st.sampled_from([[1], "x", None, 3])))
def test_loader_agrees_with_document_constructor(rec):
    """Same Document, or the same error message, as the checks-then-construct loader."""
    _assert_same_outcome(rec, _reference_doc_from_record)


def _field_checks_doc_from_record(rec: object) -> Document:
    """The loader before it looked label cells up in a table: every field checked in turn."""
    if not isinstance(rec, dict):
        raise DataError(f"expected a JSON object, got {type(rec).__name__}")
    if not _KEYS.issuperset(rec):
        raise DataError(f"unknown fields {sorted(rec.keys() - _KEYS)}")
    get = rec.get
    doc_id = get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError("'id' must be a non-empty string")
    text = get("text")
    if not isinstance(text, str):
        raise DataError("'text' must be a string")
    coin_raw = get("coin")
    coin = None
    if coin_raw is not None:
        coin = _COINS.get(coin_raw) if isinstance(coin_raw, str) else None
        if coin is None:
            raise DataError(f"unknown coin {coin_raw!r}")
    source_raw = get("source")
    source = _ORIGINAL
    if source_raw is not None:
        source = _SOURCES.get(source_raw) if isinstance(source_raw, str) else None
        if source is None:
            raise DataError(f"unknown source {source_raw!r}")
    parent_id = get("parent_id")
    if parent_id is not None and not isinstance(parent_id, str):
        raise DataError("'parent_id' must be a string or null")
    annotations = get("annotations")
    if not (annotations is None or isinstance(annotations, list) and not annotations):
        raise DataError(RESERVED)
    if not text:
        raise DataError(f"document {doc_id!r}: text must be a non-empty string")
    if text.isspace():  # the one rule added since: text needs a non-whitespace character
        raise DataError(f"document {doc_id!r}: text must hold a non-whitespace character")
    task1, task2 = _checked_labels(doc_id, get("task1"), get("task2"), source, parent_id)
    return _prechecked(Document, {
        "id": doc_id, "text": text, "coin": coin, "task1": task1, "task2": task2,
        "source": source, "parent_id": parent_id,
    })


def _assert_same_outcome(rec: object, reference) -> None:
    """_doc_from_record(rec) gives reference's Document, members and all, or its message."""
    try:
        expected = reference(rec)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            _doc_from_record(rec)
        assert str(info.value) == str(exc)
        return
    loaded = _doc_from_record(rec)
    assert loaded == expected
    assert vars(loaded) == vars(expected)
    for field in ("task1", "task2", "coin", "source"):
        assert getattr(loaded, field) is getattr(expected, field)


# Values that break one field of an otherwise valid record, as JSON can hold
# them: bools and floats equal to label codes, unhashable coins and sources,
# annotations of the wrong JSON type, parent ids that do not fit the source.
_BREAKS = {
    "id": ["", 5, None, ["a"], True],
    "text": ["", 3, None, ["t"], False],
    "coin": [[], {}, ["ADA"], {"ADA": 1}, "DOGE", "ada", 1, True],
    "task1": [True, False, 1.0, 0.0, 2, -1, "1", [1], {}],
    "task2": [True, False, 1.0, 3.0, 0, 4, "2", [2]],
    "source": ["scraped", "Original", [], {}, 1, True, 0.0],
    "parent_id": ["", 5, "p", [], True, None],
    "annotations": [{}, "", 0, False, [1], [{"annotator": "x", "task": 1, "label": 1}]],
    "zz": [1, None],
}
_VALID_SOURCES = [None, "original", "synthetic"]
_ID_TEXT = st.text(st.sampled_from("aé7 -🚀"), min_size=1, max_size=4)


@st.composite
def _loader_records(draw):
    task1, task2 = draw(st.sampled_from(_LABEL_PAIRS))
    source = draw(st.sampled_from(_VALID_SOURCES))
    rec = {
        "id": draw(_ID_TEXT),
        "text": draw(_ID_TEXT),
        "coin": draw(st.sampled_from([None, *(coin.value for coin in Coin)])),
        "task1": task1,
        "task2": task2,
        "source": source,
        "parent_id": draw(_ID_TEXT) if source == "synthetic" else None,
        "annotations": draw(st.sampled_from([None, []])),
    }
    if draw(st.integers(0, 3)) == 0:
        for key in draw(st.sets(st.sampled_from(sorted(rec)), min_size=1, max_size=3)):
            del rec[key]  # a missing key reads as null
    for key in draw(st.lists(st.sampled_from(sorted(_BREAKS)), max_size=2)):
        rec[key] = draw(st.sampled_from(_BREAKS[key]))
    return rec


@settings(max_examples=800, deadline=None, database=None)
@given(st.one_of(_loader_records(), st.sampled_from([[1], [], "x", None, 3, True])))
def test_loader_agrees_with_field_by_field_checks(rec):
    """Same Document, or the same error message, as the loader that checked every field."""
    _assert_same_outcome(rec, _field_checks_doc_from_record)


def test_label_pairs_are_exactly_the_valid_combinations():
    """A (task1, task2) is a key of the line loader's label table, under its JSON
    spelling, iff a record holding it loads; true and 1.0 spell no key."""
    loadable = 0
    for task1 in [None, 0, 1, 2, True, False, 1.0, 0.0, "1"]:
        for task2 in [None, 0, 1, 2, 3, 4, True, 1.0, 2.0, 3.0]:
            for source in _VALID_SOURCES:
                for parent_id in [None, "", "p"]:
                    _assert_same_outcome({"id": "a", "text": "t", "task1": task1, "task2": task2,
                                          "source": source, "parent_id": parent_id},
                                         _field_checks_doc_from_record)
            key = (json.dumps(task1), json.dumps(task2))
            try:
                expected = _field_checks_doc_from_record(
                    {"id": "a", "text": "t", "task1": task1, "task2": task2})
            except DataError:
                assert key not in corpus._LINE_LABELS, key
                continue
            loadable += 1
            labels = corpus._LINE_LABELS[key]
            assert labels[0] is expected.task1 and labels[1] is expected.task2
    assert loadable == len(corpus._LINE_LABELS) == 6


def _doc_to_record(doc: Document) -> dict:
    """The record of doc that save_dataset's line encodes, as json.dumps takes it."""
    return {
        "id": doc.id,
        "text": doc.text,
        "coin": None if doc.coin is None else doc.coin.value,
        "task1": None if doc.task1 is None else int(doc.task1),
        "task2": None if doc.task2 is None else int(doc.task2),
        "source": doc.source.value,
        "parent_id": doc.parent_id,
        "annotations": [],
    }


class TestRoundTrip:
    def build(self):
        return Dataset(documents=(
            Document(id="a", text="ada will rise, trust me", coin=Coin.ADA, task1=1, task2=1),
            Document(id="b", text="null fields everywhere"),
            Document(id="c", text="synthetic copy", coin=Coin.OTHER, task1=1, task2=2,
                     source=Source.SYNTHETIC, parent_id="a"),
        ), name="rt")

    def test_jsonl_round_trip(self, tmp_path):
        ds = self.build()
        path = tmp_path / "rt.jsonl"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again.documents == ds.documents

    def test_jsonl_save_load_save_is_byte_identical(self, tmp_path):
        extra = (
            Document(id="é-1", text='naïve "quote" \\ tab\there \u2028 \x00 \x85 🚀 ₳',
                     coin=Coin.BNB, task1=0),
            Document(id="d", text="moon 🌕 soon", coin=Coin.XRP, task1=1, task2=3,
                     source=Source.SYNTHETIC, parent_id="é-1"),
        )
        ds = Dataset(documents=self.build().documents + extra, name="rt")
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_dataset(ds, first)
        save_dataset(load_dataset(first), second)
        assert second.read_bytes() == first.read_bytes()
        assert first.read_bytes() == b"".join(
            (json.JSONEncoder(ensure_ascii=False).encode(_doc_to_record(d)) + "\n")
            .encode("utf-8") for d in ds)

    @pytest.mark.parametrize("value", [
        None, [], [{"annotator": "x", "task": 1, "label": 1}], False, "", {}, 0,
    ], ids=["null", "empty-list", "annotation", "false", "empty-string", "object", "zero"])
    def test_annotations_is_a_reserved_key(self, tmp_path, value):
        """Only null or [] loads: agreement labels live in kappa files."""
        rec = {"id": "a", "text": "ada up", "task1": 1, "annotations": value}
        path = tmp_path / "reserved.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        if value in (None, []):
            assert load_dataset(path).documents == (doc("a", "ada up", task1=1),)
            return
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == f"reserved.jsonl:1: {RESERVED}"


def test_valid_traffic_never_reaches_the_label_checks(tmp_path, monkeypatch):
    """The label shortcut alone labels the benchmark's corpora and a hand-built one,
    and the loader never runs Document's own checks."""
    spec = importlib.util.spec_from_file_location(
        "gen_corpus", Path(__file__).resolve().parents[1] / "perfbench" / "gen_corpus.py")
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    generated = tmp_path / "corpus.jsonl"
    documents = gen_corpus.write_corpus(generated, seed=3, scale=0.5)["documents"]
    built = TestRoundTrip().build()

    def diagnostic_path(*args):
        raise AssertionError(f"the loader ran a check the label shortcut skips: {args!r}")

    def load(path):
        with monkeypatch.context() as patched:
            patched.setattr(corpus, "_checked_labels", diagnostic_path)
            patched.setattr(Document, "__post_init__", diagnostic_path)
            return load_dataset(path)

    dataset = load(generated)
    assert len(dataset) == documents
    balanced = balance(dataset, Task.DIRECTION, OfflineParaphraser(), seed=3)
    assert any(doc.source is Source.SYNTHETIC for doc in balanced)
    save_dataset(balanced, tmp_path / "balanced.jsonl")
    assert load(tmp_path / "balanced.jsonl").documents == balanced.documents
    save_dataset(built, tmp_path / "built.jsonl")
    assert load(tmp_path / "built.jsonl").documents == built.documents


# Characters the JSON string encoder treats specially: quotes, backslashes,
# control characters, DEL, NEL, the Unicode line separators and astral
# characters; plus any other character but a lone surrogate, which no
# Document holds (TestLoneSurrogates).
_TRICKY_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "/", "\x7f", "\x85", "\u2028", "\u2029", "é", "€", "₳"]),
    st.characters(min_codepoint=0, max_codepoint=0x1F),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
    st.characters(blacklist_categories=("Cs",)),
)
_TRICKY_TEXT = st.text(_TRICKY_CHARS, min_size=1, max_size=12)
_LABEL_PAIRS = [(None, None), (0, None), (1, None), (1, 1), (1, 2), (1, 3)]


@st.composite
def _documents(draw):
    task1, task2 = draw(st.sampled_from(_LABEL_PAIRS))
    source = draw(st.sampled_from(Source))
    return Document(
        id=draw(_TRICKY_TEXT),
        text=draw(_TRICKY_TEXT.filter(lambda text: not text.isspace())),
        coin=draw(st.none() | st.sampled_from(Coin)),
        task1=task1,
        task2=task2,
        source=source,
        parent_id=draw(_TRICKY_TEXT) if source is Source.SYNTHETIC else None,
    )


@settings(max_examples=500, deadline=None, database=None)
@given(_documents())
def test_jsonl_line_matches_json_encoder(document):
    """The fixed-schema writer gives exactly the line the stdlib encoder gives."""
    expected = json.JSONEncoder(ensure_ascii=False).encode(_doc_to_record(document)) + "\n"
    assert _jsonl_line(document) == expected


# ---------------------------------------------------------------------------
# the canonical-line pattern against the JSON parser

# Characters a line's strings may hold: the ones JSON escapes or that end a
# string, separators, whitespace, emoji; no surrogate, which UTF-8 cannot hold.
_LINE_CHARS = st.one_of(
    st.sampled_from(['"', "\\", ",", ":", " ", "{", "}", "a", "7", "é", "🚀", "\x00", "\x01", "\t",
                     "\x1f", "\x7f", "\u2028", "\u3000"]),
    st.characters(max_codepoint=0x1F),
    st.characters(blacklist_categories=("Cs",)),
)


@st.composite
def _odd_string(draw):
    """A JSON string save_dataset does not write as it is: any text, whitespace-only or
    empty text, escaped as json.dumps escapes it (UTF-8 or ASCII) or written raw."""
    value = draw(st.text(_LINE_CHARS, max_size=5) | st.sampled_from(["", " ", "\t", "\u3000 "]))
    spelling = draw(st.sampled_from(["utf-8", "ascii", "raw"]))
    return f'"{value}"' if spelling == "raw" else json.dumps(value, ensure_ascii=spelling == "ascii")


#: Values that break a field of a canonical line, as JSON spells them.
_ODD_VALUES = {
    "id": _odd_string(),
    "text": _odd_string(),
    "coin": st.sampled_from(['"ada"', '"DOGE"', '""', "1", '"\\u0041DA"']),
    "task1": st.sampled_from(["true", "false", "1.0", "0.0", "2", "-1", '"1"']),
    "task2": st.sampled_from(["true", "1.0", "3.0", "0", "4", '"2"']),
    "source": st.sampled_from(["null", '"Original"', "1", '"synth\\u0065tic"']),
    "parent_id": st.sampled_from(["null", '"p"']) | _odd_string(),  # one of two flips
    "annotations": st.sampled_from(["null", "[1]", "{}"]),
}


#: Every (task1, task2) a canonical line can spell, the six valid ones three times.
_LINE_LABEL_PAIRS = [(json.dumps(t1), json.dumps(t2)) for t1, t2 in
                     [(t1, t2) for t1 in (None, 0, 1) for t2 in (None, 1, 2, 3)]
                     + _LABEL_PAIRS * 2]


@st.composite
def _jsonl_lines(draw):
    """A dataset line in a canonical form, 5 or 8 keys, with every (task1, task2), or a
    near miss of one: an odd value, a parent_id that does not fit the source, a repeated
    key, another order or other separators, a BOM, trailing whitespace or text."""
    source = draw(st.sampled_from(["original", "synthetic"]))
    task1, task2 = draw(st.sampled_from(_LINE_LABEL_PAIRS))
    pairs = dict(
        id=json.dumps(draw(_ID_TEXT), ensure_ascii=False),
        text=json.dumps(draw(_ID_TEXT), ensure_ascii=False),
        coin=draw(st.sampled_from(["null", *(f'"{coin.value}"' for coin in Coin)])),
        task1=task1,
        task2=task2,
        source=f'"{source}"',
        parent_id='"p"' if source == "synthetic" else "null",
        annotations="[]",
    )
    for key in draw(st.lists(st.sampled_from(sorted(_ODD_VALUES)), max_size=2)):
        pairs[key] = draw(_ODD_VALUES[key])
    miss = draw(st.sampled_from(["", "", "", "", "", "", "",  # most lines miss nothing
                                 "provenance", "repeat", "order", "compact",
                                 " ", "\r", "\t", "x", "\ufeff"]))
    if miss == "provenance":
        pairs["parent_id"] = "null" if source == "synthetic" else '"p"'
    pairs = list(pairs.items())
    if source == "original" and miss != "provenance" and draw(st.booleans()):
        pairs = pairs[:5]  # the original's line json.dumps writes
    if miss == "repeat":
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    elif miss == "order":
        pairs = draw(st.permutations(pairs))
    comma, colon = (",", ":") if miss == "compact" else (", ", ": ")
    line = "{" + comma.join(f'"{key}"{colon}{value}' for key, value in pairs) + "}"
    if miss in ("", "provenance", "repeat", "order", "compact"):
        return line
    return miss + line if miss == "\ufeff" else line + miss


def _invalid_json(reason: str) -> DataError:
    return DataError(f"invalid JSON ({reason})")


def _reference_parse(line: str, invalid=_invalid_json) -> object:
    """json.loads with the loaders' duplicate-key hook, its errors worded as the loaders
    word them: the reference the one decoder of corpus.parse_json must match."""
    try:
        return json.loads(line, object_pairs_hook=corpus.reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise invalid(exc.msg) from None
    except RecursionError:
        raise invalid("nested too deeply") from None
    except DataError:
        raise
    except ValueError:
        raise invalid("integer too long") from None


def _parse_outcome(parse, text: str) -> str:
    """repr of the value parse gives text, which tells 1, 1.0 and true and key orders
    apart, or its error as type and message."""
    try:
        return repr(parse(text))
    except Exception as exc:  # any error is an outcome to compare
        return f"{type(exc).__name__}: {exc}"


# JSON text near a valid value: atoms a decoder refuses or reads oddly, keys that repeat
# only once decoded ("\u006b" is "k"), whitespace, a BOM and text around the value.
_JSON_ATOMS = st.sampled_from([
    "null", "true", "false", "0", "-1", "01", "1.", "1.5e3", "1E400", "-0.0", "NaN",
    "-Infinity", '"a"', '"\\u00e9"', '"\\ud800"', '"\\x"', '"\t"', "nul", "",
])
_JSON_KEYS = st.sampled_from(['"k"', '"j"', '"\\u006b"', "k"])
_JSON_VALUES = st.recursive(_JSON_ATOMS, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"),
    st.lists(st.tuples(_JSON_KEYS, st.sampled_from([": ", ":", " : "]), inner), max_size=3)
    .map(lambda pairs: "{" + ",".join("".join(pair) for pair in pairs) + "}"),
), max_leaves=8)
_JSON_TEXTS = st.one_of(
    st.tuples(st.sampled_from(["", "", " ", "\t\r", "\n", "\ufeff", "\u2028"]), _JSON_VALUES,
              st.sampled_from(["", "", "\n", " \r\n", " x", ",", "}", "]", " {}"]))
    .map("".join),
    st.text(st.sampled_from('{}[]":, \t\n\\u0123456789.eE+-tfnrulsaINy\ufeff'), max_size=12),
)


@settings(max_examples=1000, deadline=None, database=None)
@given(_JSON_TEXTS)
@example('\ufeff{"id": "a", "text": "t"}')
@example(' \t{"id": "a"}\r\n')
@example('{"id": "a"} {"id": "b"}')
@example('{"a": [{"b": {"x": 1, "y": 2, "x": 3}}]}')
@example("[" * 100_000 + "]" * 100_000)
@example('{"task1": 1' + "0" * 5000 + "}")
def test_parse_json_matches_json_loads(text):
    """parse_json gives json.loads' value, with the duplicate-key hook, or its error as
    the loaders word it, by default and with read_json's invalid=ValueError."""
    assert _parse_outcome(corpus.parse_json, text) == _parse_outcome(_reference_parse, text)
    assert (_parse_outcome(lambda t: corpus.parse_json(t, ValueError), text)
            == _parse_outcome(lambda t: _reference_parse(t, ValueError), text))


def _json_path_outcome(path: Path):
    """The documents, or the error message, of the line-by-line JSON parser."""
    docs = []
    with path.open(encoding="utf-8") as fh:  # the loader's universal newlines
        for lineno, line in enumerate(fh, start=1):
            if not line.strip(" \t\r\n"):  # only JSON whitespace
                continue
            try:
                docs.append(_doc_from_record(_reference_parse(line)))
            except DataError as exc:
                return f"{path.name}:{lineno}: {exc}"
    try:
        return Dataset(documents=tuple(docs), name=path.stem).documents
    except DataError as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None, database=None)
@given(_jsonl_lines(), st.booleans())
@example('{"id": "a\x01", "text": "t", "coin": null, "task1": null, "task2": null}', True)
@example('{"id": "a", "text": "\\u0041\\"", "coin": null, "task1": null, "task2": null}', True)
@example('{"id": "a", "text": "\u3000", "coin": "ADA", "task1": 0, "task2": null}', False)
@example('{"id": "a", "text": "t", "coin": null, "task1": 1, "task2": 2, "source": "original", '
         '"parent_id": "p", "annotations": []}', True)
@example('{"id": "a", "text": "t", "coin": null, "task1": 1, "task2": 2, "source": "synthetic", '
         '"parent_id": null, "annotations": []}', True)
def test_canonical_lines_load_as_the_json_parser_loads_them(tmp_path_factory, line, newline):
    """load_dataset gives the documents, members and all, or the one-line error of
    _doc_from_record(parse_json(line)), whichever way a line is spelled. The file holds
    the line after its parent's, so that no earlier fault hides it."""
    path = tmp_path_factory.mktemp("lines") / "lines.jsonl"
    path.write_text('{"id": "p", "text": "the parent"}\n' + line + "\n" * newline,
                    encoding="utf-8")
    expected = _json_path_outcome(path)
    if isinstance(expected, str):
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == expected and "\n" not in expected
        return
    loaded = load_dataset(path).documents
    assert loaded == expected
    for got, want in zip(loaded, expected):
        assert vars(got) == vars(want)
        for field in ("task1", "task2", "coin", "source"):
            assert getattr(got, field) is getattr(want, field)


def _not_parsed(line):
    raise AssertionError(f"a canonical line went to the JSON parser: {line!r}")


_ESCAPE_FREE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\',
                                     min_codepoint=0x20), min_size=1, max_size=8)


@st.composite
def _escape_free_datasets(draw):
    """Originals, then synthetic documents each paraphrasing one of them."""
    ids = draw(st.lists(_ESCAPE_FREE, min_size=1, max_size=6, unique=True))
    originals = draw(st.integers(1, len(ids)))
    documents = []
    for i, doc_id in enumerate(ids):
        task1, task2 = draw(st.sampled_from(_LABEL_PAIRS))
        documents.append(Document(
            id=doc_id,
            text=draw(_ESCAPE_FREE.filter(lambda text: not text.isspace())),
            coin=draw(st.none() | st.sampled_from(Coin)),
            task1=task1,
            task2=task2,
            source=Source.ORIGINAL if i < originals else Source.SYNTHETIC,
            parent_id=None if i < originals else draw(st.sampled_from(ids[:originals])),
        ))
    return Dataset(documents=tuple(documents))


@settings(max_examples=300, deadline=None, database=None)
@given(_escape_free_datasets())
def test_saved_and_generated_lines_take_the_pattern(tmp_path_factory, dataset):
    """Every line save_dataset writes without an escape, and every 5-key line of an
    original as the benchmark's generator writes it, loads without the JSON parser."""
    directory = tmp_path_factory.mktemp("pattern")
    save_dataset(dataset, directory / "saved.jsonl")
    originals = [doc for doc in dataset if doc.source is Source.ORIGINAL]
    (directory / "generated.jsonl").write_text("".join(
        json.dumps({"id": doc.id, "text": doc.text, "coin": doc.coin and doc.coin.value,
                    "task1": doc.label(Task.PREDICTIVENESS),
                    "task2": doc.label(Task.DIRECTION)}, ensure_ascii=False) + "\n"
        for doc in originals), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(corpus, "parse_json", _not_parsed)
        assert load_dataset(directory / "saved.jsonl").documents == dataset.documents
        assert list(load_dataset(directory / "generated.jsonl")) == originals


class TestDistribution:
    def test_reference_counts(self, reference_corpus):
        d1 = distribution(reference_corpus, Task.PREDICTIVENESS)
        assert d1.counts == {0: 2000, 1: 1116}
        assert d1.total == 3116
        d2 = distribution(reference_corpus, Task.DIRECTION)
        assert d2.counts == {1: 570, 2: 434, 3: 112}
        assert d2.total == 1116

    def test_unlabeled_ignored(self):
        ds = Dataset(documents=(doc("a", task1=1), doc("b")))
        d = distribution(ds, Task.PREDICTIVENESS)
        assert d.counts == {0: 0, 1: 1} and d.total == 1

    def test_empty_dataset(self):
        d = distribution(Dataset(documents=()), Task.DIRECTION)
        assert d.total == 0 and set(d.counts.values()) == {0}


def two_class_dataset(n0, n1, seed=0):
    docs = [doc(f"a{i}", task1=0) for i in range(n0)]
    docs += [doc(f"b{i}", task1=1) for i in range(n1)]
    random.Random(seed).shuffle(docs)
    return Dataset(documents=tuple(docs))


class TestStratifiedFolds:
    def test_partition_is_exact(self):
        ds = two_class_dataset(23, 17)
        folds = stratified_folds(ds, Task.PREDICTIVENESS, k=5, seed=1)
        labeled_ids = {d.id for d in ds.labeled(Task.PREDICTIVENESS)}
        assert set(folds.folds) == labeled_ids
        assert sum(folds.sizes()) == 40
        assert all(0 <= f < 5 for f in folds.folds.values())

    def test_per_class_deviation_at_most_one(self):
        rng = random.Random(42)
        for _ in range(20):
            n0, n1, k = rng.randint(6, 60), rng.randint(6, 60), rng.randint(2, 5)
            if min(n0, n1) < k:
                continue
            ds = two_class_dataset(n0, n1, seed=rng.randint(0, 999))
            folds = stratified_folds(ds, Task.PREDICTIVENESS, k=k, seed=rng.randint(0, 999))
            for label in (0, 1):
                ids = {d.id for d in ds if d.label(Task.PREDICTIVENESS) == label}
                sizes = [sum(1 for i in ids if folds.folds[i] == f) for f in range(k)]
                assert max(sizes) - min(sizes) <= 1

    def test_exactly_divisible_classes_spread_evenly(self):
        ds = two_class_dataset(5, 5)
        folds = stratified_folds(ds, Task.PREDICTIVENESS, k=5, seed=2)
        for label in (0, 1):
            ids = {d.id for d in ds if d.label(Task.PREDICTIVENESS) == label}
            sizes = [sum(1 for i in ids if folds.folds[i] == f) for f in range(5)]
            assert sizes == [1, 1, 1, 1, 1]

    def test_seven_docs_five_folds_sizes(self):
        # 7 = 5*1 + 2, dealing from fold 0: two folds of 2 and three of 1
        docs = tuple(doc(f"x{i}", task1=1) for i in range(7))
        ds = Dataset(documents=docs + tuple(doc(f"z{i}", task1=0) for i in range(5)))
        folds = stratified_folds(ds, Task.PREDICTIVENESS, k=5, seed=3)
        ones = [sum(1 for d in ds if d.label(Task.PREDICTIVENESS) == 1
                    and folds.folds[d.id] == f) for f in range(5)]
        assert sorted(ones) == [1, 1, 1, 2, 2]

    def test_deterministic_and_seed_sensitive(self):
        ds = two_class_dataset(30, 30)
        a = stratified_folds(ds, Task.PREDICTIVENESS, k=5, seed=11)
        b = stratified_folds(ds, Task.PREDICTIVENESS, k=5, seed=11)
        c = stratified_folds(ds, Task.PREDICTIVENESS, k=5, seed=12)
        assert a.folds == b.folds
        assert a.folds != c.folds

    @pytest.mark.parametrize("task, counts, k, seed", [
        (Task.PREDICTIVENESS, {0: 2, 1: 2}, 2, 0),
        (Task.PREDICTIVENESS, {0: 23, 1: 17}, 5, 1),
        (Task.PREDICTIVENESS, {0: 50, 1: 9}, 9, 7),
        (Task.PREDICTIVENESS, {1: 12}, 3, 5),  # one class only
        (Task.DIRECTION, {1: 6, 2: 5, 3: 4}, 4, 2),
        (Task.DIRECTION, {1: 30, 2: 24, 3: 18}, 5, 42),
        (Task.DIRECTION, {1: 10, 3: 10}, 10, 3),  # a class absent from the data
        (Task.DIRECTION, {1: 7, 2: 7, 3: 7}, 7, 99),
    ])
    def test_assignment_follows_the_documented_deal(self, task, counts, k, seed):
        # documents of every class interleaved, with unlabeled ones among them
        rng = random.Random(seed)
        labels = [code for code, n in counts.items() for _ in range(n)]
        rng.shuffle(labels)
        docs = []
        for i, code in enumerate(labels):
            kw = {"task1": code} if task is Task.PREDICTIVENESS else {"task1": 1, "task2": code}
            docs.append(doc(f"d{i}", **kw))
            if i % 5 == 0:
                docs.append(doc(f"u{i}"))
        ds = Dataset(documents=tuple(docs))
        # each class's ids in dataset order, shuffled by one seeded stream in class order,
        # then dealt round-robin from fold 0
        deal = random.Random(seed)
        expected = {}
        for code in sorted(counts):
            ids = [d.id for d in ds.labeled(task) if d.label(task) == code]
            deal.shuffle(ids)
            expected.update({doc_id: position % k for position, doc_id in enumerate(ids)})
        folds = stratified_folds(ds, task, k=k, seed=seed)
        assert folds.k == k and dict(folds.folds) == expected
        assert sorted(folds.sizes()) == sorted(
            sum(n // k + (f < n % k) for n in counts.values()) for f in range(k))

    def test_reference_fold_sizes(self, reference_corpus):
        folds = stratified_folds(reference_corpus, Task.PREDICTIVENESS, k=5, seed=42)
        assert sorted(folds.sizes()) == [623, 623, 623, 623, 624]

    def test_k_too_small(self):
        ds = two_class_dataset(5, 5)
        with pytest.raises(DataError, match="k must be"):
            stratified_folds(ds, Task.PREDICTIVENESS, k=1, seed=0)

    def test_class_smaller_than_k(self):
        ds = two_class_dataset(10, 3)
        with pytest.raises(DataError, match="fewer than k"):
            stratified_folds(ds, Task.PREDICTIVENESS, k=5, seed=0)

    def test_no_labeled_documents(self):
        ds = Dataset(documents=(doc("a"), doc("b")))
        with pytest.raises(DataError, match="no documents labeled"):
            stratified_folds(ds, Task.DIRECTION, k=2, seed=0)

    def test_unlabeled_documents_not_assigned(self):
        ds = Dataset(documents=tuple(doc(f"a{i}", task1=i % 2) for i in range(10)) + (doc("u"),))
        folds = stratified_folds(ds, Task.PREDICTIVENESS, k=2, seed=0)
        assert "u" not in folds.folds
