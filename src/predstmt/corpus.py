"""Tweet corpus schema, loading, label statistics, stratified folds and agreement.

A corpus is a flat collection of labelled tweet documents. Each document may
carry a binary predictiveness label (task 1) and, when predictive, a movement
direction label (task 2). Documents are either scraped originals or synthetic
paraphrases pointing back at an original parent. cohen_kappa measures how far
two raters agree; their labels live in the kappa command's own files, not in
the corpus. Like every module the offline commands use, this one needs no numpy.

A dataset is a JSONL file, one record a line. load_dataset checks every
record in one order and raises the first fault it finds: a JSON object
without a repeated key; known keys; 'id'; the type of 'text'; coin; source;
'parent_id'; no lone surrogate (an escape such as \\ud800, which UTF-8
cannot encode) in 'id', 'text' or 'parent_id'; the reserved 'annotations'
key (absent, null or empty); empty or whitespace-only text; labels;
provenance (a synthetic document names a parent, an original none).
A canonical JSONL line that passes them, the 8-key line save_dataset writes
or the 5-key one json.dumps(record, ensure_ascii=False) writes for an original,
is read by one compiled pattern, _CANONICAL; its groups hold no backslash and
the file is strict UTF-8, so they hold no surrogate either. Any other line
(escapes, json.dumps' default \\uXXXX ones included; another key order or
other separators) loads the same Document through parse_json, the one strict
decoder of every JSON input (lexicon, config and kappa files too), which
words its errors.

open_input is the one opener of every input file (dataset, lexicon, kappa
files, config file): it reads each once, as UTF-8, and can feed every byte it
reads to a SHA-256. read_jsonl and read_json parse what it opens.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import operator
import random
import re
import sys
import types
import typing
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TextIO, TypeVar


class DataError(ValueError):
    """Malformed input file, schema violation, or broken corpus invariant."""


def _invalid_json(reason: str) -> DataError:
    return DataError(f"invalid JSON ({reason})")


def reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object_pairs_hook of every JSON input: DataError naming the first
    key given twice, so a repeated key never silently wins."""
    result = dict(pairs)
    if len(result) < len(pairs):  # only then look for the key
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DataError(f"duplicate key {key!r}")
            seen.add(key)
    return result


#: The one decoder of every JSON input, built once; json.loads builds one a call.
_DECODER = json.JSONDecoder(object_pairs_hook=reject_duplicate_keys)


def parse_json(text: str, invalid: Callable[[str], Exception] = _invalid_json) -> object:
    """json.loads(text) for text read from an input file, no key given twice.

    Malformed JSON (a leading BOM included, as json.loads refuses it), JSON
    nested too deeply to decode and integers too long to convert all raise
    invalid(reason), the caller's one-line error, instead of a traceback. An
    object that repeats a key raises DataError naming the first key given twice.
    """
    if text.startswith("\ufeff"):
        raise invalid("Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise invalid(exc.msg) from None
    except RecursionError:
        raise invalid("nested too deeply") from None
    except DataError:
        raise
    except ValueError:  # an integer literal longer than sys.get_int_max_str_digits()
        raise invalid("integer too long") from None


class _HashingReader(io.RawIOBase):
    """Reads raw, a binary file, and passes every byte it reads to sha256.update."""

    def __init__(self, raw: io.FileIO, sha256: hashlib._Hash) -> None:
        self._raw, self._update = raw, sha256.update

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self._update(memoryview(buffer)[:n])
        return n


@contextmanager
def open_input(path: Path, what: str,
               sha256: hashlib._Hash | None = None) -> Iterator[TextIO]:
    """The file at path as UTF-8 text with universal newlines, opened once.

    Every byte read also goes to sha256, if given. Failing to open, read or
    decode it, in the with block too, raises DataError("cannot read <what> <path>: ...");
    a byte that is not UTF-8 is named by its line and file offset.
    """
    try:
        raw = open(path, "rb", buffering=0)
    except (OSError, ValueError) as exc:  # ValueError: a path the OS cannot take
        raise DataError(f"cannot read {what} {path}: {exc}") from None
    try:
        with raw, io.TextIOWrapper(io.BufferedReader(
                raw if sha256 is None else _HashingReader(raw, sha256)),
                encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {what} {path}: {_decode_error(path, exc)}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def _decode_error(path: Path, exc: UnicodeDecodeError) -> str:
    """The line and file offset of path's first byte that is not UTF-8, else str(exc),
    whose offset is in the chunk being decoded. Lines end as universal newlines end them.
    Only a regular file is read again: a pipe would give other bytes."""
    try:
        data = path.read_bytes() if path.is_file() else b""
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        head = data[:whole.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return (f"line {line}, file offset {whole.start}: byte 0x{data[whole.start]:02x} "
                f"is not UTF-8 ({whole.reason})")
    except OSError:
        pass
    return str(exc)


def read_json(path: Path, what: str, sha256: hashlib._Hash | None = None) -> object:
    """The JSON value in the file at path, read through open_input as <what>.

    Errors read "<what> <path>: duplicate key ..." or "<what> <path> is not valid JSON: ...".
    """
    with open_input(path, what, sha256) as fh:
        text = fh.read()
    try:
        return parse_json(text, ValueError)
    except DataError as exc:  # a repeated key
        raise DataError(f"{what} {path}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None


def jsonable(value: object) -> object:
    """value as plain JSON data, the one encoding of every artifact.

    A dataclass becomes an object of its fields, an IntEnum its int and any
    other Enum its value; a tuple or list becomes a list, and anything with
    tolist (numpy arrays and scalars) what tolist gives. A mapping's int
    keys are written with %d, IntEnum ones included (str() of an IntEnum
    differs across Python versions), so that sort_keys orders them as the
    strings they become; any other non-string key is a TypeError.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return int(value) if isinstance(value, IntEnum) else jsonable(value.value)
    if isinstance(value, Mapping):
        return {key if isinstance(key, str) else "%d" % operator.index(key): jsonable(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def write_json(path: Path, payload: object) -> None:
    """Write jsonable(payload) as a JSON artifact: sorted keys, indent 2, final newline."""
    path.write_text(json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def is_finite_number(value: object) -> bool:
    """A JSON number a float can hold: a finite float, or an int in float range (not bool)."""
    return (type(value) is float and math.isfinite(value)
            or type(value) is int and abs(value) <= sys.float_info.max)


#: Field annotations a config dataclass may use (besides a nested dataclass
#: and X | None), with the wording of their type errors and their check.
_FIELD_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", is_finite_number),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    list[str]: ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
    type(None): ("null", lambda v: v is None),
}

_C = TypeVar("_C")


def from_dict(cls: type[_C], data: object, where: str = "") -> _C:
    """Build the dataclass cls from a JSON object, strictly.

    Every key must name a field of cls; a missing key takes the field's
    default, and a field without one is required. Each value must match
    its field's annotation: int (bool excluded), float (an int is accepted
    and kept as given unless too large for a float; NaN and infinities are
    not), bool, str, list[str], X | None, or a nested dataclass, parsed
    the same way. cls's own __post_init__ checks run last. Errors name the
    dotted key path below `where` and raise DataError.
    """
    if not isinstance(data, dict):
        raise DataError(f"{where or 'config'} must be an object, got {type(data).__name__}")
    prefix = f"{where}." if where else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(str(key) for key in set(data) - set(fields))
    if unknown:
        raise DataError(f"unknown config keys: {_key_list(prefix, unknown)}")
    missing = [name for name, f in fields.items() if name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise DataError(f"missing config keys: {_key_list(prefix, missing)}")
    hints = typing.get_type_hints(cls)
    kwargs = {key: _field_value(hints[key], value, prefix + key) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:  # DataError included
        raise DataError(f"{where}: {exc}" if where else str(exc)) from None


def _key_list(prefix: str, keys: list[str]) -> str:
    """Comma-joined dotted keys, non-printable characters escaped to keep one line."""
    return ", ".join("".join(c if c.isprintable() else repr(c)[1:-1] for c in prefix + key)
                     for key in keys)


def _field_value(hint: object, value: object, key: str) -> object:
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    for option in options:
        if dataclasses.is_dataclass(option):
            if isinstance(value, dict):
                return from_dict(option, value, key)
        elif _FIELD_TYPES[option][1](value):
            return value
    expected = " or ".join(
        "an object" if dataclasses.is_dataclass(o) else _FIELD_TYPES[o][0] for o in options)
    # a float is named by its value: where a number is expected only inf and nan
    # fail, and "got float" would not say why
    got = repr(value) if type(value) is float else type(value).__name__
    raise DataError(f"{key} must be {expected}, got {got}")


class Task(IntEnum):
    PREDICTIVENESS = 1
    DIRECTION = 2


class Task1Label(IntEnum):
    NON_PREDICTIVE = 0
    PREDICTIVE = 1


class Task2Label(IntEnum):
    INCREMENTAL = 1
    DECREMENTAL = 2
    NEUTRAL = 3


class Coin(Enum):
    ADA = "ADA"
    MATIC = "MATIC"
    BNB = "BNB"
    XRP = "XRP"
    FTM = "FTM"
    OTHER = "Other"


class Source(Enum):
    ORIGINAL = "original"
    SYNTHETIC = "synthetic"


#: Human-readable names for report rendering, keyed by task then label code.
LABEL_NAMES: dict[Task, dict[int, str]] = {
    Task.PREDICTIVENESS: {
        Task1Label.NON_PREDICTIVE: "Non-Predictive",
        Task1Label.PREDICTIVE: "Predictive",
    },
    Task.DIRECTION: {
        Task2Label.INCREMENTAL: "Predictive Incremental",
        Task2Label.DECREMENTAL: "Predictive Decremental",
        Task2Label.NEUTRAL: "Predictive Neutral",
    },
}


# Members by value for the loaders: a dict lookup costs a fraction of an Enum
# call. Only values of the members' own type are looked up, so an unhashable
# value never reaches a dict.
_LABELS = {task: {int(member): member for member in names} for task, names in LABEL_NAMES.items()}
_COINS = {coin.value: coin for coin in Coin}
_SOURCES = {source.value: source for source in Source}
# Members the loader, Dataset and Document.label compare against on every record.
# Reading a member off its Enum class costs several times a global lookup (a
# descriptor call in Python 3.11), so the per-record path reads these.
_ORIGINAL, _SYNTHETIC, _PREDICTIVE = Source.ORIGINAL, Source.SYNTHETIC, Task1Label.PREDICTIVE
_PREDICTIVENESS, _DIRECTION = Task.PREDICTIVENESS, Task.DIRECTION


def _prechecked(cls: type[_C], fields: dict) -> _C:
    """An instance of the frozen dataclass cls whose __dict__ is fields itself.

    For callers whose fields could only pass cls's __post_init__: the loader,
    which has made its checks with the same messages, and balance(), which
    copies checked documents. fields is a dict built for this instance alone.
    """
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", fields)
    return instance


def _check_encodable(fields: Mapping[str, str | None]) -> None:
    """DataError naming the first field whose value holds a lone surrogate (a JSON escape
    such as \\ud800 gives one), which UTF-8, and so no dataset file, can hold."""
    for name, value in fields.items():
        if value is not None and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DataError(f"{name} holds lone surrogate U+{ord(value[exc.start]):04X}, "
                                "which UTF-8 cannot encode") from None


def cohen_kappa(a: Sequence[int], b: Sequence[int]) -> float:
    """Chance-corrected agreement (p0 - pe) / (1 - pe) between two raters."""
    if len(a) != len(b):
        raise DataError(f"annotation lengths differ: {len(a)} vs {len(b)}")
    if not a:
        raise DataError("cannot compute kappa on empty annotations")
    n = len(a)
    agree = sum(1 for x, y in zip(a, b) if x == y)
    p0 = agree / n
    labels = set(a) | set(b)
    count_a, count_b = Counter(a), Counter(b)
    pe = sum((count_a[lab] / n) * (count_b[lab] / n) for lab in labels)
    if pe >= 1.0:
        if p0 == 1.0:
            return 1.0
        raise DataError("chance agreement is 1 but raters disagree")
    return (p0 - pe) / (1.0 - pe)


def _checked_labels(doc_id: str, task1: object, task2: object, source: Source,
                    parent_id: str | None) -> tuple[IntEnum | None, IntEnum | None]:
    """A document's label members, after its label and provenance checks."""
    if task1 is not None:
        task1 = _coerce_label(task1, 1, doc_id)
    if task2 is not None:
        task2 = _coerce_label(task2, 2, doc_id)
        if task1 is not _PREDICTIVE:
            raise DataError(
                f"document {doc_id!r}: direction label requires task1 == 1 (predictive)"
            )
    if source is _SYNTHETIC and not parent_id:
        raise DataError(f"document {doc_id!r}: synthetic documents require a parent_id")
    if source is _ORIGINAL and parent_id is not None:
        raise DataError(f"document {doc_id!r}: original documents must not carry a parent_id")
    return task1, task2


def _coerce_label(value: object, task: int, doc_id: str) -> IntEnum:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"document {doc_id!r}: task{task} label must be an integer")
    member = _LABELS[task].get(value)
    if member is None:
        raise DataError(f"document {doc_id!r}: unknown label code {value!r} for task {task}")
    return member


@dataclass(frozen=True)
class Document:
    """A single tweet with optional labels and provenance.

    task2 may only be set on documents labeled predictive, and synthetic
    documents must name the original they paraphrase.
    """

    id: str
    text: str
    coin: Coin | None = None
    task1: Task1Label | None = None
    task2: Task2Label | None = None
    source: Source = Source.ORIGINAL
    parent_id: str | None = None

    def __post_init__(self) -> None:
        doc_id, coin, source, parent_id = self.id, self.coin, self.source, self.parent_id
        if not isinstance(doc_id, str) or not doc_id:
            raise DataError("document id must be a non-empty string")
        if not isinstance(self.text, str) or not self.text:
            raise DataError(f"document {doc_id!r}: text must be a non-empty string")
        if self.text.isspace():
            raise DataError(f"document {doc_id!r}: text must hold a non-whitespace character")
        if coin is not None and type(coin) is not Coin:
            raise DataError(f"document {doc_id!r}: unknown coin {coin!r}")
        if type(source) is not Source:
            raise DataError(f"document {doc_id!r}: unknown source {source!r}")
        if parent_id is not None and not isinstance(parent_id, str):
            raise DataError(f"document {doc_id!r}: 'parent_id' must be a string or null")
        _check_encodable({"'id'": doc_id, "'text'": self.text, "'parent_id'": parent_id})
        task1, task2 = _checked_labels(doc_id, self.task1, self.task2, source, parent_id)
        self.__dict__.update(task1=task1, task2=task2)  # frozen: bypass __setattr__

    def label(self, task: Task) -> int | None:
        """Gold label code for the given task, or None when unlabeled."""
        if task == _PREDICTIVENESS:
            value = self.task1
        elif task == _DIRECTION:
            value = self.task2
        else:
            raise ValueError(f"{task!r} is not a valid Task")
        return None if value is None else int(value)


@dataclass(frozen=True)
class Dataset:
    """An immutable ordered collection of documents with unique ids."""

    documents: tuple[Document, ...]
    name: str = "dataset"

    def __post_init__(self) -> None:
        if not isinstance(self.documents, (tuple, list)):
            raise DataError(f"dataset documents must be a tuple or list, "
                            f"got {type(self.documents).__name__}")
        if not isinstance(self.name, str):
            raise DataError(f"dataset name must be a string, got {type(self.name).__name__}")
        object.__setattr__(self, "documents", tuple(self.documents))
        ids: dict[str, Document] = {}
        for doc in self.documents:
            if type(doc) is not Document:
                raise DataError(f"each document must be a Document, got {type(doc).__name__}")
            if doc.id in ids:
                raise DataError(f"duplicate document id {doc.id!r}")
            ids[doc.id] = doc
        for doc in self.documents:
            if doc.source is _SYNTHETIC:
                parent = ids.get(doc.parent_id)
                if parent is None:
                    raise DataError(
                        f"document {doc.id!r}: parent_id {doc.parent_id!r} not in dataset"
                    )
                if parent.source is not _ORIGINAL:
                    raise DataError(
                        f"document {doc.id!r}: parent {doc.parent_id!r} is not an original"
                    )

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def labeled(self, task: Task) -> list[Document]:
        """Documents carrying a gold label for the given task, in corpus order."""
        return [doc for doc in self.documents if doc.label(task) is not None]


@dataclass(frozen=True)
class LabelDistribution:
    """Per-class document counts for one task over one dataset."""

    task: Task
    counts: Mapping[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, code: int) -> int:
        return self.counts.get(int(code), 0)


def distribution(dataset: Dataset, task: Task) -> LabelDistribution:
    """Count labeled documents per class. Unlabeled documents are ignored."""
    task = Task(task)
    counts = {int(code): 0 for code in LABEL_NAMES[task]}
    for doc in dataset:
        code = doc.label(task)
        if code is not None:
            counts[code] += 1
    return LabelDistribution(task=task, counts=counts)


# ---------------------------------------------------------------------------
# serialization

_KEYS = frozenset(("id", "text", "coin", "task1", "task2", "source", "parent_id",
                   "annotations"))


# The JSONL line of a document: every key, in this order, with the separators
# of json.JSONEncoder(ensure_ascii=False).
_JSONL_LINE = ('{"id": %s, "text": %s, "coin": %s, "task1": %s, "task2": %s, '
               '"source": %s, "parent_id": %s, "annotations": []}\n')
# The string encoder JSONEncoder(ensure_ascii=False) itself calls, so every
# string is escaped exactly as it would escape it.
_json_str = json.encoder.encode_basestring


def _jsonl_line(doc: Document) -> str:
    """The JSONL line of doc, newline included.

    Equal to json.JSONEncoder(ensure_ascii=False).encode of doc's record (its
    fields, labels as their codes, members as their values, "annotations"
    as []) plus "\\n", built with one %-format: every document has the same
    keys in the same order. Labels print as their int codes ("%d"), and
    members are read through _value_, which skips the per-call cost of
    Enum.value.
    """
    coin, task1, task2, parent_id = doc.coin, doc.task1, doc.task2, doc.parent_id
    return _JSONL_LINE % (
        _json_str(doc.id),
        _json_str(doc.text),
        "null" if coin is None else _json_str(coin._value_),
        "null" if task1 is None else "%d" % task1,
        "null" if task2 is None else "%d" % task2,
        _json_str(doc.source._value_),
        "null" if parent_id is None else _json_str(parent_id),
    )


def _doc_from_record(rec: object) -> Document:
    """The Document of one parsed record; the caller prefixes errors with their location.

    Runs the checks in the order the module docstring gives.
    """
    if type(rec) is not dict:
        raise DataError(f"expected a JSON object, got {type(rec).__name__}")
    if not _KEYS.issuperset(rec):
        raise DataError(f"unknown fields {sorted(rec.keys() - _KEYS)}")
    get = rec.get
    doc_id, text, coin, source = get("id"), get("text"), get("coin"), get("source")
    if type(doc_id) is not str or not doc_id:
        raise DataError("'id' must be a non-empty string")
    if type(text) is not str:
        raise DataError("'text' must be a string")
    if coin is not None:
        member = _COINS.get(coin) if type(coin) is str else None
        if member is None:
            raise DataError(f"unknown coin {coin!r}")
        coin = member
    if source is None:
        source = _ORIGINAL
    else:
        member = _SOURCES.get(source) if type(source) is str else None
        if member is None:
            raise DataError(f"unknown source {source!r}")
        source = member
    parent_id, annotations = get("parent_id"), get("annotations")
    if parent_id is not None and type(parent_id) is not str:
        raise DataError("'parent_id' must be a string or null")
    _check_encodable({"'id'": doc_id, "'text'": text, "'parent_id'": parent_id})
    if annotations is not None and (type(annotations) is not list or annotations):
        raise DataError("'annotations' must be absent, null or []: "
                        "agreement labels go in kappa files")
    if not text:
        raise DataError(f"document {doc_id!r}: text must be a non-empty string")
    if text.isspace():
        raise DataError(f"document {doc_id!r}: text must hold a non-whitespace character")
    task1, task2 = _checked_labels(doc_id, get("task1"), get("task2"), source, parent_id)
    return _prechecked(Document, {
        "id": doc_id, "text": text, "coin": coin, "task1": task1, "task2": task2,
        "source": source, "parent_id": parent_id,
    })


# The two canonical lines: the 8-key one save_dataset writes, and its first
# five keys, the json.dumps(record, ensure_ascii=False) of an original. A
# string group holds no quote, backslash or control character, so it decodes
# to exactly its characters, and the keys are fixed, so none repeats.
_STR = r'"([^"\\\x00-\x1f]+)"'
_CANONICAL = re.compile(
    r'\{"id": %s, "text": %s, "coin": (?:"(%s)"|null), "task1": (0|1|null), '
    r'"task2": (1|2|3|null)(?:, "source": "(original|synthetic)", "parent_id": (?:%s|null), '
    r'"annotations": \[\])?\}\n?' % (_STR, _STR, "|".join(_COINS), _STR))
#: The label members of every valid (task1, task2), keyed by the pair's JSON spelling.
_LINE_LABELS = {(json.dumps(t1), json.dumps(t2)): (_LABELS[1].get(t1), _LABELS[2].get(t2))
                for t1, t2 in ((None, None), (0, None), (1, None), (1, 1), (1, 2), (1, 3))}


def _doc_from_line(line: str) -> Document:
    """The Document of one JSONL line: _doc_from_record(parse_json(line)), or its error.

    A canonical line whose labels, text and provenance pass the loader's
    checks is built from the pattern's groups; any other line is parsed.
    """
    match = _CANONICAL.fullmatch(line)
    if match is not None:
        doc_id, text, coin, task1, task2, source, parent_id = match.groups()
        labels = _LINE_LABELS.get((task1, task2))
        source = _ORIGINAL if source is None else _SOURCES[source]
        if (labels is not None and not text.isspace()
                and (parent_id is None) is (source is _ORIGINAL)):
            return _prechecked(Document, {
                "id": doc_id, "text": text, "coin": coin and _COINS[coin],
                "task1": labels[0], "task2": labels[1], "source": source,
                "parent_id": parent_id,
            })
    return _doc_from_record(parse_json(line))


def _check_suffix(path: Path) -> None:
    if path.suffix.lower() not in (".jsonl", ".ndjson"):
        raise DataError(f"cannot infer dataset format from {path.name!r}: "
                        "datasets are JSONL (.jsonl or .ndjson)")


def load_dataset(path: str | Path, sha256: hashlib._Hash | None = None) -> Dataset:
    """Load a dataset, named after the file's stem, from a JSONL file.

    The suffix must be .jsonl or .ndjson, in any case. Any schema violation
    raises DataError naming the file and line. Every byte of the file goes
    to sha256, if given.
    """
    path = Path(path)
    _check_suffix(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    docs: list[Document] = []
    read_jsonl(path, "dataset", lambda line: docs.append(_doc_from_line(line)), sha256)
    return Dataset(documents=tuple(docs), name=path.stem)


def read_jsonl(path: Path, what: str, record: Callable[[str], None],
               sha256: hashlib._Hash | None = None) -> None:
    """Pass each JSONL line of path, read through open_input, to record.

    Lines holding only JSON whitespace (space, tab, CR, LF) are skipped; a
    line of any other whitespace, such as U+2028, goes to record, which
    finds it invalid JSON. A DataError from record, which parses the line,
    is prefixed with "<file name>:<line>: ".
    """
    with open_input(path, what, sha256) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace() and not line.strip(" \t\r\n"):
                continue
            try:
                record(line)
            except DataError as exc:
                raise DataError(f"{path.name}:{lineno}: {exc}") from None


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as JSONL, one _jsonl_line a document; the suffix is load_dataset's.

    load_dataset(save_dataset(ds)) round-trips.
    """
    path = Path(path)
    _check_suffix(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(map(_jsonl_line, dataset))


# ---------------------------------------------------------------------------
# stratified folds

@dataclass(frozen=True)
class FoldAssignment:
    """Maps each labeled document id to a fold index in [0, k)."""

    k: int
    folds: Mapping[str, int]

    def sizes(self) -> list[int]:
        out = [0] * self.k
        for f in self.folds.values():
            out[f] += 1
        return out


def stratified_folds(dataset: Dataset, task: Task, k: int, seed: int) -> FoldAssignment:
    """Assign labeled documents to k folds, preserving class proportions.

    Documents of each class are shuffled with a seeded RNG and dealt
    round-robin starting at fold 0, so per-class fold counts differ by at
    most one. Classes present with fewer than k labeled documents raise
    DataError; classes absent from the data are simply not represented.
    """
    task = Task(task)
    if k < 2:
        raise DataError(f"k must be at least 2, got {k}")
    by_class: dict[int, list[str]] = {}
    for doc in dataset.labeled(task):
        by_class.setdefault(doc.label(task), []).append(doc.id)
    if not by_class:
        raise DataError(f"no documents labeled for task {int(task)}")
    rng = random.Random(seed)
    assignment: dict[str, int] = {}
    for code in sorted(by_class):
        ids = by_class[code]
        if len(ids) < k:
            name = LABEL_NAMES[task].get(code, str(code))
            raise DataError(
                f"class {name!r} has {len(ids)} labeled documents, fewer than k={k}"
            )
        rng.shuffle(ids)
        for position, doc_id in enumerate(ids):
            assignment[doc_id] = position % k
    return FoldAssignment(k=k, folds=assignment)
