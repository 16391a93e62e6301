"""Tweet corpus schema, loading, label statistics, and stratified fold assignment.

A corpus is a flat collection of annotated tweet documents. Each document may
carry a binary predictiveness label (task 1) and, when predictive, a movement
direction label (task 2). Documents are either scraped originals or synthetic
paraphrases pointing back at an original parent.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
import types
import typing
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Mapping, TypeVar


class DataError(ValueError):
    """Malformed input file, schema violation, or broken corpus invariant."""


def require_field(payload: dict, key: str, kind: type | tuple[type, ...], where: object):
    """payload[key] when present and of the given type(s); DataError otherwise.

    bool is rejected where int or float is asked for, as JSON keeps them apart.
    """
    if key not in payload:
        raise DataError(f"{where}: missing key {key!r}")
    value = payload[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise DataError(f"{where}: {key!r} must be {names}, got {type(value).__name__}")
    return value


#: Field annotations a config dataclass may use (besides a nested dataclass
#: and X | None), with the wording of their type errors and their check.
_FIELD_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float) and math.isfinite(v)),
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
    and kept as given; NaN and infinities are not), bool, str, list[str],
    X | None, or a nested dataclass, parsed the same way. cls's own
    __post_init__ checks run last. Errors name the dotted key path below
    `where` and raise DataError.
    """
    if not isinstance(data, dict):
        raise DataError(f"{where or 'config'} must be an object, got {type(data).__name__}")
    prefix = f"{where}." if where else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(str(key) for key in set(data) - set(fields))
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(prefix + k for k in unknown)}")
    missing = [name for name, f in fields.items() if name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise DataError(f"missing config keys: {', '.join(prefix + k for k in missing)}")
    hints = typing.get_type_hints(cls)
    kwargs = {key: _field_value(hints[key], value, prefix + key) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:  # DataError included
        raise DataError(f"{where}: {exc}" if where else str(exc)) from None


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
    raise DataError(f"{key} must be {expected}, got {type(value).__name__}")


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


def label_enum(task: Task) -> type[IntEnum]:
    return Task1Label if Task(task) is Task.PREDICTIVENESS else Task2Label


@dataclass(frozen=True)
class Annotation:
    """One annotator's judgement on one task for one document."""

    annotator: str
    task: Task
    label: int

    def __post_init__(self) -> None:
        if not self.annotator:
            raise DataError("annotation requires a non-empty annotator id")
        try:
            object.__setattr__(self, "task", Task(self.task))
        except ValueError:
            raise DataError(f"unknown task {self.task!r} in annotation") from None
        try:
            object.__setattr__(self, "label", label_enum(self.task)(self.label))
        except ValueError:
            raise DataError(
                f"unknown label code {self.label!r} for task {int(self.task)}"
            ) from None


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
    annotations: tuple[Annotation, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("document id must be a non-empty string")
        if not isinstance(self.text, str) or not self.text:
            raise DataError(f"document {self.id!r}: text must be a non-empty string")
        object.__setattr__(self, "annotations", tuple(self.annotations))
        if self.task1 is not None:
            object.__setattr__(self, "task1", _coerce_label(self.task1, Task.PREDICTIVENESS, self.id))
        if self.task2 is not None:
            object.__setattr__(self, "task2", _coerce_label(self.task2, Task.DIRECTION, self.id))
            if self.task1 is not Task1Label.PREDICTIVE:
                raise DataError(
                    f"document {self.id!r}: direction label requires task1 == 1 (predictive)"
                )
        if self.source is Source.SYNTHETIC and not self.parent_id:
            raise DataError(f"document {self.id!r}: synthetic documents require a parent_id")
        if self.source is Source.ORIGINAL and self.parent_id is not None:
            raise DataError(f"document {self.id!r}: original documents must not carry a parent_id")

    def label(self, task: Task) -> int | None:
        """Gold label code for the given task, or None when unlabeled."""
        value = self.task1 if Task(task) is Task.PREDICTIVENESS else self.task2
        return None if value is None else int(value)


def _coerce_label(value: object, task: Task, doc_id: str) -> IntEnum:
    enum = label_enum(task)
    if isinstance(value, bool) or not isinstance(value, (int, IntEnum)):
        raise DataError(f"document {doc_id!r}: task{int(task)} label must be an integer")
    try:
        return enum(value)
    except ValueError:
        raise DataError(
            f"document {doc_id!r}: unknown label code {value!r} for task {int(task)}"
        ) from None


@dataclass(frozen=True)
class Dataset:
    """An immutable ordered collection of documents with unique ids."""

    documents: tuple[Document, ...]
    name: str = "dataset"

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        ids: dict[str, Document] = {}
        for doc in self.documents:
            if doc.id in ids:
                raise DataError(f"duplicate document id {doc.id!r}")
            ids[doc.id] = doc
        for doc in self.documents:
            if doc.source is Source.SYNTHETIC:
                parent = ids.get(doc.parent_id)
                if parent is None:
                    raise DataError(
                        f"document {doc.id!r}: parent_id {doc.parent_id!r} not in dataset"
                    )
                if parent.source is not Source.ORIGINAL:
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
    total: int

    def count(self, code: int) -> int:
        return self.counts.get(int(code), 0)


def distribution(dataset: Dataset, task: Task) -> LabelDistribution:
    """Count labeled documents per class. Unlabeled documents are ignored."""
    task = Task(task)
    counts = {int(code): 0 for code in label_enum(task)}
    for doc in dataset:
        code = doc.label(task)
        if code is not None:
            counts[code] += 1
    return LabelDistribution(task=task, counts=counts, total=sum(counts.values()))


# ---------------------------------------------------------------------------
# serialization

_COLUMNS = ("id", "text", "coin", "task1", "task2", "source", "parent_id", "annotations")


def _doc_to_record(doc: Document) -> dict:
    return {
        "id": doc.id,
        "text": doc.text,
        "coin": None if doc.coin is None else doc.coin.value,
        "task1": None if doc.task1 is None else int(doc.task1),
        "task2": None if doc.task2 is None else int(doc.task2),
        "source": doc.source.value,
        "parent_id": doc.parent_id,
        "annotations": [
            {"annotator": a.annotator, "task": int(a.task), "label": int(a.label)}
            for a in doc.annotations
        ],
    }


def _doc_from_record(rec: object, where: str) -> Document:
    if not isinstance(rec, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    unknown = set(rec) - set(_COLUMNS)
    if unknown:
        raise DataError(f"{where}: unknown fields {sorted(unknown)}")
    doc_id = rec.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError(f"{where}: 'id' must be a non-empty string")
    text = rec.get("text")
    if not isinstance(text, str):
        raise DataError(f"{where}: 'text' must be a string")

    coin_raw = rec.get("coin")
    coin: Coin | None = None
    if coin_raw is not None:
        try:
            coin = Coin(coin_raw)
        except ValueError:
            raise DataError(f"{where}: unknown coin {coin_raw!r}") from None

    source_raw = rec.get("source")
    if source_raw is None:
        source = Source.ORIGINAL
    else:
        try:
            source = Source(source_raw)
        except ValueError:
            raise DataError(f"{where}: unknown source {source_raw!r}") from None

    parent_id = rec.get("parent_id")
    if parent_id is not None and not isinstance(parent_id, str):
        raise DataError(f"{where}: 'parent_id' must be a string or null")

    anns_raw = rec.get("annotations") or []
    if not isinstance(anns_raw, list):
        raise DataError(f"{where}: 'annotations' must be a list")
    annotations = []
    for a in anns_raw:
        if not isinstance(a, dict):
            raise DataError(f"{where}: each annotation must be an object")
        try:
            annotations.append(
                Annotation(
                    annotator=a.get("annotator", ""),
                    task=a.get("task"),
                    label=a.get("label"),
                )
            )
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None

    try:
        return Document(
            id=doc_id,
            text=text,
            coin=coin,
            task1=rec.get("task1"),
            task2=rec.get("task2"),
            source=source,
            parent_id=parent_id,
            annotations=tuple(annotations),
        )
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("jsonl", "csv"):
            raise DataError(f"unknown dataset format {fmt!r}")
        return fmt
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise DataError(f"cannot infer dataset format from {path.name!r}; pass fmt explicitly")


def load_dataset(path: str | Path, fmt: str | None = None, name: str | None = None) -> Dataset:
    """Load a dataset from a JSONL or CSV file.

    The format is inferred from the file suffix unless given. Any schema
    violation raises DataError naming the file and line.
    """
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    docs: list[Document] = []
    if fmt == "jsonl":
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path.name}:{lineno}"
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{where}: invalid JSON ({exc.msg})") from None
                docs.append(_doc_from_record(rec, where))
    else:
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != _COLUMNS:
                raise DataError(
                    f"{path.name}: expected header {','.join(_COLUMNS)}, "
                    f"got {','.join(reader.fieldnames or ())}"
                )
            for lineno, row in enumerate(reader, start=2):
                where = f"{path.name}:{lineno}"
                docs.append(_doc_from_record(_csv_row_to_record(row, where), where))
    return Dataset(documents=tuple(docs), name=name or path.stem)


def _csv_row_to_record(row: dict, where: str) -> dict:
    rec: dict = {}
    for key in _COLUMNS:
        cell = row.get(key)
        if cell is None or cell == "":
            rec[key] = None
            continue
        if key in ("task1", "task2"):
            try:
                rec[key] = int(cell)
            except ValueError:
                raise DataError(f"{where}: '{key}' must be an integer, got {cell!r}") from None
        elif key == "annotations":
            try:
                rec[key] = json.loads(cell)
            except json.JSONDecodeError:
                raise DataError(f"{where}: 'annotations' cell is not valid JSON") from None
        else:
            rec[key] = cell
    if rec["text"] is None:
        rec["text"] = ""
    return rec


def save_dataset(dataset: Dataset, path: str | Path, fmt: str | None = None) -> None:
    """Write a dataset as JSONL or CSV. load_dataset(save_dataset(ds)) round-trips."""
    path = Path(path)
    fmt = _infer_format(path, fmt)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for doc in dataset:
                fh.write(json.dumps(_doc_to_record(doc), ensure_ascii=False) + "\n")
        return
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for doc in dataset:
            rec = _doc_to_record(doc)
            writer.writerow(
                [
                    rec["id"],
                    rec["text"],
                    rec["coin"] or "",
                    "" if rec["task1"] is None else rec["task1"],
                    "" if rec["task2"] is None else rec["task2"],
                    rec["source"],
                    rec["parent_id"] or "",
                    json.dumps(rec["annotations"]) if rec["annotations"] else "",
                ]
            )


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
