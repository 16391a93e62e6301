"""Lexicon-based emotion tagging and per-coin aggregation.

Documents are tagged with grouped emotion categories by matching lexicon
terms and phrases against preprocessed tokens (longest phrase first,
non-overlapping, left to right). Aggregation reports, for every coin and
direction label, the percentage of documents tagged with each category.
Categories co-occur freely, so row percentages need not sum to 100.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping

from .corpus import Coin, DataError, Dataset, Document, Task2Label, _check_encodable, read_json
from .preprocess import preprocess


class EmotionCategory(Enum):
    DELIGHT_JOY = "delight_joy"
    ENTHUSIASM_EAGERNESS = "enthusiasm_eagerness"
    DELIGHT_PLEASANTNESS = "delight_pleasantness"
    GRIEF_SADNESS = "grief_sadness"
    FEAR_ANXIETY = "fear_anxiety"
    RAGE_ANGER = "rage_anger"


#: Fixed rendering order and display titles for report columns.
CATEGORY_TITLES: dict[EmotionCategory, str] = {
    EmotionCategory.DELIGHT_JOY: "Delight and Joy",
    EmotionCategory.ENTHUSIASM_EAGERNESS: "Enthusiasm and Eagerness",
    EmotionCategory.DELIGHT_PLEASANTNESS: "Delight and Pleasantness",
    EmotionCategory.GRIEF_SADNESS: "Grief and Sadness",
    EmotionCategory.FEAR_ANXIETY: "Fear and Anxiety",
    EmotionCategory.RAGE_ANGER: "Rage and Anger",
}

_DIRECTION_ROW_NAMES = {
    Task2Label.INCREMENTAL: "Incremental",
    Task2Label.DECREMENTAL: "Decremental",
    Task2Label.NEUTRAL: "Neutral",
}


@dataclass(frozen=True)
class EmotionLexicon:
    """Validated term table plus base-emotion grouping.

    phrase_entries maps token tuples (each term's tokens, as preprocess makes
    them from a text holding the term) to (base emotion, weight) pairs; every
    base emotion appearing in an entry has a grouping into one of the six categories.
    """

    phrase_entries: Mapping[tuple[str, ...], tuple[tuple[str, float], ...]]
    grouping: Mapping[str, EmotionCategory]

    @cached_property
    def phrase_lengths(self) -> dict[str, tuple[int, ...]]:
        """First token of each term -> lengths of the terms it starts, longest first."""
        lengths: dict[str, set[int]] = {}
        for key in self.phrase_entries:
            lengths.setdefault(key[0], set()).add(len(key))
        return {first: tuple(sorted(ns, reverse=True)) for first, ns in lengths.items()}


def load_lexicon(path: str | Path, sha256: hashlib._Hash | None = None) -> EmotionLexicon:
    """Load and validate a JSON lexicon of {"entries": ..., "grouping": ...}.

    Every entry value is a list of [base emotion, weight] pairs with
    weights in [0, 1]. A term is keyed by tuple(preprocess(term)), built by cleaning each
    whitespace-separated word once. A term or base emotion holding a lone surrogate, which
    UTF-8 cannot encode, terms equal after cleaning, a term word that cleaning removes,
    grouped base emotions equal after case folding and base emotions without a grouping are
    rejected.
    Every byte of the file goes to sha256, a hashlib object, if given.
    """
    path = Path(path)
    raw = read_json(path, "lexicon", sha256)
    if not isinstance(raw, dict) or set(raw) != {"entries", "grouping"}:
        raise DataError(f"lexicon {path} must contain exactly 'entries' and 'grouping'")

    grouping_raw = raw["grouping"]
    if not isinstance(grouping_raw, dict):
        raise DataError("lexicon 'grouping' must be an object")
    grouping: dict[str, EmotionCategory] = {}
    for emotion, category in grouping_raw.items():
        _check_encodable({f"base emotion {emotion!r} in 'grouping'": emotion})
        if emotion.casefold() in grouping:
            raise DataError(f"duplicate base emotion {emotion!r} in 'grouping' after case folding")
        try:
            grouping[emotion.casefold()] = EmotionCategory(category)
        except ValueError:
            raise DataError(
                f"base emotion {emotion!r} grouped into unknown category {category!r}"
            ) from None

    entries_raw = raw["entries"]
    if not isinstance(entries_raw, dict):
        raise DataError("lexicon 'entries' must be an object")
    phrase_entries: dict[tuple[str, ...], tuple[tuple[str, float], ...]] = {}
    for term, rows in entries_raw.items():
        _check_encodable({f"lexicon term {term!r}": term})
        words = term.split()
        if not words:
            raise DataError("lexicon entry term must be non-empty")
        word_tokens = [preprocess(word) for word in words]
        key = tuple(token for tokens in word_tokens for token in tokens)
        if key in phrase_entries:
            raise DataError(f"duplicate lexicon term {term!r} after cleaning")
        if not isinstance(rows, list) or not rows:
            raise DataError(f"lexicon entry {term!r} must list [emotion, weight] pairs")
        pairs = []
        for row in rows:
            if (not isinstance(row, list) or len(row) != 2
                    or not isinstance(row[0], str)
                    or not isinstance(row[1], (int, float)) or isinstance(row[1], bool)):
                raise DataError(f"lexicon entry {term!r} has a malformed [emotion, weight] row")
            _check_encodable({f"lexicon entry {term!r}: base emotion {row[0]!r}": row[0]})
            emotion = row[0].casefold()
            weight = row[1]  # compared before float(), which overflows on a huge int
            if not 0.0 <= weight <= 1.0:
                raise DataError(f"lexicon entry {term!r}: weight {weight} outside [0, 1]")
            if emotion not in grouping:
                raise DataError(
                    f"lexicon entry {term!r} references ungrouped base emotion {row[0]!r}"
                )
            pairs.append((emotion, float(weight)))
        for word, tokens in zip(words, word_tokens):  # a word without a token is dropped
            if not tokens:
                raise DataError(
                    f"lexicon entry {term!r}: word {word!r} has no token after cleaning"
                )
        phrase_entries[key] = tuple(pairs)
    return EmotionLexicon(phrase_entries=phrase_entries, grouping=grouping)


def bundled_lexicon_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("predstmt.data").joinpath("emotion_lexicon.json")))


def tag_document(doc: Document, lex: EmotionLexicon,
                 threshold: float = 0.0) -> set[EmotionCategory]:
    """Emotion categories whose matched weight exceeds the threshold.

    Tokens come from preprocess; phrases match
    longest-first without overlap. No matches yield the empty set.
    """
    tokens = preprocess(doc.text)
    entries, phrase_lengths = lex.phrase_entries, lex.phrase_lengths
    found: set[EmotionCategory] = set()
    if phrase_lengths.keys().isdisjoint(tokens):  # no token starts a term
        return found
    i = 0
    n = len(tokens)
    while i < n:
        step = 1
        # tokens that start no term are skipped without building any slice
        for length in phrase_lengths.get(tokens[i], ()):
            entry = entries.get(tuple(tokens[i:i + length])) if length <= n - i else None
            if entry is not None:
                for emotion, weight in entry:
                    if weight > threshold:
                        found.add(lex.grouping[emotion])
                step = length
                break
        i += step
    return found


@dataclass(frozen=True)
class EmotionProfile:
    """Per-category document percentages for one (coin, label) cell."""

    percentages: Mapping[EmotionCategory, float]
    cell_count: int


@dataclass(frozen=True)
class EmotionReport:
    profiles: Mapping[tuple[Coin, Task2Label], EmotionProfile]

    def to_dict(self) -> dict:
        out: dict = {}
        for (coin, label), profile in self.profiles.items():
            cell = out.setdefault(coin.value, {})
            cell[str(int(label))] = {
                **{cat.value: profile.percentages[cat] for cat in EmotionCategory},
                "cell_count": profile.cell_count,
            }
        return out


def _round2(count: int, total: int) -> float:
    pct = (Decimal(count) * 100) / Decimal(total)
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def aggregate(dataset: Dataset, lex: EmotionLexicon, threshold: float = 0.0) -> EmotionReport:
    """Tag every coin-bearing, direction-labeled document and aggregate.

    percentage(category) = 100 * tagged / cell size, rounded half-up to
    two decimals. Cells with no documents are absent from the report.
    """
    # counted by member values, which hash in C; Enum.__hash__ runs in Python
    sizes: Counter[tuple[str, int]] = Counter()
    tagged: defaultdict[tuple[str, int], Counter[str]] = defaultdict(Counter)
    for doc in dataset:
        coin, label = doc.coin, doc.task2
        if coin is None or label is None:
            continue
        key = (coin._value_, label._value_)
        sizes[key] += 1
        counts = tagged[key]
        for category in tag_document(doc, lex, threshold):
            counts[category._value_] += 1
    profiles = {
        (Coin(coin), Task2Label(label)): EmotionProfile(
            percentages={cat: _round2(tagged[coin, label][cat._value_], n)
                         for cat in EmotionCategory},
            cell_count=n,
        )
        for (coin, label), n in sizes.items()
    }
    return EmotionReport(profiles=profiles)


def render_markdown(report: EmotionReport) -> str:
    """Markdown table in fixed coin and label order; zero cells show an en dash."""
    titles = [CATEGORY_TITLES[cat] for cat in EmotionCategory]
    lines = [
        "| Coin | Label | " + " | ".join(titles) + " |",
        "| --- | --- | " + " | ".join("---" for _ in titles) + " |",
    ]
    for coin in Coin:
        for label in Task2Label:
            profile = report.profiles.get((coin, label))
            if profile is None:
                continue
            cells = []
            for cat in EmotionCategory:
                pct = profile.percentages[cat]
                cells.append("–" if pct == 0 else f"{pct:.2f}")
            lines.append(
                f"| {coin.value} | {_DIRECTION_ROW_NAMES[label]} | " + " | ".join(cells) + " |"
            )
    return "\n".join(lines)
