"""Tweet text cleaning and tokenization.

The pipeline is fixed-order: URLs are removed, special characters are
replaced with spaces, text is lowercased and Unicode-normalized (NFC),
then split on whitespace and filtered by token length. Running the
pipeline on its own joined output changes nothing.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache

from .corpus import DataError

# http(s) or www prefixed runs of non-space characters
_URL_RE = re.compile(r"(?:https?://|www\.)\S*", re.IGNORECASE)


@dataclass(frozen=True)
class CleanConfig:
    """Tokenizer settings.

    special_chars: exact characters to replace with spaces, or None to
        replace every Unicode punctuation and symbol character.
    min_token_length: shortest token kept after splitting.
    lowercase: fold case before tokenizing.
    strip_digit_only_tokens: additionally drop tokens made only of digits.
    """

    special_chars: str | None = None
    min_token_length: int = 3
    lowercase: bool = True
    strip_digit_only_tokens: bool = False

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise DataError(f"min_token_length must be >= 1, got {self.min_token_length}")


DEFAULT_CLEAN = CleanConfig()


def strip_urls(text: str) -> str:
    """Remove every http(s):// or www. prefixed run of non-space characters."""
    return _URL_RE.sub("", text)


class _PunctSymbolTable(dict):
    """str.translate table mapping every Unicode punctuation (P*) and symbol
    (S*) character to a space and every other character to itself.

    A code point's category is looked up once, on first use, and cached.
    """

    def __missing__(self, code: int) -> str | int:
        value = " " if unicodedata.category(chr(code))[0] in "PS" else code
        self[code] = value
        return value


# The default table's ASCII part as a bytes.translate table: the same rule,
# applied by one C loop with no per-character mapping lookup.
_ASCII_PUNCT_SYMBOL = bytes(
    ord(" ") if unicodedata.category(chr(b))[0] in "PS" else b for b in range(128)
) + bytes(range(128, 256))


@lru_cache(maxsize=32)
def _special_table(special_chars: str | None) -> dict:
    """The translate table for CleanConfig.special_chars, built once per value."""
    if special_chars is None:
        return _PunctSymbolTable()
    return str.maketrans(special_chars, " " * len(special_chars))


def preprocess(text: str, config: CleanConfig = DEFAULT_CLEAN) -> list[str]:
    """Clean and tokenize one text. Returns the kept tokens in order."""
    # Every URL match holds "://" or a case variant of "www.", so a text with
    # neither has nothing to strip.
    if "://" in text or "www." in text.lower():
        text = strip_urls(text)
    if config.special_chars is None and text.isascii():
        text = text.encode("ascii").translate(_ASCII_PUNCT_SYMBOL).decode("ascii")
    else:
        text = text.translate(_special_table(config.special_chars))
    if config.lowercase:
        text = text.lower()
    text = unicodedata.normalize("NFC", text)
    tokens = text.split()
    kept = [t for t in tokens if len(t) >= config.min_token_length]
    if config.strip_digit_only_tokens:
        kept = [t for t in kept if not t.isdigit()]
    return kept
