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
            raise ValueError(f"min_token_length must be >= 1, got {self.min_token_length}")


DEFAULT_CLEAN = CleanConfig()


def strip_urls(text: str) -> str:
    """Remove every http(s):// or www. prefixed run of non-space characters."""
    return _URL_RE.sub("", text)


def _is_special(ch: str, config: CleanConfig) -> bool:
    if config.special_chars is not None:
        return ch in config.special_chars
    return unicodedata.category(ch)[0] in ("P", "S")


def preprocess(text: str, config: CleanConfig = DEFAULT_CLEAN) -> list[str]:
    """Clean and tokenize one text. Returns the kept tokens in order."""
    text = strip_urls(text)
    text = "".join(" " if _is_special(ch, config) else ch for ch in text)
    if config.lowercase:
        text = text.lower()
    text = unicodedata.normalize("NFC", text)
    tokens = text.split()
    kept = [t for t in tokens if len(t) >= config.min_token_length]
    if config.strip_digit_only_tokens:
        kept = [t for t in kept if not t.isdigit()]
    return kept
