"""Tweet text cleaning and tokenization.

The pipeline is fixed-order: URLs are removed, every Unicode punctuation
and symbol character is replaced with a space, text is lowercased and
Unicode-normalized (NFC), then split on whitespace, and tokens shorter
than MIN_TOKEN_LENGTH are dropped. Running the pipeline on its own joined
output changes nothing. It has no settings: emotion tagging reads these
tokens too, and keys each lexicon term by the tokens it gives.
"""

from __future__ import annotations

import re
import unicodedata

#: Shortest token kept after splitting.
MIN_TOKEN_LENGTH = 3

# http(s) or www prefixed runs of non-space characters
_URL_RE = re.compile(r"(?:https?://|www\.)\S*", re.IGNORECASE)
_ASCII_URL_RE = re.compile(_URL_RE.pattern)  # for lowercased ASCII text


def strip_urls(text: str) -> str:
    """Remove every http(s):// or www. prefixed run of non-space characters."""
    return _URL_RE.sub("", text)


# Every ASCII punctuation (P*) and symbol (S*) character to a space, as a
# bytes.translate table: one C loop with no per-character mapping lookup.
_ASCII_PUNCT_SYMBOL = bytes(
    ord(" ") if unicodedata.category(chr(b))[0] in "PS" else b for b in range(128)
) + bytes(range(128, 256))
_ASCII = bytes(range(128))  # every ASCII byte, for bytes.translate to delete
#: Most distinct special characters replaced by one str.replace scan each; a text
#: with more is translated per character, so none costs much over str.translate.
_REPLACE_MAX = 64


def preprocess(text: str) -> list[str]:
    """Clean and tokenize one text. Returns the kept tokens in order."""
    # Every URL match holds "://" or a case variant of "www.", so a text with
    # neither has nothing to strip.
    if text.isascii():
        # Lowercasing first changes no match: in ASCII text the pattern's case
        # variants are exactly the letters lower() maps, and NFC changes nothing.
        text = text.lower()
        if "://" in text or "www." in text:
            text = _ASCII_URL_RE.sub("", text)
        text = text.encode("ascii").translate(_ASCII_PUNCT_SYMBOL).decode("ascii")
    else:
        if "://" in text or "www." in text.lower():
            text = strip_urls(text)
        # UTF-8 multi-byte sequences hold no ASCII byte: the bytes table replaces
        # ASCII characters only, and deleting every ASCII byte leaves the others.
        data = text.encode("utf-8", "surrogatepass")
        text = data.translate(_ASCII_PUNCT_SYMBOL).decode("utf-8", "surrogatepass")
        special = [ch for ch in set(data.translate(None, _ASCII).decode("utf-8", "surrogatepass"))
                   if unicodedata.category(ch)[0] in "PS"]
        if len(special) > _REPLACE_MAX:
            text = text.translate(dict.fromkeys(map(ord, special), " "))
        else:
            for ch in special:
                text = text.replace(ch, " ")
        text = unicodedata.normalize("NFC", text.lower())
    return [t for t in text.split() if len(t) >= MIN_TOKEN_LENGTH]
