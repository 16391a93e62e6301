"""Cleaning and tokenization tests."""

import importlib
import random
import string
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predstmt import CleanConfig, DataError, preprocess, strip_urls

preprocess_module = importlib.import_module("predstmt.preprocess")


class TestStripUrls:
    def test_http_and_https(self):
        assert strip_urls("go http://a.io/x now") == "go  now"
        assert strip_urls("go https://a.io/x?y=1 now") == "go  now"

    def test_www_prefix(self):
        assert strip_urls("see www.example.com here") == "see  here"

    def test_case_insensitive(self):
        assert strip_urls("HTTPS://A.IO and WWW.B.IO") == " and "

    def test_multiple_urls(self):
        assert strip_urls("http://a http://b tail") == "  tail"

    def test_no_url_untouched(self):
        text = "no links in this tweet"
        assert strip_urls(text) == text

    def test_double_space_left_behind(self):
        assert strip_urls("Check https://t.co/abc now") == "Check  now"
        assert strip_urls("a www.x.io b http://y.z c") == "a  b  c"


class TestPreprocess:
    def test_hand_traced_example(self):
        out = preprocess("ADA will rise 10%! see https://t.co/x #crypto")
        assert out == ["ada", "will", "rise", "see", "crypto"]

    def test_url_punctuation_and_case_combined(self):
        assert preprocess("Check https://t.co/abc BTC now!!!") == ["check", "btc", "now"]

    def test_all_tokens_too_short(self):
        assert preprocess("to be or") == []

    def test_trailing_percent_shortens_token(self):
        # "10%" loses the percent sign and the leftover "10" is too short
        assert preprocess("ADA will rise 10%") == ["ada", "will", "rise"]

    def test_punctuation_becomes_spaces(self):
        assert preprocess("buy,the.dip!now") == ["buy", "the", "dip", "now"]

    def test_short_tokens_dropped_by_default(self):
        assert preprocess("it is an eth pump") == ["eth", "pump"]

    def test_nfc_normalization(self):
        # "cafe" + combining acute composes to the single-codepoint form
        composed = preprocess("café time")
        assert composed == ["café", "time"]

    def test_min_token_length_config(self):
        cfg = CleanConfig(min_token_length=1)
        assert preprocess("it is a pump", cfg) == ["it", "is", "a", "pump"]
        cfg5 = CleanConfig(min_token_length=5)
        assert preprocess("tiny words survive rarely", cfg5) == ["words", "survive", "rarely"]

    def test_lowercase_off(self):
        cfg = CleanConfig(lowercase=False)
        assert preprocess("ADA Will RISE", cfg) == ["ADA", "Will", "RISE"]

    def test_digit_only_tokens(self):
        cfg = CleanConfig(strip_digit_only_tokens=True)
        assert preprocess("price hits 12345 then 10x gains", cfg) == [
            "price", "hits", "then", "10x", "gains"
        ]

    def test_custom_special_chars(self):
        cfg = CleanConfig(special_chars="#")
        assert preprocess("keep-dash #drop", cfg) == ["keep-dash", "drop"]

    def test_symbols_are_special_by_default(self):
        # currency and math symbols fall in the symbol categories
        assert preprocess("price $100 = profit") == ["price", "100", "profit"]

    def test_min_token_length_validated(self):
        with pytest.raises(ValueError):
            CleanConfig(min_token_length=0)

    def test_min_token_length_is_data_error(self):
        with pytest.raises(DataError) as info:
            CleanConfig(min_token_length=0)
        assert str(info.value) == "min_token_length must be >= 1, got 0"


class TestProperties:
    def seeded_texts(self, n=60):
        rng = random.Random(1234)
        alphabet = string.ascii_letters + string.digits + " .,!?#@:/()-'é★"
        fixed = [
            "BTC will PUMP!!! https://x.co/abc",
            "nothing to see here... www.spam.io",
            "mixed CASE and   spaces",
        ]
        return fixed + ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
                        for _ in range(n)]

    def test_idempotent_on_default_config(self):
        for text in self.seeded_texts():
            once = preprocess(text)
            again = preprocess(" ".join(once))
            assert again == once

    def test_token_shape_invariants(self):
        cfg = CleanConfig()
        for text in self.seeded_texts():
            for token in preprocess(text, cfg):
                assert len(token) >= cfg.min_token_length
                assert token == token.lower()
                assert " " not in token


def _reference_preprocess(text: str, config: CleanConfig = CleanConfig()) -> list[str]:
    """The per-character pipeline that the translate table replaced, kept as the oracle."""
    def is_special(ch: str) -> bool:
        if config.special_chars is not None:
            return ch in config.special_chars
        return unicodedata.category(ch)[0] in ("P", "S")

    text = strip_urls(text)
    text = "".join(" " if is_special(ch) else ch for ch in text)
    if config.lowercase:
        text = text.lower()
    text = unicodedata.normalize("NFC", text)
    kept = [t for t in text.split() if len(t) >= config.min_token_length]
    if config.strip_digit_only_tokens:
        kept = [t for t in kept if not t.isdigit()]
    return kept


class TestTranslateTable:
    CONFIGS = {
        "default": CleanConfig(),
        "explicit": CleanConfig(special_chars="#-é€́★"),
        "lowercase_off": CleanConfig(lowercase=False),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_code_point_matches_reference(self, name):
        config = self.CONFIGS[name]
        code_points = [c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
        try:
            for start in range(0, len(code_points), 8192):
                chunk = code_points[start:start + 8192]
                # a special character splits its token in two short ones, which are dropped
                text = " ".join(f"x{chr(c)}y" for c in chunk)
                assert preprocess(text, config) == _reference_preprocess(text, config), start
                # the cache is a plain dict; emptying it keeps the test's memory small
                preprocess_module._special_table(None).clear()
        finally:
            preprocess_module._special_table(None).clear()

    @pytest.mark.parametrize("text", [
        "İstanbul ΣΊΣΥΦΟΣ straße ǅemal",
        "café é́ ́alone",
        "a b c​d　e f",
        "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 🚀🚀 price💰up ∑∞≠ ＡＢＣ！？",
        "\x00\x1f\x7f tabs\tand\nnewlines\r\n",
        "",
    ], ids=["lowercase-changes-length", "combining-marks", "unicode-spaces", "astral-fullwidth",
            "control-characters", "empty"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_edge_cases_match_reference(self, name, text):
        config = self.CONFIGS[name]
        assert preprocess(text, config) == _reference_preprocess(text, config)

    def test_explicit_table_is_built_once_per_string(self):
        config = CleanConfig(special_chars="#")
        assert (preprocess_module._special_table(config.special_chars)
                is preprocess_module._special_table("#"))
        assert preprocess("keep-dash #drop", config) == ["keep-dash", "drop"]


def _always_scan_preprocess(text: str, config: CleanConfig = CleanConfig()) -> list[str]:
    """preprocess before it skipped the URL scan and translated ASCII text as bytes."""
    text = strip_urls(text).translate(preprocess_module._special_table(config.special_chars))
    if config.lowercase:
        text = text.lower()
    text = unicodedata.normalize("NFC", text)
    kept = [t for t in text.split() if len(t) >= config.min_token_length]
    if config.strip_digit_only_tokens:
        kept = [t for t in kept if not t.isdigit()]
    return kept


def _any_case(word: str):
    """word with each letter in either case; "s" may also be the long s, which IGNORECASE folds."""
    def variants(ch: str) -> list[str]:
        return sorted({ch, ch.lower(), ch.upper()} | ({"\u017f"} if ch == "s" else set()))
    return st.tuples(*(st.sampled_from(variants(ch)) for ch in word)).map("".join)


# URL prefixes in any case, and near misses that hold a piece of one
_URL_PIECES = st.one_of(*(_any_case(p) for p in ("http://", "https://", "www.", "httpss://",
                                                  "ftp://", "www", "ww.", "://", "http:/")))
# Text around them: ASCII words, digits and punctuation, and non-ASCII letters
# (Greek capital sigma, whose lowercase depends on the next character; dotted I),
# punctuation, symbols, combining marks and whitespace.
_TEXT_PIECES = st.one_of(
    st.text(st.sampled_from(string.ascii_letters + string.digits + string.punctuation + " \t\n"),
            max_size=10),
    st.sampled_from(["ΟΔΟΣ", "Σ", "ΑΣ.", "ς", "İ", "ß", "ǅ", "«»", "—…", "¡¿", "€£₳", "©™",
                     "★🚀", "∑≠", "＃！", "\u0301", "e\u0301", "\u0308\u0301", "\u00a0",
                     "\u2003", "\u3000", "\u2028", "\x85", "\x1c", "\u200b", "\x7f"]),
)
_TEXTS = st.lists(st.one_of(_URL_PIECES, _TEXT_PIECES), max_size=8).map("".join)
_CONFIGS = st.builds(
    CleanConfig,
    special_chars=st.one_of(st.none(), st.sampled_from(["#", "#-é€́★", ".:/", "Σ ", ""])),
    min_token_length=st.integers(1, 4),
    lowercase=st.booleans(),
    strip_digit_only_tokens=st.booleans(),
)


@settings(max_examples=600, deadline=None, database=None)
@given(_TEXTS, _CONFIGS)
def test_matches_preprocess_that_always_scans_for_urls(text, config):
    assert preprocess(text, config) == _always_scan_preprocess(text, config)


@pytest.mark.parametrize("text", [
    "HtTpS://t.co/x ΑΣhttp://a.io ΑΣ", "WwW.spam.io and ΟΔΟΣwww.x", "httpſ://a.io/Σ",
    "ΑΣ\u0301 https://x é", "plain ascii text, no links!", "ascii www.a.io and http://b",
], ids=["mixed-case-scheme", "mixed-case-www", "long-s", "sigma-before-combining",
        "ascii", "ascii-urls"])
@pytest.mark.parametrize("name", sorted(TestTranslateTable.CONFIGS))
def test_url_and_ascii_edges_match_preprocess_that_always_scans(name, text):
    config = TestTranslateTable.CONFIGS[name]
    assert preprocess(text, config) == _always_scan_preprocess(text, config)
