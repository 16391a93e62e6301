"""Cleaning and tokenization tests."""

import importlib
import inspect
import random
import string
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predstmt import preprocess, strip_urls

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

    def test_symbols_are_special_by_default(self):
        # currency and math symbols fall in the symbol categories
        assert preprocess("price $100 = profit") == ["price", "100", "profit"]

    def test_digit_only_tokens(self):
        # digit-only tokens are tokens like any other
        assert preprocess("price hits 12345 then 10x gains") == [
            "price", "hits", "12345", "then", "10x", "gains"
        ]

    def test_min_token_length_is_three(self):
        assert preprocess_module.MIN_TOKEN_LENGTH == 3
        assert preprocess("ab abc abcd") == ["abc", "abcd"]

    def test_length_is_counted_after_nfc(self):
        # three code points before NFC, fewer after: both tokens are dropped
        assert preprocess("e\u0301e \u1100\u1161\u11a8") == []
        assert preprocess("e\u0301ee") == ["\u00e9ee"]

    def test_case_is_always_folded(self):
        assert preprocess("ADA Will RISE") == ["ada", "will", "rise"]

    def test_dash_and_hash_are_special(self):
        assert preprocess("keep-dash #drop") == ["keep", "dash", "drop"]

    def test_preprocess_takes_only_the_text(self):
        # lexicon terms are case folded and free of punctuation, so the
        # cleaner that feeds the tagger has nothing to configure
        assert list(inspect.signature(preprocess).parameters) == ["text"]


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
        for text in self.seeded_texts():
            for token in preprocess(text):
                assert len(token) >= preprocess_module.MIN_TOKEN_LENGTH
                assert token == token.lower()
                assert " " not in token


def _reference_preprocess(text: str) -> list[str]:
    """The oracle: one category lookup per character, and a URL scan of every text."""
    text = strip_urls(text)
    text = "".join(" " if unicodedata.category(ch)[0] in ("P", "S") else ch for ch in text)
    text = unicodedata.normalize("NFC", text.lower())
    return [t for t in text.split() if len(t) >= 3]


class TestTranslateTable:
    def test_every_code_point_matches_reference(self):
        code_points = [c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
        for start in range(0, len(code_points), 8192):
            chunk = code_points[start:start + 8192]
            # a special character splits its token in two short ones, which are dropped
            text = " ".join(f"x{chr(c)}y" for c in chunk)
            assert preprocess(text) == _reference_preprocess(text), start

    def test_dense_non_ascii_text_matches_reference(self):
        """One text of 66,536 distinct non-ASCII code points, thousands of them special."""
        code_points = [c for c in range(0x80, 0x110000) if not 0xD800 <= c <= 0xDFFF]
        text = " ".join(f"x{chr(c)}y" for c in code_points[:(1 << 16) + 1000])
        assert preprocess(text) == _reference_preprocess(text)

    @pytest.mark.parametrize("text", [
        "İstanbul ΣΊΣΥΦΟΣ straße ǅemal",
        "café é́ ́alone",
        "a b c​d　e f",
        "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 🚀🚀 price💰up ∑∞≠ ＡＢＣ！？",
        "\x00\x1f\x7f tabs\tand\nnewlines\r\n",
        "",
        "12 123 1234 10x",
        "ab abc abcd a.bcd ab-cd",
        "ıi İI ǈ",
        "ΟΔΟΣ. ΟΔΟΣ ΣΑΣ",
        "\u1100\u1161\u11a8 \u1112\u1161\u11ab\u1100\u116e\u11a8 한국어",
        "👩\u200d💻 dev\u200dops",
        "价格。上涨！好的 「引用」",
        "سعر، ارتفع؟ نعم",
        "𝐁𝐓𝐂 𝟏𝟐𝟑 ⓑⓣⓒ",
        "ﬁre Ⅻ ½ ²³⁴",
        "a\xad\xadb soft\xadhyphen \u2066isolate\u2069 rtl",
        "tab\x0bvt\x0cff\x1cfs",
        "x\ud800yz \udfffabc« \ud83d\ude80pair\ude80",
    ], ids=["lowercase-changes-length", "combining-marks", "unicode-spaces", "astral-fullwidth",
            "control-characters", "empty", "digit-only", "min-length-boundary",
            "dotless-and-dotted-i", "final-sigma", "hangul-jamo", "zwj-emoji",
            "cjk-punctuation", "arabic-punctuation", "math-alphanumerics", "compatibility-forms",
            "format-characters", "ascii-separators", "lone-surrogates"])
    def test_edge_cases_match_reference(self, text):
        assert preprocess(text) == _reference_preprocess(text)

    @pytest.mark.parametrize("offset", [-preprocess_module._REPLACE_MAX, -1, 0, 1,
                                        preprocess_module._REPLACE_MAX])
    def test_either_side_of_the_replace_bound_matches_reference(self, offset):
        """A text of _REPLACE_MAX + offset distinct non-ASCII specials, each twice, among
        non-ASCII letters: str.replace per special up to the bound, str.translate above."""
        n_special = preprocess_module._REPLACE_MAX + offset
        non_ascii = (chr(c) for c in range(0x80, 0x3000))
        special = [ch for ch in non_ascii if unicodedata.category(ch)[0] in "PS"][:n_special]
        assert len(special) == n_special
        text = " ".join(f"Ëx{ch}yÿz{ch}wordé" for ch in special) + " café ÉTÉ, naïve!"
        assert preprocess(text) == _reference_preprocess(text)
        assert len(preprocess(text)) == 2 * n_special + 3

    def test_ascii_bytes_table_matches_code_point_table(self):
        for b in range(128):
            expected = ord(" ") if unicodedata.category(chr(b))[0] in "PS" else b
            assert preprocess_module._ASCII_PUNCT_SYMBOL[b] == expected, b
        assert preprocess_module._ASCII_PUNCT_SYMBOL[128:] == bytes(range(128, 256))


def _any_case(word: str):
    """word with each letter in either case; "s" may also be the long s, which IGNORECASE folds."""
    def variants(ch: str) -> list[str]:
        return sorted({ch, ch.lower(), ch.upper()} | ({"\u017f"} if ch == "s" else set()))
    return st.tuples(*(st.sampled_from(variants(ch)) for ch in word)).map("".join)


# URL prefixes, and near misses that hold a piece of one
_URL_PREFIXES = ("http://", "https://", "www.", "httpss://", "ftp://", "www", "ww.", "://",
                 "http:/")
_URL_PIECES = st.one_of(*(_any_case(p) for p in _URL_PREFIXES))
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


@settings(max_examples=600, deadline=None, database=None)
@given(_TEXTS)
def test_matches_preprocess_that_always_scans_for_urls(text):
    assert preprocess(text) == _reference_preprocess(text)


# ASCII text alone, which preprocess lowercases before it strips URLs: the
# prefixes with each letter in either ASCII case, and any ASCII characters.
_ASCII_TEXTS = st.lists(st.one_of(
    *(st.tuples(*(st.sampled_from(sorted({ch.lower(), ch.upper()})) for ch in prefix))
      .map("".join) for prefix in _URL_PREFIXES),
    st.text(st.sampled_from(string.ascii_letters + string.digits + string.punctuation + " \t\n"),
            max_size=10),
    st.text(st.characters(max_codepoint=0x7F), max_size=6),
), max_size=8).map("".join)


@settings(max_examples=600, deadline=None, database=None)
@given(_ASCII_TEXTS)
def test_ascii_text_matches_preprocess_that_always_scans(text):
    assert text.isascii()
    assert preprocess(text) == _reference_preprocess(text)


@pytest.mark.parametrize("text", [
    "HtTpS://t.co/x ΑΣhttp://a.io ΑΣ", "WwW.spam.io and ΟΔΟΣwww.x", "httpſ://a.io/Σ",
    "ΑΣ\u0301 https://x é", "plain ascii text, no links!", "ascii www.a.io and http://b",
    "(see https://a.io/x) done", "wwwhat www dot www", "WWW.é.io Σ end",
    "HTTP://X.IO/A", "HtTpS://t.co/x", "xhttp://y z", "see WWW.A.IO.", "www.",
    "ftp://a http:/b",
], ids=["mixed-case-scheme", "mixed-case-www", "long-s", "sigma-before-combining",
        "ascii", "ascii-urls", "url-in-brackets", "www-without-dot", "www-non-ascii",
        "ascii-upper-case-url", "ascii-mixed-case-scheme", "ascii-scheme-inside-word",
        "ascii-upper-case-www", "ascii-bare-www", "ascii-near-misses"])
def test_url_and_ascii_edges_match_preprocess_that_always_scans(text):
    assert preprocess(text) == _reference_preprocess(text)
