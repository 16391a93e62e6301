"""Emotion lexicon, tagging, and aggregation tests."""

import json
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from predstmt import (
    CATEGORY_TITLES,
    Coin,
    DataError,
    Dataset,
    Document,
    EmotionCategory,
    EmotionProfile,
    EmotionReport,
    Task2Label,
    aggregate,
    bundled_lexicon_path,
    load_lexicon,
    preprocess,
    render_markdown,
    tag_document,
)
from predstmt.emotion import _round2


def write_lexicon(tmp_path, payload, name="lex.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                    encoding="utf-8")
    return path


GROUPING = {
    "joy": "delight_joy",
    "eagerness": "enthusiasm_eagerness",
    "pleasantness": "delight_pleasantness",
    "sadness": "grief_sadness",
    "fear": "fear_anxiety",
    "rage": "rage_anger",
}


def doc(text, *, id="d1", coin=Coin.ADA, task1=1, task2=1):
    return Document(id=id, text=text, coin=coin, task1=task1, task2=task2)


class TestLoadLexicon:
    def test_valid_lexicon(self, tmp_path):
        path = write_lexicon(tmp_path, {
            "entries": {"happy": [["joy", 0.7]], "over the moon": [["joy", 0.95]]},
            "grouping": GROUPING,
        })
        lex = load_lexicon(path)
        assert ("happy",) in lex.phrase_entries
        assert ("over", "the", "moon") in lex.phrase_entries
        assert lex.phrase_lengths == {"happy": (1,), "over": (3,)}
        assert lex.grouping["joy"] is EmotionCategory.DELIGHT_JOY

    def test_ungrouped_emotion_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, {
            "entries": {"keen": [["zeal", 0.8]]},
            "grouping": GROUPING,
        })
        with pytest.raises(DataError, match="ungrouped base emotion 'zeal'"):
            load_lexicon(path)

    def test_duplicate_json_keys_rejected(self, tmp_path):
        payload = '{"entries": {"happy": [["joy", 0.7]], "happy": [["joy", 0.9]]}, ' \
            '"grouping": {"joy": "delight_joy"}}'
        path = write_lexicon(tmp_path, payload)
        with pytest.raises(DataError) as info:
            load_lexicon(path)
        assert str(info.value) == f"lexicon {path}: duplicate key 'happy'"

    def test_casefold_duplicate_terms_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, {
            "entries": {"Happy": [["joy", 0.7]], "happy": [["joy", 0.9]]},
            "grouping": GROUPING,
        })
        with pytest.raises(DataError, match="duplicate lexicon term"):
            load_lexicon(path)

    def test_casefold_duplicate_grouping_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, {
            "entries": {"happy": [["joy", 0.7]]},
            "grouping": {"Joy": "delight_joy", "joy": "rage_anger"},
        })
        with pytest.raises(DataError) as info:
            load_lexicon(path)
        assert str(info.value) == "duplicate base emotion 'joy' in 'grouping' after case folding"

    def test_malformed_rows_rejected(self, tmp_path):
        for bad in (["joy"], ["joy", 0.5, 1], [0.5, "joy"], ["joy", "high"],
                    ["joy", True]):
            path = write_lexicon(tmp_path, {
                "entries": {"happy": [bad]},
                "grouping": GROUPING,
            })
            with pytest.raises(DataError, match="malformed"):
                load_lexicon(path)

    def test_weight_out_of_range_rejected(self, tmp_path):
        for weight in (-0.1, 1.5):
            path = write_lexicon(tmp_path, {
                "entries": {"happy": [["joy", weight]]},
                "grouping": GROUPING,
            })
            with pytest.raises(DataError, match="outside"):
                load_lexicon(path)

    def test_unknown_category_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, {
            "entries": {"happy": [["joy", 0.7]]},
            "grouping": {"joy": "ecstasy"},
        })
        with pytest.raises(DataError, match="unknown category 'ecstasy'"):
            load_lexicon(path)

    def test_top_level_shape_enforced(self, tmp_path):
        path = write_lexicon(tmp_path, {"entries": {}})
        with pytest.raises(DataError, match="exactly 'entries' and 'grouping'"):
            load_lexicon(path)

    def test_unreadable_and_invalid_json(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_lexicon(tmp_path / "missing.json")
        path = write_lexicon(tmp_path, "{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_lexicon(path)

    @pytest.mark.parametrize("payload", [
        "[" * 100_000 + "]" * 100_000,
        '{"entries": {"x": ' + "[" * 100_000 + "]" * 100_000 + '}, "grouping": {}}',
    ], ids=["top-level", "in-entries"])
    def test_deeply_nested_json_is_data_error(self, tmp_path, payload):
        path = write_lexicon(tmp_path, payload)
        with pytest.raises(DataError, match="not valid JSON: nested too deeply"):
            load_lexicon(path)

    def test_undecodable_file_and_huge_numbers_are_data_errors(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_bytes(b'{"entries": {"caf\xe9": []}, "grouping": {}}')
        with pytest.raises(DataError, match="cannot read lexicon"):
            load_lexicon(path)
        path = write_lexicon(tmp_path, '{"entries": {"x": [["joy", 1' + "0" * 400 + ']]}, '
                                       '"grouping": {"joy": "delight_joy"}}')
        with pytest.raises(DataError, match="outside"):
            load_lexicon(path)
        path = write_lexicon(tmp_path, '{"entries": {"x": [["joy", 1' + "0" * 5000 + ']]}, '
                                       '"grouping": {"joy": "delight_joy"}}')
        with pytest.raises(DataError, match="not valid JSON: integer too long"):
            load_lexicon(path)

    @pytest.mark.parametrize("payload, message", [
        ([], "lexicon {path} must contain exactly 'entries' and 'grouping'"),
        (["entries", "grouping"],
         "lexicon {path} must contain exactly 'entries' and 'grouping'"),
        ({"entries": {}, "grouping": {}, "extra": 1},
         "lexicon {path} must contain exactly 'entries' and 'grouping'"),
        ({"grouping": GROUPING}, "lexicon {path} must contain exactly 'entries' and 'grouping'"),
        ({"entries": {}, "grouping": []}, "lexicon 'grouping' must be an object"),
        ({"entries": {}, "grouping": None}, "lexicon 'grouping' must be an object"),
        ({"entries": {}, "grouping": {"joy": 1}},
         "base emotion 'joy' grouped into unknown category 1"),
        ({"entries": {}, "grouping": {"joy": ["delight_joy"]}},
         "base emotion 'joy' grouped into unknown category ['delight_joy']"),
        ({"entries": {}, "grouping": {"joy": "DELIGHT_JOY"}},
         "base emotion 'joy' grouped into unknown category 'DELIGHT_JOY'"),
        ({"entries": [], "grouping": GROUPING}, "lexicon 'entries' must be an object"),
        ({"entries": {"   ": [["joy", 0.5]]}, "grouping": GROUPING},
         "lexicon entry term must be non-empty"),
        ({"entries": {"": [["joy", 0.5]]}, "grouping": GROUPING},
         "lexicon entry term must be non-empty"),
        ({"entries": {"happy": []}, "grouping": GROUPING},
         "lexicon entry 'happy' must list [emotion, weight] pairs"),
        ({"entries": {"happy": {"joy": 0.5}}, "grouping": GROUPING},
         "lexicon entry 'happy' must list [emotion, weight] pairs"),
        ({"entries": {"happy": "joy"}, "grouping": GROUPING},
         "lexicon entry 'happy' must list [emotion, weight] pairs"),
        ({"entries": {"happy": [["joy", None]]}, "grouping": GROUPING},
         "lexicon entry 'happy' has a malformed [emotion, weight] row"),
        ({"entries": {"happy": [[None, 0.5]]}, "grouping": GROUPING},
         "lexicon entry 'happy' has a malformed [emotion, weight] row"),
        ({"entries": {"happy": [["joy", 0.5], "fear"]}, "grouping": GROUPING},
         "lexicon entry 'happy' has a malformed [emotion, weight] row"),
        ({"entries": {"happy": [["joy", float("nan")]]}, "grouping": GROUPING},
         "lexicon entry 'happy': weight nan outside [0, 1]"),
        ({"entries": {"happy": [["joy", float("inf")]]}, "grouping": GROUPING},
         "lexicon entry 'happy': weight inf outside [0, 1]"),
        ({"entries": {"happy": [["joy", -1e-300]]}, "grouping": GROUPING},
         "lexicon entry 'happy': weight -1e-300 outside [0, 1]"),
        ({"entries": {"over the moon": [["joy", 0.9]], "Over  the\tMoon": [["joy", 0.8]]},
          "grouping": GROUPING},
         "duplicate lexicon term 'Over  the\\tMoon' after cleaning"),
        ({"entries": {"so happy": [["joy", 0.5]]}, "grouping": GROUPING},
         "lexicon entry 'so happy': word 'so' has no token after cleaning"),
        ({"entries": {"go up": [["joy", 0.5]]}, "grouping": GROUPING},
         "lexicon entry 'go up': word 'go' has no token after cleaning"),
        ({"entries": {"to the moon": [["joy", 0.5]]}, "grouping": GROUPING},
         "lexicon entry 'to the moon': word 'to' has no token after cleaning"),
        ({"entries": {"happy": [["Zeal", 0.5]]}, "grouping": GROUPING},
         "lexicon entry 'happy' references ungrouped base emotion 'Zeal'"),
    ], ids=["list", "key-list", "extra-key", "no-entries", "grouping-list", "grouping-null",
            "number-category", "list-category", "upper-case-category", "entries-list",
            "blank-term", "empty-term", "no-rows", "rows-object", "rows-string",
            "null-weight", "null-emotion", "row-not-a-pair", "nan-weight", "infinite-weight",
            "negative-weight", "whitespace-duplicate", "no-token-so", "no-token-go", "no-token-to",
            "ungrouped-emotion"])
    def test_malformed_lexicon_is_one_line_data_error(self, tmp_path, payload, message):
        path = write_lexicon(tmp_path, payload)
        with pytest.raises(DataError) as info:
            load_lexicon(path)
        assert str(info.value) == message.format(path=path)

    def test_boundary_weights_and_case_folded_names_load(self, tmp_path):
        path = write_lexicon(tmp_path, {
            "entries": {"Calm": [["JOY", 0], ["Fear", 1]], "too  Happy": [["joy", 1.0]]},
            "grouping": {"Joy": "delight_joy", "fear": "fear_anxiety"},
        })
        lex = load_lexicon(path)
        assert lex.phrase_entries == {("calm",): (("joy", 0.0), ("fear", 1.0)),
                                      ("too", "happy"): (("joy", 1.0),)}
        assert lex.grouping == {"joy": EmotionCategory.DELIGHT_JOY,
                                "fear": EmotionCategory.FEAR_ANXIETY}

    def test_bundled_lexicon_loads(self):
        lex = load_lexicon(bundled_lexicon_path())
        assert max(map(len, lex.phrase_entries)) >= 2
        grouped = {lex.grouping[e] for pairs in lex.phrase_entries.values()
                   for e, _ in pairs}
        assert grouped == set(EmotionCategory)

    def test_bundled_terms_key_as_their_cleaned_spelling(self):
        entries = json.loads(bundled_lexicon_path().read_text(encoding="utf-8"))["entries"]
        lex = load_lexicon(bundled_lexicon_path())
        assert len(lex.phrase_entries) == len(entries)
        for term, rows in entries.items():
            assert lex.phrase_entries[tuple(preprocess(term))] == tuple(
                (emotion.casefold(), float(weight)) for emotion, weight in rows), term


# Pieces of lexicon terms that cleaning treats specially: URL prefixes, punctuation,
# accents and combining marks, whitespace str.split() knows (NEL, U+001C, U+3000),
# characters lower() lengthens or NFC composes, and lone surrogates, which no dataset text
# can hold, so a term holding one is rejected; plus any character.
_TERM_PIECES = st.one_of(
    st.sampled_from([" ", "  ", "\t", "\x85", "\x1c", "\u3000", "\u2028", "https://", "HTTP://",
                     "www.", "WwW.", "x.co/a", "!", "-", "'", "…", "«", "é", "e\u0301", "\u0301",
                     "İ", "ß", "ﬁ", "Σ", "\ud800", "\udfff", "🚀", "to", "moon", "ΟΔΟΣ",
                     "Straße", "pump-and-dump"]),
    st.characters(),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(_TERM_PIECES, min_size=1, max_size=10).map("".join))
def test_each_term_is_keyed_as_preprocess_keys_it(tmp_path_factory, term):
    """Cleaning each whitespace-separated word once keys a term as tuple(preprocess(term))."""
    path = tmp_path_factory.getbasetemp() / "generated_lexicon.json"
    path.write_text(json.dumps({"entries": {term: [["joy", 0.5]]}, "grouping": GROUPING}),
                    encoding="utf-8")
    words = term.split()
    surrogate = any("\ud800" <= ch <= "\udfff" for ch in term)
    try:
        lex = load_lexicon(path)
    except DataError as exc:
        event("rejected")
        assert surrogate or not words or not all(preprocess(word) for word in words), str(exc)
        return
    event("loaded")
    assert not surrogate
    assert set(lex.phrase_entries) == {tuple(preprocess(term))}


@pytest.fixture
def small_lexicon(tmp_path):
    return load_lexicon(write_lexicon(tmp_path, {
        "entries": {
            "happy": [["joy", 0.7]],
            "thrilled": [["joy", 0.9]],
            "scared": [["fear", 0.8]],
            "over the moon": [["pleasantness", 0.95]],
            "moon": [["rage", 0.6]],
            "comfy": [["pleasantness", 0.85]],
        },
        "grouping": GROUPING,
    }))


class TestTagDocument:
    def test_no_match_is_empty(self, small_lexicon):
        assert tag_document(doc("nothing emotional here"), small_lexicon) == set()

    def test_single_and_cooccurring_matches(self, small_lexicon):
        assert tag_document(doc("happy about this chart"), small_lexicon) \
            == {EmotionCategory.DELIGHT_JOY}
        assert tag_document(doc("happy but scared about leverage"), small_lexicon) \
            == {EmotionCategory.DELIGHT_JOY, EmotionCategory.FEAR_ANXIETY}

    def test_threshold_is_strictly_greater(self, small_lexicon):
        text = "thrilled and comfy today"
        # weights: thrilled 0.9, comfy 0.85
        assert tag_document(doc(text), small_lexicon, threshold=0.85) \
            == {EmotionCategory.DELIGHT_JOY}
        assert tag_document(doc(text), small_lexicon, threshold=0.84) \
            == {EmotionCategory.DELIGHT_JOY, EmotionCategory.DELIGHT_PLEASANTNESS}
        assert tag_document(doc(text), small_lexicon, threshold=0.9) == set()

    def test_longest_phrase_wins_and_consumes_tokens(self, small_lexicon):
        # "over the moon" must match as the 3-token phrase, leaving no
        # separate "moon" match inside it
        assert tag_document(doc("feeling over the moon today"), small_lexicon) \
            == {EmotionCategory.DELIGHT_PLEASANTNESS}
        assert tag_document(doc("staring at the moon"), small_lexicon) \
            == {EmotionCategory.RAGE_ANGER}
        # a second moon after the phrase is free to match on its own
        assert tag_document(doc("over the moon about moon talk"), small_lexicon) \
            == {EmotionCategory.DELIGHT_PLEASANTNESS, EmotionCategory.RAGE_ANGER}

    def test_terms_are_keyed_as_text_is_tokenized(self, tmp_path):
        # casefold() keys these as "strasse", "οδοσ" and "fire", which no token spells
        terms = {"straße": "joy", "ΟΔΟΣ": "fear", "ﬁre": "rage",
                 "cafe\u0301 latte": "sadness"}
        lex = load_lexicon(write_lexicon(tmp_path, {
            "entries": {term: [[emotion, 0.5]] for term, emotion in terms.items()},
            "grouping": GROUPING,
        }))
        for text, emotion in [("Straße rocks", "joy"), ("ΟΔΟΣ ahead", "fear"),
                              ("ﬁre sale", "rage"), ("CAFÉ LATTE!", "sadness")]:
            assert tag_document(doc(text), lex) == {EmotionCategory(GROUPING[emotion])}, text
        for term in terms:
            assert tuple(preprocess(term)) in lex.phrase_entries, term

    def test_terms_equal_after_lower_and_nfc_are_duplicates(self, tmp_path):
        path = write_lexicon(tmp_path, {
            "entries": {"ΟΔΟΣ": [["fear", 0.5]], "caf\u00e9": [["joy", 0.5]],
                        "CAFE\u0301": [["joy", 0.7]]},
            "grouping": GROUPING,
        })
        with pytest.raises(DataError) as info:
            load_lexicon(path)
        assert str(info.value) == "duplicate lexicon term 'CAFE\u0301' after cleaning"

    def test_terms_with_punctuation_tag_their_own_spelling(self, tmp_path):
        # keyed by lower() and NFC alone, these were ("moon!",) and ("pump-and-dump",),
        # which no text's tokens spell
        lex = load_lexicon(write_lexicon(tmp_path, {
            "entries": {"moon!": [["joy", 0.5]], "pump-and-dump": [["rage", 0.5]]},
            "grouping": GROUPING,
        }))
        assert set(lex.phrase_entries) == {("moon",), ("pump", "and", "dump")}
        assert tag_document(doc("moon!"), lex) == {EmotionCategory.DELIGHT_JOY}
        assert tag_document(doc("pump-and-dump"), lex) == {EmotionCategory.RAGE_ANGER}

    def test_matching_uses_preprocessed_tokens(self, small_lexicon):
        # punctuation and case vanish before lookup
        assert tag_document(doc("SO Happy!!! http://x.co/a"), small_lexicon) \
            == {EmotionCategory.DELIGHT_JOY}

    @pytest.mark.parametrize("text", ["ANGRY!", "angry, yes", "angry"])
    def test_cleaning_keeps_bundled_terms_taggable(self, text):
        # a cleaner that kept case or punctuation, or dropped five-letter
        # tokens, would tag none of these
        lex = load_lexicon(bundled_lexicon_path())
        assert tag_document(doc(text), lex) == {EmotionCategory.RAGE_ANGER}

    @pytest.mark.parametrize("term", sorted(json.loads(
        bundled_lexicon_path().read_text(encoding="utf-8"))["entries"]))
    def test_bundled_term_is_tagged_through_case_and_punctuation(self, term):
        lex = load_lexicon(bundled_lexicon_path())
        key = tuple(term.casefold().split())
        assert preprocess(term) == list(key)
        expected = {lex.grouping[emotion] for emotion, weight in lex.phrase_entries[key]
                    if weight > 0}
        shouted = "«" + ", ".join(term.upper().split()) + "!!!» https://t.co/x"
        assert tag_document(doc(shouted), lex) == expected != set()


def _reference_aggregate(dataset, lex, threshold=0.0):
    """The aggregation loop keyed by Coin and Task2Label members, kept as the oracle."""
    sizes = Counter()
    tagged = defaultdict(Counter)
    for d in dataset:
        if d.coin is None or d.task2 is None:
            continue
        key = (d.coin, d.task2)
        sizes[key] += 1
        counts = tagged[key]
        for category in tag_document(d, lex, threshold):
            counts[category] += 1
    return EmotionReport(profiles={
        key: EmotionProfile(
            percentages={cat: _round2(tagged[key][cat], n) for cat in EmotionCategory},
            cell_count=n,
        )
        for key, n in sizes.items()
    })


class TestAggregate:
    @pytest.mark.parametrize("seed, threshold", [(1, 0.0), (2, 0.0), (3, 0.3), (4, 0.5)])
    def test_matches_member_keyed_aggregation(self, seed, threshold):
        """Every coin, label and category, cells first seen in a shuffled order."""
        lex = load_lexicon(bundled_lexicon_path())
        vocabulary = sorted({t for key in lex.phrase_entries for t in key}) + ["filler", "chart"]
        rng = random.Random(seed)
        docs = []
        for i, text in enumerate(_token_streams(vocabulary, 600, seed)):
            coin = rng.choice([*Coin, None])
            task2 = rng.choice([*Task2Label, None])
            docs.append(Document(id=f"d{i}", text=text, coin=coin, task1=1, task2=task2))
        rng.shuffle(docs)
        dataset = Dataset(documents=tuple(docs), name="planted")
        report = aggregate(dataset, lex, threshold)
        expected = _reference_aggregate(dataset, lex, threshold)

        assert {(coin, label) for coin in Coin for label in Task2Label} == set(expected.profiles)
        assert {cat for p in expected.profiles.values() for cat, pct in p.percentages.items()
                if pct} == set(EmotionCategory)
        assert list(report.profiles) == list(expected.profiles)
        assert all(type(coin) is Coin and type(label) is Task2Label
                   for coin, label in report.profiles)
        assert report.profiles == expected.profiles
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())

    def test_two_of_three_rounds_to_66_67(self, small_lexicon):
        docs = (
            doc("happy days ahead", id="a"),
            doc("happy again today", id="b"),
            doc("flat and boring", id="c"),
        )
        report = aggregate(Dataset(documents=docs, name="t"), small_lexicon)
        profile = report.profiles[(Coin.ADA, 1)]
        assert profile.cell_count == 3
        assert profile.percentages[EmotionCategory.DELIGHT_JOY] == 66.67
        assert profile.percentages[EmotionCategory.RAGE_ANGER] == 0.0

    def test_half_up_rounding(self, small_lexicon):
        # 1/32 = 3.125%: half-up gives 3.13 where bankers rounding gives 3.12
        docs = tuple(
            doc("happy now" if i == 0 else f"filler text {i}", id=f"d{i}")
            for i in range(32)
        )
        report = aggregate(Dataset(documents=docs, name="t"), small_lexicon)
        profile = report.profiles[(Coin.ADA, 1)]
        assert profile.percentages[EmotionCategory.DELIGHT_JOY] == 3.13

    def test_only_coin_and_direction_docs_counted(self, small_lexicon):
        docs = (
            doc("happy one", id="a"),
            Document(id="b", text="happy two", coin=Coin.ADA, task1=1, task2=None),
            Document(id="c", text="happy three", coin=None, task1=1, task2=1),
        )
        report = aggregate(Dataset(documents=docs, name="t"), small_lexicon)
        assert list(report.profiles) == [(Coin.ADA, 1)]
        assert report.profiles[(Coin.ADA, 1)].cell_count == 1

    def test_percentages_are_multiples_of_cell_unit(self, small_lexicon):
        # every percentage must equal round(100 * k / n) for integer k
        docs = tuple(
            doc("happy" if i % 3 == 0 else "scared wait", id=f"x{i}",
                coin=Coin.BNB, task2=2)
            for i in range(7)
        )
        report = aggregate(Dataset(documents=docs, name="t"), small_lexicon)
        profile = report.profiles[(Coin.BNB, 2)]
        allowed = {round(100.0 * k / 7, 2) for k in range(8)}
        for pct in profile.percentages.values():
            assert round(pct, 2) in allowed

    def test_unmatched_document_only_dilutes(self, small_lexicon):
        base = (doc("happy one", id="a"), doc("flat two", id="b"))
        extra = base + (doc("nothing matches here", id="c"),)
        before = aggregate(Dataset(documents=base, name="t"), small_lexicon)
        after = aggregate(Dataset(documents=extra, name="t"), small_lexicon)
        p_before = before.profiles[(Coin.ADA, 1)].percentages
        p_after = after.profiles[(Coin.ADA, 1)].percentages
        assert p_before[EmotionCategory.DELIGHT_JOY] == 50.0
        assert p_after[EmotionCategory.DELIGHT_JOY] == 33.33
        for cat, pct in p_before.items():
            if pct == 0.0:
                assert p_after[cat] == 0.0

    def test_to_dict_shape(self, small_lexicon):
        report = aggregate(Dataset(documents=(doc("happy", id="a"),), name="t"),
                           small_lexicon)
        payload = report.to_dict()
        assert payload["ADA"]["1"]["delight_joy"] == 100.0
        assert payload["ADA"]["1"]["cell_count"] == 1


class TestRenderMarkdown:
    def test_table_layout_and_dash_for_zero(self, small_lexicon):
        docs = (
            doc("happy days", id="a", coin=Coin.BNB, task2=1),
            doc("scared stiff", id="b", coin=Coin.BNB, task2=1),
            doc("dull chart", id="c", coin=Coin.ADA, task2=3),
        )
        text = render_markdown(aggregate(Dataset(documents=docs, name="t"),
                                         small_lexicon))
        lines = text.splitlines()
        titles = " | ".join(CATEGORY_TITLES[cat] for cat in EmotionCategory)
        assert lines[0] == f"| Coin | Label | {titles} |"
        assert lines[1].startswith("| --- | --- |")
        # ADA sorts before BNB in enum declaration order
        assert lines[2] == "| ADA | Neutral | – | – | – | – | – | – |"
        assert lines[3] == "| BNB | Incremental | 50.00 | – | – | – | 50.00 | – |"
        assert len(lines) == 4

    def test_label_order_within_coin(self, small_lexicon):
        docs = (
            doc("happy", id="a", coin=Coin.XRP, task2=3),
            doc("scared", id="b", coin=Coin.XRP, task2=1),
            doc("comfy", id="c", coin=Coin.XRP, task2=2),
        )
        text = render_markdown(aggregate(Dataset(documents=docs, name="t"),
                                         small_lexicon))
        rows = [line for line in text.splitlines() if line.startswith("| XRP")]
        assert [r.split(" | ")[1] for r in rows] == ["Incremental", "Decremental", "Neutral"]


def _reference_tag(doc, lex, threshold=0.0):
    """The tagger loop that slices every phrase length at every token, kept as the oracle."""
    tokens = preprocess(doc.text)
    found = set()
    i = 0
    n = len(tokens)
    max_phrase_len = max(map(len, lex.phrase_entries))
    while i < n:
        matched_len = 0
        for length in range(min(max_phrase_len, n - i), 0, -1):
            entry = lex.phrase_entries.get(tuple(tokens[i:i + length]))
            if entry is not None:
                for emotion, weight in entry:
                    if weight > threshold:
                        found.add(lex.grouping[emotion])
                matched_len = length
                break
        i += matched_len if matched_len else 1
    return found


@pytest.fixture
def prefix_lexicon(tmp_path):
    """Terms that share first tokens and prefixes at every length up to five."""
    terms = {
        "moon": 0.4, "moon shot": 0.9, "moon shot now": 0.6, "moon shot now and back": 0.8,
        "shot": 0.2, "shot now": 0.7, "now and": 0.5, "the moon": 0.3, "the moon shot": 0.95,
        "rekt": 0.6, "rekt rekt": 0.1, "pump and dump": 0.85, "pump and": 0.45, "dump": 0.55,
    }
    emotions = sorted(GROUPING)
    entries = {term: [[emotions[i % len(emotions)], weight],
                      [emotions[(i + 2) % len(emotions)], weight / 2]]
               for i, (term, weight) in enumerate(terms.items())}
    return load_lexicon(write_lexicon(tmp_path, {"entries": entries, "grouping": GROUPING}))


def _token_streams(vocabulary, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 30)))


class TestTaggerMatchesReference:
    VOCABULARY = ["moon", "shot", "now", "and", "back", "the", "rekt", "pump", "dump",
                  "filler", "MOON", "moon!", "the,moon", "pump-and-dump", "to"]

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.9])
    def test_shared_prefix_phrases(self, prefix_lexicon, threshold):
        for text in _token_streams(self.VOCABULARY, 400, seed=int(threshold * 10)):
            d = doc(text)
            assert tag_document(d, prefix_lexicon, threshold) \
                == _reference_tag(d, prefix_lexicon, threshold), text

    def test_streams_without_a_term_starting_token(self, prefix_lexicon):
        # "and" and "back" sit inside terms but start none
        vocabulary = ["and", "back", "filler", "to", "zzz"]
        for text in _token_streams(vocabulary, 200, seed=13):
            d = doc(text)
            assert prefix_lexicon.phrase_lengths.keys().isdisjoint(preprocess(text))
            assert tag_document(d, prefix_lexicon) == _reference_tag(d, prefix_lexicon) == set()

    def test_start_token_whose_phrase_never_completes(self, prefix_lexicon):
        # "the" starts only "the moon" and "the moon shot"; no stream holds "moon"
        vocabulary = ["the", "and", "back", "shot", "filler"]
        for text in _token_streams(vocabulary, 200, seed=17):
            text = f"{text} the"  # a start token at the very end as well
            d = doc(text)
            assert tag_document(d, prefix_lexicon) == _reference_tag(d, prefix_lexicon), text
        assert tag_document(doc("the the the"), prefix_lexicon) == set()
        assert tag_document(doc("the shot"), prefix_lexicon) \
            == _reference_tag(doc("the shot"), prefix_lexicon) != set()

    def test_bundled_lexicon_on_its_own_tokens(self):
        lex = load_lexicon(bundled_lexicon_path())
        vocabulary = sorted({t for key in lex.phrase_entries for t in key}) + ["filler", "zzz"]
        for text in _token_streams(vocabulary, 400, seed=11):
            d = doc(text)
            assert tag_document(d, lex) == _reference_tag(d, lex)
