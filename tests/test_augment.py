"""Paraphrase generation and class balancing tests."""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predstmt import (
    Coin,
    DataError,
    Dataset,
    Document,
    OfflineParaphraser,
    Source,
    Task,
    balance,
    compute_plan,
    distribution,
)
from predstmt.augment import normalize_key
from predstmt.corpus import jsonable

from conftest import build_planted_dataset


class TestPlan:
    def test_two_class_counts(self, reference_corpus):
        plan = compute_plan(distribution(reference_corpus, Task.PREDICTIVENESS))
        assert plan.target_per_class == 2000
        assert plan.needed == {1: 884}

    def test_three_class_counts(self, reference_corpus):
        plan = compute_plan(distribution(reference_corpus, Task.DIRECTION))
        assert plan.target_per_class == 570
        assert plan.needed == {2: 136, 3: 458}

    def test_already_balanced_needs_nothing(self):
        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 4, 1: 4}, seed=1)
        plan = compute_plan(distribution(ds, Task.PREDICTIVENESS))
        assert plan.needed == {}

    def test_empty_distribution_rejected(self):
        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 3, 1: 3}, seed=1)
        with pytest.raises(DataError, match="nothing to balance"):
            compute_plan(distribution(ds, Task.DIRECTION))

    def test_jsonable(self, reference_corpus):
        plan = compute_plan(distribution(reference_corpus, Task.DIRECTION))
        assert jsonable(plan) == {
            "task": 2,
            "target_per_class": 570,
            "needed": {"2": 136, "3": 458},
        }


class TestOfflineParaphraser:
    def test_outputs_distinct_and_differ_from_input(self):
        text = "btc will rise soon because demand keeps growing"
        outs = [OfflineParaphraser().paraphrase(text, seed=seed) for seed in range(8)]
        keys = {normalize_key(o) for o in outs}
        assert len(keys) == 8
        assert normalize_key(text) not in keys

    def test_synonym_swap_surfaces_plain_variant(self):
        para = OfflineParaphraser()
        para.synonyms = {"rise": ("increase",)}
        outs = [para.paraphrase("price will rise soon", seed=seed) for seed in range(10)]
        assert "price will increase soon" in outs

    def test_empty_text_rejected(self):
        with pytest.raises(DataError, match="empty"):
            OfflineParaphraser().paraphrase("   ")

    def test_deterministic(self):
        text = "eth looks weak but volume is holding"
        assert OfflineParaphraser().paraphrase(text, seed=42) == OfflineParaphraser().paraphrase(text, seed=42)

    def test_seed_changes_output(self):
        text = "eth looks weak but volume is holding"
        assert OfflineParaphraser().paraphrase(text, seed=1) != OfflineParaphraser().paraphrase(text, seed=2)

    def test_echo_is_returned_and_balance_regenerates_the_slot(self):
        # seed 1 swaps the clauses of "up but up" and adds no hedge: an echo
        para = OfflineParaphraser()
        assert para.paraphrase("up but up", seed=1) == "up but up"
        seeds = []

        class Recording:
            def paraphrase(self, text, seed=0):
                seeds.append(seed)
                return para.paraphrase(text, seed=seed)

        docs = [Document(id=f"m{i}", text=f"majority doc {i}", coin=Coin.ADA, task1=0)
                for i in range(2)]
        docs.append(Document(id="p", text="up but up", coin=Coin.ADA, task1=1))
        ds = Dataset(documents=tuple(docs), name="echo")
        balanced = balance(ds, Task.PREDICTIVENESS, Recording(), seed=0)
        assert seeds == [1, 2]  # the echo is rejected and the slot regenerated
        synthetic = [d for d in balanced if d.source is Source.SYNTHETIC]
        assert [d.text for d in synthetic] == [para.paraphrase("up but up", seed=2)]
        assert synthetic[0].text != "up but up"


class ScriptedProvider:
    """Replays canned paraphrases; records every request it sees."""

    def __init__(self, script):
        self.script = dict(script)
        self.counters = {}
        self.calls = []

    def paraphrase(self, text, seed=0):
        self.calls.append((text, seed))
        i = self.counters.get(text, 0)
        self.counters[text] = i + 1
        outs = self.script[text]
        return outs[min(i, len(outs) - 1)]


class TestBalance:
    def test_reference_shaped_totals(self, reference_corpus):
        balanced = balance(reference_corpus, Task.PREDICTIVENESS,
                           OfflineParaphraser(), seed=42)
        dist = distribution(balanced, Task.PREDICTIVENESS)
        assert dist.counts == {0: 2000, 1: 2000}
        assert dist.total == 4000
        assert balanced.name.endswith("-balanced")

        balanced2 = balance(reference_corpus, Task.DIRECTION,
                            OfflineParaphraser(), seed=42)
        dist2 = distribution(balanced2, Task.DIRECTION)
        assert dist2.counts == {1: 570, 2: 570, 3: 570}
        assert dist2.total == 1710

    def test_synthetic_documents_wired_to_parents(self):
        ds = build_planted_dataset(Task.DIRECTION, {1: 8, 2: 3, 3: 5}, seed=5)
        balanced = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=7)
        synth = [d for d in balanced if d.source is Source.SYNTHETIC]
        assert len(synth) == (8 - 3) + (8 - 5)
        by_id = {d.id: d for d in ds}
        for doc in synth:
            parent = by_id[doc.parent_id]
            assert doc.task1 == parent.task1
            assert doc.task2 == parent.task2
            assert doc.coin == parent.coin
            assert doc.id.startswith("syn-2-")
        serials = sorted(int(d.id.split("-")[-1]) for d in synth)
        assert serials == list(range(1, len(synth) + 1))

    def test_no_duplicate_texts_after_balancing(self):
        ds = build_planted_dataset(Task.DIRECTION, {1: 9, 2: 4, 3: 6}, seed=2)
        balanced = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=3)
        keys = [normalize_key(d.text) for d in balanced]
        assert len(keys) == len(set(keys))

    def test_deterministic(self):
        ds = build_planted_dataset(Task.DIRECTION, {1: 7, 2: 3, 3: 5}, seed=9)
        b1 = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=11)
        b2 = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=11)
        assert [(d.id, d.text, d.parent_id) for d in b1] \
            == [(d.id, d.text, d.parent_id) for d in b2]

    def test_single_parent_yields_distinct_children(self):
        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 4, 1: 1}, seed=4)
        balanced = balance(ds, Task.PREDICTIVENESS, OfflineParaphraser(), seed=1)
        synth = [d for d in balanced if d.source is Source.SYNTHETIC]
        assert len(synth) == 3
        assert len({d.parent_id for d in synth}) == 1
        assert len({normalize_key(d.text) for d in synth}) == 3

    def test_originals_survive_untouched(self):
        ds = build_planted_dataset(Task.DIRECTION, {1: 6, 2: 2, 3: 4}, seed=8)
        balanced = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=13)
        assert list(balanced)[: len(ds)] == list(ds)

    def test_already_balanced_is_noop(self):
        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 5, 1: 5}, seed=6)
        provider = ScriptedProvider({})
        balanced = balance(ds, Task.PREDICTIVENESS, provider, seed=1)
        assert len(balanced) == len(ds)
        assert provider.calls == []

    def test_duplicate_paraphrase_regenerated(self):
        docs = (
            Document(id="a", text="alpha text one", coin=Coin.ADA, task1=0),
            Document(id="b", text="beta text two", coin=Coin.ADA, task1=0),
            Document(id="c", text="gamma text three", coin=Coin.ADA, task1=1),
        )
        ds = Dataset(documents=docs, name="d")
        provider = ScriptedProvider({
            # first answer collides with an existing document, the retry is new
            "gamma text three": ["Alpha  TEXT one", "fresh paraphrase"],
        })
        balanced = balance(ds, Task.PREDICTIVENESS, provider, seed=1)
        synth = [d for d in balanced if d.source is Source.SYNTHETIC]
        assert [d.text for d in synth] == ["fresh paraphrase"]
        assert len(provider.calls) == 2

    def test_exhausted_retries_return_partial(self):
        docs = (
            Document(id="a", text="alpha text one", coin=Coin.BNB, task1=0),
            Document(id="b", text="beta text two", coin=Coin.BNB, task1=0),
            Document(id="c", text="gamma text three", coin=Coin.BNB, task1=1),
        )
        ds = Dataset(documents=docs, name="d")
        provider = ScriptedProvider({"gamma text three": ["alpha text one"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            balanced = balance(ds, Task.PREDICTIVENESS, provider, seed=1, max_retries=2)
        assert len(balanced) == 3
        assert compute_plan(distribution(balanced, Task.PREDICTIVENESS)).needed == {1: 1}
        assert len(provider.calls) == 3  # one attempt plus two retries

    def test_class_without_parents_is_all_shortfall(self):
        ds = build_planted_dataset(Task.DIRECTION, {1: 5, 2: 2, 3: 0}, seed=6)
        balanced = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=2)
        after = distribution(balanced, Task.DIRECTION)
        assert after.counts == {1: 5, 2: 5, 3: 0}
        assert compute_plan(after).needed == {3: 5}

    def test_provider_error_propagates(self):
        class Exploding:
            def paraphrase(self, text, seed=0):
                raise RuntimeError("provider down")

        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 3, 1: 1}, seed=8)
        with pytest.raises(RuntimeError, match="provider down"):
            balance(ds, Task.PREDICTIVENESS, Exploding(), seed=1)

    def test_request_seeds_derived_from_balance_seed(self):
        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 3, 1: 1}, seed=8)
        provider = ScriptedProvider({
            doc.text: [f"variant {i} {j}" for j in range(4)]
            for i, doc in enumerate(ds) if doc.task1 == 1
        })
        balance(ds, Task.PREDICTIVENESS, provider, seed=5)
        seeds = [seed for _, seed in provider.calls]
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= s < 2 ** 31 for s in seeds)
        again = ScriptedProvider(provider.script)
        balance(ds, Task.PREDICTIVENESS, again, seed=5)
        assert [s for _, s in again.calls] == seeds


def _collapsed_key(text):
    """normalize_key without its shortcut for text that is already collapsed."""
    return " ".join(text.split()).casefold()


class TestNormalizeKey:
    def test_space_is_the_only_printable_whitespace(self):
        # the shortcut rests on this; another Unicode database must fail here
        both = [c for c in range(0x110000) if chr(c).isspace() and chr(c).isprintable()]
        assert both == [0x20]

    def test_every_code_point_matches_collapsed_key(self):
        for start in range(0, 0x110000, 0x10000):
            chars = [chr(c) for c in range(start, start + 0x10000) if not 0xD800 <= c <= 0xDFFF]
            texts = [t for ch in chars for t in (ch, f"a{ch}b", f" {ch} ", f"a  {ch}b")]
            assert list(map(normalize_key, texts)) == list(map(_collapsed_key, texts)), start

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["BTC", "Straße", "ΟΔΟΣ", "ﬁre", "İ", "ǅ", "é", "e\u0301"]),
        st.text(st.sampled_from("abcXYZ.!"), min_size=1, max_size=5),
        st.just(" "),  # alone, so that many texts are printable and take the shortcut
        st.text(st.sampled_from(" \t\u2028\u00a0"), min_size=1, max_size=4),
    ), max_size=10).map("".join))
    def test_words_and_whitespace_runs_match_collapsed_key(self, text):
        assert normalize_key(text) == _collapsed_key(text)


def _mixed_corpus(seed):
    """Originals of every label, synthetic children of some, and ids balance() numbers."""
    rng = random.Random(seed)
    texts = ["BTC up  soon", "Straße\tnow", "ADA will rise", "bearish on XRP", "buy the dip"]
    docs = [Document(id="first", text="good coin today", coin=Coin.ADA, task1=1, task2=1)]
    for i in range(rng.randint(4, 30)):
        task1 = rng.choice([0, 1, 1, None])
        docs.append(Document(
            id=rng.choice([f"o{i}", f"syn-1-{i:05d}", f"syn-2-{i:05d}"]),
            text=f"{rng.choice(texts)} {i}",
            coin=rng.choice([*Coin, None]),
            task1=task1,
            task2=rng.choice([1, 2, 3, None]) if task1 == 1 else None,
        ))
    originals = list(docs)
    for j in range(rng.randint(0, 4)):
        parent = rng.choice(originals)
        docs.append(Document(id=f"s{j}", text=f"copy {j}: {parent.text}", coin=parent.coin,
                             task1=parent.task1, task2=parent.task2, source=Source.SYNTHETIC,
                             parent_id=parent.id))
    return Dataset(documents=tuple(docs), name=f"mixed-{seed}")


class TestBalanceBuildsValidDocuments:
    @pytest.mark.parametrize("seed", range(16))
    def test_validating_constructors_rebuild_the_result(self, seed):
        ds = _mixed_corpus(seed)
        for task in Task:
            result = balance(ds, task, OfflineParaphraser(), seed=seed)
            rebuilt = Dataset(tuple(Document(**vars(d)) for d in result), result.name)
            assert rebuilt == result
            assert rebuilt.name is result.name
            for made, checked in zip(result, rebuilt):
                assert vars(made).keys() == vars(checked).keys()
                assert all(vars(checked)[k] is v for k, v in vars(made).items()), made.id

    def test_balances_without_running_a_constructor_check(self, monkeypatch):
        ds = _mixed_corpus(3)
        assert any(d.id.startswith("syn-2-") for d in ds)
        expected = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=3)

        def refuse(self):
            raise AssertionError(f"balance() ran a {type(self).__name__} check")

        monkeypatch.setattr(Document, "__post_init__", refuse)
        monkeypatch.setattr(Dataset, "__post_init__", refuse)
        result = balance(ds, Task.DIRECTION, OfflineParaphraser(), seed=3)
        assert len(result) > len(ds)
        assert result.documents == expected.documents and result.name == expected.name

    @pytest.mark.parametrize("answer", [None, b"bytes text", ["a", "list"]])
    def test_provider_answer_that_is_not_a_string_is_a_data_error(self, answer):
        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 3, 1: 1}, seed=8)
        provider = ScriptedProvider({doc.text: [answer] for doc in ds})
        with pytest.raises(DataError, match="not a string"):
            balance(ds, Task.PREDICTIVENESS, provider, seed=1)

    def test_provider_answer_with_a_lone_surrogate_is_a_data_error(self):
        # the synthetic document is built unchecked; saving it would raise UnicodeEncodeError
        ds = build_planted_dataset(Task.PREDICTIVENESS, {0: 3, 1: 1}, seed=8)
        provider = ScriptedProvider({doc.text: ["\ud800"] for doc in ds})
        with pytest.raises(DataError) as info:
            balance(ds, Task.PREDICTIVENESS, provider, seed=1)
        assert str(info.value) == ("provider reply holds lone surrogate U+D800, "
                                   "which UTF-8 cannot encode")
