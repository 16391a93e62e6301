"""Paraphrase generation and class balancing tests."""

import random

import pytest

from predstmt import (
    BalanceShortfallWarning,
    Coin,
    DataError,
    Dataset,
    Document,
    OfflineParaphraser,
    ParaphraseShortfallError,
    Source,
    Task,
    balance,
    compute_plan,
    distribution,
)
from predstmt.augment import normalize_key

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

    def test_to_dict(self, reference_corpus):
        plan = compute_plan(distribution(reference_corpus, Task.DIRECTION))
        assert plan.to_dict() == {
            "task": 2,
            "target_per_class": 570,
            "needed": {"2": 136, "3": 458},
        }


class TestOfflineParaphraser:
    def test_outputs_distinct_and_differ_from_input(self):
        text = "btc will rise soon because demand keeps growing"
        for seed in range(5):
            outs = OfflineParaphraser().paraphrase(text, 8, seed=seed)
            assert len(outs) == 8
            keys = {normalize_key(o) for o in outs}
            assert len(keys) == 8
            assert normalize_key(text) not in keys

    def test_synonym_swap_surfaces_plain_variant(self):
        para = OfflineParaphraser(synonyms={"rise": ("increase",)})
        outs = para.paraphrase("price will rise soon", 10, seed=0)
        assert "price will increase soon" in outs

    def test_zero_request(self):
        assert OfflineParaphraser().paraphrase("anything goes here", 0) == []

    def test_empty_text_rejected(self):
        with pytest.raises(DataError, match="empty"):
            OfflineParaphraser().paraphrase("   ", 3)

    def test_deterministic(self):
        text = "eth looks weak but volume is holding"
        assert OfflineParaphraser().paraphrase(text, 6, seed=42) == OfflineParaphraser().paraphrase(text, 6, seed=42)

    def test_seed_changes_output(self):
        text = "eth looks weak but volume is holding"
        assert OfflineParaphraser().paraphrase(text, 6, seed=1) != OfflineParaphraser().paraphrase(text, 6, seed=2)

    def test_shortfall_carries_achieved_list(self):
        # no synonyms and no conjunction: only hedge placements can vary,
        # giving 6 prefixes * (1 + 5 suffixes) = 36 possible variants
        para = OfflineParaphraser(synonyms={})
        with pytest.raises(ParaphraseShortfallError) as exc:
            para.paraphrase("tiny sample text", 50, seed=3)
        assert exc.value.requested == 50
        assert len(exc.value.achieved) == 36
        assert len({normalize_key(t) for t in exc.value.achieved}) == 36


class ScriptedProvider:
    """Replays canned paraphrases; records every request it sees."""

    def __init__(self, script):
        self.script = dict(script)
        self.counters = {}
        self.calls = []

    def paraphrase(self, text, n, seed=0):
        self.calls.append((text, n, seed))
        i = self.counters.get(text, 0)
        self.counters[text] = i + 1
        outs = self.script[text]
        return [outs[min(i, len(outs) - 1)]]


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

    def test_exhausted_retries_warn_and_return_partial(self):
        docs = (
            Document(id="a", text="alpha text one", coin=Coin.BNB, task1=0),
            Document(id="b", text="beta text two", coin=Coin.BNB, task1=0),
            Document(id="c", text="gamma text three", coin=Coin.BNB, task1=1),
        )
        ds = Dataset(documents=docs, name="d")
        provider = ScriptedProvider({"gamma text three": ["alpha text one"]})
        with pytest.warns(BalanceShortfallWarning) as record:
            balanced = balance(ds, Task.PREDICTIVENESS, provider, seed=1, max_retries=2)
        assert record[0].message.shortfall == {1: 1}
        assert len(balanced) == 3
        assert len(provider.calls) == 3  # one attempt plus two retries

    def test_provider_error_propagates(self):
        class Exploding:
            def paraphrase(self, text, n, seed=0):
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
        seeds = [seed for _, _, seed in provider.calls]
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= s < 2 ** 31 for s in seeds)
        again = ScriptedProvider(provider.script)
        balance(ds, Task.PREDICTIVENESS, again, seed=5)
        assert [s for _, _, s in again.calls] == seeds
