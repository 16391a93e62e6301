"""Class balancing through paraphrase generation.

Minority classes are upsampled to the majority count by paraphrasing
original documents. A provider returns one candidate per call: a seeded
offline rewriter (synonym swaps, hedge phrases, clause reordering) or a
remote chat-completion endpoint called one request at a time with a
rate-limit delay. balance() alone rejects blank and duplicate candidates
and regenerates them; the shortfall is read from the result's counts. The
remote provider alone retries failed requests.
"""

from __future__ import annotations

import math
import os
import random
import time
import types
from dataclasses import dataclass
from typing import Mapping, Protocol

from .config import ProviderConfig, ProviderError
from .corpus import (
    DataError,
    Dataset,
    Document,
    LabelDistribution,
    Source,
    Task,
    _check_encodable,
    _prechecked,
    distribution,
)


def normalize_key(text: str) -> str:
    """Duplicate-detection key: collapsed whitespace, case-folded."""
    # U+0020 is the only whitespace that isprintable() accepts, so a printable
    # text with no run of spaces and none at either end is already collapsed.
    if (text.isprintable() and "  " not in text
            and not text.startswith(" ") and not text.endswith(" ")):
        return text.casefold()
    return " ".join(text.split()).casefold()


class ParaphraseProvider(Protocol):
    def paraphrase(self, text: str, seed: int = 0) -> str:
        """Return one candidate paraphrase of text; balance() judges it."""
        ...


# ---------------------------------------------------------------------------
# plan

@dataclass(frozen=True)
class AugmentPlan:
    """How many synthetic documents each minority class needs."""

    task: Task
    target_per_class: int
    needed: Mapping[int, int]


def compute_plan(dist: LabelDistribution) -> AugmentPlan:
    """Plan upsampling every class to the current maximum class count.

    The needed map lists only classes short of the target.
    """
    if dist.total == 0:
        raise DataError(f"no documents labeled for task {int(dist.task)}; nothing to balance")
    target = max(dist.counts.values())
    needed = {
        int(code): target - count
        for code, count in dist.counts.items()
        if target - count > 0
    }
    return AugmentPlan(task=dist.task, target_per_class=target, needed=needed)


# ---------------------------------------------------------------------------
# offline paraphraser

_SYNONYMS: dict[str, tuple[str, ...]] = {
    "rise": ("increase", "climb"),
    "rises": ("increases", "climbs"),
    "rising": ("increasing", "climbing"),
    "drop": ("fall", "slide"),
    "drops": ("falls", "slides"),
    "dropping": ("falling", "sliding"),
    "soon": ("shortly", "before long"),
    "big": ("huge", "sizeable"),
    "small": ("minor", "modest"),
    "price": ("valuation", "quote"),
    "prices": ("valuations", "quotes"),
    "buy": ("accumulate", "grab"),
    "sell": ("offload", "exit"),
    "buying": ("accumulating", "grabbing"),
    "selling": ("offloading", "exiting"),
    "think": ("believe", "reckon"),
    "expect": ("anticipate", "foresee"),
    "market": ("exchange", "order book"),
    "coin": ("token", "asset"),
    "coins": ("tokens", "assets"),
    "today": ("right now", "at the moment"),
    "tomorrow": ("by tomorrow", "within a day"),
    "week": ("seven days", "trading week"),
    "good": ("solid", "decent"),
    "bad": ("poor", "weak"),
    "pump": ("surge", "spike"),
    "dump": ("selloff", "flush"),
    "bullish": ("optimistic", "upbeat"),
    "bearish": ("pessimistic", "downbeat"),
    "stable": ("steady", "flat"),
    "chart": ("graph", "candles"),
    "huge": ("massive", "enormous"),
    "very": ("really", "quite"),
    "news": ("headlines", "reports"),
    "people": ("folks", "traders"),
    "holding": ("keeping", "hodling"),
    "looks": ("appears", "seems"),
    "probably": ("likely", "most likely"),
}

_HEDGE_PREFIXES = (
    "honestly,",
    "for what it's worth,",
    "if you ask me,",
    "my take:",
    "real talk,",
    "not gonna lie,",
)

_HEDGE_SUFFIXES = (
    ", at least that's my read",
    ", just my view",
    ", we'll see",
    ", mark my words",
    ", no financial advice",
)

_CONJUNCTIONS = (" but ", " because ", " and ")


class OfflineParaphraser:
    """Deterministic paraphrase generator for offline balancing and tests.

    Edits are meaning-light: synonym swaps from a fixed table, optional
    hedge phrases at either end, and clause reordering around a
    conjunction. Output is a pure function of (text, seed).
    """

    synonyms = types.MappingProxyType(_SYNONYMS)  # read-only: one table for every instance

    def _mutate(self, text: str, rng: random.Random) -> str:
        words = text.split()
        out = []
        changed = False
        for word in words:
            # look the word up without surrounding punctuation
            core = word.strip(".,!?;:()\"'")
            options = self.synonyms.get(core.lower())
            if options and rng.random() < 0.6:
                replacement = rng.choice(options)
                out.append(word.replace(core, replacement, 1))
                changed = True
            else:
                out.append(word)
        candidate = " ".join(out)
        if rng.random() < 0.3:
            for conj in _CONJUNCTIONS:
                if conj in candidate:
                    head, tail = candidate.split(conj, 1)
                    candidate = tail + conj + head
                    changed = True
                    break
        if rng.random() < 0.5 or not changed:
            candidate = rng.choice(_HEDGE_PREFIXES) + " " + candidate
        if rng.random() < 0.35:
            candidate = candidate + rng.choice(_HEDGE_SUFFIXES)
        return candidate

    def paraphrase(self, text: str, seed: int = 0) -> str:
        """One seeded candidate; it may echo text, and balance() then rejects it."""
        if not text.strip():
            raise DataError("cannot paraphrase empty text")
        return self._mutate(text, random.Random(seed))


# ---------------------------------------------------------------------------
# remote provider

def _retry_after_s(value: str | None) -> float | None:
    """The delay a numeric Retry-After header asks for, in seconds; None otherwise.

    The HTTP-date form and anything else unparseable are ignored, as are
    negative and non-finite numbers.
    """
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


_PARAPHRASE_PROMPT = (
    "Rewrite the following tweet so the meaning stays the same but the wording "
    "differs. Reply with the rewritten tweet only.\n\nTweet: {text}"
)


class RemoteParaphraser:
    """Paraphrase provider backed by a chat-completion endpoint.

    Each call returns the stripped content of the first chat-completion
    reply; sampling temperature, not the seed argument, drives variation.
    Requests go one at a time, request_delay_ms apart. Transport errors,
    HTTP 429, 5xx statuses and malformed bodies (a reply content that is
    not a string among them) share one budget of max_retries + 1 requests;
    any other non-200 status (401, 404, ...) fails at once. A 429 or 503
    with a numeric Retry-After waits that long before the retry, capped at
    timeout_s and never shorter than request_delay_ms. requests is imported
    here, so runs that never go remote do not load it.
    """

    def __init__(self, config: ProviderConfig):
        import requests

        self.config = config
        self.session = requests.Session()
        self._sent_any = False

    def paraphrase(self, text: str, seed: int = 0) -> str:
        import requests

        if not text.strip():
            raise DataError("cannot paraphrase empty text")
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise ProviderError(
                f"API key environment variable {self.config.api_key_env!r} is not set"
            )
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": _PARAPHRASE_PROMPT.format(text=text)}],
            "temperature": self.config.temperature,
        }
        headers = {"Authorization": f"Bearer {key}"}
        last_error = "no request sent"
        base_delay = self.config.request_delay_ms / 1000.0
        delay = base_delay
        for _ in range(self.config.max_retries + 1):
            if self._sent_any and delay:
                time.sleep(delay)
            self._sent_any = True
            delay = base_delay
            try:
                response = self.session.post(
                    self.config.endpoint,
                    json=body,
                    headers=headers,
                    timeout=self.config.timeout_s,
                )
            except requests.RequestException as exc:
                last_error = f"request failed: {exc}"
                continue
            if response.status_code != 200:
                last_error = f"HTTP {response.status_code}: {response.text[:200]}"
                if response.status_code in (429, 503):
                    retry_after = _retry_after_s(response.headers.get("Retry-After"))
                    if retry_after is not None:
                        delay = max(base_delay, min(retry_after, self.config.timeout_s))
                if response.status_code == 429 or response.status_code >= 500:
                    continue
                raise ProviderError(f"provider at {self.config.endpoint} refused the "
                                    f"request ({last_error})")
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                content = None
            if isinstance(content, str):
                return content.strip()
            last_error = "response body is not chat-completion shaped"
        raise ProviderError(
            f"provider at {self.config.endpoint} failed after "
            f"{self.config.max_retries + 1} attempts ({last_error})"
        )


# ---------------------------------------------------------------------------
# balancing

def _derived_seed(seed: int, counter: int) -> int:
    return (seed * 1_000_003 + counter) % (2 ** 31)


def balance(dataset: Dataset, task: Task, provider: ParaphraseProvider,
            seed: int, max_retries: int = 3, plan: AugmentPlan | None = None) -> Dataset:
    """Upsample minority classes with synthetic paraphrases until all class
    counts match the majority class.

    Parents are original documents of the minority class, visited
    round-robin in seeded-shuffled order. Each synthetic document inherits
    its parent's labels and coin and records the parent id. Each attempt
    asks the provider for one candidate; a blank one, or one duplicating any
    document text already in the output (after whitespace normalization and
    case folding), is regenerated up to max_retries times. Slots still
    unfilled are left out and the partial dataset is returned; the shortfall
    is compute_plan(distribution(result, task)).needed, since the majority
    class is never upsampled. A caller that has already counted the dataset
    passes its compute_plan as plan, so the dataset is counted once.
    """
    task = Task(task)
    if plan is None:
        plan = compute_plan(distribution(dataset, task))
    rng = random.Random(seed)
    existing_ids = {doc.id for doc in dataset}
    seen_texts = {normalize_key(doc.text) for doc in dataset}
    new_docs = list(dataset.documents)
    request_counter = 0
    serial = 0
    parents_of: dict[int, list[Document]] = {code: [] for code in plan.needed}
    original, synthetic = Source.ORIGINAL, Source.SYNTHETIC
    for doc in dataset:  # one pass; each class keeps corpus order
        if doc.source is original:
            parents = parents_of.get(doc.label(task))
            if parents is not None:
                parents.append(doc)
    for code in sorted(plan.needed):
        parents = parents_of[code]
        if not parents:
            continue
        rng.shuffle(parents)
        for slot in range(plan.needed[code]):
            parent = parents[slot % len(parents)]
            for _ in range(max_retries + 1):
                request_counter += 1
                made = provider.paraphrase(parent.text, seed=_derived_seed(seed, request_counter))
                if not isinstance(made, str):  # the document below is built unchecked
                    raise DataError(f"provider returned a {type(made).__name__}, not a string")
                _check_encodable({"provider reply": made})
                key = normalize_key(made)
                if key and key not in seen_texts:
                    seen_texts.add(key)
                    break
            else:
                continue  # every attempt rejected: the slot stays unfilled
            while True:
                serial += 1
                syn_id = f"syn-{int(task)}-{serial:05d}"
                if syn_id not in existing_ids:
                    break
            existing_ids.add(syn_id)
            new_docs.append(_prechecked(Document, {
                "id": syn_id, "text": made, "coin": parent.coin, "task1": parent.task1,
                "task2": parent.task2, "source": synthetic, "parent_id": parent.id,
            }))
    return _prechecked(Dataset, {"documents": tuple(new_docs),
                                 "name": f"{dataset.name}-balanced"})
