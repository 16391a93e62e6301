"""Class balancing through paraphrase generation.

Minority classes are upsampled to the majority count by paraphrasing
original documents. Paraphrases come from a pluggable provider: either a
deterministic offline rewriter (seeded synonym substitution, hedge phrases,
clause reordering) or a remote chat-completion endpoint called one request
at a time with a rate-limit delay. The same remote plumbing also supports
asking the endpoint to label a document.
"""

from __future__ import annotations

import os
import random
import re
import time
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Protocol, Sequence

import requests

from .corpus import (
    DataError,
    Dataset,
    Document,
    LabelDistribution,
    Source,
    Task,
    Task1Label,
    Task2Label,
    distribution,
    label_enum,
)


class ProviderError(RuntimeError):
    """Remote provider unreachable, unauthorized, or persistently unparseable."""


class ParaphraseShortfallError(RuntimeError):
    """The requested number of distinct paraphrases is not achievable."""

    def __init__(self, requested: int, achieved: list[str]):
        self.requested = requested
        self.achieved = achieved
        super().__init__(
            f"only {len(achieved)} of {requested} distinct paraphrases achievable"
        )


class BalanceShortfallWarning(UserWarning):
    """balance() could not fully reach the plan; carries per-class shortfall."""

    def __init__(self, shortfall: Mapping[int, int]):
        self.shortfall = dict(shortfall)
        missing = ", ".join(f"class {c}: {n}" for c, n in sorted(self.shortfall.items()))
        super().__init__(f"balancing fell short of the plan ({missing})")


def normalize_key(text: str) -> str:
    """Duplicate-detection key: collapsed whitespace, case-folded."""
    return " ".join(text.split()).casefold()


class ParaphraseProvider(Protocol):
    def paraphrase(self, text: str, n: int, seed: int = 0) -> list[str]:
        """Return up to n pairwise-distinct paraphrases, none equal to text."""
        ...


# ---------------------------------------------------------------------------
# plan

@dataclass(frozen=True)
class AugmentPlan:
    """How many synthetic documents each minority class needs."""

    task: Task
    target_per_class: int
    needed: Mapping[int, int]

    def to_dict(self) -> dict:
        return {
            "task": int(self.task),
            "target_per_class": self.target_per_class,
            "needed": {str(code): n for code, n in sorted(self.needed.items())},
        }


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
    conjunction. Output is a pure function of (text, n, seed).
    """

    def __init__(self, synonyms: Mapping[str, Sequence[str]] | None = None):
        self.synonyms = dict(_SYNONYMS if synonyms is None else synonyms)

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

    def paraphrase(self, text: str, n: int, seed: int = 0) -> list[str]:
        if not text.strip():
            raise DataError("cannot paraphrase empty text")
        if n <= 0:
            return []
        rng = random.Random(seed)
        seen = {normalize_key(text)}
        out: list[str] = []
        budget = 60 * n + 200
        for _ in range(budget):
            if len(out) == n:
                break
            candidate = self._mutate(text, rng)
            key = normalize_key(candidate)
            if key and key not in seen:
                seen.add(key)
                out.append(candidate)
        if len(out) < n:
            raise ParaphraseShortfallError(requested=n, achieved=out)
        return out


# ---------------------------------------------------------------------------
# remote provider

@dataclass(frozen=True)
class ProviderConfig:
    """Remote chat-completion endpoint settings.

    The API key is read from the environment variable named by
    api_key_env; it never appears in config files or outputs.
    """

    endpoint: str
    api_key_env: str
    model: str
    request_delay_ms: int = 1000
    max_retries: int = 3
    timeout_s: float = 30.0
    temperature: float = 0.9

    def __post_init__(self) -> None:
        if self.request_delay_ms < 0:
            raise DataError("request_delay_ms must be >= 0")
        if self.max_retries < 0:
            raise DataError("max_retries must be >= 0")


class _ChatClient:
    """One-request-at-a-time JSON client with delay and retries.

    Transport errors, HTTP 429, 5xx statuses and malformed bodies are
    retried; any other non-200 status (401, 404, ...) fails at once.
    """

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        self.config = config
        self.session = session or requests.Session()
        self._sent_any = False

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise ProviderError(
                f"API key environment variable {self.config.api_key_env!r} is not set"
            )
        return key

    def complete(self, prompt: str) -> str:
        """POST one chat message, return the reply text."""
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
        }
        headers = {"Authorization": f"Bearer {self._api_key()}"}
        last_error = "no request sent"
        for _ in range(self.config.max_retries + 1):
            if self._sent_any and self.config.request_delay_ms:
                time.sleep(self.config.request_delay_ms / 1000.0)
            self._sent_any = True
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
                if response.status_code == 429 or response.status_code >= 500:
                    continue
                raise ProviderError(f"provider at {self.config.endpoint} refused the "
                                    f"request ({last_error})")
            try:
                return response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                last_error = "response body is not chat-completion shaped"
                continue
        raise ProviderError(
            f"provider at {self.config.endpoint} failed after "
            f"{self.config.max_retries + 1} attempts ({last_error})"
        )


_PARAPHRASE_PROMPT = (
    "Rewrite the following tweet so the meaning stays the same but the wording "
    "differs. Reply with the rewritten tweet only.\n\nTweet: {text}"
)


class RemoteParaphraser:
    """Paraphrase provider backed by a chat-completion endpoint.

    Requests go out strictly one at a time; sampling temperature, not the
    seed argument, drives variation. Distinctness is enforced locally with
    regeneration up to max_retries per variant.
    """

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        self.client = _ChatClient(config, session)

    def paraphrase(self, text: str, n: int, seed: int = 0) -> list[str]:
        if not text.strip():
            raise DataError("cannot paraphrase empty text")
        if n <= 0:
            return []
        seen = {normalize_key(text)}
        out: list[str] = []
        retries = self.client.config.max_retries
        for _ in range(n):
            accepted = False
            for _ in range(retries + 1):
                reply = self.client.complete(_PARAPHRASE_PROMPT.format(text=text)).strip()
                key = normalize_key(reply)
                if reply and key not in seen:
                    seen.add(key)
                    out.append(reply)
                    accepted = True
                    break
            if not accepted:
                raise ParaphraseShortfallError(requested=n, achieved=out)
        return out


def default_label_template() -> str:
    return resources.files("predstmt.data").joinpath("label_prompt.txt").read_text("utf-8")


_INT_RE = re.compile(r"-?\d+")


def llm_label(config: ProviderConfig, text: str, task: Task,
              template: str | None = None,
              session: requests.Session | None = None) -> Task1Label | Task2Label:
    """Ask the remote endpoint to label one document.

    The reply is parsed by taking the first integer that is a valid label
    code for the task; unparseable replies are retried, then raised.
    """
    task = Task(task)
    if template is None:
        template = default_label_template()
    prompt = template.format(text=text, task=int(task))
    enum = label_enum(task)
    valid = {int(member) for member in enum}
    client = _ChatClient(config, session)
    for _ in range(config.max_retries + 1):
        reply = client.complete(prompt)
        for match in _INT_RE.findall(reply):
            code = int(match)
            if code in valid:
                return enum(code)
    raise ProviderError(
        f"no valid task-{int(task)} label code in provider replies "
        f"after {config.max_retries + 1} attempts"
    )


# ---------------------------------------------------------------------------
# balancing

def _derived_seed(seed: int, counter: int) -> int:
    return (seed * 1_000_003 + counter) % (2 ** 31)


def balance(dataset: Dataset, task: Task, provider: ParaphraseProvider,
            seed: int, max_retries: int = 3) -> Dataset:
    """Upsample minority classes with synthetic paraphrases until all class
    counts match the majority class.

    Parents are original documents of the minority class, visited
    round-robin in seeded-shuffled order. Each synthetic document inherits
    its parent's labels and coin and records the parent id. A paraphrase
    duplicating any document text already in the output (after whitespace
    normalization and case folding) is regenerated up to max_retries times;
    slots still unfilled are reported through a BalanceShortfallWarning and
    the partial dataset is returned.
    """
    task = Task(task)
    plan = compute_plan(distribution(dataset, task))
    rng = random.Random(seed)
    existing_ids = {doc.id for doc in dataset}
    seen_texts = {normalize_key(doc.text) for doc in dataset}
    new_docs = list(dataset.documents)
    shortfall: dict[int, int] = {}
    request_counter = 0
    serial = 0
    for code in sorted(plan.needed):
        needed = plan.needed[code]
        parents = [
            doc for doc in dataset
            if doc.source is Source.ORIGINAL and doc.label(task) == code
        ]
        if not parents:
            shortfall[code] = needed
            continue
        rng.shuffle(parents)
        missed = 0
        for slot in range(needed):
            parent = parents[slot % len(parents)]
            made = None
            for _ in range(max_retries + 1):
                request_counter += 1
                try:
                    texts = provider.paraphrase(
                        parent.text, 1, seed=_derived_seed(seed, request_counter)
                    )
                except ParaphraseShortfallError:
                    continue
                if not texts:
                    continue
                key = normalize_key(texts[0])
                if key not in seen_texts:
                    made = texts[0]
                    seen_texts.add(key)
                    break
            if made is None:
                missed += 1
                continue
            while True:
                serial += 1
                syn_id = f"syn-{int(task)}-{serial:05d}"
                if syn_id not in existing_ids:
                    break
            existing_ids.add(syn_id)
            new_docs.append(
                Document(
                    id=syn_id,
                    text=made,
                    coin=parent.coin,
                    task1=parent.task1,
                    task2=parent.task2,
                    source=Source.SYNTHETIC,
                    parent_id=parent.id,
                )
            )
        if missed:
            shortfall[code] = missed
    result = Dataset(documents=tuple(new_docs), name=f"{dataset.name}-balanced")
    if shortfall:
        warnings.warn(BalanceShortfallWarning(shortfall), stacklevel=2)
    return result
