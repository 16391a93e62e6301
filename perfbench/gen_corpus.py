"""Deterministic synthetic crypto-tweet corpora for the benchmark.

A corpus is a pure function of (seed, scale). Label counts follow the
paper's mix (2,000 non-predictive; 570 / 434 / 112 predictive incremental,
decremental and neutral) times the scale. Text mixes:

* Zipfian filler drawn from a seeded pseudo-word vocabulary;
* label-correlated cue words, with cues of other classes added as noise, so
  cross-validated macro-F1 sits between the majority-class floor and 1.0;
* URLs, punctuation, emoji, cashtags and digits for the cleaning pipeline;
* single- and multi-word emotion lexicon terms;
* words from the offline paraphraser's synonym table and clause
  conjunctions, so paraphrasing has something to rewrite;
* a coin tag on most documents and none on the rest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

# (task1, task2) -> documents at scale 1
PAPER_MIX = {(0, None): 2000, (1, 1): 570, (1, 2): 434, (1, 3): 112}

_SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "bra", "sto", "gle", "tri",
    "pan", "dor", "xel", "qua", "fen", "lux", "mor", "sin", "tek", "yar", "chi", "wen",
)
_VOCAB_SIZE = 2500
_ZIPF_EXPONENT = 1.07

# cue words per label; several are keys of the offline paraphraser's synonym table
_TASK1_CUES = {
    0: ("bought", "yesterday", "watching", "listed", "announced", "today", "news",
        "chart", "holding", "people", "volume"),
    1: ("will", "expect", "soon", "tomorrow", "target", "next", "predict", "probably",
        "week", "think", "looks"),
}
_TASK2_CUES = {
    1: ("rise", "pump", "bullish", "climb", "breakout", "rising", "buy", "huge"),
    2: ("drop", "dump", "bearish", "crash", "dropping", "sell", "bad", "selling"),
    3: ("stable", "sideways", "flat", "range", "consolidate", "steady", "small"),
}
_EMOTION_TERMS = {
    1: ("thrilled", "excited", "over the moon", "pumped", "happy", "counting down", "hyped"),
    2: ("scared", "panicking", "heartbroken", "terrified", "furious", "worried", "devastated"),
    3: ("relieved", "comfy", "pleasant", "anxious", "eager"),
    None: ("happy", "sad", "angry", "delighted", "joyful", "livid", "mourning", "outraged"),
}
_CONJUNCTIONS = ("but", "because", "and")
_SHARED = ("price", "coin", "market", "good", "very", "big", "coins", "prices")
_EMOJI = ("🚀", "📉", "😱", "🔥", "💎", "🙌", "🤔", "😂")
_PUNCT = ("!", "!!", "?", "...", ",", ";", ":)", "-")
_COINS = ("ADA", "MATIC", "BNB", "XRP", "FTM", "Other")
_COIN_WEIGHTS = (24, 18, 16, 20, 10, 12)
_NULL_COIN_SHARE = 0.08


def label_counts(scale: float) -> dict[tuple[int, int | None], int]:
    counts = {labels: round(n * scale) for labels, n in PAPER_MIX.items()}
    if any(count != n * scale for count, n in zip(counts.values(), PAPER_MIX.values())):
        raise ValueError(f"scale {scale} does not give whole label counts")
    return counts


def _vocabulary(rng: random.Random) -> list[str]:
    words: set[str] = set()
    out = []
    while len(out) < _VOCAB_SIZE:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in words:
            words.add(word)
            out.append(word)
    return out


def _clause(rng: random.Random, vocab: list[str], cum: list[float], cues: list[str]) -> list[str]:
    words = rng.choices(vocab, cum_weights=cum, k=rng.randint(4, 9))
    words += rng.sample(_SHARED, rng.randint(0, 2))
    for cue in cues:
        words.insert(rng.randrange(len(words) + 1), cue)
    return words


def _document_text(rng: random.Random, vocab: list[str], cum: list[float],
                   task1: int, task2: int | None, coin: str | None) -> str:
    own = list(_TASK1_CUES[task1])
    if task2 is not None:
        own += _TASK2_CUES[task2]
    others = [w for label, ws in itertools.chain(_TASK1_CUES.items(), _TASK2_CUES.items())
              for w in ws if w not in own]
    cues = [rng.choice(own) for _ in range(sum(rng.random() < 0.45 for _ in range(3)))]
    cues += [rng.choice(others) for _ in range(sum(rng.random() < 0.3 for _ in range(2)))]
    if rng.random() < 0.35:
        terms = _EMOTION_TERMS[task2] if rng.random() < 0.7 else _EMOTION_TERMS[None]
        cues.append(rng.choice(terms))
    half = len(cues) // 2
    words = _clause(rng, vocab, cum, cues[:half])
    if rng.random() < 0.5:
        words += [rng.choice(_CONJUNCTIONS)] + _clause(rng, vocab, cum, cues[half:])
    else:
        words += cues[half:]
    for i in range(len(words)):
        if rng.random() < 0.08:
            words[i] = words[i].capitalize()
        if rng.random() < 0.06:
            words[i] += rng.choice(_PUNCT)
    if coin is not None and rng.random() < 0.6:
        tag = "$" + coin.upper() if rng.random() < 0.5 else "#" + coin
        words.insert(rng.randrange(len(words) + 1), tag)
    if rng.random() < 0.4:
        words.append(rng.choice(("$0.", "", "+")) + str(rng.randint(1, 999))
                     + rng.choice(("", "%", "x", "k")))
    if rng.random() < 0.3:
        words.append(rng.choice(_EMOJI) * rng.randint(1, 3))
    if rng.random() < 0.3:
        slug = "".join(rng.choice("abcdefghijkmnpqrstuvwxyz0123456789") for _ in range(10))
        words.append(rng.choice(("https://t.co/", "http://bit.ly/", "www.")) + slug)
    return " ".join(words)


def generate(seed: int, scale: float) -> list[dict]:
    """Return the corpus records for (seed, scale), in a seeded shuffled order."""
    rng = random.Random(f"predstmt-bench/{seed}/{scale}")
    vocab = _vocabulary(rng)
    cum = list(itertools.accumulate(1.0 / (rank ** _ZIPF_EXPONENT)
                                    for rank in range(1, len(vocab) + 1)))
    labels = [key for key, n in label_counts(scale).items() for _ in range(n)]
    rng.shuffle(labels)
    records = []
    for i, (task1, task2) in enumerate(labels):
        coin = None if rng.random() < _NULL_COIN_SHARE else \
            rng.choices(_COINS, weights=_COIN_WEIGHTS)[0]
        records.append({
            "id": f"t{i:06d}",
            "text": _document_text(rng, vocab, cum, task1, task2, coin),
            "coin": coin,
            "task1": task1,
            "task2": task2,
        })
    return records


def write_corpus(path: Path, seed: int, scale: float) -> dict:
    """Write the corpus as JSONL and return its spec, counts and SHA-256."""
    records = generate(seed, scale)
    counts: dict[tuple[int, int | None], int] = {}
    for rec in records:
        key = (rec["task1"], rec["task2"])
        counts[key] = counts.get(key, 0) + 1
    if counts != label_counts(scale):
        raise RuntimeError(f"generated label counts {counts} differ from the paper mix x {scale}")
    data = "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records).encode("utf-8")
    path.write_bytes(data)
    return {
        "seed": seed,
        "scale": scale,
        "documents": len(records),
        "task1": {str(t1): sum(n for (a, _), n in counts.items() if a == t1) for t1 in (0, 1)},
        "task2": {str(t2): counts[(1, t2)] for t2 in (1, 2, 3)},
        "coinless": sum(rec["coin"] is None for rec in records),
        "vocabulary": _VOCAB_SIZE,
        "zipf_exponent": _ZIPF_EXPONENT,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
