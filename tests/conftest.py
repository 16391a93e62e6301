"""Shared fixtures: corpus builders and a suite-wide network guard."""

import random
import socket
import time

import numpy as np
import pytest

from predstmt import Coin, Dataset, Document, SparseBatch

SESSION_START = time.perf_counter()

_REAL_CONNECT = socket.socket.connect
_LOOPBACK_HOSTS = {"127.0.0.1", "::1", "localhost"}
NETWORK_GUARD_ACTIVE = False


def _loopback_only_connect(self, address):
    if isinstance(address, tuple) and address and str(address[0]) not in _LOOPBACK_HOSTS:
        raise RuntimeError(f"test suite attempted a non-loopback connection to {address!r}")
    return _REAL_CONNECT(self, address)


@pytest.fixture(autouse=True, scope="session")
def block_external_network():
    """Fail fast if any test tries to leave the loopback interface."""
    global NETWORK_GUARD_ACTIVE
    socket.socket.connect = _loopback_only_connect
    NETWORK_GUARD_ACTIVE = True
    yield
    socket.socket.connect = _REAL_CONNECT
    NETWORK_GUARD_ACTIVE = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - SESSION_START
    terminalreporter.write_line(
        f"suite wall time: {elapsed:.1f}s (budget 120s, within budget: {elapsed < 120})"
    )


def dense_batch(rows, dim=None) -> SparseBatch:
    """The batch of the given dense rows, zeros left out; dim defaults to the first row's length."""
    indptr, indices, data = [0], [], []
    for row in rows:
        for j, v in enumerate(row):
            if v != 0.0:
                indices.append(j)
                data.append(v)
        indptr.append(len(indices))
    return SparseBatch(indptr, indices, data, dim or len(rows[0]))


def dense_rows(X: SparseBatch) -> np.ndarray:
    """The n x dim dense matrix of a batch."""
    out = np.zeros((len(X), X.dim))
    out[np.repeat(np.arange(len(X)), np.diff(X.indptr)), X.indices] = X.data
    return out


FILLER_WORDS = (
    "market", "chart", "volume", "trade", "daily", "candle", "signal",
    "watch", "level", "range", "update", "entry",
)

PLANT_WORDS = {0: "quietday", 1: "moonshot", 2: "collapse", 3: "sideways"}


def build_planted_dataset(task: int, per_class: dict[int, int], seed: int,
                          name: str = "planted") -> Dataset:
    """Corpus where one planted token deterministically encodes the label."""
    rng = random.Random(seed)
    coins = list(Coin)
    docs = []
    i = 0
    for code in sorted(per_class):
        for _ in range(per_class[code]):
            tokens = rng.sample(FILLER_WORDS, 5) + [PLANT_WORDS[code]]
            rng.shuffle(tokens)
            if task == 1:
                task1, task2 = code, None
            else:
                task1, task2 = 1, code
            docs.append(
                Document(
                    id=f"pl{i:04d}",
                    text=" ".join(tokens),
                    coin=coins[i % len(coins)],
                    task1=task1,
                    task2=task2,
                )
            )
            i += 1
    return Dataset(documents=tuple(docs), name=name)


@pytest.fixture(scope="session")
def reference_corpus() -> Dataset:
    """3116 documents with the reference label distribution for both tasks."""
    coins = list(Coin)
    docs = []
    i = 0

    def add(task1, task2, n):
        nonlocal i
        for _ in range(n):
            docs.append(
                Document(
                    id=f"p{i:04d}",
                    text=f"sample tweet number {i} about the market",
                    coin=coins[i % len(coins)],
                    task1=task1,
                    task2=task2,
                )
            )
            i += 1

    add(0, None, 2000)
    add(1, 1, 570)
    add(1, 2, 434)
    add(1, 3, 112)
    return Dataset(documents=tuple(docs), name="reference")


@pytest.fixture()
def planted_task2_dataset() -> Dataset:
    return build_planted_dataset(task=2, per_class={1: 40, 2: 40, 3: 40}, seed=7)
