"""Training and remote-provider settings, free of numpy.

The CLI parses and hashes these for every command, so they live apart from
models and evaluation, which load numpy and which only `cv` needs, and from
augment, which only `balance` needs. models, evaluation and augment import
them from here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from urllib.parse import urlsplit

from .corpus import DataError

#: Model kinds cross_validate accepts, in the CLI's default order.
MODEL_KINDS = ("logreg", "svm", "rf")


def check_os_string(name: str, value: str | None, *, path: bool) -> None:
    """DataError naming name unless value is None or a string the OS can take.

    A path must pass os.fsencode; any other string (a directory tag, the name
    of an environment variable) must encode as UTF-8. Neither may hold a NUL.
    Otherwise the first open, mkdir or environment lookup would raise instead.
    """
    if value is None:
        return
    try:
        (os.fsencode if path else str.encode)(value)
        if "\0" not in value:
            return
    except UnicodeEncodeError:
        pass
    kind = "a path the file system can encode" if path else "a UTF-8 encodable string"
    raise DataError(f"{name} must be {kind} without NUL characters, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Shared training settings; n_trees, max_depth, min_samples_leaf and bootstrap are the forest's.

    epochs caps the linear models' L-BFGS iterations.
    """

    epochs: int = 100
    l2: float = 1e-4
    seed: int = 0
    n_trees: int = 100
    max_depth: int = 16
    min_samples_leaf: int = 2
    bootstrap: bool = True

    def __post_init__(self) -> None:
        # NaN passes every comparison below and makes every linear model's trial objective NaN
        try:
            finite, value = math.isfinite(self.l2), self.l2
        except OverflowError:  # an int past the float range; str() of one may raise too
            finite, value = False, "an int past the float range"
        if not finite:
            raise DataError(f"l2 must be finite, got {value}")
        if self.l2 < 0:
            raise DataError(f"l2 must be non-negative, got {self.l2}")
        for name in ("epochs", "n_trees", "max_depth", "min_samples_leaf"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")


#: Longest timeout_s, in seconds, and request_delay_ms, in milliseconds, a
#: ProviderConfig accepts: one day. Socket timeouts and time.sleep overflow
#: the platform's time_t well before the float range ends.
MAX_WAIT_S = 86_400


class ProviderError(RuntimeError):
    """Remote provider unreachable, unauthorized, or persistently unparseable."""


@dataclass(frozen=True)
class ProviderConfig:
    """Remote chat-completion endpoint settings.

    endpoint must be an http or https URL with a host, and a port in
    0-65535 if it names one. The API key is read from the environment
    variable named by api_key_env; it never appears in config files or
    outputs.
    """

    endpoint: str
    api_key_env: str
    model: str
    request_delay_ms: int = 1000
    max_retries: int = 3
    timeout_s: float = 30.0
    temperature: float = 0.9

    def __post_init__(self) -> None:
        try:
            url = urlsplit(self.endpoint)
            url.port  # raises on a port that is not an integer in 0-65535
        except ValueError:  # that, or an unbalanced IPv6 bracket
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.netloc:
            raise DataError(f"endpoint must be an http:// or https:// URL with a host, "
                            f"got {self.endpoint!r}")
        check_os_string("api_key_env", self.api_key_env, path=False)
        if self.request_delay_ms < 0:
            raise DataError("request_delay_ms must be >= 0")
        if self.max_retries < 0:
            raise DataError("max_retries must be >= 0")
        if not self.timeout_s > 0:
            raise DataError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.timeout_s > MAX_WAIT_S:
            raise DataError(f"timeout_s must be at most {MAX_WAIT_S} (one day)")
        if self.request_delay_ms > MAX_WAIT_S * 1000:
            raise DataError(f"request_delay_ms must be at most {MAX_WAIT_S * 1000} (one day)")
