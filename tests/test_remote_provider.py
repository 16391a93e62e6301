"""Remote paraphrase provider tests against a local scripted HTTP stub."""

import json
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from predstmt import (
    Coin,
    DataError,
    Dataset,
    Document,
    ProviderConfig,
    ProviderError,
    RemoteParaphraser,
    Source,
    Task,
    balance,
    compute_plan,
    distribution,
    save_dataset,
)
from predstmt import augment
from predstmt.cli import main

KEY_ENV = "PREDSTMT_TEST_KEY"


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else None
        self.server.requests.append({
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "body": body,
            "at": time.perf_counter(),
        })
        action = self.server.script.pop(0) if self.server.script \
            else ("status", 500, "script exhausted")
        if action[0] == "ok":
            data = json.dumps(
                {"choices": [{"message": {"content": action[1]}}]}
            ).encode()
            status = 200
        elif action[0] == "malformed":
            data = json.dumps({"unexpected": True}).encode()
            status = 200
        elif action[0] == "raw":
            data = action[1]
            status = 200
        else:
            status = action[1]
            data = (action[2] if len(action) > 2 else "error").encode()
        self.send_response(status)
        for name, value in (action[3] if len(action) > 3 else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.script = []
    srv.requests = []
    thread = threading.Thread(
        target=lambda: srv.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=5)
    srv.server_close()


def make_config(server, **overrides):
    settings = dict(
        endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
        api_key_env=KEY_ENV,
        model="stub-model",
        request_delay_ms=0,
        max_retries=2,
        timeout_s=5.0,
        temperature=0.9,
    )
    settings.update(overrides)
    return ProviderConfig(**settings)


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key-123")


#: Chat contents that are valid JSON but not a string.
NON_STRING_CONTENT = pytest.mark.parametrize("content", [None, 3, ["a list"], {"text": "x"}],
                                             ids=["null", "number", "list", "object"])


class TestRemoteParaphraser:
    def test_one_request_returns_the_stripped_reply(self, server, api_key):
        server.script = [("ok", "  first rewrite \n"), ("ok", "never sent")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("btc to the moon", seed=99) == "first rewrite"
        assert len(server.requests) == 1
        req = server.requests[0]
        assert req["auth"] == "Bearer test-key-123"
        assert req["body"]["model"] == "stub-model"
        assert req["body"]["temperature"] == 0.9
        messages = req["body"]["messages"]
        assert len(messages) == 1
        assert messages[0]["role"] == "user"
        assert "btc to the moon" in messages[0]["content"]

    def test_request_sends_exactly_the_prompt_model_temperature_and_key(self, server, api_key):
        server.script = [("ok", "a rewrite")]
        config = make_config(server, model="m-7", temperature=0.25)
        RemoteParaphraser(config).paraphrase("eth breaks out {soon}")
        assert [(req["path"], req["auth"], req["body"]) for req in server.requests] == [(
            "/v1/chat/completions",
            "Bearer test-key-123",
            {"model": "m-7",
             "messages": [{"role": "user",
                           "content": augment._PARAPHRASE_PROMPT.format(
                               text="eth breaks out {soon}")}],
             "temperature": 0.25},
        )]

    def test_echo_is_returned_for_balance_to_judge(self, server, api_key):
        server.script = [("ok", "Original  Text"), ("ok", "never sent")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("original text") == "Original  Text"
        assert len(server.requests) == 1

    def test_empty_text_sends_nothing(self, server, api_key):
        with pytest.raises(DataError, match="empty"):
            RemoteParaphraser(make_config(server)).paraphrase(" \t ")
        assert server.requests == []

    def test_missing_api_key_sends_nothing(self, server, monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        provider = RemoteParaphraser(make_config(server))
        with pytest.raises(ProviderError, match=KEY_ENV):
            provider.paraphrase("some text")
        assert server.requests == []

    def test_http_error_then_success_retries(self, server, api_key):
        server.script = [("status", 500, "boom"), ("ok", "recovered")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here") == "recovered"
        assert len(server.requests) == 2

    def test_rate_limit_then_success_retries(self, server, api_key):
        server.script = [("status", 429, "slow down"), ("ok", "recovered")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here") == "recovered"
        assert len(server.requests) == 2

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_permanent_http_error_is_not_retried(self, server, api_key, status):
        server.script = [("status", status, "denied"), ("ok", "never sent")]
        provider = RemoteParaphraser(make_config(server, max_retries=3, request_delay_ms=50))
        with pytest.raises(ProviderError, match=f"HTTP {status}: denied"):
            provider.paraphrase("text here")
        assert len(server.requests) == 1

    def test_persistent_http_error_raises(self, server, api_key):
        server.script = [("status", 503, "down")] * 5
        provider = RemoteParaphraser(make_config(server, max_retries=2))
        with pytest.raises(ProviderError, match="after 3 attempts"):
            provider.paraphrase("text here")
        assert len(server.requests) == 3

    def test_malformed_body_then_success(self, server, api_key):
        server.script = [("malformed",), ("ok", "good one")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here") == "good one"

    @pytest.mark.parametrize("data", [
        b"not json", b"{}", b'{"choices": []}', b'{"choices": "x"}',
        b'{"choices": [{"message": null}]}',
    ], ids=["not-json", "no-choices", "empty-choices", "string-choices", "null-message"])
    def test_unshaped_body_then_success(self, server, api_key, data):
        server.script = [("raw", data), ("ok", "good one")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here") == "good one"
        assert len(server.requests) == 2

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_server_errors_and_unshaped_bodies_share_one_budget(self, server, api_key, r):
        # r server errors, then a body with no chat content, repeated
        server.script = ([("status", 500, "boom")] * r + [("malformed",)]) * (r + 1)
        provider = RemoteParaphraser(make_config(server, max_retries=r))
        with pytest.raises(ProviderError) as info:
            provider.paraphrase("text here")
        assert len(server.requests) == r + 1
        assert str(info.value).endswith(
            f"failed after {r + 1} attempts (response body is not chat-completion shaped)")

    @NON_STRING_CONTENT
    def test_non_string_content_then_success(self, server, api_key, content):
        server.script = [("ok", content), ("ok", "good one")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here") == "good one"
        assert len(server.requests) == 2

    @NON_STRING_CONTENT
    def test_persistent_non_string_content_raises(self, server, api_key, content):
        server.script = [("ok", content)] * 5
        provider = RemoteParaphraser(make_config(server, max_retries=2))
        with pytest.raises(ProviderError, match="after 3 attempts .*not chat-completion shaped"):
            provider.paraphrase("text here")
        assert len(server.requests) == 3

    def test_unreachable_endpoint(self, api_key):
        config = ProviderConfig(
            endpoint="http://127.0.0.1:9/unreachable",
            api_key_env=KEY_ENV, model="stub", request_delay_ms=0,
            max_retries=0, timeout_s=0.5,
        )
        with pytest.raises(ProviderError, match="request failed"):
            RemoteParaphraser(config).paraphrase("text")

    @pytest.mark.parametrize("endpoint", [
        "https://api.example.com/v1/chat/completions", "HTTP://127.0.0.1:8080/v1",
        "http://[::1]:8080/v1", "https://[::1]:8080/v1",
    ], ids=["https", "upper-case-scheme", "ipv6-host", "https-ipv6-host"])
    def test_http_and_https_endpoints_are_accepted(self, endpoint):
        config = ProviderConfig(endpoint=endpoint, api_key_env=KEY_ENV, model="stub")
        assert config.endpoint == endpoint

    @pytest.mark.parametrize("status, header, delay_ms, slept", [
        (429, "2", 0, 2.0),  # honoured
        (503, "1.5", 0, 1.5),
        (503, "120", 0, 5.0),  # capped at timeout_s
        (429, "0", 250, 0.25),  # never shorter than the request delay
    ], ids=["429", "503-fraction", "capped", "delay-floor"])
    def test_retry_after_sets_the_wait(self, server, api_key, monkeypatch,
                                       status, header, delay_ms, slept):
        sleeps = []
        monkeypatch.setattr(augment.time, "sleep", sleeps.append)
        server.script = [("status", status, "busy", {"Retry-After": header}), ("ok", "done")]
        config = make_config(server, request_delay_ms=delay_ms, timeout_s=5.0)
        assert RemoteParaphraser(config).paraphrase("text here") == "done"
        assert sleeps == [slept]

    @pytest.mark.parametrize("header", ["soon", "Wed, 21 Oct 2015 07:28:00 GMT", "-3", "nan",
                                        "inf", ""])
    def test_unparseable_retry_after_keeps_the_request_delay(self, server, api_key,
                                                              monkeypatch, header):
        sleeps = []
        monkeypatch.setattr(augment.time, "sleep", sleeps.append)
        server.script = [("status", 429, "busy", {"Retry-After": header}), ("ok", "done")]
        provider = RemoteParaphraser(make_config(server, request_delay_ms=40))
        assert provider.paraphrase("text here") == "done"
        assert sleeps == [0.04]

    def test_retry_after_only_on_429_and_503(self, server, api_key, monkeypatch):
        sleeps = []
        monkeypatch.setattr(augment.time, "sleep", sleeps.append)
        server.script = [("status", 500, "boom", {"Retry-After": "3"}), ("ok", "done")]
        assert RemoteParaphraser(make_config(server)).paraphrase("text here") == "done"
        assert sleeps == []


def one_parent_dataset(needed: int) -> Dataset:
    """needed + 1 task-1 = 0 documents and one task-1 = 1 parent, "original text"."""
    docs = [Document(id=f"m{i:03d}", text=f"majority document {i}", coin=Coin.ADA, task1=0)
            for i in range(needed + 1)]
    docs.append(Document(id="p", text="original text", coin=Coin.ADA, task1=1))
    return Dataset(documents=tuple(docs), name="one-parent")


def balance_remote(server, needed: int, **overrides) -> tuple[list[str], dict[int, int]]:
    """Balance a one-parent dataset through the stub; the synthetic texts and the shortfall."""
    config = make_config(server, **overrides)
    balanced = balance(one_parent_dataset(needed), Task.PREDICTIVENESS,
                       RemoteParaphraser(config), seed=1, max_retries=config.max_retries)
    synthetic = [doc.text for doc in balanced if doc.source is Source.SYNTHETIC]
    return synthetic, dict(compute_plan(distribution(balanced, Task.PREDICTIVENESS)).needed)


class TestBalanceOverRemote:
    def test_one_reply_per_slot(self, server, api_key):
        server.script = [("ok", "first rewrite"), ("ok", "second rewrite")]
        assert balance_remote(server, 2) == (["first rewrite", "second rewrite"], {})
        assert len(server.requests) == 2

    def test_duplicate_reply_regenerated(self, server, api_key):
        server.script = [("ok", "same thing"), ("ok", "Same  THING"),
                         ("ok", "different thing")]
        assert balance_remote(server, 2) == (["same thing", "different thing"], {})
        assert len(server.requests) == 3

    def test_echoing_input_is_rejected(self, server, api_key):
        server.script = [("ok", "Original  Text"), ("ok", "a real rewrite")]
        assert balance_remote(server, 1) == (["a real rewrite"], {})
        assert len(server.requests) == 2

    def test_blank_reply_is_rejected(self, server, api_key):
        server.script = [("ok", " \n "), ("ok", ""), ("ok", "a real rewrite")]
        assert balance_remote(server, 1) == (["a real rewrite"], {})
        assert len(server.requests) == 3

    @pytest.mark.parametrize("retries", [0, 1, 3])
    def test_echoing_endpoint_stops_after_r_plus_1_replies_per_slot(self, server, api_key,
                                                                     retries):
        server.script = [("ok", "original text")] * 20
        assert balance_remote(server, 3, max_retries=retries) == ([], {1: 3})
        assert len(server.requests) == 3 * (retries + 1)

    def test_repeating_endpoint_shortfall(self, server, api_key):
        server.script = [("ok", "stuck")] * 10
        assert balance_remote(server, 3, max_retries=1) == (["stuck"], {1: 2})
        # one accepted, then two rejected attempts for each of the other two slots
        assert len(server.requests) == 5

    def test_delay_applies_between_requests_only(self, server, api_key):
        server.script = [("ok", "one"), ("ok", "two")]
        start = time.perf_counter()
        assert balance_remote(server, 2, request_delay_ms=80) == (["one", "two"], {})
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.07
        gap = server.requests[1]["at"] - server.requests[0]["at"]
        assert gap >= 0.07

    def test_cli_non_string_content_is_provider_error(self, server, api_key, tmp_path, capsys):
        server.script = [("ok", None)] * 5
        data = tmp_path / "d.jsonl"
        save_dataset(one_parent_dataset(2), data)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"provider": "remote",
                                      "provider_config": asdict(make_config(server))}))
        code = main(["balance", "--config", str(config), "--dataset", str(data),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("provider error: ") and err.count("\n") == 1
        assert "not chat-completion shaped" in err
        assert len(server.requests) == 3

