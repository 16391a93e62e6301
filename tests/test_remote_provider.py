"""Remote paraphrase provider tests against a local scripted HTTP stub."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from predstmt import (
    ParaphraseShortfallError,
    ProviderConfig,
    ProviderError,
    RemoteParaphraser,
    Task,
    Task2Label,
    llm_label,
)
from predstmt.augment import default_label_template

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
        else:
            status = action[1]
            data = (action[2] if len(action) > 2 else "error").encode()
        self.send_response(status)
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


class TestRemoteParaphraser:
    def test_happy_path_and_request_shape(self, server, api_key):
        server.script = [("ok", "first rewrite"), ("ok", "second rewrite")]
        provider = RemoteParaphraser(make_config(server))
        outs = provider.paraphrase("btc to the moon", 2, seed=99)
        assert outs == ["first rewrite", "second rewrite"]
        assert len(server.requests) == 2
        req = server.requests[0]
        assert req["auth"] == "Bearer test-key-123"
        assert req["body"]["model"] == "stub-model"
        assert req["body"]["temperature"] == 0.9
        messages = req["body"]["messages"]
        assert len(messages) == 1
        assert messages[0]["role"] == "user"
        assert "btc to the moon" in messages[0]["content"]

    def test_missing_api_key_sends_nothing(self, server, monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        provider = RemoteParaphraser(make_config(server))
        with pytest.raises(ProviderError, match=KEY_ENV):
            provider.paraphrase("some text", 1)
        assert server.requests == []

    def test_duplicate_reply_regenerated(self, server, api_key):
        server.script = [("ok", "same thing"), ("ok", "Same  THING"),
                         ("ok", "different thing")]
        provider = RemoteParaphraser(make_config(server))
        outs = provider.paraphrase("original", 2)
        assert outs == ["same thing", "different thing"]
        assert len(server.requests) == 3

    def test_echoing_input_is_rejected(self, server, api_key):
        server.script = [("ok", "Original  Text"), ("ok", "a real rewrite")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("original text", 1) == ["a real rewrite"]

    def test_repeating_endpoint_shortfall(self, server, api_key):
        server.script = [("ok", "stuck")] * 10
        provider = RemoteParaphraser(make_config(server, max_retries=1))
        with pytest.raises(ParaphraseShortfallError) as exc:
            provider.paraphrase("original", 3)
        assert exc.value.requested == 3
        assert exc.value.achieved == ["stuck"]
        # one accepted, then two rejected attempts for the second variant
        assert len(server.requests) == 3

    def test_http_error_then_success_retries(self, server, api_key):
        server.script = [("status", 500, "boom"), ("ok", "recovered")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here", 1) == ["recovered"]
        assert len(server.requests) == 2

    def test_rate_limit_then_success_retries(self, server, api_key):
        server.script = [("status", 429, "slow down"), ("ok", "recovered")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here", 1) == ["recovered"]
        assert len(server.requests) == 2

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_permanent_http_error_is_not_retried(self, server, api_key, status):
        server.script = [("status", status, "denied"), ("ok", "never sent")]
        provider = RemoteParaphraser(make_config(server, max_retries=3, request_delay_ms=50))
        with pytest.raises(ProviderError, match=f"HTTP {status}: denied"):
            provider.paraphrase("text here", 1)
        assert len(server.requests) == 1

    def test_persistent_http_error_raises(self, server, api_key):
        server.script = [("status", 503, "down")] * 5
        provider = RemoteParaphraser(make_config(server, max_retries=2))
        with pytest.raises(ProviderError, match="after 3 attempts"):
            provider.paraphrase("text here", 1)
        assert len(server.requests) == 3

    def test_malformed_body_then_success(self, server, api_key):
        server.script = [("malformed",), ("ok", "good one")]
        provider = RemoteParaphraser(make_config(server))
        assert provider.paraphrase("text here", 1) == ["good one"]

    def test_unreachable_endpoint(self, api_key):
        config = ProviderConfig(
            endpoint="http://127.0.0.1:9/unreachable",
            api_key_env=KEY_ENV, model="stub", request_delay_ms=0,
            max_retries=0, timeout_s=0.5,
        )
        with pytest.raises(ProviderError, match="request failed"):
            RemoteParaphraser(config).paraphrase("text", 1)

    def test_delay_applies_between_requests_only(self, server, api_key):
        server.script = [("ok", "one"), ("ok", "two")]
        provider = RemoteParaphraser(make_config(server, request_delay_ms=80))
        start = time.perf_counter()
        provider.paraphrase("text here", 2)
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.07
        gap = server.requests[1]["at"] - server.requests[0]["at"]
        assert gap >= 0.07

    def test_zero_request_returns_empty(self, server, api_key):
        assert RemoteParaphraser(make_config(server)).paraphrase("text", 0) == []
        assert server.requests == []


class TestLlmLabel:
    TEMPLATE = "label task {task}: {text}"

    def test_plain_integer_reply(self, server, api_key):
        server.script = [("ok", "1")]
        label = llm_label(make_config(server), "btc pumping", Task.DIRECTION,
                          template=self.TEMPLATE)
        assert label is Task2Label.INCREMENTAL

    def test_integer_embedded_in_prose(self, server, api_key):
        server.script = [("ok", "maybe 2?")]
        label = llm_label(make_config(server), "btc dumping", Task.DIRECTION,
                          template=self.TEMPLATE)
        assert label is Task2Label.DECREMENTAL

    def test_out_of_range_then_valid(self, server, api_key):
        server.script = [("ok", "7"), ("ok", "3")]
        label = llm_label(make_config(server), "btc flat", Task.DIRECTION,
                          template=self.TEMPLATE)
        assert label is Task2Label.NEUTRAL
        assert len(server.requests) == 2

    def test_unparseable_replies_exhaust_retries(self, server, api_key):
        server.script = [("ok", "hello")] * 10
        with pytest.raises(ProviderError, match="no valid task-2 label"):
            llm_label(make_config(server, max_retries=2), "text", Task.DIRECTION,
                      template=self.TEMPLATE)
        assert len(server.requests) == 3

    def test_binary_task_range(self, server, api_key):
        # 2 is not a valid predictiveness code, the retry answers 0
        server.script = [("ok", "2"), ("ok", "0")]
        label = llm_label(make_config(server), "text", Task.PREDICTIVENESS,
                          template=self.TEMPLATE)
        assert int(label) == 0

    def test_template_receives_text_and_task(self, server, api_key):
        server.script = [("ok", "1")]
        llm_label(make_config(server), "the document body", Task.PREDICTIVENESS,
                  template=self.TEMPLATE)
        content = server.requests[0]["body"]["messages"][0]["content"]
        assert content == "label task 1: the document body"

    def test_default_template_has_placeholders(self):
        template = default_label_template()
        assert "{text}" in template
        assert "{task}" in template
