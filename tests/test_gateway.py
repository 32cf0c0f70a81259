from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haluscope
from haluscope.corpus import ResourceLimits, Task, TestCase
from haluscope.errors import ConfigError, ProviderError, TemplateError
from haluscope.gateway import (
    ProviderConfig,
    extract_code,
    fetch_completion,
    render_instruction,
)


def _task(task_id="t1"):
    return Task(
        task_id=task_id,
        question="double it",
        test_cases=(TestCase("3", "6"),),
        limits=ResourceLimits(wall_time_ms=2000, memory_bytes=64 * 2**20),
    )


class TestRenderInstruction:
    def test_substitutes_placeholders(self):
        limits = ResourceLimits(wall_time_ms=2000, memory_bytes=64 * 2**20)
        out = render_instruction("add", limits, "Solve: {question} (time {wall_time_ms} ms)")
        assert out == "Solve: add (time 2000 ms)"

    def test_template_without_placeholders_is_identity(self):
        limits = ResourceLimits()
        template = "no placeholders here"
        assert render_instruction("q", limits, template) == template

    def test_unknown_placeholder_named_in_error(self):
        with pytest.raises(TemplateError, match="walltime"):
            render_instruction("q", ResourceLimits(), "time is {walltime}")

    def test_malformed_template_rejected(self):
        with pytest.raises(TemplateError):
            render_instruction("q", ResourceLimits(), "oops {question")

    def test_deterministic(self):
        limits = ResourceLimits()
        a = render_instruction("q", limits, "{question} {memory_bytes}")
        b = render_instruction("q", limits, "{question} {memory_bytes}")
        assert a == b


class TestExtractCode:
    def test_first_fence_interior(self):
        assert extract_code("Here is code:\n```\nprint(1)\n```") == "print(1)"

    def test_no_fence_identity(self):
        assert extract_code("print(1)") == "print(1)"

    def test_two_fences_takes_first(self):
        raw = "```\nfirst()\n```\ntext\n```\nsecond()\n```"
        assert extract_code(raw) == "first()"

    def test_language_tag_ignored(self):
        assert extract_code("```python\nx = 1\n```") == "x = 1"

    def test_unclosed_fence_runs_to_end(self):
        assert extract_code("```python\nx = 1\ny = 2\n") == "x = 1\ny = 2\n"

    def test_trailing_whitespace_preserved(self):
        raw = "```\nline one   \nline two\t\n```"
        assert extract_code(raw) == "line one   \nline two\t"

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=200).filter(lambda s: "```" not in s))
    def test_idempotent_on_fence_free_results(self, text):
        once = extract_code(text)
        assert extract_code(once) == once


class _ScriptedHandler(BaseHTTPRequestHandler):
    statuses: list[int] = []
    calls: int = 0
    seen_payloads: list[dict] = []
    seen_auth: list[str | None] = []

    def do_POST(self):
        cls = type(self)
        body = self.rfile.read(int(self.headers["Content-Length"]))
        cls.seen_payloads.append(json.loads(body))
        cls.seen_auth.append(self.headers.get("Authorization"))
        status = cls.statuses[min(cls.calls, len(cls.statuses) - 1)]
        cls.calls += 1
        payload = json.dumps({"text": "print(1)"}).encode() if status == 200 else b""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    servers = []

    def start(statuses):
        handler = type(
            "Handler",
            (_ScriptedHandler,),
            {"statuses": statuses, "calls": 0, "seen_payloads": [], "seen_auth": []},
        )
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/v1/complete", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestFetchCompletion:
    def test_http_wire_contract(self, scripted_server):
        url, handler = scripted_server([200])
        provider = ProviderConfig(endpoint=url, model_id="m1", max_retries=0)
        completion = fetch_completion(_task(), provider, "solve please")
        assert completion.raw_response == "print(1)"
        assert completion.source_code == "print(1)"
        assert handler.seen_payloads == [{"model": "m1", "prompt": "solve please"}]

    def test_retry_two_500s_then_success(self, scripted_server):
        url, handler = scripted_server([500, 500, 200])
        provider = ProviderConfig(endpoint=url, model_id="m1", max_retries=2)
        completion = fetch_completion(_task(), provider, "p")
        assert completion.raw_response == "print(1)"
        assert handler.calls == 3

    def test_exhausted_retries_carries_status(self, scripted_server):
        url, _ = scripted_server([503])
        provider = ProviderConfig(endpoint=url, model_id="m1", max_retries=1)
        with pytest.raises(ProviderError) as exc_info:
            fetch_completion(_task(), provider, "p")
        assert exc_info.value.status == 503

    def test_success_never_retried(self, scripted_server):
        url, handler = scripted_server([200])
        provider = ProviderConfig(endpoint=url, model_id="m1", max_retries=3)
        fetch_completion(_task(), provider, "p")
        assert handler.calls == 1

    def test_auth_header_from_env(self, scripted_server, monkeypatch):
        url, handler = scripted_server([200])
        monkeypatch.setenv("TEST_PROVIDER_TOKEN", "sekrit")
        provider = ProviderConfig(
            endpoint=url, model_id="m1", auth_token_env="TEST_PROVIDER_TOKEN"
        )
        fetch_completion(_task(), provider, "p")
        assert handler.seen_auth == ["Bearer sekrit"]

    def test_missing_auth_env_is_config_error(self, monkeypatch):
        monkeypatch.delenv("NOPE_TOKEN", raising=False)
        provider = ProviderConfig(
            endpoint="http://127.0.0.1:1/x", model_id="m", auth_token_env="NOPE_TOKEN"
        )
        with pytest.raises(ConfigError, match="NOPE_TOKEN"):
            fetch_completion(_task(), provider, "p")

    def test_file_provider_lookup(self, tmp_path):
        (tmp_path / "t1__m1.json").write_text(json.dumps({"text": "stored answer"}))
        provider = ProviderConfig(endpoint="file", model_id="m1", path=str(tmp_path))
        completion = fetch_completion(_task(), provider, "p")
        assert completion.raw_response == "stored answer"

    def test_file_provider_missing_response(self, tmp_path):
        provider = ProviderConfig(endpoint="file", model_id="m1", path=str(tmp_path))
        with pytest.raises(ProviderError):
            fetch_completion(_task(), provider, "p")

    def test_file_provider_requires_path(self):
        with pytest.raises(ConfigError):
            ProviderConfig(endpoint="file", model_id="m1")

    def test_cache_round_trip(self, scripted_server, tmp_path):
        url, handler = scripted_server([200])
        provider = ProviderConfig(
            endpoint=url, model_id="m1", cache_dir=str(tmp_path / "cache")
        )
        first = fetch_completion(_task(), provider, "p")
        second = fetch_completion(_task(), provider, "p")
        assert first == second
        assert handler.calls == 1  # second served from cache

    def test_task_not_mutated(self, scripted_server):
        url, _ = scripted_server([200])
        task = _task()
        before = task
        provider = ProviderConfig(endpoint=url, model_id="m1")
        fetch_completion(task, provider, "p")
        assert task == before

    def test_closed_port_is_transport_failure(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        provider = ProviderConfig(
            endpoint=f"http://127.0.0.1:{port}/v1/complete", model_id="m1", max_retries=1
        )
        with pytest.raises(ProviderError) as exc_info:
            fetch_completion(_task(), provider, "p")
        assert "transport failure" in str(exc_info.value)
        assert exc_info.value.status is None

    @staticmethod
    def _refused_after_one_request(body: bytes, match: str) -> None:
        """A server answers every POST with status 200 and `body`: fetching
        raises a ProviderError matching `match` after one request."""
        calls = []

        class Fixed(BaseHTTPRequestHandler):
            def do_POST(self):
                calls.append(self.rfile.read(int(self.headers["Content-Length"])))
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Fixed)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            provider = ProviderConfig(
                endpoint=f"http://127.0.0.1:{server.server_port}/", model_id="m1", max_retries=3
            )
            with pytest.raises(ProviderError, match=match):
                fetch_completion(_task(), provider, "p")
        finally:
            server.shutdown()
            server.server_close()
        assert len(calls) == 1

    def test_non_json_body_not_retried(self):
        self._refused_after_one_request(b"not json", "non-JSON")

    def test_null_text_not_retried(self):
        # str() would run the program "None".
        self._refused_after_one_request(b'{"text": null}', "no string 'text' field")

    @pytest.mark.parametrize("text", [None, 5], ids=["null", "int"])
    def test_stored_response_without_string_text(self, tmp_path, text):
        (tmp_path / "t1__m1.json").write_text(json.dumps({"text": text}))
        provider = ProviderConfig(endpoint="file", model_id="m1", path=str(tmp_path))
        with pytest.raises(ProviderError, match="no string 'text' field"):
            fetch_completion(_task(), provider, "p")


def test_cli_import_loads_no_http_stack():
    # Only the HTTP provider needs an HTTP client; it imports one when called.
    src_root = str(Path(haluscope.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    stacks = ("requests", "urllib3", "urllib.request", "http.client")
    probe = (
        "import sys\nimport haluscope.cli, haluscope.pipeline\n"
        f"print([name for name in {stacks!r} if name in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
