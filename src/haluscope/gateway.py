"""Completion acquisition: prompt templating, code extraction, and a
minimal file/HTTP provider with retries and a response cache.

The wire contract is a JSON POST {"model": str, "prompt": str} answered by
{"text": str}. Vendor-specific adapters live outside the core.
"""

from __future__ import annotations

import json
import logging
import os
import re
import string
import time
from dataclasses import dataclass
from pathlib import Path

from .corpus import Completion, ResourceLimits, Task, read_json_object, safe_name
from .errors import ConfigError, ProviderError, TemplateError

logger = logging.getLogger(__name__)

DEFAULT_TEMPLATE = (
    "Solve the following programming problem. Read input from standard input and "
    "write the answer to standard output. Your program must finish within "
    "{wall_time_ms} ms and use at most {memory_bytes} bytes of memory.\n\n{question}\n"
)

_ALLOWED_PLACEHOLDERS = {"question", "wall_time_ms", "memory_bytes"}

# A fence opener is ``` at line start, optionally tagged (```python). The
# block ends at the next line consisting of ``` alone, or at end of text
# for truncated responses.
_FENCE_OPEN = re.compile(r"^```[^\n]*\n", re.MULTILINE)
_FENCE_CLOSE = re.compile(r"^```\s*$", re.MULTILINE)


@dataclass(frozen=True)
class ProviderConfig:
    """Where completions come from: endpoint "file" reads a response cache
    directory; anything else is treated as an HTTP endpoint."""

    endpoint: str
    model_id: str
    path: str | None = None
    auth_token_env: str | None = None
    request_timeout_ms: int = 30_000
    max_retries: int = 2
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        # The fields come from a provider JSON file, so their types are
        # outside input too.
        for name in ("endpoint", "model_id"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"provider {name} must be a string")
        for name in ("path", "auth_token_env", "cache_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"provider {name} must be a string or null")
        for name in ("request_timeout_ms", "max_retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"provider {name} must be an integer")
        if self.endpoint == "file":
            if not self.path:
                raise ConfigError("file provider requires a path")
        elif not self.endpoint.startswith(("http://", "https://")):
            raise ConfigError(f"endpoint must be an http(s) URL or 'file', got {self.endpoint!r}")
        if self.request_timeout_ms <= 0:
            raise ConfigError("request_timeout_ms must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")


def render_instruction(
    question: str, limits: ResourceLimits, template: str = DEFAULT_TEMPLATE
) -> str:
    """The prompt: {question}, {wall_time_ms}, {memory_bytes} substituted
    into the template. Unknown or malformed placeholders raise
    TemplateError."""
    try:
        fields = [f for _, f, _, _ in string.Formatter().parse(template) if f is not None]
    except ValueError as exc:
        raise TemplateError(f"malformed template: {exc}") from exc
    for name in fields:
        if name not in _ALLOWED_PLACEHOLDERS:
            raise TemplateError(f"unknown placeholder {{{name}}}")
    return template.format(
        question=question,
        wall_time_ms=limits.wall_time_ms,
        memory_bytes=limits.memory_bytes,
    )


def extract_code(raw_response: str) -> str:
    """Return the interior of the first fenced code block, or the response
    unchanged when no fence exists.

    Trailing whitespace of every line is preserved: downstream degeneration
    detection depends on raw repetition. An opener without a closing fence
    (a truncated response) yields everything after the opener."""
    match = _FENCE_OPEN.search(raw_response)
    if match is None:
        return raw_response
    start = match.end()
    close = _FENCE_CLOSE.search(raw_response, start)
    if close is None:
        return raw_response[start:]
    interior = raw_response[start : close.start()]
    return interior[:-1] if interior.endswith("\n") else interior


def _cache_file(cache_dir: str, task_id: str, model_id: str) -> Path:
    return Path(cache_dir) / f"{safe_name(task_id)}__{safe_name(model_id)}.json"


def fetch_completion(task: Task, provider: ProviderConfig, prompt: str) -> Completion:
    """Fetch one completion for `task`, asking with `prompt`.

    A stored response (the file provider's directory, or the HTTP
    provider's cache) is used when present. HTTP transport failures and
    non-2xx statuses are retried up to provider.max_retries; a 2xx response
    is never retried, and one whose `text` is missing or not a string raises
    ProviderError. The raw response is stored exactly as returned."""
    store = provider.path if provider.endpoint == "file" else provider.cache_dir
    stored = _cache_file(store, task.task_id, provider.model_id) if store else None
    if stored is not None and stored.exists():
        text = read_json_object(stored, ProviderError).get("text")
        if not isinstance(text, str):
            raise ProviderError(f"{stored}: stored response has no string 'text' field")
    elif provider.endpoint == "file":
        raise ProviderError(f"no stored response for ({task.task_id}, {provider.model_id})")
    else:
        text = _http_fetch(provider, prompt)
        if stored is not None:
            stored.parent.mkdir(parents=True, exist_ok=True)
            stored.write_text(json.dumps({"text": text}, sort_keys=True), encoding="utf-8")
    return Completion(
        task_id=task.task_id,
        model_id=provider.model_id,
        raw_response=text,
        source_code=extract_code(text),
    )


def _http_fetch(provider: ProviderConfig, prompt: str) -> str:
    # Imported here, so that only the HTTP provider loads the HTTP stack.
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if provider.auth_token_env:
        token = os.environ.get(provider.auth_token_env)
        if token is None:
            raise ConfigError(f"auth variable {provider.auth_token_env!r} is not set")
        headers["Authorization"] = f"Bearer {token}"
    payload = json.dumps({"model": provider.model_id, "prompt": prompt}).encode("utf-8")
    request = urllib.request.Request(provider.endpoint, data=payload, headers=headers)
    timeout = provider.request_timeout_ms / 1000.0
    last_error: str = "no attempt made"
    last_status: int | None = None
    for attempt in range(provider.max_retries + 1):
        if attempt:
            time.sleep(min(0.25 * 2 ** (attempt - 1), 2.0))
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:  # a non-2xx status
            exc.close()
            last_error = f"HTTP {exc.code}"
            last_status = exc.code
            continue
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"transport failure: {exc}"
            logger.debug("attempt %d failed: %s", attempt + 1, exc)
            continue
        try:
            obj = json.loads(body)
        except ValueError as exc:
            raise ProviderError(f"provider returned non-JSON body: {exc}") from exc
        text = obj.get("text") if isinstance(obj, dict) else None
        if not isinstance(text, str):
            raise ProviderError("provider response has no string 'text' field")
        return text
    raise ProviderError(
        f"provider failed after {provider.max_retries + 1} attempts: {last_error}",
        status=last_status,
    )
