from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import haluscope
from haluscope.gateway import extract_code


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


def test_cli_import_loads_no_http_stack():
    # The harness reads completions from a file and has no HTTP client;
    # this guards that none comes back into the import path.
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
