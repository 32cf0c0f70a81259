"""Code extraction: the program a model's raw response holds.

Completions come from a completions file; a record without `source_code`
gets the program `extract_code` finds in its `raw_response`.
"""

from __future__ import annotations

import re

# A fence opener is ``` at line start, optionally tagged (```python). The
# block ends at the next line consisting of ``` alone, or at end of text
# for truncated responses.
_FENCE_OPEN = re.compile(r"^```[^\n]*\n", re.MULTILINE)
_FENCE_CLOSE = re.compile(r"^```\s*$", re.MULTILINE)


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
