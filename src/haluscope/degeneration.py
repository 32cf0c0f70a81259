"""Pre-execution detection of degenerate generations: stuttering, infinite
enumeration, and gibberish.

The three states are named qualitatively in the literature; the structural
thresholds below are harness-defined defaults, surfaced in configuration
so they can be tuned per corpus.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from enum import Enum

_WS_RUN = re.compile(r"\s+")
_STRING_LITERAL = re.compile(r"('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")")
_NUMBER_LITERAL = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?![\w.])")

_KEYWORD_PREFIX = re.compile(
    r"^(?:def|class|if|elif|else|for|while|return|import|from|try|except|finally|"
    r"with|pass|break|continue|raise|yield|global|nonlocal|lambda|assert|del|"
    r"match|case|async|await)\b"
)
_BRACKET_ONLY = re.compile(r"^[\[\]\(\)\{\}\s,:]+$")

# What parsing may raise on text that does not parse: pathological nesting
# exhausts the parser (MemoryError) or the AST builder (RecursionError).
_UNPARSEABLE = (SyntaxError, ValueError, MemoryError, RecursionError)


class DegenerationKind(str, Enum):
    NONE = "none"
    STUTTERING = "stuttering"
    INFINITE_ENUMERATION = "infinite_enumeration"
    GIBBERISH = "gibberish"


@dataclass(frozen=True)
class DegenerationConfig:
    """Structural thresholds. Keys mirror the CLI/config names
    degeneration.repeat_count, .block_size, .enum_count, .parse_valid_frac,
    .window_frac."""

    repeat_count: int = 5
    block_size: int = 3
    enum_count: int = 20
    parse_valid_frac: float = 0.3
    window_frac: float = 0.6


DEFAULT_CONFIG = DegenerationConfig()

NO_VERDICT_EVIDENCE = ""


@dataclass(frozen=True)
class DegenerationVerdict:
    kind: DegenerationKind
    evidence: str
    score: float


def _normalize_line(line: str) -> str:
    return _WS_RUN.sub(" ", line.strip())


def _nonblank_normalized(source_code: str) -> list[str]:
    return [norm for line in source_code.split("\n") if (norm := _normalize_line(line))]


def repetition_ratio(source_code: str) -> float:
    """1 - (distinct normalized lines / total non-blank lines); 0 for empty
    input."""
    lines = _nonblank_normalized(source_code)
    if not lines:
        return 0.0
    return 1.0 - len(set(lines)) / len(lines)


def detect(
    source_code: str,
    truncated_at_limit: bool = False,
    config: DegenerationConfig = DEFAULT_CONFIG,
) -> DegenerationVerdict:
    """Classify a generation as stuttering, infinite enumeration, gibberish,
    or none, applying the rules in that order (so stuttering wins when
    several thresholds fire).

    Stuttering: within the trailing window (window_frac of non-blank lines),
    a block of at most block_size normalized lines repeats consecutively at
    least repeat_count times. Infinite enumeration: at least enum_count
    consecutive lines share one statement pattern, differing only in
    literals. Gibberish: the text does not parse and is either truncated at
    the token limit or mostly non-program-like lines."""
    lines = _nonblank_normalized(source_code)

    stutter = _find_stutter(lines, config)
    if stutter is not None:
        return DegenerationVerdict(
            kind=DegenerationKind.STUTTERING,
            evidence=stutter,
            score=repetition_ratio(source_code),
        )

    enum_evidence = _find_enumeration(lines, config)
    if enum_evidence is not None:
        keys = [_pattern_key(line) for line in lines]
        score = 1.0 - len(set(keys)) / len(keys) if keys else 0.0
        return DegenerationVerdict(
            kind=DegenerationKind.INFINITE_ENUMERATION,
            evidence=enum_evidence,
            score=score,
        )

    gibberish = _check_gibberish(source_code, lines, truncated_at_limit, config)
    if gibberish is not None:
        return gibberish

    return DegenerationVerdict(
        kind=DegenerationKind.NONE,
        evidence=NO_VERDICT_EVIDENCE,
        score=repetition_ratio(source_code),
    )


def _find_stutter(lines: list[str], config: DegenerationConfig) -> str | None:
    """Return the repeated block (joined by newlines) with the largest
    coverage in the trailing window, or None."""
    total = len(lines)
    if total == 0:
        return None
    window = lines[int(total * (1.0 - config.window_frac)) :]
    size = len(window)
    best_block: list[str] | None = None
    best_coverage = 0
    for block_len in range(1, config.block_size + 1):
        for start in range(size - block_len * config.repeat_count + 1):
            block = window[start : start + block_len]
            repeats = 1
            pos = start + block_len
            while pos + block_len <= size and window[pos : pos + block_len] == block:
                repeats += 1
                pos += block_len
            if repeats >= config.repeat_count:
                coverage = repeats * block_len
                if coverage > best_coverage:
                    best_coverage = coverage
                    best_block = block
    return "\n".join(best_block) if best_block is not None else None


def _pattern_key(line: str) -> str:
    masked = _STRING_LITERAL.sub("<str>", line)
    return _NUMBER_LITERAL.sub("<num>", masked)


def _find_enumeration(lines: list[str], config: DegenerationConfig) -> str | None:
    """Return the shared statement pattern of the longest literal-varying
    run when it reaches enum_count, else None."""
    run_key: str | None = None
    run_len = 0
    for line in lines:
        key = _pattern_key(line)
        if key == run_key:
            run_len += 1
        else:
            run_key, run_len = key, 1
        if run_len >= config.enum_count:
            return run_key
    return None


def _check_gibberish(
    source_code: str,
    lines: list[str],
    truncated_at_limit: bool,
    config: DegenerationConfig,
) -> DegenerationVerdict | None:
    try:
        ast.parse(source_code)
        return None
    except _UNPARSEABLE:
        pass
    if not lines:
        valid_frac = 0.0
        offending = "<empty>"
    else:
        flags = [_program_like(line) for line in lines]
        valid_frac = sum(flags) / len(lines)
        offending = next(
            (line for line, ok in zip(lines, flags) if not ok), lines[0]
        )
    if truncated_at_limit or valid_frac < config.parse_valid_frac:
        return DegenerationVerdict(
            kind=DegenerationKind.GIBBERISH,
            evidence=offending,
            score=1.0 - valid_frac,
        )
    return None


def _program_like(line: str) -> bool:
    """Heuristic for "this line looks like code": comments, decorators,
    keyword-led statements, bare bracket lines, or lines that compile alone
    (optionally wrapped in a function body for return/yield)."""
    if line.startswith(("#", "@")):
        return True
    if _KEYWORD_PREFIX.match(line):
        return True
    if _BRACKET_ONLY.match(line):
        return True
    for candidate in (line, f"def _probe():\n    {line}"):
        try:
            compile(candidate, "<line>", "exec")
            return True
        except _UNPARSEABLE:
            continue
    return False
