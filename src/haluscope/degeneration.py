"""Pre-execution detection of degenerate generations: stuttering, infinite
enumeration, and gibberish.

The three states are named qualitatively in the literature; the structural
thresholds below are harness-defined defaults, surfaced in configuration
so they can be tuned per corpus.
"""

from __future__ import annotations

import ast
import keyword
import operator
import re
import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

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

    def __post_init__(self) -> None:
        # A block always "repeats" once and every line shares a pattern with
        # itself, so smaller counts would gate every generation.
        if self.repeat_count < 2:
            raise ConfigError("degeneration.repeat_count must be at least 2")
        if self.block_size < 1:
            raise ConfigError("degeneration.block_size must be at least 1")
        if self.enum_count < 2:
            raise ConfigError("degeneration.enum_count must be at least 2")
        for name in ("parse_valid_frac", "window_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"degeneration.{name} must be between 0 and 1")


DEFAULT_CONFIG = DegenerationConfig()


@dataclass(frozen=True)
class DegenerationVerdict:
    """`evidence` is the repeated block (lines joined by newlines) for
    stuttering, the shared statement pattern for infinite enumeration, and
    for gibberish the first non-program line, or the last line of truncated
    text ("<empty>" without lines); it is "" for none."""

    kind: DegenerationKind
    evidence: str


def _normalize_line(line: str) -> str:
    return " ".join(line.split())


def _nonblank_normalized(source_code: str) -> list[str]:
    return [norm for line in source_code.split("\n") if (norm := _normalize_line(line))]


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
    least repeat_count times; the evidence is the block. Infinite
    enumeration: at least enum_count consecutive lines share one statement
    pattern, differing only in literals; the evidence is the pattern.
    Gibberish: the text does not parse and is either truncated at the token
    limit (the evidence is its last line, where it was cut) or mostly
    non-program-like lines (the evidence is the first such line)."""
    lines = _nonblank_normalized(source_code)

    stutter = _find_stutter(lines, config)
    if stutter is not None:
        return DegenerationVerdict(DegenerationKind.STUTTERING, stutter)

    enum_evidence = _find_enumeration(lines, config)
    if enum_evidence is not None:
        return DegenerationVerdict(DegenerationKind.INFINITE_ENUMERATION, enum_evidence)

    gibberish = _check_gibberish(source_code, lines, truncated_at_limit, config)
    if gibberish is not None:
        return DegenerationVerdict(DegenerationKind.GIBBERISH, gibberish)

    return DegenerationVerdict(DegenerationKind.NONE, "")


def _find_stutter(lines: list[str], config: DegenerationConfig) -> str | None:
    """Return the repeated block (joined by newlines) with the largest
    coverage in the trailing window, or None. Ties go to the shorter block,
    then to the earlier start.

    The block at i repeats 1 + r // block_len times, r being the run of
    lines from i on that equal the line block_len further down. That count
    peaks at a run's start, its earliest position, so run starts are the
    only candidates and the tie-break holds."""
    window = lines[int(len(lines) * (1.0 - config.window_frac)) :]
    best_block: list[str] | None = None
    best_coverage = 0
    # A block longer than len(window) // repeat_count cannot repeat
    # repeat_count times inside the window.
    for block_len in range(1, min(config.block_size, len(window) // config.repeat_count) + 1):
        same = bytes(map(operator.eq, window, window[block_len:]))
        min_run = (config.repeat_count - 1) * block_len
        for run in re.finditer(rb"\x01{%d,}" % min_run, same):
            coverage = (1 + (run.end() - run.start()) // block_len) * block_len
            if coverage > best_coverage:
                best_coverage = coverage
                best_block = window[run.start() : run.start() + block_len]
    return "\n".join(best_block) if best_block is not None else None


def _pattern_key(line: str) -> str:
    masked = _STRING_LITERAL.sub("<str>", line)
    return _NUMBER_LITERAL.sub("<num>", masked)


def _find_enumeration(lines: list[str], config: DegenerationConfig) -> str | None:
    """Return the shared statement pattern (the _pattern_key of each line)
    of the first literal-varying run that reaches enum_count, else None.

    Any enum_count consecutive lines hold exactly one probe (lines
    enum_count-1, 2*enum_count-1, ...), so each run long enough holds one,
    in run order. A probe's run is measured outward from it and cannot pass
    a neighbouring probe without being long enough, so each line is keyed
    about twice at most."""
    step = config.enum_count
    total = len(lines)
    for probe in range(step - 1, total, step):
        key = _pattern_key(lines[probe])
        start = end = probe
        while start > 0 and _pattern_key(lines[start - 1]) == key:
            start -= 1
        while end - start + 1 < step and end + 1 < total and _pattern_key(lines[end + 1]) == key:
            end += 1
        if end - start + 1 >= step:
            return key
    return None


def _check_gibberish(
    source_code: str,
    lines: list[str],
    truncated_at_limit: bool,
    config: DegenerationConfig,
) -> str | None:
    # Compiling text can warn (SyntaxWarning for `x is 1`, an invalid escape
    # sequence). Ignoring the warnings keeps the gate silent and its verdict
    # independent of the process's warnings filter: under "error" they would
    # turn into SyntaxErrors.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ast.parse(source_code)
            return None
        except _UNPARSEABLE:
            pass
        if truncated_at_limit:
            return lines[-1] if lines else "<empty>"
        if not lines:
            return "<empty>" if 0.0 < config.parse_valid_frac else None
        # Scan until the share of program-like lines surely reaches
        # parse_valid_frac, or surely falls short even if every line left
        # is program-like.
        total = len(lines)
        valid = 0
        offending = None
        for seen, line in enumerate(lines, 1):
            if _program_like(line):
                valid += 1
                if valid / total >= config.parse_valid_frac:
                    return None
            else:
                if offending is None:
                    offending = line
                if (total - seen + valid) / total < config.parse_valid_frac:
                    return offending
    return None  # parse_valid_frac is 0 and no line is program-like


def _program_like(line: str) -> bool:
    """Heuristic for "this line looks like code": comments, decorators,
    keyword-led statements, bare bracket lines, or lines that compile alone
    (or wrapped in a function body, for return/yield).

    Outside strings and comments, Python puts two names side by side only
    after a soft keyword (`match x:`; from 3.12 `type X = int`). So a line
    whose words before the first holding a quote or `#` include two
    non-keyword identifiers in a row, the first no soft keyword, is not
    code and skips compiling. On 3.11 no one-line statement starts with a
    soft keyword and a name; the exclusion matters from 3.12 on."""
    if line.startswith(("#", "@")):
        return True
    if _KEYWORD_PREFIX.match(line):
        return True
    if _BRACKET_ONLY.match(line):
        return True
    if _names_in_a_row(line):
        return False
    try:
        compile(line, "<line>", "exec")
        return True
    except _UNPARSEABLE:
        pass
    # Only a return or yield outside a function compiles in the wrapped
    # form and not alone, so other lines skip the second compile.
    if "return" not in line and "yield" not in line:
        return False
    try:
        compile(f"def _probe():\n    {line}", "<line>", "exec")
        return True
    except _UNPARSEABLE:
        return False


def _names_in_a_row(line: str) -> bool:
    follows_name = False
    for word in line.split(" "):
        if "'" in word or '"' in word or "#" in word:
            return False
        is_name = word.isidentifier() and not keyword.iskeyword(word)
        if is_name and follows_name:
            return True
        follows_name = is_name and word not in keyword.softkwlist
    return False
