from __future__ import annotations

import ast
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haluscope.degeneration import (
    DEFAULT_CONFIG,
    DegenerationConfig,
    DegenerationKind,
    DegenerationVerdict,
    _BRACKET_ONLY,
    _KEYWORD_PREFIX,
    _UNPARSEABLE,
    _find_enumeration,
    _find_stutter,
    _nonblank_normalized,
    _normalize_line,
    _pattern_key,
    _program_like,
    detect,
)
from haluscope import degeneration
from haluscope.errors import ConfigError


# Reference implementations: the rescanning stutter search and the
# two-compile line check the gate used before its linear-time rewrite.
# The gate must agree with them exactly.


def _oracle_find_stutter(lines: list[str], config: DegenerationConfig) -> str | None:
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


def _oracle_program_like(line: str) -> bool:
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


def _oracle_normalize_line(line: str) -> str:
    return re.sub(r"\s+", " ", line.strip())


# Whitespace that `str.split` and the regex `\s` must treat alike: ASCII
# separators, the information separators, NEL, no-break, em and
# ideographic spaces, the line and paragraph separators.
_WHITESPACE_SOUP = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u2029\u3000ab(1"


def _oracle_detect(source_code: str, truncated_at_limit: bool, config: DegenerationConfig):
    """The gate's rules, in order, over the reference implementations and
    a full line scan; returns (kind, evidence)."""
    lines = _nonblank_normalized(source_code)
    stutter = _oracle_find_stutter(lines, config)
    if stutter is not None:
        return "stuttering", stutter
    keys = [_pattern_key(line) for line in lines]
    run_len = 0
    for index, key in enumerate(keys):
        run_len = run_len + 1 if index and key == keys[index - 1] else 1
        if run_len >= config.enum_count:
            return "infinite_enumeration", key
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ast.parse(source_code)
            parses = True
        except _UNPARSEABLE:
            parses = False
        flags = [_oracle_program_like(line) for line in lines]
    if not parses:
        valid_frac = sum(flags) / len(lines) if lines else 0.0
        offending = next((line for line, ok in zip(lines, flags) if not ok),
                         lines[0] if lines else "<empty>")
        if truncated_at_limit:  # cut at the token limit, on its last line
            return "gibberish", lines[-1] if lines else "<empty>"
        if valid_frac < config.parse_valid_frac:
            return "gibberish", offending
    return "none", ""


def _full_scan_enumeration(lines: list[str], enum_count: int) -> str | None:
    """The key of the first run of enum_count equal pattern keys, keying
    every line left to right."""
    run_key, run_len = None, 0
    for line in lines:
        key = _pattern_key(line)
        run_len = run_len + 1 if key == run_key else 1
        run_key = key
        if run_len >= enum_count:
            return key
    return None


def _enumeration_document(enum_count: int, runs: list[tuple[int, int]], tail: int) -> list[str]:
    """For each (gap, extra): gap lines whose keys all differ, then
    enum_count + extra lines sharing one key of their own; then tail more
    differing lines."""
    lines: list[str] = []
    for index, (gap, extra) in enumerate(runs):
        lines += [f"gap_{len(lines) + i}()" for i in range(gap)]
        lines += [f"emit_{index}({value})" for value in range(enum_count + extra)]
    return lines + [f"gap_{len(lines) + i}()" for i in range(tail)]


def _verdict(source_code: str, truncated_at_limit: bool, config: DegenerationConfig):
    verdict = detect(source_code, truncated_at_limit, config)
    return verdict.kind.value, verdict.evidence


_valid_configs = st.builds(
    DegenerationConfig,
    repeat_count=st.integers(min_value=2, max_value=6),
    block_size=st.integers(min_value=1, max_value=4),
    enum_count=st.integers(min_value=2, max_value=25),
    parse_valid_frac=st.floats(min_value=0.0, max_value=1.0),
    window_frac=st.floats(min_value=0.0, max_value=1.0),
)

# Words a generated line is built from: keywords that only compile inside a
# function (or in neither place), operators, literals that draw
# SyntaxWarnings, brackets that may not balance, and what the two-names rule
# must see through: soft keywords, a fullwidth `match` (the parser compares
# raw bytes, so no soft keyword), non-ASCII names, string prefix letters and
# quoted words holding spaces.
_SOUP_TOKENS = [
    "return", "yield", "await", "nonlocal", "global", "import", "*", "from", "m", "x",
    "y", "=", "1", "0", "(", ")", "[", "]", "{", "}", ":", ";", ",", ".", "+", "-",
    "lambda", "if", "else", "for", "in", "is", "not", "async", "def", "'s'", '"\\d"',
    "print", "#", "@", "\\", "==", "->", "...", "_probe", "pass", "del",
    "match", "case", "_", "type", "ｍａｔｃｈ", "é", "ｘ", "f", "rb", "'a b'", "f'{a b}'",
]
_soup_lines = st.lists(st.sampled_from(_SOUP_TOKENS), min_size=1, max_size=8).map(
    lambda words: _normalize_line(" ".join(words))
).filter(bool)


class TestReferenceEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        alphabet=st.integers(min_value=1, max_value=4),
        config=_valid_configs,
    )
    def test_stutter_search_matches_reference(self, data, alphabet, config):
        lines = data.draw(st.lists(st.sampled_from("abcd"[:alphabet]), max_size=60))
        assert _find_stutter(lines, config) == _oracle_find_stutter(lines, config)

    @settings(max_examples=400, deadline=None)
    @given(line=_soup_lines)
    @example(line="return x")
    @example(line="x = yield 1")
    @example(line="x = (yield)")
    @example(line="a; from m import *")
    @example(line="x = await y")
    @example(line="x = 1; nonlocal x")
    @example(line="x; return")
    @example(line="returned = 1")
    @example(line="x is 1")
    @example(line='print(re.findall("\\d+", input()))')
    @example(line="match x:")
    @example(line="case _:")
    @example(line="type X = int")
    @example(line="print x")
    @example(line="x = 1 # a b")
    @example(line="x = ' a b '")
    @example(line="ｍａｔｃｈ x:")
    @example(line="f 'x'")
    def test_program_like_matches_reference(self, line):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _program_like(line) == _oracle_program_like(line)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        config=_valid_configs,
        truncated=st.booleans(),
    )
    def test_detect_matches_reference(self, data, config, truncated):
        unit = data.draw(st.lists(
            st.sampled_from(["acc.append(v)", "x = x", "total += step", "pop()"]),
            min_size=1, max_size=3,
        ))
        document = data.draw(st.sampled_from(["stutter", "enumeration", "gibberish"]))
        head = data.draw(st.lists(_soup_lines, max_size=4))
        if document == "stutter":
            body = unit * data.draw(st.integers(min_value=1, max_value=12))
        elif document == "enumeration":
            body = [f"emit({i}, 'v{i}')" for i in range(data.draw(st.integers(0, 30)))]
        else:
            body = data.draw(st.lists(_soup_lines, max_size=30))
        source = "\n".join(head + body)
        assert _verdict(source, truncated, config) == _oracle_detect(source, truncated, config)

    # Runs of enum_count-1, enum_count and enum_count+1 equal-key lines after
    # gaps of 0..50 differing-key lines, so at every offset from the probes
    # for every enum_count drawn.
    @settings(max_examples=400, deadline=None)
    @given(
        enum_count=st.integers(min_value=2, max_value=25),
        runs=st.lists(st.tuples(st.integers(0, 50), st.sampled_from([-1, 0, 1])), max_size=3),
        tail=st.integers(0, 50),
    )
    @example(enum_count=2, runs=[], tail=0)
    @example(enum_count=25, runs=[], tail=24)
    @example(enum_count=25, runs=[(0, -1)], tail=0)
    def test_enumeration_search_matches_full_scan(self, enum_count, runs, tail):
        lines = _enumeration_document(enum_count, runs, tail)
        config = DegenerationConfig(enum_count=enum_count)
        assert _find_enumeration(lines, config) == _full_scan_enumeration(lines, enum_count)

    def test_enumeration_search_finds_a_lone_run_at_every_offset(self):
        for enum_count in range(2, 26):
            for gap in range(2 * enum_count):
                for extra in (-1, 0, 1):
                    lines = _enumeration_document(enum_count, [(gap, extra)], gap)
                    config = DegenerationConfig(enum_count=enum_count)
                    assert _find_enumeration(lines, config) == (
                        _full_scan_enumeration(lines, enum_count)
                    ), (enum_count, gap, extra)

    def test_long_stutter_document_matches_reference(self):
        # 20,000 lines of 1- and 2-line blocks repeated 5 to 27 times. Runs
        # stay short because the reference rescans every run from each of
        # its starts: one 20,000-line run takes it tens of seconds.
        segments = []
        for k in range(1000):
            block = [f"acc_{k}.append(v)"] + ([f"acc_{k}.pop()"] if k % 2 else [])
            segments.append([f"seg_{k} = {k}"] + block * (5 + k % 23))
        lines = [line for segment in segments for line in segment][:20_000]
        assert len(lines) == 20_000
        source = "\n".join(lines)
        expected = _oracle_detect(source, False, DEFAULT_CONFIG)
        assert expected[0] == "stuttering"
        assert _verdict(source, False, DEFAULT_CONFIG) == expected

    def test_one_long_run_is_stuttering(self):
        source = "x = 0\n" + "total += step\n" * 20_000
        assert _verdict(source, False, DEFAULT_CONFIG) == ("stuttering", "total += step")

    @settings(max_examples=1000, deadline=None)
    @given(line=st.text(alphabet=_WHITESPACE_SOUP, max_size=20) | st.text(max_size=20))
    @example(line=_WHITESPACE_SOUP)
    @example(line="\x85a\x1c\x1d b\u3000\xa0")
    def test_normalize_line_matches_regex(self, line):
        assert _normalize_line(line) == _oracle_normalize_line(line)


class TestWarningsFilter:
    SOURCES = [
        # an invalid escape: a DeprecationWarning (SyntaxWarning from 3.12)
        'import re\nprint(re.findall("\\d+", input()))\n',
        # SyntaxWarning: "is" with a literal, in an unparseable document
        "x is 1\ny is 'a'\n) broken (\n",
        "x is 1\n" + "qq zz ww\n" * 4,
    ]

    @pytest.mark.parametrize("action", ["error", "default", "always"])
    def test_verdict_independent_of_filter_and_silent(self, action):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = [_verdict(source, False, DEFAULT_CONFIG) for source in self.SOURCES]
        assert [kind for kind, _ in expected] == ["none", "none", "gibberish"]
        assert expected[2][1] == "qq zz ww"  # `x is 1` counts as code
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert [_verdict(source, False, DEFAULT_CONFIG) for source in self.SOURCES] == (
                expected
            )
        assert caught == []


class TestGibberishScan:
    """The line scan stops once the share of program-like lines is known to
    reach parse_valid_frac or to fall short of it. Its verdict must be that
    of a full scan."""

    # Thresholds the stutter and enumeration rules never reach here.
    @staticmethod
    def config(parse_valid_frac: float) -> DegenerationConfig:
        return DegenerationConfig(repeat_count=100, enum_count=100,
                                  parse_valid_frac=parse_valid_frac)

    @staticmethod
    def scanned(monkeypatch) -> list[str]:
        """The lines `_program_like` is asked about from now on."""
        calls: list[str] = []
        program_like = degeneration._program_like

        def recording(line: str) -> bool:
            calls.append(line)
            return program_like(line)

        monkeypatch.setattr(degeneration, "_program_like", recording)
        return calls

    @settings(max_examples=500, deadline=None)
    @given(
        source=st.lists(_soup_lines | st.sampled_from(["qq zz", "x = 1", "\xa0"]),
                        max_size=12).map("\n".join),
        parse_valid_frac=st.floats(min_value=0.0, max_value=1.0)
        | st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 1.0]),
        truncated=st.booleans(),
    )
    @example(source="\xa0", parse_valid_frac=0.0, truncated=False)
    @example(source="\xa0", parse_valid_frac=0.3, truncated=False)
    @example(source="\xa0", parse_valid_frac=0.0, truncated=True)
    @example(source="x = 1\nqq zz\nqq zz\ny = 2", parse_valid_frac=0.5, truncated=False)
    @example(source="qq zz\nx = 1\nqq zz", parse_valid_frac=1.0, truncated=False)
    def test_matches_full_scan(self, source, parse_valid_frac, truncated):
        config = self.config(parse_valid_frac)
        assert _verdict(source, truncated, config) == _oracle_detect(source, truncated, config)

    @pytest.mark.parametrize("parse_valid_frac, expected", [
        (0.0, ("none", "")),
        (0.3, ("gibberish", "<empty>")),
    ])
    def test_unparseable_text_without_lines(self, parse_valid_frac, expected):
        # A no-break space is blank to the line split and does not parse.
        assert _verdict("\xa0", False, self.config(parse_valid_frac)) == expected

    @pytest.mark.parametrize("program_first", [True, False])
    @pytest.mark.parametrize("program_lines, expected", [
        (3, ("none", "")),
        (2, ("gibberish", "word0 word0")),
    ])
    def test_threshold_is_inclusive(self, program_first, program_lines, expected):
        program = [f"x{i} = {i}" for i in range(program_lines)]
        noise = [f"word{i} word{i}" for i in range(10 - program_lines)]
        lines = program + noise if program_first else noise + program
        assert _verdict("\n".join(lines), False, self.config(0.3)) == expected

    def test_stops_at_first_non_program_line_at_full_threshold(self, monkeypatch):
        source = "x = 1\ny = 2\nqq zz\nz = 3\nmore noise here"
        calls = self.scanned(monkeypatch)
        assert _verdict(source, False, self.config(1.0)) == ("gibberish", "qq zz")
        assert calls == ["x = 1", "y = 2", "qq zz"]

    def test_stops_once_enough_lines_are_program_like(self, monkeypatch):
        source = "x = 1\ny = 2\nz = 3\n" + "qq zz 0\n" * 4 + "qq zz 1\n" * 3
        calls = self.scanned(monkeypatch)
        assert _verdict(source, False, self.config(0.3)) == ("none", "")
        assert calls == ["x = 1", "y = 2", "z = 3"]

    def test_truncated_text_is_gibberish_at_its_last_line_unscanned(self, monkeypatch):
        source = "import sys\nvalues = sys.stdin.read()\ndef handle(chunk:\n\n"
        calls = self.scanned(monkeypatch)
        assert _verdict(source, True, self.config(0.3)) == ("gibberish", "def handle(chunk:")
        assert calls == []


class TestRepetitionRatio:
    """Line repetition as the stuttering check sees it: lines compare after
    whitespace normalization, and blank lines do not count."""

    def test_ten_identical_lines(self):
        verdict = detect("result.append(x)\n" * 10)
        assert verdict == DegenerationVerdict(DegenerationKind.STUTTERING, "result.append(x)")

    def test_ten_distinct_lines(self):
        source = "\n".join(f"value_{i} = {i}" for i in range(10))
        assert detect(source) == DegenerationVerdict(DegenerationKind.NONE, "")

    def test_alternating_pair_twenty_lines(self):
        verdict = detect("left()\nright()\n" * 10)
        assert verdict == DegenerationVerdict(DegenerationKind.STUTTERING, "left()\nright()")

    def test_empty_input(self):
        for source in ("", "\n\n  \n"):
            assert _nonblank_normalized(source) == []
            assert detect(source) == DegenerationVerdict(DegenerationKind.NONE, "")

    def test_whitespace_normalization(self):
        # internal runs collapse, so these are the same line
        assert _nonblank_normalized("a =  1\na = 1\n") == ["a = 1", "a = 1"]
        verdict = detect("a =  1\na = 1\n" * 5)
        assert verdict == DegenerationVerdict(DegenerationKind.STUTTERING, "a = 1")

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from(["x = 1", "y =  2", " call(z)", "# note", "", "  "]), max_size=40)
    )
    def test_matches_brute_force_oracle(self, lines):
        normalized = [" ".join(line.split()) for line in lines]
        assert _nonblank_normalized("\n".join(lines)) == [line for line in normalized if line]


class TestDetect:
    def test_fifty_copies_after_header_is_stuttering(self):
        source = "def main():\n    data = []\n" + "    result.append(x)\n" * 50
        verdict = detect(source)
        assert verdict.kind is DegenerationKind.STUTTERING
        assert verdict.evidence == "result.append(x)"

    def test_distinct_parseable_program_is_none(self):
        source = "\n".join(
            [
                "import sys",
                "def main():",
                "    data = sys.stdin.read().split()",
                "    total = 0",
                "    for token in data:",
                "        total += int(token)",
                "    if total > 100:",
                "        print('big')",
                "    else:",
                "        print(total)",
                "",
                "main()",
            ]
        )
        assert detect(source).kind is DegenerationKind.NONE

    def test_truncated_repeated_calls_not_gibberish(self):
        # endless re-calls of one function until the token budget dies mid-line
        source = (
            "def count_ways(n):\n"
            "    return count_ways(n - 1)\n"
            + "count_ways(10)\n" * 12
            + "count_ways(\n"
        )
        verdict = detect(source, truncated_at_limit=True)
        assert verdict.kind in (
            DegenerationKind.STUTTERING,
            DegenerationKind.INFINITE_ENUMERATION,
        )

    def test_enumeration_of_varying_literals(self):
        source = "".join(f"print({i})\n" for i in range(25))
        verdict = detect(source)
        assert verdict.kind is DegenerationKind.INFINITE_ENUMERATION
        assert "<num>" in verdict.evidence

    def test_enumeration_below_threshold_is_none(self):
        source = "".join(f"print({i})\n" for i in range(19))
        assert detect(source).kind is DegenerationKind.NONE

    def test_stuttering_wins_over_enumeration(self):
        # identical lines satisfy both rules; precedence keeps stuttering
        source = "print(7)\n" * 25
        assert detect(source).kind is DegenerationKind.STUTTERING

    def test_gibberish_detected(self):
        source = (
            "and then the model simply gave up on the problem entirely\n"
            "not valid code !! not valid code at all ~~\n"
            "??? ??? ???\n"
        )
        verdict = detect(source)
        assert verdict.kind is DegenerationKind.GIBBERISH
        assert verdict.evidence == "and then the model simply gave up on the problem entirely"

    def test_parseable_text_never_gibberish(self):
        assert detect("x = 1").kind is DegenerationKind.NONE

    @pytest.mark.parametrize(
        "source",
        ["x = " + "-" * 100_000 + "1\nprint(x)\n", "x = 0" + "+1" * 200_000 + "\nprint(x)\n"],
        ids=["unary-chain-exhausts-parser", "binary-chain-exhausts-recursion"],
    )
    def test_pathological_nesting_does_not_parse(self, source):
        # ast.parse raises MemoryError or RecursionError here; the gate
        # reads that as "does not parse" instead of raising.
        assert detect(source).kind is DegenerationKind.NONE  # half the lines look like code
        assert detect(source, truncated_at_limit=True).kind is DegenerationKind.GIBBERISH

    def test_truncated_code_like_text_not_gibberish_without_flag(self):
        # unparseable but code-like: executes and fails at compile instead
        source = "import sys\nvalues = sys.stdin.read()\ndef handle(chunk:\n"
        assert detect(source, truncated_at_limit=False).kind is DegenerationKind.NONE

    def test_truncated_flag_makes_unparseable_text_gibberish(self):
        source = "import sys\nvalues = sys.stdin.read()\ndef handle(chunk:\n"
        assert detect(source, truncated_at_limit=True).kind is DegenerationKind.GIBBERISH

    def test_block_of_two_stutter(self):
        source = "items = []\n" + "items.append(a)\nitems.append(b)\n" * 10
        verdict = detect(source)
        assert verdict.kind is DegenerationKind.STUTTERING
        # evidence is the repeated pair; its phase depends on the window start
        assert sorted(verdict.evidence.split("\n")) == [
            "items.append(a)",
            "items.append(b)",
        ]

    def test_repeats_outside_trailing_window_ignored(self):
        # 6 repeats at the head, long distinct tail: window misses them
        head = "warmup()\n" * 6
        tail = "\n".join(f"step_{i} = {i} + offset_{i}" for i in range(40))
        assert detect(head + tail).kind is DegenerationKind.NONE

    def test_empty_source_is_none(self):
        assert detect("") == DegenerationVerdict(DegenerationKind.NONE, "")

    def test_none_verdict_has_empty_evidence(self):
        verdict = detect("x = 1\ny = 2")
        assert verdict.evidence == ""


class TestConfig:
    def test_repeat_count_threshold_respected(self):
        source = "fill()\n" * 4
        assert detect(source).kind is DegenerationKind.NONE
        relaxed = DegenerationConfig(repeat_count=3)
        assert detect(source, config=relaxed).kind is DegenerationKind.STUTTERING

    def test_enum_count_threshold_respected(self):
        source = "".join(f"emit({i})\n" for i in range(10))
        assert detect(source).kind is DegenerationKind.NONE
        relaxed = DegenerationConfig(enum_count=8)
        assert detect(source, config=relaxed).kind is DegenerationKind.INFINITE_ENUMERATION

    @pytest.mark.parametrize(
        "fields",
        [{"repeat_count": 1}, {"repeat_count": 0}, {"block_size": 0}, {"enum_count": 1},
         {"enum_count": 0}, {"window_frac": 1.01}, {"window_frac": -0.5},
         {"parse_valid_frac": 1.5}, {"parse_valid_frac": float("nan")}],
    )
    def test_out_of_range_threshold_rejected(self, fields):
        with pytest.raises(ConfigError):
            DegenerationConfig(**fields)

    def test_boundary_thresholds_accepted(self):
        DegenerationConfig(repeat_count=2, block_size=1, enum_count=2,
                           parse_valid_frac=0.0, window_frac=1.0)
        DegenerationConfig(parse_valid_frac=1.0, window_frac=0.0)

    def test_defaults(self):
        assert DEFAULT_CONFIG.repeat_count == 5
        assert DEFAULT_CONFIG.block_size == 3
        assert DEFAULT_CONFIG.enum_count == 20
        assert DEFAULT_CONFIG.parse_valid_frac == 0.3
        assert DEFAULT_CONFIG.window_frac == 0.6


class TestWorkSkipped:
    """The work the gate skips because it cannot change a verdict, counted
    in calls."""

    def test_prose_reaches_gibberish_without_compiling(self, monkeypatch):
        subjects = ["The function", "This loop", "The helper", "Each call", "The result"]
        verbs = ["returns", "reads", "sorts", "prints", "checks"]
        objects = ["the list", "every value", "the input", "a total", "the answer",
                   "each line", "the count", "its argument"]
        lines = [f"{s} {v} {o}" for s in subjects for v in verbs for o in objects]
        assert len(lines) == 200
        compiled: list[str] = []

        def recording(source, *args):
            compiled.append(source)
            return compile(source, *args)

        monkeypatch.setattr(degeneration, "compile", recording, raising=False)
        assert _verdict("\n".join(lines), False, DEFAULT_CONFIG) == ("gibberish", lines[0])
        assert compiled == []

    def test_enumeration_keys_only_near_probes(self, monkeypatch):
        lines = [f"value_{i} = f_{i}()" for i in range(1000)]
        keyed: list[str] = []
        pattern_key = degeneration._pattern_key

        def recording(line: str) -> str:
            keyed.append(line)
            return pattern_key(line)

        monkeypatch.setattr(degeneration, "_pattern_key", recording)
        config = DegenerationConfig(enum_count=20)
        assert _verdict("\n".join(lines), False, config) == ("none", "")
        assert len(keyed) <= 3 * (1000 // 20)

    @pytest.mark.parametrize("document, kind", [
        ("stutter", DegenerationKind.STUTTERING),
        ("plain", DegenerationKind.NONE),
    ])
    def test_block_size_beyond_the_window(self, document, kind):
        # Block lengths past len(window) // repeat_count cannot repeat
        # enough times, so a huge block_size costs no more than a small one.
        lines = [f"step_{i} = f_{i}()" for i in range(1000)]
        if document == "stutter":
            lines[500:] = ["acc.append(v)", "acc.pop()"] * 250
        source = "\n".join(lines)
        verdict = detect(source, config=DegenerationConfig(block_size=10**8))
        assert verdict.kind is kind
        assert verdict == detect(source, config=DegenerationConfig(block_size=3))


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(
        unit=st.sampled_from(["acc.append(v)", "x = x", "total += step"]),
        base_repeats=st.integers(min_value=9, max_value=25),
        extra=st.integers(min_value=1, max_value=30),
    )
    def test_appending_repeated_unit_keeps_stuttering(self, unit, base_repeats, extra):
        # 9+ repeats guarantee >= 5 consecutive copies inside the trailing window
        base = "start = 0\n" + (unit + "\n") * base_repeats
        verdict = detect(base)
        assert verdict.kind is DegenerationKind.STUTTERING
        grown = base + (verdict.evidence + "\n") * extra
        assert detect(grown).kind is DegenerationKind.STUTTERING
