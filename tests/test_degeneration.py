from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haluscope.degeneration import (
    DEFAULT_CONFIG,
    DegenerationConfig,
    DegenerationKind,
    detect,
    repetition_ratio,
)


class TestRepetitionRatio:
    def test_ten_identical_lines(self):
        assert repetition_ratio("result.append(x)\n" * 10) == pytest.approx(0.9)

    def test_ten_distinct_lines(self):
        source = "\n".join(f"value_{i} = {i}" for i in range(10))
        assert repetition_ratio(source) == 0.0

    def test_alternating_pair_twenty_lines(self):
        assert repetition_ratio("left()\nright()\n" * 10) == pytest.approx(0.9)

    def test_empty_input(self):
        assert repetition_ratio("") == 0.0
        assert repetition_ratio("\n\n  \n") == 0.0

    def test_whitespace_normalization(self):
        # internal runs collapse, so these are the same line
        assert repetition_ratio("a =  1\na = 1\n") == pytest.approx(0.5)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(["x = 1", "y = 2", "call(z)", "# note"]), max_size=40))
    def test_matches_brute_force_oracle(self, lines):
        source = "\n".join(lines)
        normalized = [" ".join(line.split()) for line in lines]
        nonblank = [line for line in normalized if line]
        expected = 0.0 if not nonblank else float(
            1 - Fraction(len(set(nonblank)), len(nonblank))
        )
        assert repetition_ratio(source) == pytest.approx(expected)


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
        assert verdict.score > 0.0
        assert verdict.evidence

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
        verdict = detect("")
        assert verdict.kind is DegenerationKind.NONE
        assert verdict.score == 0.0

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

    def test_defaults(self):
        assert DEFAULT_CONFIG.repeat_count == 5
        assert DEFAULT_CONFIG.block_size == 3
        assert DEFAULT_CONFIG.enum_count == 20
        assert DEFAULT_CONFIG.parse_valid_frac == 0.3
        assert DEFAULT_CONFIG.window_frac == 0.6


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
