from __future__ import annotations

import csv
import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fold_reference as ref
from haluscope.aggregate import SampleProfile
from haluscope.bench import BenchmarkEntry, BenchmarkManifest
from haluscope.bench import build as build_bench
from haluscope.errors import ReportError
from haluscope.report import (
    category_averages,
    evaluate_model,
    render_crosshits_markdown,
    render_csv,
    render_json,
    render_markdown,
    render_report,
    round_half_even,
)
from haluscope.taxonomy import (
    CATEGORY_ORDER,
    SUBCATEGORY_ORDER,
    Category,
    Classification,
    ClassKind,
    Subcategory,
    subcategories_of,
)

IDENTITY = Subcategory.IDENTITY
STRUCTURE = Subcategory.STRUCTURE_ACCESS
DEVIATION = Subcategory.LOGIC_DEVIATION

# Published reference rows used as arithmetic fixtures: eight subcategory
# hallucination rates per model, plus the benchmark's per-subcategory
# sample counts.
SAMPLE_COUNTS = dict(zip(SUBCATEGORY_ORDER, (941, 1347, 1323, 530, 491, 639, 2443, 1169)))

PUBLISHED_ROWS = {
    # model: (eight subcategory HRs, four category averages, overall average)
    "gpt-4": (
        (32.31, 10.02, 27.74, 0.57, 0.20, 3.76, 85.76, 0.51),
        (19.19, 19.97, 2.21, 58.17),
        33.04,
    ),
    "gemma-7b": (
        (55.26, 41.05, 51.85, 0.00, 14.46, 14.55, 97.18, 100.00),
        (46.90, 37.02, 14.51, 98.09),
        61.53,
    ),
    "gpt-3.5": (
        (20.19, 22.05, 30.54, 0.00, 18.53, 6.42, 99.88, 0.00),
        (21.28, 21.80, 11.68, 67.55),
        38.98,
    ),
}


def _hallucinated(rates, sample_counts=SAMPLE_COUNTS):
    """Hallucinated samples per subcategory that give `rates`, one rate or
    eight: each rate's share of the subcategory's samples, rounded to a
    whole sample."""
    if isinstance(rates, (int, float)):
        rates = [rates] * len(SUBCATEGORY_ORDER)
    return {
        s: round(rate * sample_counts[s] / 100) for s, rate in zip(SUBCATEGORY_ORDER, rates)
    }


def _row(sample_counts, hallucinated, model="m"):
    """report.json's row for one model."""
    (row,) = render_report(sample_counts, {model: hallucinated})["rows"]
    return row


def _profile(task, model, subs):
    labels = tuple(
        Classification(kind=ClassKind.LABELED, cause=s.value, subcategory=s)
        for s in subs
    )
    return SampleProfile(
        task_id=task,
        model_id=model,
        labels=labels,
        pass_count=0,
        fault_count=0,
        test_count=max(len(labels), 1),
    )


def _one_entry(target, profile, indicator_mode="target"):
    """evaluate_model over a one-entry manifest: `profile`'s task under
    `target`, one sample. Returns the target cell's hallucinated samples
    and its cross-hit row."""
    entry = BenchmarkEntry(profile.task_id, target, 3, (profile.model_id,))
    manifest = BenchmarkManifest({target: (entry,)})
    hallucinated, crosshits = evaluate_model(manifest, [profile], indicator_mode)
    assert manifest.sample_count(target) == 1
    return hallucinated[profile.model_id][target], crosshits[profile.model_id][target]


class TestIndicator:
    def test_target_present(self):
        profile = _profile("t", "m", [IDENTITY, IDENTITY])
        assert _one_entry(IDENTITY, profile) == (1, {})

    def test_all_pass_is_zero(self):
        profile = SampleProfile("t", "m", (), pass_count=4, fault_count=0, test_count=4)
        assert _one_entry(DEVIATION, profile) == (0, {})

    def test_off_target_does_not_count(self):
        # ... but it shows up as a cross-hit
        profile = _profile("t", "m", [STRUCTURE])
        assert _one_entry(IDENTITY, profile) == (0, {STRUCTURE: 1})

    def test_degeneration_satisfies_logic_breakdown(self):
        profile = SampleProfile(
            "t",
            "m",
            (
                Classification(
                    kind=ClassKind.LABELED,
                    cause="stuttering",
                    subcategory=Subcategory.LOGIC_BREAKDOWN,
                ),
            ),
            pass_count=0,
            fault_count=0,
            test_count=3,
            degenerate=True,
        )
        assert _one_entry(Subcategory.LOGIC_BREAKDOWN, profile) == (1, {})

    def test_any_indicator(self):
        assert _one_entry(IDENTITY, _profile("t", "m", [STRUCTURE]), "any") == (1, {STRUCTURE: 1})
        assert _one_entry(IDENTITY, _profile("t", "m", []), "any") == (0, {})


def _identity(vector):
    """Over one one-sample identity entry per bit, whose task's profile
    hits the target iff the bit is 1: the hallucinated samples
    `evaluate_model` counts, the manifest's samples, and the identity HR
    report.json shows."""
    entries = tuple(BenchmarkEntry(f"t{i}", IDENTITY, 3, ("m",)) for i in range(len(vector)))
    profiles = [
        _profile(f"t{i}", "m", [IDENTITY] if bit else [STRUCTURE]) for i, bit in enumerate(vector)
    ]
    manifest = BenchmarkManifest({IDENTITY: entries})
    hallucinated = evaluate_model(manifest, profiles)[0]["m"]
    sample_counts = {s: manifest.sample_count(s) for s in SUBCATEGORY_ORDER}
    row = _row(sample_counts, hallucinated)
    return hallucinated[IDENTITY], sample_counts[IDENTITY], row["subcategory_hr"][IDENTITY.value]


def _rate(vector):
    return _identity(vector)[2]


class TestHallucinationRate:
    def test_simple_mean(self):
        assert _rate([1, 0, 0, 0]) == 25.0

    def test_zero(self):
        assert _rate([0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            _rate([])

    def test_thousand_random_vectors_match_brute_force(self):
        rng = random.Random(2024)
        for _ in range(1000):
            vector = [rng.randint(0, 1) for _ in range(rng.randint(1, 50))]
            count = 0
            for bit in vector:  # independent brute-force recount
                if bit == 1:
                    count += 1
            assert _identity(vector) == (
                count, len(vector), round_half_even(100.0 * count / len(vector))
            )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60))
    def test_bounds_and_append_monotonicity(self, vector):
        rate = _rate(vector)
        assert 0.0 <= rate <= 100.0
        if rate < 100.0:
            assert _rate(vector + [1]) >= rate


class TestRounding:
    def test_half_even(self):
        assert round_half_even(2.675) == 2.68
        assert round_half_even(2.665) == 2.66
        assert round_half_even(0.125) == 0.12
        assert round_half_even(0.135) == 0.14

    def test_cell_rounding(self):
        sample_counts = {s: 3 if s is IDENTITY else 0 for s in SUBCATEGORY_ORDER}
        hallucinated = {s: 1 if s is IDENTITY else 0 for s in SUBCATEGORY_ORDER}
        assert _row(sample_counts, hallucinated)["subcategory_hr"][IDENTITY.value] == 33.33


class TestPublishedArithmetic:
    @pytest.mark.parametrize("model", sorted(PUBLISHED_ROWS))
    def test_weighted_averages_reproduce_published_row(self, model):
        rates, expected_categories, expected_overall = PUBLISHED_ROWS[model]
        rate_map = dict(zip(SUBCATEGORY_ORDER, rates))
        per_category, overall = category_averages(rate_map, SAMPLE_COUNTS)
        for category, expected in zip(Category, expected_categories):
            assert per_category[category] == pytest.approx(expected, abs=0.01)
        assert overall == pytest.approx(expected_overall, abs=0.01)

    def test_render_report_with_published_cells(self):
        # Counts built from the published rates round back to every one of
        # them, and both their exact averages and the rendered (rounded)
        # ones stay within 0.01 of the published ones.
        for model, (rates, expected_categories, expected_overall) in PUBLISHED_ROWS.items():
            hallucinated = _hallucinated(rates)
            row = _row(SAMPLE_COUNTS, hallucinated, model)
            assert list(row["subcategory_hr"].values()) == list(rates)
            exact_rates = {s: 100.0 * hallucinated[s] / SAMPLE_COUNTS[s] for s in SUBCATEGORY_ORDER}
            per_category, overall = category_averages(exact_rates, SAMPLE_COUNTS)
            for category, expected in zip(Category, expected_categories):
                assert per_category[category] == pytest.approx(expected, abs=0.01)
                assert row["category_avg"][category.value] == pytest.approx(expected, abs=0.01)
            assert overall == pytest.approx(expected_overall, abs=0.01)
            assert row["overall"] == pytest.approx(expected_overall, abs=0.01)

    def test_total_sample_count(self):
        assert sum(SAMPLE_COUNTS.values()) == 8883


class TestRenderReport:
    def test_all_zero(self):
        row = _row(SAMPLE_COUNTS, _hallucinated(0.0))
        assert row["overall"] == 0.0
        assert all(v == 0.0 for v in row["category_avg"].values())

    def test_equal_counts_degenerate_to_simple_mean(self):
        sample_counts = {s: 100 for s in SUBCATEGORY_ORDER}
        row = _row(sample_counts, _hallucinated((10, 20, 30, 40, 50, 60, 70, 80), sample_counts))
        assert row["category_avg"][Category.MAPPING.value] == pytest.approx(15.0)
        assert row["overall"] == pytest.approx(45.0)
        assert row["overall"] == pytest.approx(row["overall_uniform"])

    def test_rows_sorted_by_overall_ascending(self):
        report = render_report(
            SAMPLE_COUNTS, {"worse": _hallucinated(50.0), "better": _hallucinated(5.0)}
        )
        assert [r["model_id"] for r in report["rows"]] == ["better", "worse"]

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            render_report(SAMPLE_COUNTS, {})

    def test_renderings_deterministic(self):
        models = {"x": _hallucinated(10.0), "y": _hallucinated(10.0), "z": _hallucinated(3.0)}
        a = render_report(SAMPLE_COUNTS, models)
        b = render_report(SAMPLE_COUNTS, dict(reversed(models.items())))
        assert render_markdown(a) == render_markdown(b)
        assert render_csv(a) == render_csv(b)
        assert render_json(a) == render_json(b)

    def test_markdown_shape(self):
        text = render_markdown(render_report(SAMPLE_COUNTS, {"m": _hallucinated(10.0)}))
        assert "| Model |" in text
        assert "Mapping Avg" in text
        assert "Average (uniform)" in text

    def test_json_contains_both_weightings(self):
        payload = json.loads(render_json(render_report(SAMPLE_COUNTS, {"m": _hallucinated(10.0)})))
        row = payload["rows"][0]
        assert "category_avg" in row and "category_avg_uniform" in row


class TestEvaluateModel:
    def _benchmark_and_profiles(self):
        # two models build the benchmark; evaluate the first one
        build_profiles = [
            _profile("A", "m1", [IDENTITY] * 3),
            _profile("A", "m2", [IDENTITY] * 2),
            _profile("B", "m1", [DEVIATION] * 4),
            _profile("B", "m2", [DEVIATION] * 3),
        ]
        manifest = build_bench(build_profiles, threshold_k=2)
        eval_profiles = [
            _profile("A", "m1", [IDENTITY] * 3),
            _profile("B", "m1", [STRUCTURE]),  # off-target on B
        ]
        return manifest, eval_profiles

    def test_target_mode_cells(self):
        manifest, profiles = self._benchmark_and_profiles()
        hallucinated, crosshits = evaluate_model(manifest, profiles)
        assert list(hallucinated) == list(crosshits) == ["m1"]
        assert hallucinated["m1"][IDENTITY] == 2  # A x {m1, m2}
        assert manifest.sample_count(IDENTITY) == 2
        assert hallucinated["m1"][DEVIATION] == 0  # m1 missed the target
        assert manifest.sample_count(DEVIATION) == 2
        # ... but the off-target structure hit is surfaced in the cross-hit table
        assert crosshits["m1"][DEVIATION][STRUCTURE] == 2

    def test_any_mode_counts_any_hallucination(self):
        manifest, profiles = self._benchmark_and_profiles()
        hallucinated, _ = evaluate_model(manifest, profiles, indicator_mode="any")
        assert hallucinated["m1"][DEVIATION] == 2

    def test_missing_profile_rejected(self):
        manifest, profiles = self._benchmark_and_profiles()
        with pytest.raises(ReportError, match="no profiles"):
            evaluate_model(manifest, profiles[:1])

    def test_empty_benchmark_rejected(self):
        manifest = build_bench([], threshold_k=2)
        with pytest.raises(ReportError, match="empty"):
            evaluate_model(manifest, [_profile("A", "m1", [])])

    def test_every_model_scored_in_one_call(self):
        manifest, profiles = self._benchmark_and_profiles()
        m2 = [_profile("B", "m2", [DEVIATION]), _profile("A", "m2", [])]
        hallucinated, crosshits = evaluate_model(manifest, m2 + profiles)
        assert list(hallucinated) == list(crosshits) == ["m1", "m2"]
        assert (hallucinated["m1"][IDENTITY], hallucinated["m1"][DEVIATION]) == (2, 0)
        assert (hallucinated["m2"][IDENTITY], hallucinated["m2"][DEVIATION]) == (0, 2)
        assert crosshits["m2"][DEVIATION] == {}

    def test_which_report_error_wins(self):
        manifest, profiles = self._benchmark_and_profiles()
        empty = build_bench([], threshold_k=2)
        with pytest.raises(ReportError, match="^no models to report$"):
            evaluate_model(empty, [])
        with pytest.raises(ReportError, match="^benchmark manifest is empty$"):
            evaluate_model(empty, [_profile("A", "m2", [])])
        # both models lack task B; the first by id is named
        with pytest.raises(ReportError, match=r"^model m1 has no profiles .*\['B'\]$"):
            evaluate_model(manifest, [_profile("A", "m2", []), profiles[0]])


class TestRenderCrosshitsMarkdown:
    def test_one_table_per_model_with_off_target_hits(self):
        crosshits_by_model = {
            "model-b": {
                "identity": {"logic_deviation": 2, "data_compliance": 1},
                "logic_deviation": {},
            },
            "model-a": {"structure_access": {"identity": 3}},
            "model-clean": {"identity": {}},
        }
        assert render_crosshits_markdown(crosshits_by_model) == (
            "\n## Cross-hit tables\n"
            "\n### Off-target hallucinations: model-a\n\n"
            "| Target | Observed | Samples |\n|---|---|---|\n"
            "| structure_access | identity | 3 |\n"
            "\n### Off-target hallucinations: model-b\n\n"
            "| Target | Observed | Samples |\n|---|---|---|\n"
            "| identity | data_compliance | 1 |\n"
            "| identity | logic_deviation | 2 |\n"
        )

    def test_empty_without_off_target_hits(self):
        assert render_crosshits_markdown({"model-clean": {"identity": {}}}) == ""


_MARKDOWN_UNESCAPE = {"\\\\": "\\", "\\|": "|", "\\r": "\r", "\\n": "\n"}


def _cells(line: str) -> list[str]:
    """A markdown table row's cells, unescaped; an escaped `|` does not
    split a cell."""
    cells, cell = [], ""
    for token in re.findall(r"\\.|\||[^|\\]+", line):
        if token == "|":
            cells.append(cell.strip())
            cell = ""
        else:
            cell += _MARKDOWN_UNESCAPE.get(token, token)
    return cells[1:]


def test_report_md_survives_any_model_id():
    # Every row of each table has the header's column count, and each id
    # reads back from its cell or heading.
    ids = ["gpt|4\nx", "a|b", "cr\rlf", "back\\|slash", "trail\\", "plain"]
    report = render_report(SAMPLE_COUNTS, {m: _hallucinated(10.0) for m in ids})
    crosshits = {m: {"identity": {"logic_deviation": 1}} for m in ids}
    markdown = render_markdown(report) + render_crosshits_markdown(crosshits)
    blocks = [block.splitlines() for block in markdown.strip("\n").split("\n\n")]
    tables = [[_cells(line) for line in block] for block in blocks if block[0].startswith("|")]
    assert len(tables) == 1 + len(ids)
    for header, *rows in tables:
        assert all(len(row) == len(header) for row in rows)
    assert sorted(row[0] for row in tables[0][2:]) == sorted(ids)
    headings = [block[0].partition(": ")[2] for block in blocks if block[0].startswith("###")]
    assert sorted(_cells(f"| {heading} |")[0] for heading in headings) == sorted(ids)


# report.md and report.csv as independent byte oracles, rendering the exact
# rows `fold_reference.report_rows` computes from the drawn counts.
_REF_SHORT = {
    Subcategory.DATA_COMPLIANCE: "DC",
    Subcategory.STRUCTURE_ACCESS: "SA",
    Subcategory.IDENTITY: "ID",
    Subcategory.EXTERNAL_SOURCE: "ES",
    Subcategory.PHYSICAL_CONSTRAINT: "PC",
    Subcategory.COMPUTATIONAL_BOUNDARY: "CB",
    Subcategory.LOGIC_DEVIATION: "LD",
    Subcategory.LOGIC_BREAKDOWN: "LB",
}


def _ref_fmt(value: float) -> str:
    return f"{ref.round2(value):.2f}"


def _ref_escape(model_id: str) -> str:
    for char, escape in (("\\", "\\\\"), ("|", "\\|"), ("\r", "\\r"), ("\n", "\\n")):
        model_id = model_id.replace(char, escape)
    return model_id


def _ref_render_markdown(sample_counts, rows) -> str:
    out = io.StringIO()
    header = ["Model"]
    for category in CATEGORY_ORDER:
        for subcategory in subcategories_of(category):
            header.append(_REF_SHORT[subcategory])
        header.append(f"{category.value.title()} Avg")
    header += ["Average", "Average (uniform)"]
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + "---|" * len(header) + "\n")
    for row in rows:
        fields = [_ref_escape(row["model"])]
        for category in CATEGORY_ORDER:
            for subcategory in subcategories_of(category):
                fields.append(_ref_fmt(row["rate"][subcategory]))
            fields.append(_ref_fmt(row["category"][category]))
        fields.append(_ref_fmt(row["overall"]))
        fields.append(_ref_fmt(row["overall_uniform"]))
        out.write("| " + " | ".join(fields) + " |\n")
    counts = ", ".join(f"{_REF_SHORT[s]}={sample_counts[s]}" for s in SUBCATEGORY_ORDER)
    out.write(f"\nSample counts: {counts}. Category and Average columns are "
              f"sample-weighted; the uniform column is a simple mean.\n")
    return out.getvalue()


def _ref_csv_line(fields) -> str:
    # Under a "\r\n" terminator csv.writer quotes a field holding CR or LF
    # on every version (under "\n", a CR only from 3.13 on).
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(fields)
    return out.getvalue().removesuffix("\r\n") + "\n"


def _ref_render_csv(rows) -> str:
    header = ["model"]
    header += [s.value for s in SUBCATEGORY_ORDER]
    header += [f"{c.value}_avg" for c in CATEGORY_ORDER]
    header += ["overall", "overall_uniform"]
    lines = [_ref_csv_line(header)]
    for row in rows:
        record = [row["model"]]
        record += [_ref_fmt(row["rate"][s]) for s in SUBCATEGORY_ORDER]
        record += [_ref_fmt(row["category"][c]) for c in CATEGORY_ORDER]
        record += [_ref_fmt(row["overall"]), _ref_fmt(row["overall_uniform"])]
        lines.append(_ref_csv_line(record))
    return "".join(lines)


# Totals whose rates land on half-even ties at two decimals (800: k/8,
# 4000: k/40) or on none, plus the empty subcategory.
_TOTALS = st.sampled_from([0, 1, 3, 7, 100, 800, 941, 2443, 4000])


@st.composite
def _counts(draw):
    """Sample counts per subcategory and hallucinated counts per model."""
    totals = {s: draw(_TOTALS) for s in SUBCATEGORY_ORDER}
    models = draw(st.lists(st.text("abcxyz-|\\\r\n,\"", min_size=1, max_size=6),
                           min_size=1, max_size=4, unique=True))
    return totals, {
        model: {s: draw(st.integers(0, totals[s])) for s in SUBCATEGORY_ORDER} for model in models
    }


class TestRendererOracles:
    @pytest.mark.parametrize("model_id, field", [
        ("cr\rlf", '"cr\rlf"'), ("lf\nx", '"lf\nx"'), ('q"u,o', '"q""u,o"'), ("plain", "plain"),
    ], ids=["cr", "lf", "quote-comma", "plain"])
    def test_report_csv_reads_back_each_model_id(self, model_id, field):
        # csv.writer(lineterminator="\n") wrote `cr\rlf` unquoted under 3.11
        # and 3.12, and csv.reader read that line back as two rows.
        report = render_report({s: 1 for s in SUBCATEGORY_ORDER},
                               {model_id: {s: 0 for s in SUBCATEGORY_ORDER}})
        text = render_csv(report)
        header = (
            "model,data_compliance,structure_access,identity,external_source,"
            "physical_constraint,computational_boundary,logic_deviation,logic_breakdown,"
            "mapping_avg,naming_avg,resource_avg,logic_avg,overall,overall_uniform\n"
        )
        assert text.encode() == (header + field + ",0.00" * 14 + "\n").encode()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [row[0] for row in rows] == ["model", model_id]
        assert all(len(row) == 15 for row in rows)

    @settings(max_examples=300, deadline=None)
    @given(_counts())
    def test_renderings_match_reference_bytes(self, counts):
        sample_counts, hallucinated_by_model = counts
        report = render_report(sample_counts, hallucinated_by_model)
        rows = ref.report_rows(sample_counts, hallucinated_by_model)
        assert render_markdown(report) == _ref_render_markdown(sample_counts, rows)
        assert render_csv(report) == _ref_render_csv(rows)
        assert render_json(report) == (
            json.dumps(ref.report_payload(sample_counts, rows), sort_keys=True, indent=2) + "\n"
        )
