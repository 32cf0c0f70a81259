"""Hallucination Rate computation and leaderboard-style report rendering.

A sample is one contributing model's profile of a benchmark entry's task;
`BenchmarkManifest.sample_count` is the one count of a subcategory's
samples. `evaluate_model` scores every model's profiles in one call, and
`render_report` turns the sample counts and its hallucinated counts into
report.json's payload, the one form that evaluation.json embeds and
report.md and report.csv render. Category and overall averages are
weighted by sample counts; this weighting was verified arithmetically
against published results rather than assumed. Uniform (simple-mean)
columns are emitted alongside. Rounding is half-even at two decimals.
"""

from __future__ import annotations

import json
from collections import defaultdict
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Iterable, Mapping, Sequence

from .aggregate import SampleProfile
from .bench import BenchmarkManifest
from .errors import ReportError
from .taxonomy import (
    CATEGORY_ORDER,
    SUBCATEGORY_ORDER,
    Category,
    Subcategory,
    subcategories_of,
)

# evaluate_model's indicator modes: the target subcategory's indicator, or
# any hallucination label.
INDICATOR_MODES = ("target", "any")

_SUBCATEGORY_SHORT = {
    Subcategory.DATA_COMPLIANCE: "DC",
    Subcategory.STRUCTURE_ACCESS: "SA",
    Subcategory.IDENTITY: "ID",
    Subcategory.EXTERNAL_SOURCE: "ES",
    Subcategory.PHYSICAL_CONSTRAINT: "PC",
    Subcategory.COMPUTATIONAL_BOUNDARY: "CB",
    Subcategory.LOGIC_DEVIATION: "LD",
    Subcategory.LOGIC_BREAKDOWN: "LB",
}


def round_half_even(value: float, digits: int = 2) -> float:
    quantum = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_EVEN))


def category_averages(
    subcategory_rates: Mapping[Subcategory, float],
    sample_counts: Mapping[Subcategory, int],
) -> tuple[dict[Category, float], float]:
    """Sample-weighted per-category averages plus the overall average over
    all eight subcategories, 0 where the samples are none; full precision."""

    def average(subs: Sequence[Subcategory]) -> float:
        total = sum(sample_counts[s] for s in subs)
        weighted = sum(subcategory_rates[s] * sample_counts[s] for s in subs)
        return weighted / total if total else 0.0
    return {c: average(subcategories_of(c)) for c in CATEGORY_ORDER}, average(SUBCATEGORY_ORDER)


def evaluate_model(
    manifest: BenchmarkManifest,
    profiles: Iterable[SampleProfile],
    indicator_mode: str = "target",
) -> tuple[dict[str, dict[Subcategory, int]], dict[str, dict[str, dict[str, int]]]]:
    """Score every model's profiles against a benchmark manifest. It keeps
    its one-model name because `perfbench/tracing.py` wraps it by name.

    Each sample of an entry (`BenchmarkEntry.sample_count`: one per
    contributing model) carries the indicator of the model's profile of
    the entry's task. In "target" mode the indicator is 1 iff the profile
    exhibits at least one label of the entry's subcategory; degeneration
    verdicts and syntax failures are logic-breakdown labels, so they hit a
    LOGIC_BREAKDOWN target. In "any" mode it is 1 iff the profile carries
    any hallucination label. Returns, keyed by model, the hallucinated
    samples of each of the eight subcategories, in canonical order, and
    the cross-hit table: off-target subcategories observed on a target's
    samples, surfaced separately instead of being counted for the target.
    The table is evaluation.json's: keyed by subcategory value, every
    target present, observed subcategories sorted and zero counts left
    out. ReportError names no profiles, else an empty manifest, else the
    first model by id without a profile of a benchmark task.
    `pipeline.load_profiles` refuses a second profile of one (task, model)."""
    by_model: dict[str, dict[str, SampleProfile]] = defaultdict(dict)
    for profile in profiles:
        by_model[profile.model_id][profile.task_id] = profile
    if not by_model:
        raise ReportError("no models to report")
    if indicator_mode not in INDICATOR_MODES:
        raise ReportError(f"unknown indicator mode {indicator_mode!r}")
    entries = manifest.entries()
    if not entries:
        raise ReportError("benchmark manifest is empty")

    hallucinated: dict[str, dict[Subcategory, int]] = {}
    crosshits: dict[str, dict[str, dict[str, int]]] = {}
    for model_id, by_task in sorted(by_model.items()):
        missing = sorted({e.task_id for e in entries if e.task_id not in by_task})
        if missing:
            raise ReportError(
                f"model {model_id} has no profiles for benchmark tasks: {missing[:10]}"
                + ("..." if len(missing) > 10 else "")
            )
        hallucinated[model_id], crosshits[model_id] = {}, {}
        for subcategory in SUBCATEGORY_ORDER:
            hits = 0
            off_target: dict[str, int] = defaultdict(int)
            for entry in manifest.entries_by_subcategory.get(subcategory, ()):
                profile = by_task[entry.task_id]
                observed = profile.subcategories()
                hit = bool(profile.labels) if indicator_mode == "any" else subcategory in observed
                hits += hit * entry.sample_count
                for other in observed - {subcategory}:
                    off_target[other.value] += entry.sample_count
            hallucinated[model_id][subcategory] = hits
            crosshits[model_id][subcategory.value] = {
                o: n for o, n in sorted(off_target.items()) if n
            }
    return hallucinated, crosshits


def render_report(
    sample_counts: Mapping[Subcategory, int],
    hallucinated_by_model: Mapping[str, Mapping[Subcategory, int]],
) -> dict:
    """report.json's payload, from each subcategory's manifest samples
    (`BenchmarkManifest.sample_count`) and each model's hallucinated
    samples (`evaluate_model`'s first result). A subcategory's HR is the
    percentage of its samples that are hallucinated, 0 when it has none.
    Each row holds the eight HRs, the sample-weighted category and overall
    averages and their uniform counterparts, rounded half-even to two
    decimals, plus the hallucinated counts. Rows are ordered by the exact
    weighted overall average ascending (best model first), then model id."""
    if not hallucinated_by_model:
        raise ReportError("no models to report")
    rows = []
    for model_id, hallucinated in hallucinated_by_model.items():
        rates = {
            s: 100.0 * hallucinated[s] / sample_counts[s] if sample_counts[s] else 0.0
            for s in SUBCATEGORY_ORDER
        }
        weighted, overall = category_averages(rates, sample_counts)
        uniform = {c: sum(rates[s] for s in subcategories_of(c)) / 2 for c in CATEGORY_ORDER}
        row = {
            "model_id": model_id,
            "subcategory_hr": {s.value: round_half_even(rates[s]) for s in SUBCATEGORY_ORDER},
            "hallucinated_samples": {s.value: hallucinated[s] for s in SUBCATEGORY_ORDER},
            "category_avg": {c.value: round_half_even(weighted[c]) for c in CATEGORY_ORDER},
            "overall": round_half_even(overall),
            "category_avg_uniform": {c.value: round_half_even(uniform[c]) for c in CATEGORY_ORDER},
            "overall_uniform": round_half_even(sum(rates.values()) / len(rates)),
        }
        rows.append((overall, model_id, row))
    rows.sort(key=lambda item: item[:2])
    return {
        "sample_counts": {s.value: sample_counts[s] for s in SUBCATEGORY_ORDER},
        "rows": [row for _, _, row in rows],
    }


# report.csv's value columns, in order.
CSV_COLUMNS = (
    *(s.value for s in SUBCATEGORY_ORDER),
    *(f"{c.value}_avg" for c in CATEGORY_ORDER),
    "overall",
    "overall_uniform",
)


def _columns(row: dict) -> dict[str, str]:
    """A report.json row's values keyed by `CSV_COLUMNS`, formatted."""
    values = {
        **row["subcategory_hr"],
        **{f"{category}_avg": value for category, value in row["category_avg"].items()},
        "overall": row["overall"],
        "overall_uniform": row["overall_uniform"],
    }
    return {column: f"{values[column]:.2f}" for column in CSV_COLUMNS}


def _markdown_columns() -> dict[str, str]:
    """report.md's header for each report.csv value column, in report.md
    order: each category's subcategories, then its average."""
    columns = {}
    for category in CATEGORY_ORDER:
        for subcategory in subcategories_of(category):
            columns[subcategory.value] = _SUBCATEGORY_SHORT[subcategory]
        columns[f"{category.value}_avg"] = f"{category.value.title()} Avg"
    return {**columns, "overall": "Average", "overall_uniform": "Average (uniform)"}


def _markdown_text(text: str) -> str:
    """A model id on one report.md line that adds no table column: `\\` and
    `|` escaped with a backslash, CR and LF written as `\\r` and `\\n`."""
    return text.translate(str.maketrans({"\\": "\\\\", "|": "\\|", "\r": "\\r", "\n": "\\n"}))


def render_markdown(report: dict) -> str:
    """Leaderboard markdown of `render_report`'s payload: per-subcategory
    HRs, weighted category averages, and both weighted and uniform overall
    columns."""
    columns = _markdown_columns()
    header = ["Model", *columns.values()]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in report["rows"]:
        values = _columns(row)
        fields = [_markdown_text(row["model_id"])] + [values[column] for column in columns]
        lines.append("| " + " | ".join(fields) + " |")
    counts = ", ".join(
        f"{_SUBCATEGORY_SHORT[s]}={report['sample_counts'][s.value]}" for s in SUBCATEGORY_ORDER
    )
    lines.append(f"\nSample counts: {counts}. Category and Average columns are "
                 "sample-weighted; the uniform column is a simple mean.")
    return "\n".join(lines) + "\n"


def render_csv(report: dict) -> str:
    """`render_report`'s payload as report.csv: one row per model. A model
    id holding `,`, `"`, CR or LF is quoted, each `"` doubled: csv.writer
    under a "\\n" terminator quotes a CR only from CPython 3.13 on."""
    lines = [",".join(["model", *CSV_COLUMNS])]
    for row in report["rows"]:
        model_id = row["model_id"]
        if any(char in model_id for char in ',"\r\n'):
            model_id = '"' + model_id.replace('"', '""') + '"'
        lines.append(",".join([model_id, *_columns(row).values()]))
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    """`render_report`'s payload as report.json."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_crosshits_markdown(
    crosshits_by_model: Mapping[str, Mapping[str, Mapping[str, int]]]
) -> str:
    """Markdown section of off-target hallucinations, one table per model
    that has any, from `evaluate_model` cross-hit tables keyed by model.
    Empty when no model hallucinated off-target."""
    sections = []
    for model_id, crosshits in sorted(crosshits_by_model.items()):
        rows = [
            f"| {target} | {observed} | {count} |"
            for target, row in sorted(crosshits.items())
            for observed, count in sorted(row.items())
        ]
        if rows:
            sections.append(
                f"\n### Off-target hallucinations: {_markdown_text(model_id)}\n\n"
                "| Target | Observed | Samples |\n|---|---|---|\n" + "\n".join(rows) + "\n"
            )
    if not sections:
        return ""
    return "\n## Cross-hit tables\n" + "".join(sections)
