"""Hallucination Rate computation and leaderboard-style report rendering.

Category and overall averages are weighted by subcategory sample counts;
this weighting was verified arithmetically against published results
rather than assumed. Uniform (simple-mean) columns are emitted alongside
for comparison. Rounding is half-even at two decimals, applied at render
time only.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass
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


@dataclass(frozen=True)
class HRCell:
    """One (model, subcategory) cell: `hallucinated_samples` of the
    subcategory's `total_samples` manifest samples carry the indicator.
    Its rate is derived from these two counts alone."""

    model_id: str
    subcategory: Subcategory
    hallucinated_samples: int
    total_samples: int

    def __post_init__(self) -> None:
        if not 0 <= self.hallucinated_samples <= self.total_samples:
            raise ReportError(
                f"cell {self.model_id}/{self.subcategory.value}: "
                f"{self.hallucinated_samples} hallucinated of {self.total_samples}"
            )

    @property
    def hr_percent_exact(self) -> float:
        if self.total_samples == 0:
            return 0.0
        return 100.0 * self.hallucinated_samples / self.total_samples


@dataclass(frozen=True)
class HRRow:
    model_id: str
    cells: Mapping[Subcategory, HRCell]  # all 8, canonical order
    category_avgs: Mapping[Category, float]  # sample-weighted, full precision
    overall: float
    category_avgs_uniform: Mapping[Category, float]
    overall_uniform: float


@dataclass(frozen=True)
class HRReport:
    rows: tuple[HRRow, ...]  # sorted by weighted overall average, ascending
    sample_counts: Mapping[Subcategory, int]


def weighted_average(rates: Sequence[float], weights: Sequence[int]) -> float:
    total = sum(weights)
    if total == 0:
        return 0.0
    return sum(r * w for r, w in zip(rates, weights)) / total


def category_averages(
    subcategory_rates: Mapping[Subcategory, float],
    sample_counts: Mapping[Subcategory, int],
) -> tuple[dict[Category, float], float]:
    """Sample-weighted per-category averages plus the overall average over
    all eight subcategories; full precision."""
    per_category: dict[Category, float] = {}
    for category in CATEGORY_ORDER:
        subs = subcategories_of(category)
        per_category[category] = weighted_average(
            [subcategory_rates[s] for s in subs], [sample_counts[s] for s in subs]
        )
    overall = weighted_average(
        [subcategory_rates[s] for s in SUBCATEGORY_ORDER],
        [sample_counts[s] for s in SUBCATEGORY_ORDER],
    )
    return per_category, overall


def render_report(cells: Iterable[HRCell]) -> HRReport:
    """Assemble cells into a report. Every model must supply all eight
    subcategories; rows are ordered by weighted overall average ascending
    (best model first)."""
    by_model: dict[str, dict[Subcategory, HRCell]] = defaultdict(dict)
    for cell in cells:
        if cell.subcategory in by_model[cell.model_id]:
            raise ReportError(
                f"duplicate cell for {cell.model_id}/{cell.subcategory.value}"
            )
        by_model[cell.model_id][cell.subcategory] = cell
    if not by_model:
        raise ReportError("no cells to report")

    sample_counts: dict[Subcategory, int] = {}
    rows = []
    for model_id, model_cells in sorted(by_model.items()):
        missing = [s.value for s in SUBCATEGORY_ORDER if s not in model_cells]
        if missing:
            raise ReportError(f"model {model_id} missing subcategories: {missing}")
        for subcategory in SUBCATEGORY_ORDER:
            count = model_cells[subcategory].total_samples
            prior = sample_counts.setdefault(subcategory, count)
            if prior != count:
                raise ReportError(
                    f"inconsistent sample count for {subcategory.value}: {prior} vs {count}"
                )
        rates = {s: model_cells[s].hr_percent_exact for s in SUBCATEGORY_ORDER}
        weighted, overall = category_averages(rates, sample_counts)
        uniform = {
            category: sum(rates[s] for s in subcategories_of(category)) / 2
            for category in CATEGORY_ORDER
        }
        overall_uniform = sum(rates.values()) / len(rates)
        rows.append(
            HRRow(
                model_id=model_id,
                cells={s: model_cells[s] for s in SUBCATEGORY_ORDER},
                category_avgs=weighted,
                overall=overall,
                category_avgs_uniform=uniform,
                overall_uniform=overall_uniform,
            )
        )
    rows.sort(key=lambda r: (r.overall, r.model_id))
    return HRReport(rows=tuple(rows), sample_counts=sample_counts)


def evaluate_model(
    manifest: BenchmarkManifest,
    profiles: Iterable[SampleProfile],
    indicator_mode: str = "target",
) -> tuple[list[HRCell], dict[str, dict[str, int]]]:
    """Score one model's profiles against a benchmark manifest.

    Each manifest sample (a task weighted by its contributing-model count)
    contributes its task's indicator. In "target" mode the indicator is 1
    iff the profile exhibits at least one label of the entry's
    subcategory; degeneration verdicts and syntax failures are
    logic-breakdown labels, so they hit a LOGIC_BREAKDOWN target. In "any"
    mode it is 1 iff the profile carries any hallucination label. Returns
    the eight HR cells plus the cross-hit table: off-target subcategories
    observed on a target's samples, which are surfaced separately instead
    of being folded into the target cell. The table is evaluation.json's:
    keyed by subcategory value, every target present, observed subcategories
    sorted and zero counts left out. The model must have exactly one
    profile per task: two profiles for one task raise ReportError rather
    than one of them being scored."""
    if indicator_mode not in INDICATOR_MODES:
        raise ReportError(f"unknown indicator mode {indicator_mode!r}")
    profiles = list(profiles)
    models = {p.model_id for p in profiles}
    if len(models) != 1:
        raise ReportError(f"evaluate_model expects one model, got {sorted(models)}")
    model_id = next(iter(models))
    by_task: dict[str, SampleProfile] = {}
    for profile in profiles:
        if by_task.setdefault(profile.task_id, profile) is not profile:
            raise ReportError(f"model {model_id} has two profiles for task {profile.task_id!r}")

    entries = manifest.entries()
    if not entries:
        raise ReportError("benchmark manifest is empty")
    missing = sorted(
        {e.task_id for e in entries if e.task_id not in by_task}
    )
    if missing:
        raise ReportError(
            f"model {model_id} has no profiles for benchmark tasks: {missing[:10]}"
            + ("..." if len(missing) > 10 else "")
        )

    cells = []
    crosshits: dict[str, dict[str, int]] = {}
    for subcategory in SUBCATEGORY_ORDER:
        hallucinated = 0
        total = 0
        off_target: dict[str, int] = defaultdict(int)
        for entry in manifest.entries_by_subcategory.get(subcategory, ()):
            profile = by_task[entry.task_id]
            observed = profile.subcategories()
            weight = entry.sample_count
            hit = bool(profile.labels) if indicator_mode == "any" else subcategory in observed
            hallucinated += hit * weight
            total += weight
            for other in observed - {subcategory}:
                off_target[other.value] += weight
        cells.append(
            HRCell(
                model_id=model_id,
                subcategory=subcategory,
                hallucinated_samples=hallucinated,
                total_samples=total,
            )
        )
        crosshits[subcategory.value] = {o: n for o, n in sorted(off_target.items()) if n}
    return cells, crosshits


# report.csv's value columns, in order.
CSV_COLUMNS = (
    *(s.value for s in SUBCATEGORY_ORDER),
    *(f"{c.value}_avg" for c in CATEGORY_ORDER),
    "overall",
    "overall_uniform",
)


def row_values(row: HRRow) -> dict[str, float]:
    """The row's exact values keyed by `CSV_COLUMNS`: the eight subcategory
    HRs, the four weighted category averages and both overall averages.
    Each renderer rounds these half-even to two decimals."""
    exact = [row.cells[s].hr_percent_exact for s in SUBCATEGORY_ORDER]
    exact += [row.category_avgs[c] for c in CATEGORY_ORDER]
    return dict(zip(CSV_COLUMNS, exact + [row.overall, row.overall_uniform], strict=True))


def _fmt(value: float) -> str:
    return f"{round_half_even(value):.2f}"


def _markdown_columns() -> dict[str, str]:
    """report.md's header for each report.csv value column, in report.md
    order: each category's subcategories, then its average."""
    columns = {}
    for category in CATEGORY_ORDER:
        for subcategory in subcategories_of(category):
            columns[subcategory.value] = _SUBCATEGORY_SHORT[subcategory]
        columns[f"{category.value}_avg"] = f"{category.value.title()} Avg"
    return {**columns, "overall": "Average", "overall_uniform": "Average (uniform)"}


def render_markdown(report: HRReport) -> str:
    """Leaderboard markdown: per-subcategory HRs, weighted category
    averages, and both weighted and uniform overall columns."""
    columns = _markdown_columns()
    header = ["Model", *columns.values()]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in report.rows:
        values = row_values(row)
        fields = [row.model_id] + [_fmt(values[column]) for column in columns]
        lines.append("| " + " | ".join(fields) + " |")
    counts = ", ".join(
        f"{_SUBCATEGORY_SHORT[s]}={report.sample_counts[s]}" for s in SUBCATEGORY_ORDER
    )
    lines.append(f"\nSample counts: {counts}. Category and Average columns are "
                 "sample-weighted; the uniform column is a simple mean.")
    return "\n".join(lines) + "\n"


def render_csv(report: HRReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model", *CSV_COLUMNS])
    for row in report.rows:
        writer.writerow([row.model_id, *map(_fmt, row_values(row).values())])
    return out.getvalue()


def report_to_dict(report: HRReport) -> dict:
    rows = []
    for row in report.rows:
        values = {column: round_half_even(value) for column, value in row_values(row).items()}
        rows.append({
            "model_id": row.model_id,
            "subcategory_hr": {s.value: values[s.value] for s in SUBCATEGORY_ORDER},
            "hallucinated_samples": {
                s.value: row.cells[s].hallucinated_samples for s in SUBCATEGORY_ORDER
            },
            "category_avg": {c.value: values[f"{c.value}_avg"] for c in CATEGORY_ORDER},
            "overall": values["overall"],
            "category_avg_uniform": {
                c.value: round_half_even(row.category_avgs_uniform[c]) for c in CATEGORY_ORDER
            },
            "overall_uniform": values["overall_uniform"],
        })
    return {
        "sample_counts": {s.value: report.sample_counts[s] for s in SUBCATEGORY_ORDER},
        "rows": rows,
    }


def render_json(report: HRReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


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
                f"\n### Off-target hallucinations: {model_id}\n\n"
                "| Target | Observed | Samples |\n|---|---|---|\n" + "\n".join(rows) + "\n"
            )
    if not sections:
        return ""
    return "\n## Cross-hit tables\n" + "".join(sections)
