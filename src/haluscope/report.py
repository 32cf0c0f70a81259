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
    category_of,
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
    """One (model, subcategory) cell. `rate_percent` is normally derived
    from the counts; cells built from already-published rates carry the
    rate verbatim so table arithmetic can be reproduced exactly."""

    model_id: str
    subcategory: Subcategory
    hallucinated_samples: int
    total_samples: int
    rate_percent: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.hallucinated_samples <= self.total_samples:
            raise ReportError(
                f"cell {self.model_id}/{self.subcategory.value}: "
                f"{self.hallucinated_samples} hallucinated of {self.total_samples}"
            )

    @property
    def hr_percent_exact(self) -> float:
        if self.rate_percent is not None:
            return self.rate_percent
        if self.total_samples == 0:
            return 0.0
        return 100.0 * self.hallucinated_samples / self.total_samples

    @property
    def hr_percent(self) -> float:
        return round_half_even(self.hr_percent_exact)

    @classmethod
    def from_published_rate(
        cls, model_id: str, subcategory: Subcategory, rate_percent: float, total_samples: int
    ) -> "HRCell":
        return cls(
            model_id=model_id,
            subcategory=subcategory,
            hallucinated_samples=round(rate_percent * total_samples / 100.0),
            total_samples=total_samples,
            rate_percent=rate_percent,
        )


def indicator(profile: SampleProfile, target: Subcategory) -> int:
    """1 iff the profile exhibits at least one label of the target
    subcategory. Degeneration verdicts and syntax failures both surface as
    logic-breakdown labels, so they satisfy a LOGIC_BREAKDOWN target."""
    return 1 if profile.has_subcategory(target) else 0


def any_indicator(profile: SampleProfile) -> int:
    """1 iff the profile exhibits any hallucination label at all."""
    return 1 if profile.labels else 0


def hallucination_rate(indicators: Sequence[int]) -> float:
    """Arithmetic mean of an indicator vector."""
    if not indicators:
        raise ReportError("hallucination rate over an empty sample set is undefined")
    return sum(indicators) / len(indicators)


@dataclass(frozen=True)
class HRRow:
    model_id: str
    cells: tuple[HRCell, ...]  # all 8, canonical order
    category_avgs: Mapping[Category, float]  # sample-weighted, full precision
    overall: float
    category_avgs_uniform: Mapping[Category, float]
    overall_uniform: float

    def cell(self, subcategory: Subcategory) -> HRCell:
        for cell in self.cells:
            if cell.subcategory is subcategory:
                return cell
        raise ReportError(f"row {self.model_id} missing {subcategory.value}")


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
                cells=tuple(model_cells[s] for s in SUBCATEGORY_ORDER),
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
) -> tuple[list[HRCell], dict[Subcategory, dict[Subcategory, int]]]:
    """Score one model's profiles against a benchmark manifest.

    Each manifest sample (a task weighted by its contributing-model count)
    contributes its task's indicator. Returns the eight HR cells plus the
    cross-hit table: off-target subcategories observed on a target's
    samples, which are surfaced separately instead of being folded into
    the target cell."""
    if indicator_mode not in INDICATOR_MODES:
        raise ReportError(f"unknown indicator mode {indicator_mode!r}")
    profiles = list(profiles)
    models = {p.model_id for p in profiles}
    if len(models) != 1:
        raise ReportError(f"evaluate_model expects one model, got {sorted(models)}")
    model_id = next(iter(models))
    by_task = {p.task_id: p for p in profiles}

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
    crosshits: dict[Subcategory, dict[Subcategory, int]] = {
        s: defaultdict(int) for s in SUBCATEGORY_ORDER
    }
    for subcategory in SUBCATEGORY_ORDER:
        hallucinated = 0
        total = 0
        for entry in manifest.entries_by_subcategory.get(subcategory, ()):
            profile = by_task[entry.task_id]
            weight = entry.sample_count
            if indicator_mode == "any":
                hit = any_indicator(profile)
            else:
                hit = indicator(profile, subcategory)
            hallucinated += hit * weight
            total += weight
            for observed in profile.subcategories():
                if observed is not subcategory:
                    crosshits[subcategory][observed] += weight
        cells.append(
            HRCell(
                model_id=model_id,
                subcategory=subcategory,
                hallucinated_samples=hallucinated,
                total_samples=total,
            )
        )
    return cells, {s: dict(v) for s, v in crosshits.items()}


def _fmt(value: float) -> str:
    return f"{round_half_even(value):.2f}"


def render_markdown(report: HRReport) -> str:
    """Leaderboard markdown: per-subcategory HRs, weighted category
    averages, and both weighted and uniform overall columns."""
    out = io.StringIO()
    header = ["Model"]
    for category in CATEGORY_ORDER:
        for subcategory in subcategories_of(category):
            header.append(_SUBCATEGORY_SHORT[subcategory])
        header.append(f"{category.value.title()} Avg")
    header += ["Average", "Average (uniform)"]
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + "---|" * len(header) + "\n")
    for row in report.rows:
        fields = [row.model_id]
        for category in CATEGORY_ORDER:
            for subcategory in subcategories_of(category):
                fields.append(_fmt(row.cell(subcategory).hr_percent_exact))
            fields.append(_fmt(row.category_avgs[category]))
        fields.append(_fmt(row.overall))
        fields.append(_fmt(row.overall_uniform))
        out.write("| " + " | ".join(fields) + " |\n")
    counts = ", ".join(
        f"{_SUBCATEGORY_SHORT[s]}={report.sample_counts[s]}" for s in SUBCATEGORY_ORDER
    )
    out.write(f"\nSample counts: {counts}. Category and Average columns are "
              f"sample-weighted; the uniform column is a simple mean.\n")
    return out.getvalue()


def render_csv(report: HRReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["model"]
    header += [s.value for s in SUBCATEGORY_ORDER]
    header += [f"{c.value}_avg" for c in CATEGORY_ORDER]
    header += ["overall", "overall_uniform"]
    writer.writerow(header)
    for row in report.rows:
        record = [row.model_id]
        record += [_fmt(row.cell(s).hr_percent_exact) for s in SUBCATEGORY_ORDER]
        record += [_fmt(row.category_avgs[c]) for c in CATEGORY_ORDER]
        record += [_fmt(row.overall), _fmt(row.overall_uniform)]
        writer.writerow(record)
    return out.getvalue()


def report_to_dict(report: HRReport) -> dict:
    return {
        "sample_counts": {s.value: report.sample_counts[s] for s in SUBCATEGORY_ORDER},
        "rows": [
            {
                "model_id": row.model_id,
                "subcategory_hr": {
                    s.value: row.cell(s).hr_percent for s in SUBCATEGORY_ORDER
                },
                "hallucinated_samples": {
                    s.value: row.cell(s).hallucinated_samples for s in SUBCATEGORY_ORDER
                },
                "category_avg": {
                    c.value: round_half_even(row.category_avgs[c]) for c in CATEGORY_ORDER
                },
                "overall": round_half_even(row.overall),
                "category_avg_uniform": {
                    c.value: round_half_even(row.category_avgs_uniform[c])
                    for c in CATEGORY_ORDER
                },
                "overall_uniform": round_half_even(row.overall_uniform),
            }
            for row in report.rows
        ],
    }


def render_json(report: HRReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def crosshits_to_dict(
    crosshits: Mapping[Subcategory, Mapping[Subcategory, int]]
) -> dict:
    return {
        target.value: {
            observed.value: count
            for observed, count in sorted(
                crosshits.get(target, {}).items(), key=lambda kv: kv[0].value
            )
            if count
        }
        for target in SUBCATEGORY_ORDER
    }


def render_crosshits_markdown(
    crosshits_by_model: Mapping[str, Mapping[str, Mapping[str, int]]]
) -> str:
    """Markdown section of off-target hallucinations, one table per model
    that has any, from `crosshits_to_dict` output keyed by model. Empty
    when no model hallucinated off-target."""
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
