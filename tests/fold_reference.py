"""A brute-force reading of the CodeHalu fold, from states.jsonl rows to
the payloads of profiles.jsonl, frequencies.json, benchmark.jsonl,
evaluation.json, report.json and cooccurrence.json.

It imports only the taxonomy enums from the package, so the package's
folds are checked against code that shares none of theirs. Floats are
computed in the order the definitions give them: a rate is
100 * hallucinated / samples, and a weighted average adds rate * samples
over the subcategories in canonical order before it divides. The
two-decimal renderings then agree to the byte, ties included.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal

from haluscope.taxonomy import Category, ClassKind, Subcategory

SUBCATEGORIES = list(Subcategory)
CATEGORIES = list(Category)
CATEGORY_OF = {
    Subcategory.DATA_COMPLIANCE: Category.MAPPING,
    Subcategory.STRUCTURE_ACCESS: Category.MAPPING,
    Subcategory.IDENTITY: Category.NAMING,
    Subcategory.EXTERNAL_SOURCE: Category.NAMING,
    Subcategory.PHYSICAL_CONSTRAINT: Category.RESOURCE,
    Subcategory.COMPUTATIONAL_BOUNDARY: Category.RESOURCE,
    Subcategory.LOGIC_DEVIATION: Category.LOGIC,
    Subcategory.LOGIC_BREAKDOWN: Category.LOGIC,
}
MEMBERS = {c: [s for s in SUBCATEGORIES if CATEGORY_OF[s] is c] for c in CATEGORIES}
LABEL_KINDS = (ClassKind.LABELED.value, ClassKind.UNMAPPED.value)


def round2(value: float) -> float:
    """Half-even rounding to two decimals of the value's shortest repr."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def profiles(state_rows: list[dict]) -> list[dict]:
    """profiles.jsonl: one row per (task, model), sorted. A profile keeps
    its labeled and unmapped classifications in file order, counts its
    pass and harness-fault rows, takes the largest test_count and is
    degenerate when a row has no test index."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in state_rows:
        groups.setdefault((row["task_id"], row["model_id"]), []).append(row)
    result = []
    for task, model in sorted(groups):
        group = groups[task, model]
        kinds = [row["classification"]["kind"] for row in group]
        result.append({
            "task_id": task,
            "model_id": model,
            "labels": [row["classification"] for row in group
                       if row["classification"]["kind"] in LABEL_KINDS],
            "pass_count": kinds.count(ClassKind.PASS.value),
            "fault_count": kinds.count(ClassKind.HARNESS_FAULT.value),
            "test_count": max(row["test_count"] for row in group),
            "degenerate": any(row["test_index"] is None for row in group),
        })
    return result


def _observed(profile: dict) -> set[str]:
    return {label["subcategory"] for label in profile["labels"] if "subcategory" in label}


def _ranked(keys: list[str]) -> list[dict]:
    counts: dict[str, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    total = len(keys)
    ordered = sorted(counts, key=lambda key: (-counts[key], key))
    return [{"key": key, "count": counts[key], "share": counts[key] / total} for key in ordered]


def frequencies(profile_rows: list[dict]) -> dict:
    """frequencies.json: every label counted by raw cause and by
    subcategory ("unmapped" for an unmapped label), most frequent first."""
    labels = [label for profile in profile_rows for label in profile["labels"]]
    return {
        "raw_cause": _ranked([label["cause"] for label in labels]),
        "subcategory": _ranked([label.get("subcategory", "unmapped") for label in labels]),
    }


def benchmark(profile_rows: list[dict], threshold_k: int, run_id: str) -> list[dict]:
    """benchmark.jsonl: the summary record, then each subcategory's
    entries. A task enters a subcategory when its labels of that
    subcategory, over all models, number more than `threshold_k`; its
    samples are the models that showed the subcategory on it."""
    entries = []
    categories = {c: [] for c in CATEGORIES}
    for sub in SUBCATEGORIES:
        frequency: dict[str, int] = {}
        models: dict[str, list[str]] = {}
        for profile in profile_rows:
            hits = [label for label in profile["labels"] if label.get("subcategory") == sub.value]
            if hits:
                task = profile["task_id"]
                frequency[task] = frequency.get(task, 0) + len(hits)
                models.setdefault(task, []).append(profile["model_id"])
        kept = sorted((task for task in frequency if frequency[task] > threshold_k),
                      key=lambda task: (-frequency[task], task))
        entries += [{
            "record_type": "entry",
            "task_id": task,
            "target_subcategory": sub.value,
            "observed_frequency": frequency[task],
            "contributing_models": sorted(models[task]),
        } for task in kept]
        categories[CATEGORY_OF[sub]].append({
            "subcategory": sub.value,
            "tasks": len(kept),
            "samples": sum(len(models[task]) for task in kept),
        })
    summary = {
        "record_type": "summary",
        "provenance": {"run_ids": [run_id], "threshold_k": threshold_k},
        "categories": [{
            "category": category.value,
            "tasks": sum(sub["tasks"] for sub in subs),
            "samples": sum(sub["samples"] for sub in subs),
            "subcategories": subs,
        } for category, subs in categories.items()],
    }
    return [summary] + entries


def sample_counts(entries: list[dict]) -> dict[Subcategory, int]:
    """Each subcategory's samples: its entries' contributing models."""
    counts = {sub: 0 for sub in SUBCATEGORIES}
    for entry in entries:
        counts[Subcategory(entry["target_subcategory"])] += len(entry["contributing_models"])
    return counts


def evaluate(profile: dict, entries: list[dict], mode: str) -> tuple[dict, dict]:
    """One model's hallucinated samples per subcategory and its cross-hit
    table. `profile` maps a task to the model's profile row. Each sample
    of an entry is hallucinated when the profile shows the entry's
    subcategory ("target") or any label ("any"); every other subcategory
    it shows is a cross-hit of each of the entry's samples."""
    hallucinated = {sub: 0 for sub in SUBCATEGORIES}
    crosshits: dict[str, dict[str, int]] = {sub.value: {} for sub in SUBCATEGORIES}
    for entry in entries:
        target = entry["target_subcategory"]
        samples = len(entry["contributing_models"])
        observed = _observed(profile[entry["task_id"]])
        hit = bool(profile[entry["task_id"]]["labels"]) if mode == "any" else target in observed
        if hit:
            hallucinated[Subcategory(target)] += samples
        row = crosshits[target]
        for other in sorted(observed - {target}):
            row[other] = row.get(other, 0) + samples
    return hallucinated, {target: dict(sorted(row.items())) for target, row in crosshits.items()}


def report_rows(counts: dict[Subcategory, int], hallucinated_by_model: dict) -> list[dict]:
    """One exact row per model, sorted by weighted overall average, then
    model id."""

    def weighted(rate: dict, subs: list[Subcategory]) -> float:
        samples = 0
        for sub in subs:
            samples += counts[sub]
        if samples == 0:
            return 0.0
        total = 0
        for sub in subs:
            total += rate[sub] * counts[sub]
        return total / samples

    def uniform(rate: dict, subs: list[Subcategory]) -> float:
        total = 0
        for sub in subs:
            total += rate[sub]
        return total / len(subs)

    rows = []
    for model, hallucinated in hallucinated_by_model.items():
        rate = {}
        for sub in SUBCATEGORIES:
            rate[sub] = 100.0 * hallucinated[sub] / counts[sub] if counts[sub] else 0.0
        rows.append({
            "model": model,
            "hallucinated": hallucinated,
            "rate": rate,
            "category": {c: weighted(rate, MEMBERS[c]) for c in CATEGORIES},
            "overall": weighted(rate, SUBCATEGORIES),
            "category_uniform": {c: uniform(rate, MEMBERS[c]) for c in CATEGORIES},
            "overall_uniform": uniform(rate, SUBCATEGORIES),
        })
    return sorted(rows, key=lambda row: (row["overall"], row["model"]))


def report_payload(counts: dict[Subcategory, int], rows: list[dict]) -> dict:
    """report.json: the sample counts and each exact row rounded."""
    return {
        "sample_counts": {sub.value: counts[sub] for sub in SUBCATEGORIES},
        "rows": [{
            "model_id": row["model"],
            "subcategory_hr": {sub.value: round2(row["rate"][sub]) for sub in SUBCATEGORIES},
            "hallucinated_samples": {sub.value: row["hallucinated"][sub] for sub in SUBCATEGORIES},
            "category_avg": {c.value: round2(row["category"][c]) for c in CATEGORIES},
            "overall": round2(row["overall"]),
            "category_avg_uniform": {
                c.value: round2(row["category_uniform"][c]) for c in CATEGORIES
            },
            "overall_uniform": round2(row["overall_uniform"]),
        } for row in rows],
    }


def cooccurrence(profile_rows: list[dict]) -> dict:
    """cooccurrence.json: per model, the number of tasks showing each pair
    of subcategories, and the share of hallucinating tasks that show two
    or more."""
    result = {}
    for model in sorted({profile["model_id"] for profile in profile_rows}):
        observed = [_observed(p) for p in profile_rows if p["model_id"] == model]
        counts = [[sum(1 for subs in observed if a.value in subs and b.value in subs)
                   for b in SUBCATEGORIES] for a in SUBCATEGORIES]
        hallucinating = sum(1 for subs in observed if subs)
        multi = sum(1 for subs in observed if len(subs) >= 2)
        rate = multi / hallucinating if hallucinating else 0.0
        result[model] = {
            "matrix": {"order": [sub.value for sub in SUBCATEGORIES], "counts": counts},
            "cross_task_rate": rate,
            "cross_task_rate_percent": f"{rate * 100:.2f}%",
        }
    return result
