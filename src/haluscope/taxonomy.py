"""Map every observable state (degeneration verdict or execution outcome)
to exactly one hallucination subcategory, a pass, an unmapped report, or a
harness fault.

The exception-name table is the harness's concrete realization of the
descriptive subcategory definitions; it ships as editable configuration so
users can re-bin exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .corpus import read_field, read_json_object, string
from .degeneration import DegenerationKind, DegenerationVerdict
from .errors import ConfigError
from .sandbox import ExecutionOutcome, Status


class Category(str, Enum):
    MAPPING = "mapping"
    NAMING = "naming"
    RESOURCE = "resource"
    LOGIC = "logic"


class Subcategory(str, Enum):
    DATA_COMPLIANCE = "data_compliance"
    STRUCTURE_ACCESS = "structure_access"
    IDENTITY = "identity"
    EXTERNAL_SOURCE = "external_source"
    PHYSICAL_CONSTRAINT = "physical_constraint"
    COMPUTATIONAL_BOUNDARY = "computational_boundary"
    LOGIC_DEVIATION = "logic_deviation"
    LOGIC_BREAKDOWN = "logic_breakdown"


# The definition orders are the presentation order: two subcategories per
# category, in category order.
SUBCATEGORY_ORDER: tuple[Subcategory, ...] = tuple(Subcategory)
CATEGORY_ORDER: tuple[Category, ...] = tuple(Category)

_CATEGORY_OF: dict[Subcategory, Category] = {
    Subcategory.DATA_COMPLIANCE: Category.MAPPING,
    Subcategory.STRUCTURE_ACCESS: Category.MAPPING,
    Subcategory.IDENTITY: Category.NAMING,
    Subcategory.EXTERNAL_SOURCE: Category.NAMING,
    Subcategory.PHYSICAL_CONSTRAINT: Category.RESOURCE,
    Subcategory.COMPUTATIONAL_BOUNDARY: Category.RESOURCE,
    Subcategory.LOGIC_DEVIATION: Category.LOGIC,
    Subcategory.LOGIC_BREAKDOWN: Category.LOGIC,
}


def category_of(subcategory: Subcategory) -> Category:
    return _CATEGORY_OF[subcategory]


def subcategories_of(category: Category) -> tuple[Subcategory, ...]:
    return tuple(s for s in SUBCATEGORY_ORDER if _CATEGORY_OF[s] is category)


class FallbackPolicy(str, Enum):
    UNMAPPED_REPORT = "unmapped_report"
    UNMAPPED_AS_LOGIC_DEVIATION = "unmapped_as_logic_deviation"


# ZeroDivisionError sits under data compliance as a value-rule violation;
# RecursionError is a physical (stack depth) constraint even though the
# sandbox reports it as a plain runtime failure.
DEFAULT_EXCEPTION_MAP: Mapping[str, Subcategory] = MappingProxyType(
    {
        "TypeError": Subcategory.DATA_COMPLIANCE,
        "ValueError": Subcategory.DATA_COMPLIANCE,
        "ZeroDivisionError": Subcategory.DATA_COMPLIANCE,
        "IndexError": Subcategory.STRUCTURE_ACCESS,
        "KeyError": Subcategory.STRUCTURE_ACCESS,
        "NameError": Subcategory.IDENTITY,
        "AttributeError": Subcategory.IDENTITY,
        "UnboundLocalError": Subcategory.IDENTITY,
        "ImportError": Subcategory.EXTERNAL_SOURCE,
        "ModuleNotFoundError": Subcategory.EXTERNAL_SOURCE,
        "MemoryError": Subcategory.PHYSICAL_CONSTRAINT,
        "RecursionError": Subcategory.PHYSICAL_CONSTRAINT,
        "OverflowError": Subcategory.COMPUTATIONAL_BOUNDARY,
        "FloatingPointError": Subcategory.COMPUTATIONAL_BOUNDARY,
    }
)


@dataclass(frozen=True)
class ClassificationTable:
    exception_map: Mapping[str, Subcategory] = field(
        default_factory=lambda: dict(DEFAULT_EXCEPTION_MAP)
    )
    fallback: FallbackPolicy = FallbackPolicy.UNMAPPED_REPORT


DEFAULT_TABLE = ClassificationTable()


class ClassKind(str, Enum):
    PASS = "pass"
    LABELED = "labeled"
    UNMAPPED = "unmapped"
    HARNESS_FAULT = "harness_fault"


@dataclass(frozen=True)
class Classification:
    """The single element of {pass} ∪ subcategories ∪ {unmapped, harness
    fault} an observation maps to. `cause` is the raw state: an exception
    name, "output_mismatch", a degeneration kind, or a fault message.
    `subcategory` is set exactly when `kind` is LABELED. The category is
    not stored: `category_of(subcategory)` gives it."""

    kind: ClassKind
    cause: str = ""
    subcategory: Subcategory | None = None


PASS_RESULT = Classification(kind=ClassKind.PASS, cause="pass")

CAUSE_OUTPUT_MISMATCH = "output_mismatch"
CAUSE_SYNTACTIC = "syntactic"


def _labeled(subcategory: Subcategory, cause: str) -> Classification:
    return Classification(kind=ClassKind.LABELED, cause=cause, subcategory=subcategory)


def classify(
    verdict: DegenerationVerdict,
    outcome: ExecutionOutcome | None,
    table: ClassificationTable = DEFAULT_TABLE,
) -> Classification:
    """Classify one observation.

    Degenerate completions are never executed, so `outcome` must be present
    exactly when verdict.kind is NONE. A syntax failure is filed under
    logic breakdown: the surfaced parse error is the shadow of a latent
    generation collapse, not a distinct failure mode."""
    if (outcome is None) != (verdict.kind is not DegenerationKind.NONE):
        raise ValueError("outcome must be present iff the completion was not degenerate")

    if verdict.kind is not DegenerationKind.NONE:
        return _labeled(Subcategory.LOGIC_BREAKDOWN, verdict.kind.value)

    assert outcome is not None
    status = outcome.status
    if status is Status.SANDBOX_ERROR:
        return Classification(
            kind=ClassKind.HARNESS_FAULT,
            cause=outcome.exception_message or "sandbox_error",
        )
    if status is Status.SYNTAX_FAILURE:
        return _labeled(Subcategory.LOGIC_BREAKDOWN, CAUSE_SYNTACTIC)
    if status is Status.MEMORY_LIMIT_EXCEEDED:
        return _labeled(Subcategory.PHYSICAL_CONSTRAINT, status.value)
    if status is Status.TIME_LIMIT_EXCEEDED:
        return _labeled(Subcategory.COMPUTATIONAL_BOUNDARY, status.value)
    if status is Status.RUNTIME_FAILURE:
        name = outcome.exception_name
        subcategory = table.exception_map.get(name)
        if subcategory is not None:
            return _labeled(subcategory, name)
        if table.fallback is FallbackPolicy.UNMAPPED_AS_LOGIC_DEVIATION:
            return _labeled(Subcategory.LOGIC_DEVIATION, name)
        return Classification(kind=ClassKind.UNMAPPED, cause=name)
    if status is Status.WRONG_OUTPUT:
        return _labeled(Subcategory.LOGIC_DEVIATION, CAUSE_OUTPUT_MISMATCH)
    return PASS_RESULT


def load_table(path: str | Path) -> ClassificationTable:
    """Read a classification table from JSON:
    {"exception_map": {"SomeError": "subcategory"}, "fallback": policy}."""
    obj = read_json_object(path, ConfigError)
    if unknown := [key for key in obj if key not in ("exception_map", "fallback")]:
        raise ConfigError(f"{path}: unknown classification table keys: "
                          f"{', '.join(map(repr, unknown))}")
    if not isinstance(obj.get("exception_map"), dict):
        raise ConfigError(f"{path}: expected an object with an 'exception_map' mapping")
    exception_map: dict[str, Subcategory] = {}
    for name, value in obj["exception_map"].items():
        try:
            exception_map[name] = Subcategory(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: unknown subcategory {value!r} for {name!r}") from exc
    fallback_raw = obj.get("fallback", FallbackPolicy.UNMAPPED_REPORT.value)
    try:
        fallback = FallbackPolicy(fallback_raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: unknown fallback policy {fallback_raw!r}") from exc
    return ClassificationTable(exception_map=exception_map, fallback=fallback)


def classification_to_dict(classification: Classification) -> dict:
    obj: dict = {"kind": classification.kind.value, "cause": classification.cause}
    if classification.subcategory is not None:
        obj["category"] = category_of(classification.subcategory).value
        obj["subcategory"] = classification.subcategory.value
    return obj


def classification_from_dict(obj: dict) -> Classification:
    """The inverse of `classification_to_dict`. A labeled row whose stored
    "category" is not its subcategory's raises ValueError, which
    `read_jsonl` reports as an IngestionError naming the path and line."""
    kind = read_field(obj, "kind", ClassKind)
    cause = read_field(obj, "cause", string, "")
    if kind is ClassKind.LABELED:
        subcategory = read_field(obj, "subcategory", Subcategory)
        category = read_field(obj, "category", Category)
        if category is not category_of(subcategory):
            raise ValueError(
                f"category {category.value!r} does not own subcategory {subcategory.value!r}"
            )
        return _labeled(subcategory, cause)
    if kind is ClassKind.PASS:
        return PASS_RESULT
    return Classification(kind=kind, cause=cause)
