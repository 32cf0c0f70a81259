"""haluscope: execution-based detection, classification, and measurement
of hallucinations in model-generated code."""

from .corpus import Completion, Dataset, ResourceLimits, Task, TestCase
from .degeneration import DegenerationKind, DegenerationVerdict, detect
from .sandbox import ExecutionOutcome, Status, compare_output, execute
from .taxonomy import (
    Category,
    Classification,
    ClassKind,
    Subcategory,
    category_of,
    classify,
)

__version__ = "0.1.0"

__all__ = [
    "Category",
    "Classification",
    "ClassKind",
    "Completion",
    "Dataset",
    "DegenerationKind",
    "DegenerationVerdict",
    "ExecutionOutcome",
    "ResourceLimits",
    "Status",
    "Subcategory",
    "Task",
    "TestCase",
    "category_of",
    "classify",
    "compare_output",
    "detect",
    "execute",
    "__version__",
]
