"""Static checks over the package's own source files."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import haluscope

SOURCES = sorted(Path(haluscope.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads. A name listed in the
    module's `__all__` counts as read: it is imported to be re-exported."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom re import compile, sub\n"
        "__all__ = ['sub']\n"
        "def f(x: j.JSONDecoder) -> None:\n    return compile(x)\n"
    )
    assert unused_imports(source) == ["os"]


def test_every_exported_name_exists():
    # `from haluscope import *` fails on a name `__all__` lists and the
    # package does not define.
    assert [name for name in haluscope.__all__ if not hasattr(haluscope, name)] == []
