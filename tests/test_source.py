"""Static checks over the package's own source files."""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
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


def foreign_imports(source: str) -> list[str]:
    """Top-level modules a source imports that are neither the standard
    library (`sys.stdlib_module_names`) nor this package."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return sorted(modules - sys.stdlib_module_names - {"haluscope"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_the_standard_library_or_the_package(path):
    # The package declares no dependencies, and a foreign interpreter runs
    # _forkserver.py with the standard library alone.
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, requests.adapters\nimport json as j\n"
        "from click import command\nfrom . import corpus\nfrom .errors import ConfigError\n"
        "from haluscope.pipeline import RunConfig\n"
    )
    assert foreign_imports(source) == ["click", "requests"]


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Functions, classes, non-dunder methods and module-level names
    (`__all__` and dunders aside) defined in `sources` whose name appears as
    a whole word nowhere in them besides its definitions. Any occurrence
    counts, a string's included."""
    defined: Counter = Counter()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    words = Counter(re.findall(r"\w+", "\n".join(sources)))
    return sorted(
        name for name, count in defined.items()
        if words[name] <= count and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_is_referenced():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unreferenced_definitions(sources) == []


def test_unreferenced_definition_is_found():
    # A name read in another source or only in a string counts; a dunder
    # is never flagged; a longer word holding the name does not count.
    sources = [
        "class Used:\n    def __init__(self):\n        pass\n"
        "    def method(self):\n        pass\n"
        "    def dead_method(self):\n        pass\n",
        "def named():\n    pass\nCOMMANDS = {'run': 'named'}\n"
        "def prefixed():\n    pass\nprefixed_value = 'unprefixed'\n",
        "from .one import Used\nUsed().method()\n",
    ]
    assert unreferenced_definitions(sources) == [
        "COMMANDS", "dead_method", "prefixed", "prefixed_value"
    ]


def test_unreferenced_constant_is_found():
    # A module-level name another source imports counts; one that nothing
    # else names is flagged, a tuple target's included; `__all__` and
    # dunders never are.
    sources = [
        "LIMIT = 5\nSLACK_MS: int = 500\n_TABLE, _SPARE = {}, []\n"
        "__all__ = ['LIMIT']\n__version__ = '1'\n",
        "from .one import LIMIT, _TABLE\n",
    ]
    assert unreferenced_definitions(sources) == ["SLACK_MS", "_SPARE"]


def test_every_exported_name_exists():
    # `from haluscope import *` fails on a name `__all__` lists and the
    # package does not define.
    assert [name for name in haluscope.__all__ if not hasattr(haluscope, name)] == []
