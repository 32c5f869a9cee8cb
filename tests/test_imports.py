"""Every module of the package uses each name it imports (a stdlib ``ast``
check, since no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

import ladderrep

MODULES = sorted(
    path for path in Path(ladderrep.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, ``__future__`` imports
    aside.  A name counts as read in code and in annotations written as
    strings."""
    tree = ast.parse(source)
    imported = set()
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _string_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _string_names(node.returns)
    return sorted(imported - used)


def _string_names(annotation: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _names(ast.parse(node.value, mode="eval"))
    return names


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re\n"
        "from typing import Iterator, Sequence, Union\n"
        "from .core import HalfInt, Segment as Seg, ZeroRep\n"
        "def f(x: 'HalfInt') -> Iterator[int]:\n"
        "    y: 'Union[Seg, None]' = None\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Sequence", "ZeroRep", "re"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
