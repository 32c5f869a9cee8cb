"""Every module of the package and of its tests uses each name it imports
(a stdlib ``ast`` check, since no linter is a dependency), and the
package's public names resolve lazily, so that importing the command line
imports no engine module."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ladderrep

MODULES = sorted(
    path for path in Path(ladderrep.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=[path.stem for path in MODULES] + [f"tests.{path.stem}" for path in TEST_MODULES],
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names a module imports from another module of the package."""
    return sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ladderrep"))
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_import_checker_flags_only_package_names():
    source = (
        "from os import _exit\n"
        "from . import render\n"
        "from .support import Supports, _tail\n"
        "from ladderrep.core import _check_piece\n"
    )
    assert private_imports(source) == ["ladderrep.core._check_piece", "support._tail"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_private_imports_across_modules(path):
    # a decision a module keeps private has one home: other modules call its public names
    assert private_imports(path.read_text(encoding="utf-8")) == []


# The names the package exported before it resolved them lazily.
EXPORTED = {
    "core": [
        "CuspidalLabel", "GroupKind", "GrothendieckElement", "HalfInt", "InvalidSegmentError",
        "LadderError", "NotStandardModuleError", "Parity", "RankMismatchError", "Segment",
        "StandardModule", "TemperedParam", "TemperedPiece", "ZERO_REP", "ZeroRep", "hi", "is_zero",
    ],
    "datum": [
        "DatumBlock", "DatumValidationError", "LadderDatum", "LanglandsData", "canonical_form",
        "is_canonical", "langlands_data_of", "standard_module_of", "validate_datum",
    ],
    "graph": [
        "GraphParseError", "JacquetTerm", "LadderGraph", "aubert_dual", "build_graph", "derivative",
        "graph_to_datum", "is_supercuspidal", "jacquet_expansion", "parse_colored_vertices",
        "supp_ladder",
    ],
    "support": ["SupportMultiset", "UnsupportedParameterError", "project_ps", "supp_discrete_series"],
    "formula": [
        "GLCombination", "GLLadder", "SigmaElement", "TableRow", "assemble_i_sigma",
        "determinantal_formula", "enumerate_sigma", "gl_determinantal_formula", "sigma_table",
    ],
}


def _fresh_python(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that finds this package."""
    src = str(Path(ladderrep.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout


def test_cli_import_loads_no_engine_module():
    code = (
        "import sys, ladderrep.cli\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('ladderrep.'))))\n"
    )
    assert _fresh_python(code).split() == ["ladderrep.cli"]


@pytest.mark.parametrize("flags", [[], ["--format", "text"]], ids=["json", "text"])
def test_det_formula_loads_only_what_it_runs(flags):
    # the JSON is written from key rows, and the text needs no graph
    argv = ["det-formula", *flags, '{"group": "Sp", "X": ["0", "1", "2"], "l": 1, "eta": 1}']
    code = (
        "import contextlib, io, sys\n"
        "from ladderrep.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('ladderrep.'))))\n"
    )
    loaded = _fresh_python(code).split()
    assert "ladderrep.graph" not in loaded
    assert ("ladderrep.render" in loaded) == bool(flags)
    assert "ladderrep.support" in loaded  # the projection ran


def test_every_exported_name_resolves():
    names = [name for module in EXPORTED.values() for name in module]
    assert sorted(ladderrep.__all__) == sorted(names)
    for module, module_names in EXPORTED.items():
        home = importlib.import_module(f"ladderrep.{module}")
        for name in module_names:
            assert getattr(ladderrep, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        ladderrep.no_such_name  # noqa: B018
    code = (
        "from ladderrep import *\n"
        f"names = {names!r}\n"
        "print(' '.join(name for name in names if name not in globals()))\n"
    )
    assert _fresh_python(code).split() == []


def test_lazy_names_are_listed_and_bound_on_first_use():
    # dir() lists every public name before any is resolved, and a resolved
    # name is bound in the package, so the next access is a plain lookup
    code = (
        "import ladderrep\n"
        "missing = set(ladderrep.__all__) - set(dir(ladderrep))\n"
        "before = 'HalfInt' in vars(ladderrep)\n"
        "ladderrep.HalfInt\n"
        "print(len(missing), before, vars(ladderrep)['HalfInt'] is ladderrep.core.HalfInt)\n"
    )
    assert _fresh_python(code).split() == ["0", "False", "True"]
