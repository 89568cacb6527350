"""Static checks on the package and test sources, with the standard library
only: every imported name is used, and the package imports nothing outside
the standard library (its ``dependencies`` list is empty)."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "helly_topo").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree) -> list:
    """(line, name) of every name an import binds that the module never
    reads; a name listed in ``__all__`` is read by the package's users."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_check_finds_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\nimport os\nimport os.path as osp\nimport sys\n"
        "from json import dumps, loads\n__all__ = ['loads']\nsys.exit(dumps)\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "osp")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _non_stdlib_imports(tree) -> list:
    """(line, module) of every absolute import whose top-level module is not
    in the standard library; relative imports stay inside the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            (node.lineno, name) for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return sorted(found)


def test_stdlib_import_check_finds_third_party_modules():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from scipy.sparse import csr_matrix\nfrom . import errors\n"
        "from .homology import GF2\ndef f():\n    import hypothesis\n"
    )
    assert _non_stdlib_imports(tree) == [(2, "numpy"), (3, "scipy.sparse"), (7, "hypothesis")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _non_stdlib_imports(tree) == []
