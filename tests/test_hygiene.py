"""Static checks on the package and test sources, with the standard library
only: every imported name is used, the package imports nothing outside the
standard library (its ``dependencies`` list is empty), every name the
package exports has a reader inside the package, the package holds no
``assert`` statement (``python -O`` strips them, so an invariant check
must raise a real error), and its modules import each other in layers."""

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


def _exported(tree) -> list:
    """The string constants of a module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def _unread_exports(exported, trees) -> list:
    """Exported names that no tree reads, as an ``ast.Name`` load or as an
    ``ast.Attribute`` attr: a public name only tests call."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in exported if name not in read)


def test_unread_export_check_finds_names_without_a_reader():
    init = ast.parse("from .a import f, g, h, k\n__all__ = ['f', 'g', 'h', 'k']\n")
    module = ast.parse("def f():\n    return g()\nh = 1\nx.k\n")
    assert _exported(init) == ["f", "g", "h", "k"]
    # f is only defined and h only assigned; g is called and k read as an attribute
    assert _unread_exports(_exported(init), [module]) == ["f", "h"]


def test_every_export_has_a_reader_in_the_package():
    init = ROOT / "src" / "helly_topo" / "__init__.py"
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in PACKAGE if path != init]
    assert _unread_exports(_exported(ast.parse(init.read_text(encoding="utf-8"))), trees) == []


def _assert_statements(tree) -> list:
    """Line of every ``assert`` statement in a tree."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_assert_check_finds_assert_statements():
    tree = ast.parse(
        "assert ready\ndef f(x):\n    assert x > 0, 'x must be positive'\n"
        "    if not x:\n        raise ValueError('assert')\n    return x  # assert\n"
    )
    assert _assert_statements(tree) == [1, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_has_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _assert_statements(tree) == []


def _package_imports(tree) -> set:
    """The package modules a module imports by relative import, m for both
    ``from .m import x`` and ``from . import m``; the package's absolute
    imports are all standard library, as checked above."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_package_import_check_finds_relative_imports():
    tree = ast.parse(
        "import os\nfrom json import dumps\nfrom .errors import ContractViolation\n"
        "from . import helly_engine as engine, homology\nfrom .homology import GF2\n"
    )
    assert _package_imports(tree) == {"errors", "helly_engine", "homology"}


def test_modules_import_each_other_in_layers():
    # the transversal half stands without the simplicial one, and both take
    # the sweep tally from `sweeps`, so one half's verifiers can run over
    # the other's kernels without an import cycle
    imports = {path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
               for path in PACKAGE}
    assert not imports["transversal_plane"] & {"helly_engine", "complex_core", "homology"}
    assert "transversal_plane" not in imports["helly_engine"]
    assert imports["sweeps"] == {"errors"}


# The pair-mask kernel, the checks it rests on, the functions that decide a
# thm-321 verdict, the profile that is its oracle and the narrow-feature
# test of `components` decide every sign in integer arithmetic; a float
# there could decide one wrongly.
EXACT_KERNELS = (
    "_walk_form", "_negated_form", "_walk_zeros", "_pair_masks", "_pairs_of",
    "_subfamily_counts", "_sort_directions", "_interiors_overlap", "_set_lattice",
    "_convex_hull", "verify_theorem_321", "_thm321_checks", "disjointness_class", "_kernel",
    "_placement_ok", "_primitive", "_climb", "transversal_profile", "_narrow",
)


def _float_arithmetic(tree, names) -> list:
    """(function, line, what) of every float literal, true division and
    ``math`` attribute other than ``math.gcd`` inside the named functions,
    nested functions included; a named function missing from the tree is
    reported with line 0."""
    found, seen = [], set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name not in names:
            continue
        seen.add(func.name)
        for node in ast.walk(func):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((func.name, node.lineno, repr(node.value)))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append((func.name, node.lineno, "/"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr != "gcd"):
                found.append((func.name, node.lineno, f"math.{node.attr}"))
    found += [(name, 0, "missing") for name in names if name not in seen]
    return sorted(found)


def test_float_check_finds_floats_in_exact_kernels():
    tree = ast.parse(
        "import math\n"
        "def exact(a, b):\n    g = math.gcd(a, b)\n    return a // g, -b // g, 2 ** 3\n"
        "class Polygon:\n    def kernel(self, a, b):\n        t = a / b\n        a /= 2\n"
        "        def key(x):\n            return math.floor(x) + 0.5\n"
        "        return t, math.pi, 1e-3\n"
        "def outside(a):\n    return a / 2.0 + math.sqrt(a)\n"
    )
    assert _float_arithmetic(tree, ("exact", "kernel", "gone")) == [
        ("gone", 0, "missing"),
        ("kernel", 7, "/"), ("kernel", 8, "/"),
        ("kernel", 10, "0.5"), ("kernel", 10, "math.floor"),
        ("kernel", 11, "0.001"), ("kernel", 11, "math.pi"),
    ]


def test_exact_kernels_hold_no_float_arithmetic():
    path = ROOT / "src" / "helly_topo" / "transversal_plane.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _float_arithmetic(tree, EXACT_KERNELS) == []
