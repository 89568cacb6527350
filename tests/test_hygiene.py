"""Static checks on the package and test sources, with the standard library
only: every imported name is used, the package imports nothing outside the
standard library (its ``dependencies`` list is empty), every name the
package exports has a reader inside the package, the package holds no
``assert`` statement (``python -O`` strips them, so an invariant check
must raise a real error), every error class is raised, and its modules
import each other in layers.  The last test runs the README's library
example."""

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


def _unraised_errors(errors_tree, trees) -> list:
    """The classes of ``errors_tree`` that no tree raises as ``raise
    Name(...)`` and that are no base, direct or further up, of a class
    that one raises: an error class that no code path reaches."""
    bases = {node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
             for node in errors_tree.body if isinstance(node, ast.ClassDef)}
    raised = {node.exc.func.id for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    reached, todo = set(), [name for name in raised if name in bases]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [base for base in bases[name] if base in bases]
    return sorted(name for name in bases if name not in reached)


def test_unraised_error_check_finds_classes_no_code_raises():
    errors = ast.parse(
        "class Base(Exception):\n    pass\nclass Mid(Base):\n    pass\n"
        "class Leaf(Mid):\n    pass\nclass Built(Base):\n    pass\n"
        "class Bare(Base):\n    pass\n"
    )
    module = ast.parse(
        "def f(x):\n    if x:\n        raise Leaf(f'bad {x}')\n    err = Built('kept')\n"
        "    raise Bare\ndef g():\n    raise ValueError('other')\n"
    )
    # Base and Mid are reached through Leaf; Built is made but never raised,
    # and Bare is raised only as a bare name
    assert _unraised_errors(errors, [module]) == ["Bare", "Built"]


def test_every_error_class_is_raised_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in PACKAGE]
    errors = ROOT / "src" / "helly_topo" / "errors.py"
    assert _unraised_errors(ast.parse(errors.read_text(encoding="utf-8")), trees) == []


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
    transversal = {"transversal_kernel", "envelope", "polygon_draws", "transversal_plane"}
    for module in transversal:
        assert not imports[module] & {"helly_engine", "complex_core", "homology"}, module
    assert not imports["helly_engine"] & transversal
    assert imports["sweeps"] == {"errors"}
    # within the transversal half the exact kernel stands alone, the
    # envelope oracle and the draws rest on it only, and the theorem table
    # on all three
    assert imports["transversal_kernel"] == {"errors"}
    assert imports["envelope"] == imports["polygon_draws"] == {"errors", "transversal_kernel"}
    assert imports["transversal_plane"] == {
        "errors", "sweeps", "transversal_kernel", "envelope", "polygon_draws"}


# A float could decide a sign wrongly.  These modules decide every sign in
# integer arithmetic throughout, but for the functions listed with them:
# the exact kernel (walk forms, pair masks and counts, the disjointness
# class and the checks they rest on) skips only `_to_fraction`, which reads
# an input coordinate exactly.
EXACT_MODULES = {"transversal_kernel": ("_to_fraction",)}
# The exact names in modules that also report floats: the profile that is
# the pair-mask kernel's oracle, the narrow-feature test of `components`
# and the functions that decide a thm-321 verdict.
EXACT_KERNELS = {
    "envelope": ("transversal_profile", "_climb", "_narrow"),
    "transversal_plane": ("verify_theorem_321", "_thm321_checks", "_THM321_BLOCKS"),
}


def _floats(tree) -> list:
    """(line, what) of every float literal, true division and ``math``
    attribute other than ``math.gcd`` in a tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr != "gcd"):
            found.append((node.lineno, f"math.{node.attr}"))
    return found


def _float_arithmetic(tree, names) -> list:
    """(name, line, what) of every float found by `_floats` inside the
    named functions, nested functions included, and inside assignments to
    the named names, such as a table of lambdas; a name missing from the
    tree is reported with line 0."""
    found, seen = [], set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = func.name
        elif isinstance(func, ast.Assign) and isinstance(func.targets[0], ast.Name):
            name = func.targets[0].id
        else:
            continue
        if name not in names:
            continue
        seen.add(name)
        found += [(name, line, what) for line, what in _floats(func)]
    found += [(name, 0, "missing") for name in names if name not in seen]
    return sorted(found)


def _module_float_arithmetic(tree, skip) -> list:
    """(line, what) of every float found by `_floats` in a module but
    inside its top-level functions named in ``skip``; a skipped name
    missing from the module is reported with line 0."""
    found, seen = [], set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in skip:
            seen.add(node.name)
        else:
            found += _floats(node)
    found += [(0, f"missing {name}") for name in skip if name not in seen]
    return sorted(found)


def test_float_check_finds_floats_in_exact_kernels():
    tree = ast.parse(
        "import math\n"
        "def exact(a, b):\n    g = math.gcd(a, b)\n    return a // g, -b // g, 2 ** 3\n"
        "class Polygon:\n    def kernel(self, a, b):\n        t = a / b\n        a /= 2\n"
        "        def key(x):\n            return math.floor(x) + 0.5\n"
        "        return t, math.pi, 1e-3\n"
        "def outside(a):\n    return a / 2.0 + math.sqrt(a)\n"
        "TABLE = (('half', 2, lambda count: count >= 0.5),)\n"
        "OTHER = 0.25\n"
    )
    assert _float_arithmetic(tree, ("exact", "kernel", "TABLE", "gone")) == [
        ("TABLE", 14, "0.5"),
        ("gone", 0, "missing"),
        ("kernel", 7, "/"), ("kernel", 8, "/"),
        ("kernel", 10, "0.5"), ("kernel", 10, "math.floor"),
        ("kernel", 11, "0.001"), ("kernel", 11, "math.pi"),
    ]


def test_module_float_check_skips_only_the_named_functions():
    tree = ast.parse(
        "import math\nfrom math import gcd\nSCALE = 10 ** 4\nHALF = 0.5\n"
        "def read(x):\n    return float(x) / 2\n"
        "class Polygon:\n    def area(self):\n        return math.fabs(self.twice) / 2\n"
        "def exact(a, b):\n    return a // gcd(a, b)\n"
    )
    assert _module_float_arithmetic(tree, ("read", "gone")) == [
        (0, "missing gone"), (4, "0.5"), (9, "/"), (9, "math.fabs"),
    ]


def _module_tree(module):
    path = ROOT / "src" / "helly_topo" / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_exact_modules_hold_no_float_arithmetic():
    for module, skip in EXACT_MODULES.items():
        assert _module_float_arithmetic(_module_tree(module), skip) == [], module


def test_exact_kernels_hold_no_float_arithmetic():
    for module, names in EXACT_KERNELS.items():
        assert _float_arithmetic(_module_tree(module), names) == [], module


def test_readme_library_example_prints_what_its_comments_promise(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    promised = [line.rsplit("#", 1)[1].strip() for line in code.splitlines() if "#" in line]
    assert promised == ["1 True", "True 1"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-2:] == promised
