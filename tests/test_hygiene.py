"""Source hygiene, checked by parsing each module with ``ast``.

* No module under ``src/``, ``scripts/`` and ``tests/`` keeps a
  top-level import it never uses.  A top-level import binds a name; the
  name must be read again somewhere in the module, in code or in a
  quoted annotation.  Exempt are ``from __future__`` imports and the
  names ``pshlac/__init__.py`` re-exports through ``__all__``.
* No module of the package imports another's private (underscore)
  name: what modules share is public.
* Every public top-level function and class of the package is named
  somewhere in ``src/``, ``scripts/`` or ``benchmark/`` outside its own
  definition, by a name, an attribute or an import: code that only the
  tests call belongs with the tests.  Methods are left out.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "scripts", "tests")
PACKAGE = ROOT / "src" / "pshlac"
CALLERS = ("src", "scripts", "benchmark")


def _modules():
    for top in SCANNED:
        yield from sorted((ROOT / top).rglob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _bound_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield node.lineno, name


def _read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "SimulationLedger"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return read


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each top-level import the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    exempt = _exported(tree) if path.name == "__init__.py" else set()
    return [(line, name) for line, name in _bound_names(tree)
            if name not in read and name not in exempt]


def test_no_module_keeps_an_unused_import():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in _modules() for line, name in unused_imports(path)]
    assert not unused, "\n".join(unused)


def test_scanner_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Mapping, Sequence as Seq\n"
        "def f(x: 'Mapping') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(probe) == [(2, "math"), (4, "Seq")]


def private_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each underscore name the module imports from a
    sibling module by a relative import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_package_module_imports_a_private_name():
    private = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path in sorted(PACKAGE.glob("*.py")) for line, name in private_imports(path)]
    assert not private, "\n".join(private)


def test_scanner_flags_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import _tools\n"
        "from .core import PUBLIC, _helper as helper\n"
        "from pshlac.core import _absolute\n"
        "def f():\n"
        "    from ..milp import _lazy\n"
        "    return _lazy, helper, _tools, PUBLIC, _absolute\n"
    )
    assert private_imports(probe) == [(1, "_tools"), (2, "_helper"), (5, "_lazy")]


def _names_in(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def unnamed_definitions(package: Path, callers) -> list[tuple[str, int, str]]:
    """(module, line, name) of each public top-level function or class
    in ``package`` that no module under ``callers`` names, apart from
    its own definition."""
    defined = []
    named_from = defaultdict(set)  # name -> {(module, enclosing definition)}
    for path in sorted({p for top in callers for p in Path(top).rglob("*.py")}):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own and path.parent == package and not own.startswith("_"):
                defined.append((path, stmt.lineno, own))
            for name in _names_in(stmt):
                named_from[name].add((path, own))
    return [(path.name, line, name) for path, line, name in defined
            if not named_from[name] - {(path, name)}]


def test_every_public_package_function_has_a_caller():
    unnamed = [f"src/pshlac/{module}:{line}: {name}"
               for module, line, name in unnamed_definitions(PACKAGE, [ROOT / top for top in CALLERS])]
    assert not unnamed, "\n".join(unnamed)


def test_scanner_flags_a_definition_nothing_names(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "import os\n"
        "def imported(): return helper()\n"
        "def helper(): return 1\n"
        "def by_attribute(): return 2\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Alone:\n"
        "    def make(self) -> 'Alone': return Alone()\n"
        "def _private(): return os\n"
    )
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "use.py").write_text(
        "from pkg.mod import imported\n"
        "import pkg.mod as mod\n"
        "print(mod.by_attribute)\n"
    )
    assert unnamed_definitions(package, [package, scripts]) == [("mod.py", 5, "recursive"), ("mod.py", 6, "Alone")]
