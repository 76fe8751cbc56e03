"""Source hygiene, checked by parsing each module with ``ast``.

* No module under ``src/``, ``scripts/`` and ``tests/`` keeps a
  top-level import it never uses.  A top-level import binds a name; the
  name must be read again somewhere in the module, in code or in a
  quoted annotation.  Exempt are ``from __future__`` imports and the
  names ``pshlac/__init__.py`` re-exports through ``__all__``.
* No module of the package imports another's private (underscore)
  name: what modules share is public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "scripts", "tests")
PACKAGE = ROOT / "src" / "pshlac"


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
