"""Static hygiene of the package source: no unused imports, no private
machinery without a caller, an export list that resolves, and a contraction
oracle that imports nothing from the modules it checks.

Uses only the standard library's ast module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import circuitkit

PACKAGE_DIR = Path(circuitkit.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_loaded(nodes, skip: ast.AST | None = None) -> set[str]:
    """Every name read under `nodes`, leaving out the subtree `skip`."""
    found: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    used = _names_loaded(tree.body)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_have_a_caller(path):
    tree = _tree(path)
    orphans = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                and not node.name.startswith("__")):
            if node.name not in _names_loaded(tree.body, skip=node):
                orphans.append(node.name)
    assert not orphans, f"{path.name}: private definitions without a caller {orphans}"


def test_every_exported_name_resolves():
    assert len(set(circuitkit.__all__)) == len(circuitkit.__all__)
    missing = [name for name in circuitkit.__all__ if not hasattr(circuitkit, name)]
    assert not missing


def _package_modules_imported(tree: ast.Module) -> set[str]:
    """First components of the circuitkit modules that any import in `tree`
    names, relative (`from .x import y`, `from . import x`) or absolute."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "circuitkit" + ("." + module if module else "")
            paths = [module] if module != "circuitkit" else [f"circuitkit.{a.name}" for a in node.names]
        else:
            continue
        found.update(path.split(".")[1] for path in paths if path.startswith("circuitkit."))
    return found


@pytest.mark.parametrize("source, expected", [
    ("from .partition import circuit_count", {"partition"}),
    ("from . import sampling, graphs", {"sampling", "graphs"}),
    ("def f():\n    from circuitkit.planar import faces", {"planar"}),
    ("import circuitkit.partition as p", {"partition"}),
    ("from .errors import GuardExceededError\nimport itertools", {"errors"}),
])
def test_import_scan_sees_every_form(source, expected):
    assert _package_modules_imported(ast.parse(source)) == expected


def test_the_contraction_oracle_imports_no_circuit_reasoning():
    """contract_q_exact checks the partition engine only while it shares no
    code with it: diagrams may not import partition, sampling or planar,
    at module level or inside a function."""
    imported = _package_modules_imported(_tree(PACKAGE_DIR / "diagrams.py"))
    assert not imported & {"partition", "sampling", "planar"}, sorted(imported)
