"""Static import hygiene of the library: what its modules may import, and where.

networkx is a test-only cross-check, ``tests/oracles.py`` is the tests'
independent path, and numpy and scipy are loaded only inside the functions
that need them, so that ``import uniquesub`` and every command that does not
need them stay light.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import uniquesub

MODULES = sorted(Path(uniquesub.__file__).parent.glob("*.py"))


def _imports(tree: ast.Module, module_level: bool) -> list[str]:
    """Top-level package names imported in ``tree``; with ``module_level``
    only those run on import, that is outside any function body."""
    found: list[str] = []
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                               ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            found.append(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_import_hygiene(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    anywhere = set(_imports(tree, module_level=False))
    assert not anywhere & {"networkx", "oracles", "tests"}, anywhere
    assert not set(_imports(tree, module_level=True)) & {"numpy", "scipy"}


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "embedding", "process", "sampling"}
