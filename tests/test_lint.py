"""Static checks over the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import secdiv

SOURCE = Path(secdiv.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}


def test_every_public_function_has_a_caller_in_the_package():
    """A public module-level function that nothing in `src/secdiv` reads
    is a second path only tests take.  A name counts as read when it is
    loaded, bare or as an attribute; docstrings, which name functions in
    prose, do not count."""
    trees = _trees()
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unread = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in loaded
    ]
    assert unread == []
