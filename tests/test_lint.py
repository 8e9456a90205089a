"""Static checks over the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import secdiv

SOURCE = Path(secdiv.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}


def _functions(tree: ast.Module):
    """Each module-level function of a module, and each method and
    property of its classes, as (qualified name, name)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_function_has_a_caller_in_the_package():
    """A public module-level function, or a public method or property of
    a package class, that nothing in `src/secdiv` reads is a second path
    only tests take.  A name counts as read when it is loaded, bare or as
    an attribute; docstrings, which name functions in prose, do not
    count."""
    trees = _trees()
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unread = [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _functions(tree)
        if not name.startswith("_") and name not in loaded
    ]
    assert unread == []


TESTS = Path(__file__).resolve().parent


def _secdiv_imports(tree: ast.Module) -> dict[str, set[str]]:
    """Each `secdiv` module a file imports, with the names it takes from
    it ("*" for the whole module, as `from secdiv import mir` takes it)."""
    imports: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "secdiv":
            for alias in node.names:
                imports.setdefault(f"secdiv.{alias.name}", set()).add("*")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("secdiv."):
            imports.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "secdiv":
                    imports.setdefault(alias.name, set()).add("*")
    return imports


def _names(tree: ast.Module) -> set[str]:
    """Every identifier the code of a file names: variables, attributes,
    imported names and definitions, but not docstrings or comments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_test_side_references_stay_independent_of_what_they_check():
    """The tests' references check the package only while they do not
    reuse the code they check: the gadget reference takes no more than
    the default length from `secdiv.gadgets`, the IR evaluator reads only
    `secdiv.mir`, the scalar machine neither calls nor reuses the batch
    machine's decoder, and the brute-force solver imports no solver."""
    trees = {
        name: ast.parse((TESTS / f"{name}.py").read_text())
        for name in ("gadget_overlap", "ir_eval", "scalar_machine", "bruteforce")
    }
    assert _secdiv_imports(trees["gadget_overlap"]).get("secdiv.gadgets", set()) <= {
        "DEFAULT_MAX_LEN"
    }
    assert set(_secdiv_imports(trees["ir_eval"])) == {"secdiv.mir"}
    assert not _names(trees["scalar_machine"]) & {"run_batch", "decoded", "_decode"}
    assert "secdiv.solver" not in _secdiv_imports(trees["bruteforce"])


def _package_imports(tree: ast.Module) -> set[str]:
    """The `secdiv` modules a package module imports, relatively or by
    their full name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "secdiv"
        ):
            module = (node.module or "").removeprefix("secdiv").lstrip(".")
            imported.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(
                a.name.removeprefix("secdiv.") for a in node.names if a.name.startswith("secdiv.")
            )
    return imported


def test_oracles_stay_independent_of_the_backend():
    """`verify` and `gadgets` judge what the backend emits, so they read
    only the machine model and the IR: they import no other package
    module and name neither the constraint model, the solver nor the
    security analysis."""
    trees = _trees()
    for name in ("verify", "gadgets"):
        assert _package_imports(trees[name]) <= {"machine", "mir"}, name
        assert not _names(trees[name]) & {"copmodel", "solver", "secanalysis"}, name
