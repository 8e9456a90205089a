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
    property of its classes, as (qualified name, definition)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{node.name}.{item.name}", item


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
        for qualified, node in _functions(tree)
        if not node.name.startswith("_") and node.name not in loaded
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


def test_solver_imports_only_the_model():
    """The search reads the model, not the analysis or the IR: the modes,
    secret paths and leak pairs reach it through the built problem."""
    assert _package_imports(_trees()["solver"]) == {"copmodel"}


def test_only_the_decoder_states_what_a_word_writes():
    """`machine._decode` states which words copy a row or load a
    constant, and its readers read that: `verify` names none of MOV, LD,
    ST and LI, and the body of `machine.run_batch` names no opcode."""
    trees = _trees()
    assert not _names(trees["verify"]) & {"MOV", "LD", "ST", "LI"}
    (run_batch,) = (
        node for node in trees["machine"].body
        if isinstance(node, ast.FunctionDef) and node.name == "run_batch"
    )
    assert "Opcode" not in _names(run_batch)


def _field_readers(attr: str, bare: bool = False) -> set[str]:
    """Each package function or method that reads the field `attr` of
    some object, or with `bare` the name `attr` itself too, as
    module.qualified name."""
    return {
        f"{module}.{qualified}"
        for module, tree in _trees().items()
        for qualified, node in _functions(tree)
        if any(
            isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Load)
            or bare and isinstance(n, ast.Name) and n.id == attr and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node)
        )
    }


def test_only_the_model_states_which_values_clash():
    """`copmodel` derives from a value model's `intervals` which values
    clash, and the allocator and the checker read that: outside
    `copmodel`, only `solver._naive_rename` reads `intervals`, for its
    preference for recently freed registers, and `check_solution` reads
    them nowhere."""
    readers = _field_readers("intervals")
    assert {r for r in readers if not r.startswith("copmodel.")} == {"solver._naive_rename"}
    assert "copmodel.check_solution" not in readers


def test_only_the_model_states_the_schedule_constraints():
    """`copmodel` states the balance rows, which `build_problem` builds
    from the secret path sets, and what each op waits for in its block,
    which `waits_for` derives with the same-slot accesses; the search and
    the checker read those.  So `mem_deps` is read only in `waits_for`,
    `psets` outside `secanalysis` only in `build_problem` and
    `emit_model`, and `solver` names none of them, nor `path_cost`."""
    assert _field_readers("mem_deps") == {"copmodel.waits_for"}
    psets = {r for r in _field_readers("psets") if not r.startswith("secanalysis.")}
    assert psets == {"copmodel.build_problem", "copmodel.emit_model"}
    assert not _names(_trees()["solver"]) & {"psets", "mem_deps", "path_cost"}


def test_only_the_machine_states_what_a_copy_is():
    """`machine` states a copy's 2-cycle slot in the profile's latency
    table, and in `copy_opcode` which copy spills (ST) or reloads (LD):
    the encoder's `_lower`, the canonical form, the checker's
    operand-location test and its bus rule read `copy_opcode`, bare-name
    loads counted, and `copmodel` fills its latency table from the
    profile alone, naming no COPY and no cycle count of its own."""
    assert _field_readers("copy_opcode", bare=True) == {
        "machine._lower",
        "copmodel._canonical",
        "copmodel.check_solution",
        "copmodel._check_transitions",
    }
    (table,) = (
        node.value
        for node in ast.walk(_trees()["copmodel"])
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Attribute) and t.attr == "latency" for t in node.targets)
    )
    assert {"profile", "latency"} <= _names(table)
    assert "COPY" not in _names(table)
    assert not any(isinstance(n, ast.Constant) for n in ast.walk(table))
