"""Lint checks on the package's syntax trees.

Every name a package module imports is used by that module, the package
module itself imports nothing, the CLI's one writer is the only code that
writes a file, and the library sweeps only the odd n.
No linter ships with the project, so these walk each module's syntax tree
instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omega_proximity"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Methods that write a file whatever their receiver: pathlib's and numpy's.
WRITING_METHODS = {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"}


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_imported_names(tree) - _used_names(tree)) == []


def test_package_module_imports_nothing():
    # Callers import each name from the module that defines it, so the
    # package module re-exports nothing and cannot shadow a submodule.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []


def _file_writes(node: ast.AST, where: str = "<module>") -> list[str]:
    """The enclosing function of each call in node that writes a file: open()
    in a mode with w, a, x or + (or a mode not spelled out), or a writing method."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _file_writes(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name) and func.id == "open":
                modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
                if any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value) for m in modes):
                    found.append(where)
            elif isinstance(func, ast.Attribute) and func.attr in WRITING_METHODS:
                found.append(where)
        found += _file_writes(child, where)
    return found


def test_only_the_cli_writer_writes_files():
    writes = [
        (path.name, where)
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert writes == [("cli.py", "_write")]


def _sweep_steps(tree: ast.Module) -> list[object]:
    """The step each iter_factor_segments call passes: its sixth argument or
    step keyword, as a constant, else None (unspelled, or the default 1)."""
    steps = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "iter_factor_segments":
            given = node.args[5:6] + [k.value for k in node.keywords if k.arg == "step"]
            steps.append(given[0].value if given and isinstance(given[0], ast.Constant) else None)
    return steps


def test_library_sweeps_are_odd():
    # Census (and build_g through it), the tail, E, L and phi read odd sweeps
    # and lift the even n; full sweeps belong to the CLI's verify, as references.
    steps = {
        name: _sweep_steps(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        for name in ("census.py", "proximity.py", "gfunction.py")
    }
    assert sum(map(len, steps.values())) >= 5
    assert {name: [s for s in found if s != 2] for name, found in steps.items()} == {
        name: [] for name in steps
    }
