"""Lint checks on the package's syntax trees, and what a run loads.

Every name a package module imports is used by that module, the package
module itself imports nothing, no module loads OpenSSL, the CLI's one
writer is the only code that writes a file, the library sweeps only the
odd n, and only the sieve reduces modulo a product.  No linter ships with
the project, so these walk each module's syntax tree instead; a child
process checks that no subcommand loads OpenSSL's bindings.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "omega_proximity"
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


# Standard modules that import OpenSSL's bindings (_hashlib or _ssl) when imported.
OPENSSL_MODULES = {"hashlib", "hmac", "ssl", "secrets", "uuid"}


def _unguarded_openssl_imports(tree: ast.Module) -> list[str]:
    """The OpenSSL modules tree imports other than in an `except ImportError:`
    handler, where one may stand in for a built-in the interpreter lacks."""
    guarded = {
        id(node)
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and getattr(handler.type, "id", None) == "ImportError"
        for node in ast.walk(handler)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module.split(".")[0])
    return sorted(set(found) & OPENSSL_MODULES)


def test_no_module_imports_openssl():
    # hashlib maps libcrypto, about 3.3 MB resident: config_hash uses the
    # interpreter's built-in SHA-256 and falls back to hashlib only without it.
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unguarded_openssl_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


# Every subcommand on a tiny input, then the OpenSSL bindings that were loaded.
SUBCOMMANDS_CHILD = """
import json, os, sys
from omega_proximity.cli import main
out = ["--out", sys.argv[1]]
g = os.path.join(sys.argv[1], "g.json")
runs = [
    ["census", "--x", "100"],
    ["construct", "--x", "1000"],
    ["count", "--x", "1000", "--g", g],
    ["certificate", "--x", "1000"],
    ["report", "--grid", "100,1000"],
    ["verify", "--x", "100"],
    ["phi", "--x", "100"],
]
codes = [main([*argv, *out]) for argv in runs]
print(json.dumps({"codes": codes, "loaded": sorted({"_hashlib", "_ssl", "ssl"} & set(sys.modules))}))
"""


@pytest.mark.skipif(
    importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None,
    reason="interpreter has no built-in SHA-256, so config_hash falls back to hashlib",
)
def test_no_subcommand_loads_openssl(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SUBCOMMANDS_CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 7, "loaded": []}


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
    # Census (and build_g through it), E, L and phi read odd sweeps and lift
    # the even n; the tail sweeps nothing, and full sweeps belong to the CLI's
    # verify, as references.  Each site is counted, so none goes unchecked.
    steps = {
        name: _sweep_steps(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        for name in ("census.py", "proximity.py", "gfunction.py")
    }
    assert {name: len(found) for name, found in steps.items()} == {
        "census.py": 1, "proximity.py": 3, "gfunction.py": 0,
    }
    assert {name: [s for s in found if s != 2] for name, found in steps.items()} == {
        name: [] for name in steps
    }


def _reductions_by_a_product(tree: ast.Module) -> list[int]:
    """The lines of each x % (a * b) or x %= a * b in tree."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            right = node.right
        elif isinstance(node, ast.AugAssign):
            right = node.value
        else:
            continue
        if isinstance(node.op, ast.Mod) and isinstance(right, ast.BinOp) and isinstance(right.op, ast.Mult):
            lines.append(node.lineno)
    return lines


def test_first_multiple_rule_has_one_owner():
    # A stride's first entry, (p - lo) mod (step p) // step, is sieve.first_index's
    # to compute; every other module calls it instead of reducing by a product.
    found = {
        path.name: lines
        for path in MODULES
        if (lines := _reductions_by_a_product(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert set(found) <= {"sieve.py"}, found
