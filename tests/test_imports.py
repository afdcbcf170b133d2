"""The runtime stays standard-library only, and src/ carries no dead top-level names."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "splaylab").glob("*.py"))

# Top-level names kept for the tests alone (oracles and inspection helpers).
TEST_ONLY = {
    "brute_force_static_cost",
    "depth_halving_violations",
    "descriptor_of",
    "ranks_of",
    "regular_access_trial",
    "shape_index",
}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_absolute_imports_are_stdlib_or_splaylab(path):
    allowed = sys.stdlib_module_names | {"splaylab"}
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert [n for n in names if n.split(".")[0] not in allowed] == []


def top_level_names():
    """The (module, name) of each top-level function or class of src/, and for
    each top-level statement its (module, the name it defines or None, the names
    it references).  An import references nothing."""
    defined = []
    uses = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.append((path.name, owner))
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            uses.append((path.name, owner, names))
    return defined, uses


def used_in_src(module, name, uses):
    return any(name in names and (m, owner) != (module, name) for m, owner, names in uses)


def test_every_top_level_name_is_used():
    """Each top-level function or class of src/ is referenced in src/ outside its
    own definition (an import does not count), named in splaybench/, or test-only.
    Methods are left out: a name cannot tell `TreeState.copy` from another `copy`."""
    defined, uses = top_level_names()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "splaybench").glob("*.py")))
    dead = [
        f"{module}:{name}" for module, name in defined
        if name not in TEST_ONLY
        and not re.search(rf"\b{name}\b", bench)
        and not used_in_src(module, name, uses)
    ]
    assert dead == []


def test_test_only_names_are_test_only():
    """Each TEST_ONLY name is still defined at the top level of src/, and nothing
    in src/ outside its own definition references it."""
    defined, uses = top_level_names()
    modules = {name: module for module, name in defined}
    stale = [name for name in sorted(TEST_ONLY)
             if name not in modules or used_in_src(modules[name], name, uses)]
    assert stale == []
