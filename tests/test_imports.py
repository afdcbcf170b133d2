"""The runtime stays standard-library only, and src/ carries no dead top-level names."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "splaylab").glob("*.py"))


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


def defined_names(stmt):
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds.  Dunder names such as `__version__` are
    package metadata, not code, and are left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def top_level_names():
    """The (module, name) of each top-level function, class or constant of src/,
    and for each top-level statement its (module, the names it defines, the names
    it references).  An import references nothing."""
    defined = []
    uses = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owners = defined_names(stmt)
            defined += [(path.name, name) for name in sorted(owners)]
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            uses.append((path.name, owners, names))
    return defined, uses


def used_in_src(module, name, uses):
    return any(name in names and not (m == module and name in owners)
               for m, owners, names in uses)


def test_every_top_level_name_is_used():
    """Each top-level function, class or constant of src/ is referenced in src/
    outside its own definition (an import does not count) or named in splaybench/.
    Methods are left out: a name cannot tell `TreeState.copy` from another `copy`."""
    defined, uses = top_level_names()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "splaybench").glob("*.py")))
    dead = [
        f"{module}:{name}" for module, name in defined
        if not re.search(rf"\b{name}\b", bench)
        and not used_in_src(module, name, uses)
    ]
    assert dead == []
