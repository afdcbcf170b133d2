"""The runtime stays standard-library only, importing the command line pulls in
no heavy standard module, the package root re-exports nothing, src/ carries no
dead top-level names, and src/ reads `OpKind` members only at import."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import splaylab
from splaylab.machine import OpKind

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


def test_cli_import_loads_no_dataclasses_or_inspect():
    """A fresh process that imports the command line loads neither
    `dataclasses` nor `inspect`: their import chain (ast, dis, tokenize,
    linecache) would add to the start-up of every splaylab process."""
    code = ("import sys; before = set(sys.modules); import splaylab.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_package_root_binds_only_its_submodules_and_splay_step():
    """Callers import the submodules, so the root binds nothing else but
    `splay_step`, the one binding of it that the benchmark's tracer wraps."""
    extra = [name for name, value in vars(splaylab).items()
             if not (name.startswith("__") and name.endswith("__"))
             and not (isinstance(value, types.ModuleType) and value.__name__ == f"splaylab.{name}")
             and name != "splay_step"]
    assert extra == []


def defined_names(stmt):
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds.  Dunder names are module metadata, not
    code, and are left out."""
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


def op_kind_member(node):
    """Whether `node` reads a member of `OpKind` off the class, as `OpKind.UP`."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "OpKind" and node.attr in OpKind.__members__)


def binds_op_kinds(stmt):
    """Whether a top-level statement binds names to `OpKind` members and to
    nothing else, as `_L, _R = OpKind.LEFT, OpKind.RIGHT`."""
    if not isinstance(stmt, ast.Assign):
        return False
    values = stmt.value.elts if isinstance(stmt.value, ast.Tuple) else [stmt.value]
    return all(map(op_kind_member, values))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_op_kinds_are_read_once_at_import(path):
    """A member read off `OpKind` goes through the Enum metaclass, several times
    the cost of a module constant, so src/ reads each member only where a
    top-level constant binds it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {id(node) for stmt in tree.body if binds_op_kinds(stmt) for node in ast.walk(stmt)}
    reads = [f"{path.name}:{node.lineno}: OpKind.{node.attr}" for node in ast.walk(tree)
             if op_kind_member(node) and id(node) not in bound]
    assert reads == []
