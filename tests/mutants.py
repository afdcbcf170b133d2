"""The mutant catalogue: one-edit copies of src/ that the tests must reject.

    python tests/mutants.py

Each row names a module of `src/splaylab`, a target text that occurs exactly
once in src/, its replacement, and the tests that must fail once the edit is
made: test files, or the pytest node ids of the tests that kill the row where
its files would run long before the first failure.  For each row the script
copies src/ to a temporary directory, applies the edit there and runs pytest
on the row's tests against that copy; a row whose tests all pass is a
surviving mutant.  Before any mutant, each distinct selection of tests must
pass against an unedited copy, so a broken harness cannot pass for a kill.
The script prints one line per row, with its time, and exits 1 if any mutant
survives or any run ends without a verdict, else 0.

Each pytest child runs under a time limit (`ROW_SECONDS`) and an
address-space limit (`ROW_ADDRESS_SPACE`), so a mutant that makes a test
loop or grow without end costs one bounded run.  A child past its time is
killed; a child past its address space gets a MemoryError, which a hook
below turns into the exit code `OUT_OF_MEMORY` rather than a test failure
that would read as a kill.  Either ends the row as "no verdict".  Only the
exit code `TESTS_FAILED`, which another hook sets when pytest finishes with
failed tests, reads as a kill: pytest's own 1 also means that the process
died of an uncaught exception.

Tier-1 does not collect this script (its name does not start with `test_`);
`tests/test_bounds.py::test_every_mutant_target_occurs_once` checks every
row's target against src/ and every named test against tests/, and
`tests/test_mutants.py` runs `main` on one killed row and one no-op row, so
neither the catalogue nor its runner can rot silently.

The bound rows loosen one constant of an exact integer comparison each,
charge a zig step the two rotations of the other kinds, or drop one factor
of the telescoping identity; `tests/test_bounds.py` pins
those constants at their boundaries.  The kernel rows break one link write of
`splay.splay` or `TreeState.rotate_up`, drop the key check either makes
before any link moves, or the one `machine.key_path` makes for every walk
down to a key, or make the link lists one slot too long.  The shift
rows drop one `+ 1` of the four places that meet T's key k as the
restricted tree's k + 1: the restricted root `init_prime` builds, the
pinned-root check of `apply_t_ops`, the key `accounting_run` splays for a
query, and the `lemma3` suite's shift of T's cursor trace before the
embedding check; `tests/test_restricted.py`, `tests/test_suites.py` and the
golden digests must reject each.
The key-set rows drop the check that `subtree_sums` makes of its weight
count, or the one `potential.require_same_keys` makes where two trees meet
(`phi`, the two bound checks and `InterleavedRun`); `tests/test_potential.py`
feeds each a mismatch that passes silently without it.
The Lemma 3 rows pick the wrong rotation or UP sequence in `apply_t_ops`,
change one op of the restricted sequence table, or change one constant of
the 4M + 3R moves and 2M + R rotations that the `lemma3` suite and
`accounting_run` expect of the emitted program; `tests/test_suites.py` runs
every suite, and a theorem7 run there rotates the reference.  The layout rows
give a right child of `potential.rank_layout` its parent's key in its
interval, or a left child a depth two below its parent's; the kept-state
rows put p's kept T-interval on the wrong side of x, or swap the key slices
that move up and down a level, in `InterleavedRun`'s reference rotation.
`tests/test_lab.py` checks the kept intervals and depths against fresh walks
from a run's construction on and after every event.  The product rows keep
`potential.weights_of_depths`' table of powers of 4 at its first entry, or
divide only `InterleavedRun.grow` by the gcd of the two running products,
which breaks the ratio the telescoping identity reads; `tests/test_lab.py`
and the golden digests of `tests/test_golden.py` must reject each.  The
oracle row drops the returned-to-the-root flag from the BFS state (it always
reads True), so the search serves queries without the pass through the
root; `tests/test_oracle.py` compares the search with its reference.  The
pick rows let `lemma4` draw a rotated key at depth 3, or `lemma5` a
candidate below its target depth, off the run's kept depths; the ratio row
drops R' from the denominator of a theorem7 row's `max_ratio`; the render
row drops the last batch of JSON chunks that `render_report` joins when it
holds fewer than a full batch.  The golden digests of `tests/test_golden.py`
must reject each.  The command-line rows drop every flag's override of the
config, or the config file's own `trials`; `tests/test_cli.py` must reject
each.

The catalogue has 47 rows; a full run took 103 s on two vCPUs with
Python 3.11.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "splaylab"

BOUND_TESTS = ("tests/test_bounds.py",)
KERNEL_TESTS = ("tests/test_splay.py", "tests/test_machine.py")
SHIFT_TESTS = ("tests/test_restricted.py", "tests/test_suites.py", "tests/test_golden.py")
LEMMA3_TESTS = ("tests/test_suites.py",)
KEPT_TESTS = ("tests/test_lab.py",)
ORACLE_TESTS = ("tests/test_oracle.py",)
KEY_SET_TESTS = ("tests/test_potential.py",)
PRODUCT_TESTS = ("tests/test_lab.py", "tests/test_golden.py")
GOLDEN_TESTS = ("tests/test_golden.py",)
CLI_TESTS = ("tests/test_cli.py",)

# Each pytest child's limits.  Every test set passes unedited in under 7 s
# and within 64 MB of address space on two vCPUs with Python 3.11.
ROW_SECONDS = 60
ROW_ADDRESS_SPACE = 512 << 20
TESTS_FAILED = 85
OUT_OF_MEMORY = 86


@dataclass(frozen=True)
class Mutant:
    """One row: replace `old` by `new` in `module`; `tests` must then fail."""

    name: str
    module: str  # a file name in src/splaylab
    old: str
    new: str
    tests: tuple


# The splay kernel's `parent[b] = p` write, and rotate_up's, told apart by
# the line that precedes each.
SPLAY_B = "parent[p] = x\n        if b is not None:\n            parent[b] = p"
ROTATE_B = "far[key] = p\n        if b is not None:\n            parent[b] = p"
# The two depth-slice updates of `InterleavedRun`'s reference rotation.
DEPTH_SLICES = ("for k in up:\n            depths[k] -= 1\n"
                "        for k in down:\n            depths[k] += 1")
# The key checks of `splay` and `rotate_up`, told apart from those of
# `splay_step` and `depth` by the line that follows each.
SPLAY_GUARD = 'if key not in state.keys:\n        raise KeyError(f"unknown key {key!r}")\n    left'
ROTATE_GUARD = 'if key not in self.keys:\n            raise KeyError(f"unknown key {key!r}")\n        parent'

MUTANTS = (
    # -- bound constants ----------------------------------------------------
    Mutant("access 1 + 3dr -> log2 3 + 3dr", "lab.py",
           "> 2 * ev.s_root ** 3", "> 3 * ev.s_root ** 3", BOUND_TESTS),
    Mutant("access 3dr -> 4dr", "lab.py",
           "ev.s_key ** 3 << ev.cost > 2 * ev.s_root ** 3",
           "ev.s_key ** 4 << ev.cost > 2 * ev.s_root ** 4", BOUND_TESTS),
    Mutant("zig step 1 + 3dr -> 2 + 3dr", "lab.py",
           "step.shrink << zig", "step.shrink << 2 * zig", BOUND_TESTS),
    Mutant("check_access_lemma: a zig charged 2", "lab.py",
           "cost = 2 - zig", "cost = 2", BOUND_TESTS),
    Mutant("4 + 6d -> 5 + 6d", "lab.py",
           "bound = 4 + 6 * ev.depth_ref", "bound = 5 + 6 * ev.depth_ref", BOUND_TESTS),
    Mutant("4 + 6d -> 4 + 7d", "lab.py",
           "bound = 4 + 6 * ev.depth_ref", "bound = 4 + 7 * ev.depth_ref", BOUND_TESTS),
    Mutant("rotation 11 + log2 11 -> log2 12 + 11", "lab.py",
           "ROTATION_RATIO_BOUND = 11 << 11", "ROTATION_RATIO_BOUND = 12 << 11", BOUND_TESTS),
    Mutant("depth-1 rotation 7 + log2 11 -> 8 + log2 11", "lab.py",
           "ROTATION_RATIO_BOUND_SHALLOW = 11 << 7", "ROTATION_RATIO_BOUND_SHALLOW = 11 << 8",
           BOUND_TESTS),
    Mutant("e <= 3R' -> e <= 4R'", "lab.py",
           "ORGANIZING_SPLAYS_PER_ROTATION = 3", "ORGANIZING_SPLAYS_PER_ROTATION = 4",
           BOUND_TESTS),
    Mutant("floor -n -> -n - 1", "potential.py",
           "prod(sums_s.values()) << n", "prod(sums_s.values()) << n + 1", BOUND_TESTS),
    Mutant("telescoping: the run's grow dropped", "lab.py",
           "run.grow * prod(sums_T.values())", "prod(sums_T.values())", BOUND_TESTS),
    # -- the splay kernel -------------------------------------------------
    Mutant("splay: parent[c] = g dropped", "splay.py", "parent[c] = g", "pass",
           ("tests/test_splay.py::test_splay_cases_match_textbook_link_for_link",)),
    Mutant("splay: parent[b] = p dropped", "splay.py",
           SPLAY_B, SPLAY_B.replace("parent[b] = p", "pass"), KERNEL_TESTS),
    Mutant("splay: zig-zag far[g] -> near[g]", "splay.py",
           "far[g] = c", "near[g] = c", KERNEL_TESTS),
    Mutant("splay: zig-zag parent[g] = x -> p", "splay.py",
           "parent[g] = x", "parent[g] = p", KERNEL_TESTS),
    Mutant("splay: zig-zig test on far[g]", "splay.py",
           "if near[g] == p:", "if far[g] == p:", KERNEL_TESTS),
    Mutant("splay: re-hook below gg flipped", "splay.py",
           "if g < gg:", "if gg < g:", KERNEL_TESTS),
    # -- TreeState.rotate_up --------------------------------------------------
    Mutant("rotate_up: re-hook below g flipped", "machine.py",
           "elif p < g:", "elif g < p:", KERNEL_TESTS),
    Mutant("rotate_up: parent[b] = p dropped", "machine.py",
           ROTATE_B, ROTATE_B.replace("parent[b] = p", "pass"), KERNEL_TESTS),
    # -- key checks and the slot rule -----------------------------------------
    Mutant("splay: key guard dropped", "splay.py",
           SPLAY_GUARD, SPLAY_GUARD.replace("key not in state.keys", "False"), KERNEL_TESTS),
    Mutant("rotate_up: key guard dropped", "machine.py",
           ROTATE_GUARD, ROTATE_GUARD.replace("key not in self.keys", "False"), KERNEL_TESTS),
    Mutant("key_path: unknown-key guard dropped", "machine.py",
           "if key not in tree.keys:", "if False:", KERNEL_TESTS),
    Mutant("slot length off by one", "machine.py",
           "[None] * n", "[None] * (n + 1)", KERNEL_TESTS),
    # -- T's key k as the restricted tree's k + 1 -------------------------------
    Mutant("init_prime: root without + 1", "restricted.py",
           "r = T.root + 1", "r = T.root", SHIFT_TESTS),
    Mutant("apply_t_ops: pinned root without + 1", "restricted.py",
           "prime.root != key + 1", "prime.root != key", SHIFT_TESTS),
    Mutant("accounting_run: splays q, not q + 1", "lab.py",
           "run.splay_query(q + 1)", "run.splay_query(q)", SHIFT_TESTS),
    Mutant("lemma3: T's cursor trace not shifted", "suites.py",
           "[k + 1 for k in cursor_trace(T, program.ops)]", "cursor_trace(T, program.ops)",
           SHIFT_TESTS),
    # -- key-set guards ---------------------------------------------------------
    Mutant("subtree_sums: weight-count guard dropped", "potential.py",
           "if len(weights) != len(tree):", "if False:", KEY_SET_TESTS),
    Mutant("two trees: shared key-set guard dropped", "potential.py",
           "if S.keys != T.keys:", "if False:", KEY_SET_TESTS),
    # -- Lemma 3: the restricted sequences and their counts -------------------
    Mutant("apply_t_ops: rotation side flipped", "restricted.py",
           "_ROTATE[next(sides)]", "_ROTATE[not next(sides)]", LEMMA3_TESTS),
    Mutant("apply_t_ops: UP side flipped", "restricted.py",
           "_UP[key > was]", "_UP[key < was]", LEMMA3_TESTS),
    Mutant("restricted table: rotation's closing UP -> a second rotation", "restricted.py",
           "_ROTATE = ((_L, _L, _ROT, _U),", "_ROTATE = ((_L, _L, _ROT, _ROT),", LEMMA3_TESTS),
    Mutant("lemma3: expected moves 4M + 3R -> 4M + 2R", "suites.py",
           "(4 * M + 3 * R, 2 * M + R)", "(4 * M + 2 * R, 2 * M + R)", LEMMA3_TESTS),
    Mutant("accounting_run: expected rotations 2M + R -> 2M + 2R", "lab.py",
           "r_prime != 2 * M + R", "r_prime != 2 * M + 2 * R", LEMMA3_TESTS),
    # -- T's rank layout, kept T state and the oracle's BFS state --------------
    Mutant("rank_layout: right child's interval starts at its parent's rank", "potential.py",
           "(right[node], node + 1, hi, d + 1)", "(right[node], node, hi, d + 1)", KEPT_TESTS),
    Mutant("rank_layout: left child two levels down", "potential.py",
           "(left[node], lo, node, d + 1)", "(left[node], lo, node, d + 2)", KEPT_TESTS),
    Mutant("kept T: p's interval on the wrong side of x", "lab.py",
           "intervals[p] = x + 1, hi", "intervals[p] = lo, x", KEPT_TESTS),
    Mutant("kept T: up and down depth slices swapped", "lab.py", DEPTH_SLICES,
           "for k in down:\n            depths[k] -= 1\n"
           "        for k in up:\n            depths[k] += 1", KEPT_TESTS),
    # -- the power table and the running products ----------------------------
    Mutant("weights_of_depths: power table never grows", "potential.py",
           "if scale >= len(powers):", "if False:", PRODUCT_TESTS),
    Mutant("InterleavedRun: only grow divided by the gcd", "lab.py",
           "self.shrink //= g", "pass", PRODUCT_TESTS),
    Mutant("opt_cost: BFS state without returned", "oracle.py",
           "nstate = (nsid, ncursor, nk, nret)", "nstate = (nsid, ncursor, nk, True)",
           ORACLE_TESTS),
    # -- the suites' picks off the kept depths and theorem7's row --------------
    Mutant("lemma4: rotated keys drawn down to depth 3", "suites.py",
           "if 0 < d < 3]", "if 0 < d < 4]", GOLDEN_TESTS),
    Mutant("lemma5: candidates at or below the target depth", "suites.py",
           "if d == depth_target]", "if d >= depth_target]", GOLDEN_TESTS),
    Mutant("theorem7 row: max_ratio denominator without R'", "lab.py",
           "run.s_cost / (n + m_prime + r_prime)", "run.s_cost / (n + m_prime)", GOLDEN_TESTS),
    # -- the report's rendering ---------------------------------------------------
    Mutant("render_report: last partial batch dropped", "suites.py",
           "while batch := list(islice(chunks, RENDER_BATCH)):",
           "while len(batch := list(islice(chunks, RENDER_BATCH))) == RENDER_BATCH:",
           GOLDEN_TESTS),
    # -- the command line's flags over the config file -----------------------------
    Mutant("config_from_args: flags not applied", "cli.py",
           "if value is not None:", "if False:", CLI_TESTS),
    Mutant("config_from_args: the file's trials ignored", "cli.py",
           '"trials" not in data', "True", CLI_TESTS),
)


# The hooks below are loaded into each row's pytest child with `-p mutants`.


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """A test function that raises MemoryError ends the child with
    OUT_OF_MEMORY at once.  Its traceback still holds what filled the
    address space, so pytest would fail to report it."""
    try:
        return (yield)
    except MemoryError:
        os._exit(OUT_OF_MEMORY)


def pytest_sessionfinish(session, exitstatus):
    if exitstatus == pytest.ExitCode.TESTS_FAILED:
        session.exitstatus = TESTS_FAILED


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ROW_ADDRESS_SPACE, ROW_ADDRESS_SPACE))


def run_tests(src: Path, tests: tuple, work: Path) -> int | None:
    """pytest's exit code for `tests` run against the package copy under `src`,
    or None if the run took longer than ROW_SECONDS.

    The run's working directory is `work`, so hypothesis keeps its example
    database there and not in the repository."""
    path = os.pathsep.join((str(src), str(ROOT / "tests")))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-p", "mutants", *(str(ROOT / t) for t in tests)]
    try:
        return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=ROW_SECONDS,
                              preexec_fn=limit_address_space).returncode
    except subprocess.TimeoutExpired:
        return None


def verdict(code: int | None) -> str:
    if code is None:
        return f"no verdict (over {ROW_SECONDS} s)"
    if code == OUT_OF_MEMORY:
        return f"no verdict (over {ROW_ADDRESS_SPACE >> 20} MB of address space)"
    return {0: "SURVIVED", TESTS_FAILED: "killed"}.get(code, f"no verdict (pytest exit {code})")


def copy_src(work: Path, mutant: Mutant | None = None) -> Path:
    """A fresh copy of src/ under `work`, with `mutant`'s edit applied."""
    src = work / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(SRC, src / "splaylab", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "splaylab" / mutant.module
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: target does not occur exactly once in {mutant.module}")
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    rows = MUTANTS
    bad = 0
    with tempfile.TemporaryDirectory(prefix="splaylab-mutants-") as tmp:
        work = Path(tmp)
        for tests in dict.fromkeys(m.tests for m in rows):
            code = run_tests(copy_src(work), tests, work)
            if code != 0:
                why = "a test failed" if code == TESTS_FAILED else verdict(code)
                print(f"baseline FAILED ({why}): {' '.join(tests)}")
                return 1
        for m in rows:
            start = time.perf_counter()
            code = run_tests(copy_src(work, m), m.tests, work)
            bad += code != TESTS_FAILED
            print(f"{time.perf_counter() - start:5.1f} s  {verdict(code):>8}  {m.name}")
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
