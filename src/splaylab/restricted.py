"""Simulation of an arbitrary cursor program by a restricted one.

The restricted tree brackets the simulated tree T's keys with two sentinel
keys and keeps the simulated cursor's key pinned at its root.  Like every
tree it is over 0..len-1: T's key k is the restricted tree's k + 1, and the
sentinels are 0 and n + 1.  Every simulated move costs exactly 4 moves +
2 rotations, every simulated rotation exactly 3 moves + 1 rotation, and the
emitted program touches only nodes of depth less than 3, returning the
cursor to the root after each rotation.

`apply_t_ops` steps the tracked tree through a whole list of simulated ops
in one `apply_ops` call, then runs each op's restricted sequence in one call,
and returns the sequences concatenated: the emitted op list is the only
record of the restricted program, and `MachineProgram` counts its cost.
`cursor_trace` replays a whole op list in one call too.
"""

from __future__ import annotations

from .machine import (
    _L,
    _R,
    _ROT,
    _U,
    IllegalOpError,
    MachineProgram,
    OpKind,
    TreeState,
    apply_op,
    apply_ops,
)
from .report import CheckReport

# The fixed op sequence that simulates each op, by side: entry 1 when the key
# the op leads to (the child or parent the cursor moves to, or the parent it
# rotates over) is greater than the cursor's key, entry 0 when it is smaller.
# In a BST the parent's key is the greater exactly when the cursor is its left
# child.  A move down has one side; `apply_t_ops` reads the four names directly.
_DOWN_LEFT = (_L, _R, _ROT, _U, _L, _ROT)
_DOWN_RIGHT = (_R, _L, _ROT, _U, _R, _ROT)
_UP = ((_L, _ROT, _R, _R, _ROT, _U), (_R, _ROT, _L, _L, _ROT, _U))
_ROTATE = ((_L, _L, _ROT, _U), (_R, _R, _ROT, _U))
_SEQUENCES = {_L: (_DOWN_LEFT,) * 2, _R: (_DOWN_RIGHT,) * 2, _U: _UP, _ROT: _ROTATE}


def init_prime(T: TreeState) -> tuple[TreeState, TreeState]:
    """The initial restricted tree and the tracked copy of T it simulates.

    The restricted tree is over 0..n+1: T's key k is its k + 1, and the
    sentinels 0 and n + 1 hang below the root on its left and right, with
    the root's left subtree below 0 and its right subtree below n + 1.
    """
    n = len(T)
    # T's links with every key one up, and an empty slot for each sentinel.
    left, right, parent = ([None, *[None if k is None else k + 1 for k in links], None]
                           for links in (T.left, T.right, T.parent))
    r = T.root + 1
    lsub, rsub = left[r], right[r]
    left[r] = 0
    right[r] = n + 1
    right[0] = lsub
    parent[0] = r
    left[n + 1] = rsub
    parent[n + 1] = r
    if lsub is not None:
        parent[lsub] = 0
    if rsub is not None:
        parent[rsub] = n + 1
    sim = T.copy()
    sim.cursor = sim.root
    return TreeState(left, right, parent, r), sim


def op_sequence(sim: TreeState, t_op: OpKind) -> tuple:
    """Apply one simulated op to the tracked tree `sim` and return the
    restricted ops that simulate it, read off `_SEQUENCES`.

    `apply_op` raises IllegalOpError on an illegal op before anything moves.
    """
    cursor = sim.cursor
    parent = sim.parent[cursor]
    apply_op(sim, t_op)
    other = parent if t_op is _ROT else sim.cursor
    return _SEQUENCES[t_op][other > cursor]


def apply_t_ops(prime: TreeState, sim: TreeState, t_ops, rotate=None) -> list:
    """Translate and execute the simulated ops of the list `t_ops` in order,
    on the tracked tree `sim` and the restricted tree `prime`; the restricted
    ops that simulate them, concatenated.

    One `apply_ops` call steps the tracked tree through all of `t_ops`, noting
    each rotation's side before it rotates; a move's side is read off the keys
    the cursor leaves and reaches.  Then, for each op the tracked tree took,
    its sequence runs on the restricted tree in one `apply_ops` call and the
    restricted root is checked against the simulated cursor (key k of `sim`
    is key k + 1 of `prime`).  `rotate(key)`, if given, performs each
    emitted rotation of the cursor's key in place of `TreeState.rotate_up`.

    An IllegalOpError names the index in `t_ops` of the op at fault.  If the
    tracked tree refuses op i, the ops before i still run on the restricted
    tree before the error is raised.  Unlike calls of one op each, if the
    restricted side raises at op j (in `rotate`, or at the pinned-root check),
    the tracked tree has already taken the ops after j.  An empty `t_ops`
    returns [] at once.
    """
    if not t_ops:
        return []
    parent = sim.parent
    was = sim.cursor
    trace = []
    sides = []

    def note(key):
        sides.append(parent[key] > key)
        sim.rotate_up(key)

    refused = None
    try:
        apply_ops(sim, t_ops, trace, rotate=note)
    except IllegalOpError as exc:
        refused = exc
    sides = iter(sides)
    out = []
    for i, key in enumerate(trace):
        op = t_ops[i]
        if op is _ROT:
            seq = _ROTATE[next(sides)]
        elif op is _U:
            seq = _UP[key > was]
        else:
            seq = _DOWN_LEFT if op is _L else _DOWN_RIGHT
        try:
            apply_ops(prime, seq, rotate=rotate)
        except IllegalOpError as exc:
            raise IllegalOpError(exc.reason, i) from None
        if prime.root != key + 1:  # pinned-root invariant
            raise IllegalOpError("restricted-tree root lost the simulated cursor key", i)
        out += seq
        was = key
    if refused is not None:
        raise refused
    return out


def simulate_program(T: TreeState, program: MachineProgram) -> MachineProgram:
    """Translate a whole cursor program; the restricted program has 4M+3R moves
    and 2M+R rotations."""
    return MachineProgram(apply_t_ops(*init_prime(T), program.ops))


def check_restricted(initial: TreeState, ops) -> CheckReport:
    """Report depth>=3 visits and missed returns to root in an op sequence.

    The cursor depth follows from the op kinds alone (a move down adds one, a
    move up or a rotation removes one), so nothing is replayed and legality is
    not checked here: `cursor_trace` replays the sequence and raises on an
    illegal op.
    """
    report = CheckReport("restricted-sequence")
    report.tick(len(ops))
    depth = initial.depth(initial.cursor)
    pending_return = False
    for i, op in enumerate(ops):
        if op is _ROT:
            if pending_return:
                report.fail(f"index {i}: rotation before cursor returned to root")
            if depth >= 3:
                report.fail(f"index {i}: rotated node at depth >= 3")
            depth -= 1
            pending_return = depth != 0
        else:
            if pending_return and op is not _U:
                report.fail(f"index {i}: sideways move before returning to root")
            depth += -1 if op is _U else 1
            if depth >= 3:
                report.fail(f"index {i}: cursor visited depth >= 3")
            if depth == 0:
                pending_return = False
    if pending_return:
        report.fail("program ends before cursor returns to root")
    return report


def cursor_trace(initial: TreeState, ops) -> list:
    """Replay an op sequence on a copy of `initial` in one `apply_ops` call;
    the keys the cursor visits, starting at `initial.cursor`."""
    state = initial.copy()
    trace = [state.cursor]
    apply_ops(state, ops, trace)
    return trace


def is_subsequence(sub, seq) -> bool:
    it = iter(seq)
    return all(x in it for x in sub)
