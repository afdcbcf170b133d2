"""Simulation of an arbitrary cursor program by a restricted one.

The restricted tree carries two sentinel keys bracketing the key universe and
keeps the simulated cursor's key pinned at its root.  Every simulated move
costs exactly 4 moves + 2 rotations, every simulated rotation exactly
3 moves + 1 rotation, and the emitted program touches only nodes of depth
less than 3, returning the cursor to the root after each rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .machine import (
    CostLedger,
    IllegalOpError,
    MachineOp,
    MachineProgram,
    OpKind,
    TreeState,
    apply_op,
)
from .report import CheckReport

DOWN_LEFT = "down-left"
DOWN_RIGHT = "down-right"
UP = "up"

_L = MachineOp(OpKind.LEFT)
_R = MachineOp(OpKind.RIGHT)
_U = MachineOp(OpKind.UP)
_ROT = MachineOp(OpKind.ROTATE)

# Fixed op sequences; which one applies depends only on the tracked tree.
_SEQ_DOWN_LEFT = (_L, _R, _ROT, _U, _L, _ROT)
_SEQ_DOWN_RIGHT = (_R, _L, _ROT, _U, _R, _ROT)
_SEQ_UP_FROM_LEFT = (_R, _ROT, _L, _L, _ROT, _U)   # cursor is its parent's left child
_SEQ_UP_FROM_RIGHT = (_L, _ROT, _R, _R, _ROT, _U)
_SEQ_ROT_PARENT_ABOVE_RIGHT = (_R, _R, _ROT, _U)   # parent key greater than cursor key
_SEQ_ROT_PARENT_ABOVE_LEFT = (_L, _L, _ROT, _U)


@dataclass
class SentineledTree:
    """Restricted tree plus the tracked plain tree it simulates.

    The tracked tree is bookkeeping only; the restricted tree itself stores no
    extra per-node information.
    """

    prime: TreeState
    sim: TreeState
    min_key: int
    max_key: int
    ledger: CostLedger = field(default_factory=CostLedger)


def init_prime(T: TreeState) -> SentineledTree:
    """Initial restricted configuration: sentinels under the root, subtrees rehung."""
    keys = T.in_order()
    mn, mx = keys[0] - 1, keys[-1] + 1
    prime = T.copy()
    r = prime.root
    lsub, rsub = prime.left[r], prime.right[r]
    prime.left[r] = mn
    prime.right[r] = mx
    prime.left[mn] = None
    prime.right[mn] = lsub
    prime.parent[mn] = r
    prime.left[mx] = rsub
    prime.right[mx] = None
    prime.parent[mx] = r
    if lsub is not None:
        prime.parent[lsub] = mn
    if rsub is not None:
        prime.parent[rsub] = mx
    prime.cursor = r
    sim = T.copy()
    sim.cursor = sim.root
    return SentineledTree(prime, sim, mn, mx)


def op_sequence(st: SentineledTree, t_op: MachineOp) -> tuple:
    """Restricted ops for one simulated op; validates against the tracked tree."""
    sim = st.sim
    c = sim.cursor
    kind = t_op.kind
    if kind is OpKind.COMPARE:
        return (MachineOp(OpKind.COMPARE),)
    if kind is OpKind.LEFT:
        if sim.left[c] is None:
            raise IllegalOpError(f"no left child at {c}")
        return _SEQ_DOWN_LEFT
    if kind is OpKind.RIGHT:
        if sim.right[c] is None:
            raise IllegalOpError(f"no right child at {c}")
        return _SEQ_DOWN_RIGHT
    p = sim.parent[c]
    if p is None:
        raise IllegalOpError("simulated cursor is at the root")
    if kind is OpKind.UP:
        return _SEQ_UP_FROM_LEFT if sim.left[p] == c else _SEQ_UP_FROM_RIGHT
    if kind is OpKind.ROTATE:
        return _SEQ_ROT_PARENT_ABOVE_RIGHT if p > c else _SEQ_ROT_PARENT_ABOVE_LEFT
    raise IllegalOpError(f"unsupported op kind {kind}")  # pragma: no cover


def commit_sim(st: SentineledTree, t_op: MachineOp) -> None:
    """Apply the simulated op to the tracked tree."""
    sim = st.sim
    kind = t_op.kind
    if kind is OpKind.COMPARE:
        return
    if kind is OpKind.ROTATE:
        sim.rotate_up(sim.cursor)
    elif kind is OpKind.LEFT:
        sim.cursor = sim.left[sim.cursor]
    elif kind is OpKind.RIGHT:
        sim.cursor = sim.right[sim.cursor]
    else:
        sim.cursor = sim.parent[sim.cursor]


def apply_t_op(st: SentineledTree, t_op: MachineOp, rotate=None) -> tuple:
    """Translate and execute one simulated op on the restricted tree.

    `rotate(key)`, if given, performs each emitted rotation of the cursor's
    key in place of `apply_op` (the ledger is still charged).
    """
    seq = op_sequence(st, t_op)
    for op in seq:
        if rotate is not None and op.kind is OpKind.ROTATE:
            rotate(st.prime.cursor)
            st.ledger.rotations += 1
        else:
            apply_op(st.prime, st.ledger, op)
    commit_sim(st, t_op)
    if st.prime.root != st.sim.cursor:  # pinned-root invariant
        raise IllegalOpError("restricted-tree root lost the simulated cursor key")
    return seq


def simulate_move(st: SentineledTree, direction: str) -> list:
    """One cursor move (down-left / down-right / up): 4 moves + 2 rotations."""
    kind = {DOWN_LEFT: OpKind.LEFT, DOWN_RIGHT: OpKind.RIGHT, UP: OpKind.UP}.get(direction)
    if kind is None:
        raise IllegalOpError(f"unknown direction {direction!r}")
    return list(apply_t_op(st, MachineOp(kind)))


def simulate_rotation(st: SentineledTree) -> list:
    """One upward rotation of the simulated cursor: 3 moves + 1 rotation."""
    return list(apply_t_op(st, MachineOp(OpKind.ROTATE)))


def simulate_program(T: TreeState, program: MachineProgram):
    """Translate a whole cursor program; emits 4M+3R moves and 2M+R rotations."""
    st = init_prime(T)
    out = []
    for i, t_op in enumerate(program.ops):
        try:
            out.extend(apply_t_op(st, t_op))
        except IllegalOpError as exc:
            raise IllegalOpError(str(exc), index=i) from None
    result = MachineProgram(out)
    result.restricted = check_restricted(init_prime(T).prime, result).passed
    return result, st.ledger


def check_restricted(initial: TreeState, program) -> CheckReport:
    """Replay a program, reporting depth>=3 visits and missed returns to root."""
    ops = program.ops if isinstance(program, MachineProgram) else list(program)
    state = initial.copy()
    ledger = CostLedger()
    report = CheckReport("restricted-sequence")
    pending_return = False
    for i, op in enumerate(ops):
        if op.kind is OpKind.COMPARE:
            apply_op(state, ledger, op, index=i)
            continue
        report.tick()
        if op.kind is OpKind.ROTATE:
            if pending_return:
                report.fail(f"index {i}: rotation before cursor returned to root")
            if state.depth(state.cursor) >= 3:
                report.fail(f"index {i}: rotated node at depth >= 3")
            apply_op(state, ledger, op, index=i)
            pending_return = state.cursor != state.root
        else:
            if pending_return and op.kind is not OpKind.UP:
                report.fail(f"index {i}: sideways move before returning to root")
            apply_op(state, ledger, op, index=i)
            if state.depth(state.cursor) >= 3:
                report.fail(f"index {i}: cursor visited depth >= 3")
            if state.cursor == state.root:
                pending_return = False
    if pending_return:
        report.fail("program ends before cursor returns to root")
    return report


def cursor_trace(initial: TreeState, program) -> list:
    """Keys visited by the cursor, starting at the root."""
    ops = program.ops if isinstance(program, MachineProgram) else list(program)
    state = initial.copy()
    ledger = CostLedger()
    trace = [state.cursor]
    for i, op in enumerate(ops):
        apply_op(state, ledger, op, index=i)
        trace.append(state.cursor)
    return trace


def is_subsequence(sub, seq) -> bool:
    it = iter(seq)
    return all(any(x == y for y in it) for x in sub)
