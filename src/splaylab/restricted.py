"""Simulation of an arbitrary cursor program by a restricted one.

The restricted tree carries two sentinel keys bracketing the key universe and
keeps the simulated cursor's key pinned at its root.  Every simulated move
costs exactly 4 moves + 2 rotations, every simulated rotation exactly
3 moves + 1 rotation, and the emitted program touches only nodes of depth
less than 3, returning the cursor to the root after each rotation.

Each restricted sequence runs in one `apply_ops` call, and the ledger is
charged after it; `cursor_trace` replays a whole op list in one call too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .machine import (
    CostLedger,
    IllegalOpError,
    MachineProgram,
    OpKind,
    TreeState,
    apply_op,
    apply_ops,
)
from .report import CheckReport

_L, _R, _U, _ROT = OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE

# Fixed op sequences; which one applies depends only on the simulated op and,
# for UP and ROTATE, on which side of its parent the tracked cursor hangs.
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
    extra per-node information.  `ledger` counts the restricted ops that
    `apply_t_op` has applied to `prime`.
    """

    prime: TreeState
    sim: TreeState
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
    return SentineledTree(prime, sim)


def op_sequence(st: SentineledTree, t_op: OpKind) -> tuple:
    """Apply one simulated op to the tracked tree and return the restricted ops
    that simulate it.

    `apply_op` raises IllegalOpError on an illegal op before anything moves.
    The sequence follows from the op kind and, for UP and ROTATE, from whether
    the cursor was its parent's left child: in a BST, exactly when its key is
    the smaller.
    """
    sim = st.sim
    cursor = sim.cursor
    parent = sim.parent[cursor]
    apply_op(sim, t_op)
    if t_op is OpKind.LEFT:
        return _SEQ_DOWN_LEFT
    if t_op is OpKind.RIGHT:
        return _SEQ_DOWN_RIGHT
    if t_op is OpKind.UP:
        return _SEQ_UP_FROM_LEFT if parent > cursor else _SEQ_UP_FROM_RIGHT
    return _SEQ_ROT_PARENT_ABOVE_RIGHT if parent > cursor else _SEQ_ROT_PARENT_ABOVE_LEFT


def apply_t_op(st: SentineledTree, t_op: OpKind, rotate=None) -> tuple:
    """Translate and execute one simulated op on the restricted tree in one
    `apply_ops` call, then charge `st.ledger` for every restricted op.

    `rotate(key)`, if given, performs each emitted rotation of the cursor's
    key in place of `TreeState.rotate_up`; the rotation is charged all the same.
    """
    seq = op_sequence(st, t_op)
    prime, ledger = st.prime, st.ledger
    apply_ops(prime, seq, rotate=rotate)
    rotations = seq.count(_ROT)
    ledger.moves += len(seq) - rotations
    ledger.rotations += rotations
    if prime.root != st.sim.cursor:  # pinned-root invariant
        raise IllegalOpError("restricted-tree root lost the simulated cursor key")
    return seq


def simulate_program(T: TreeState, program: MachineProgram) -> tuple[list, CostLedger]:
    """Translate a whole cursor program; the op list has 4M+3R moves and 2M+R rotations."""
    st = init_prime(T)
    out = []
    for i, t_op in enumerate(program.ops):
        try:
            out.extend(apply_t_op(st, t_op))
        except IllegalOpError as exc:
            raise IllegalOpError(str(exc), index=i) from None
    return out, st.ledger


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
        if op is OpKind.ROTATE:
            if pending_return:
                report.fail(f"index {i}: rotation before cursor returned to root")
            if depth >= 3:
                report.fail(f"index {i}: rotated node at depth >= 3")
            depth -= 1
            pending_return = depth != 0
        else:
            if pending_return and op is not OpKind.UP:
                report.fail(f"index {i}: sideways move before returning to root")
            depth += -1 if op is OpKind.UP else 1
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
