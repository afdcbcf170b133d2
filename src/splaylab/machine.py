"""Cursor-based binary search tree machine with per-operation cost accounting.

Trees hold a finite set of distinct integer keys.  A single cursor moves
between adjacent nodes; the only structural primitive is an upward rotation
of the node at the cursor.  Moves and rotations are charged on a ledger,
comparisons are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class MachineError(Exception):
    """Base class for machine-model errors."""


class ShapeError(MachineError):
    """Malformed shape descriptor, or keys that do not fit it."""


class IllegalOpError(MachineError):
    """An operation that is not legal at the current cursor position."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message = f"{message} (op index {index})"
        super().__init__(message)
        self.index = index


class OpKind(Enum):
    COMPARE = "compare"
    LEFT = "left"
    RIGHT = "right"
    UP = "up"
    ROTATE = "rotate"


MOVE_KINDS = frozenset({OpKind.LEFT, OpKind.RIGHT, OpKind.UP})

# Short codes used by serialized cursor-program files.
SHORT_CODES = {
    "L": OpKind.LEFT,
    "R": OpKind.RIGHT,
    "U": OpKind.UP,
    "ROT": OpKind.ROTATE,
    "CMP": OpKind.COMPARE,
}
CODES_SHORT = {v: k for k, v in SHORT_CODES.items()}


@dataclass(frozen=True)
class MachineOp:
    kind: OpKind
    operand: int | None = None  # optional key annotation for trace readability


@dataclass
class CostLedger:
    """Monotone per-tree tally.  Comparisons are tracked but never charged."""

    moves: int = 0
    rotations: int = 0
    comparisons: int = 0

    def copy(self) -> "CostLedger":
        return CostLedger(self.moves, self.rotations, self.comparisons)

    def as_dict(self) -> dict:
        return {
            "moves": self.moves,
            "rotations": self.rotations,
            "comparisons": self.comparisons,
        }


class TreeState:
    """Mutable BST over distinct integer keys with parent links and a cursor."""

    __slots__ = ("left", "right", "parent", "root", "cursor")

    def __init__(self, left: dict, right: dict, parent: dict, root: int, cursor: int | None = None):
        self.left = left
        self.right = right
        self.parent = parent
        self.root = root
        self.cursor = root if cursor is None else cursor

    # -- construction -----------------------------------------------------

    @classmethod
    def singleton(cls, key: int) -> "TreeState":
        return cls({key: None}, {key: None}, {key: None}, key)

    def copy(self) -> "TreeState":
        return TreeState(dict(self.left), dict(self.right), dict(self.parent), self.root, self.cursor)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.left)

    def __contains__(self, key: int) -> bool:
        return key in self.left

    def depth(self, key: int) -> int:
        if key not in self.parent:
            raise KeyError(f"unknown key {key!r}")
        d = 0
        node = self.parent[key]
        while node is not None:
            d += 1
            node = self.parent[node]
        return d

    def all_depths(self) -> dict:
        depths = {self.root: 0}
        stack = [self.root]
        while stack:
            node = stack.pop()
            d = depths[node] + 1
            for child in (self.left[node], self.right[node]):
                if child is not None:
                    depths[child] = d
                    stack.append(child)
        return depths

    def in_order(self) -> list:
        out = []
        stack = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = self.left[node]
            node = stack.pop()
            out.append(node)
            node = self.right[node]
        return out

    def subtree_keys(self, key: int) -> set:
        keys = set()
        stack = [key]
        while stack:
            node = stack.pop()
            keys.add(node)
            for child in (self.left[node], self.right[node]):
                if child is not None:
                    stack.append(child)
        return keys

    def same_structure(self, other: "TreeState") -> bool:
        return self.root == other.root and self.left == other.left and self.right == other.right

    def validate(self) -> None:
        """Raise if the BST / link invariants are broken (test hook)."""
        order = self.in_order()
        if len(order) != len(self.left):
            raise MachineError("traversal does not visit every node exactly once")
        if any(a >= b for a, b in zip(order, order[1:])):
            raise MachineError("in-order traversal is not strictly increasing")
        if self.parent[self.root] is not None:
            raise MachineError("root has a parent")
        for key in self.left:
            for side, child in (("left", self.left[key]), ("right", self.right[key])):
                if child is not None and self.parent[child] != key:
                    raise MachineError(f"{side} child {child} of {key} has bad parent link")
        if self.cursor not in self.left:
            raise MachineError("cursor is not a node of the tree")

    # -- structural mutation ------------------------------------------------

    def rotate_up(self, key: int) -> None:
        """Rotate `key` one level upward.  Does not touch cursor or ledgers."""
        p = self.parent[key]
        if p is None:
            raise IllegalOpError("cannot rotate the root")
        g = self.parent[p]
        if self.left[p] == key:
            b = self.right[key]
            self.left[p] = b
            self.right[key] = p
        else:
            b = self.left[key]
            self.right[p] = b
            self.left[key] = p
        if b is not None:
            self.parent[b] = p
        self.parent[p] = key
        self.parent[key] = g
        if g is None:
            self.root = key
        elif self.left[g] == p:
            self.left[g] = key
        else:
            self.right[g] = key


# -- shape descriptors ------------------------------------------------------
#
# Grammar: S ::= "(" S S ")" | "."   with "." an empty subtree and one node
# per parenthesis pair; keys are assigned to node slots in in-order.
# "(.)" is accepted as an alias for the singleton "(..)".


def parse_shape(text: str):
    """Parse a descriptor into nested `(left, right)` tuples (None = empty)."""
    compact = "".join(text.split()).replace("(.)", "(..)")
    if not compact:
        raise ShapeError("empty shape descriptor")
    # Iterative parse; descriptors for spine trees can be deeply nested.
    stack = []  # each frame: [left, right, n_children_seen]
    result = None

    def close(value):
        nonlocal result
        while True:
            if not stack:
                if result is not None:
                    raise ShapeError("trailing content after shape")
                result = value
                return
            frame = stack[-1]
            if frame[2] >= 2:
                raise ShapeError("node with more than two children")
            frame[frame[2]] = value
            frame[2] += 1
            return

    i = 0
    while i < len(compact):
        ch = compact[i]
        if ch == "(":
            stack.append([None, None, 0])
        elif ch == ".":
            if not stack:
                if result is not None or i + 1 != len(compact):
                    raise ShapeError("unexpected '.'")
                return None
            close(None)
            if stack and stack[-1][2] > 2:
                raise ShapeError("node with more than two children")
        elif ch == ")":
            if not stack:
                raise ShapeError("unbalanced ')'")
            frame = stack.pop()
            if frame[2] != 2:
                raise ShapeError("node must have exactly two child slots")
            close((frame[0], frame[1]))
        else:
            raise ShapeError(f"unexpected character {ch!r}")
        i += 1
    if stack:
        raise ShapeError("unbalanced '('")
    if result is None:
        raise ShapeError("shape has no nodes")
    return result


def tree_from_shape(shape, keys) -> TreeState:
    """Build a TreeState with `keys` assigned in-order to the shape's slots."""
    if shape is None:
        raise ShapeError("shape has no nodes")
    keys = list(keys)
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ShapeError("keys must be strictly increasing")
    # Allocate slot ids in preorder, then relabel by in-order position.
    lefts, rights, parents = [], [], []
    root_id = None
    stack = [(shape, None, None)]
    while stack:
        node, pid, side = stack.pop()
        if node is None:
            continue
        nid = len(lefts)
        lefts.append(None)
        rights.append(None)
        parents.append(pid)
        if pid is None:
            root_id = nid
        elif side == "L":
            lefts[pid] = nid
        else:
            rights[pid] = nid
        l, r = node
        stack.append((r, nid, "R"))
        stack.append((l, nid, "L"))
    if len(lefts) != len(keys):
        raise ShapeError(f"shape has {len(lefts)} slots for {len(keys)} keys")
    order = []
    walk = []
    cur = root_id
    while walk or cur is not None:
        while cur is not None:
            walk.append(cur)
            cur = lefts[cur]
        cur = walk.pop()
        order.append(cur)
        cur = rights[cur]
    key_of = dict(zip(order, keys))
    left = {}
    right = {}
    parent = {}
    for nid, key in key_of.items():
        left[key] = None if lefts[nid] is None else key_of[lefts[nid]]
        right[key] = None if rights[nid] is None else key_of[rights[nid]]
        parent[key] = None if parents[nid] is None else key_of[parents[nid]]
    return TreeState(left, right, parent, key_of[root_id])


def build_tree(keys, shape: str) -> TreeState:
    return tree_from_shape(parse_shape(shape), keys)


def shape_of(tree: TreeState):
    """Nested-tuple shape of a tree (inverse of tree_from_shape, keys dropped)."""
    memo = {None: None}
    stack = [(tree.root, False)]
    while stack:
        node, done = stack.pop()
        if node is None:
            continue
        if done:
            memo[node] = (memo[tree.left[node]], memo[tree.right[node]])
        else:
            stack.append((node, True))
            stack.append((tree.left[node], False))
            stack.append((tree.right[node], False))
    return memo[tree.root]


def descriptor_of(tree: TreeState) -> str:
    out = []
    work = [tree.root]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is None:
            out.append(".")
        else:
            out.append("(")
            work.append(")")
            work.append(tree.right[item])
            work.append(tree.left[item])
    return "".join(out)


# -- programs and traces ------------------------------------------------------


@dataclass
class MachineProgram:
    """An op list plus the computed (never asserted) restricted flag."""

    ops: list
    restricted: bool | None = None

    @property
    def move_count(self) -> int:
        return sum(1 for op in self.ops if op.kind in MOVE_KINDS)

    @property
    def rotation_count(self) -> int:
        return sum(1 for op in self.ops if op.kind is OpKind.ROTATE)

    def to_json(self) -> list:
        return [{"op": CODES_SHORT[op.kind]} for op in self.ops]

    @classmethod
    def from_json(cls, items) -> "MachineProgram":
        return cls([MachineOp(SHORT_CODES[item["op"]]) for item in items])


@dataclass
class Trace:
    """Replayable step list: (op label, key at cursor after the op)."""

    steps: list = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)

    def to_json(self, initial: TreeState) -> dict:
        return {
            "initial_shape": descriptor_of(initial),
            "keys": initial.in_order(),
            "steps": [{"op": op, "cursor": cur} for op, cur in self.steps],
            "ledger": self.ledger.as_dict(),
        }


def apply_op(state: TreeState, ledger: CostLedger, op: MachineOp, index: int | None = None) -> None:
    """Apply one machine op in place, charging the ledger."""
    kind = op.kind
    if kind is OpKind.COMPARE:
        ledger.comparisons += 1
        return
    cursor = state.cursor
    if kind is OpKind.LEFT:
        dest = state.left[cursor]
        if dest is None:
            raise IllegalOpError(f"no left child at {cursor}", index)
        state.cursor = dest
        ledger.moves += 1
    elif kind is OpKind.RIGHT:
        dest = state.right[cursor]
        if dest is None:
            raise IllegalOpError(f"no right child at {cursor}", index)
        state.cursor = dest
        ledger.moves += 1
    elif kind is OpKind.UP:
        dest = state.parent[cursor]
        if dest is None:
            raise IllegalOpError("no parent at root", index)
        state.cursor = dest
        ledger.moves += 1
    elif kind is OpKind.ROTATE:
        if state.parent[cursor] is None:
            raise IllegalOpError("cannot rotate at root", index)
        state.rotate_up(cursor)
        ledger.rotations += 1
    else:  # pragma: no cover
        raise IllegalOpError(f"unknown op kind {kind}", index)


def run_program(state: TreeState, program, ledger: CostLedger | None = None) -> Trace:
    """Run a program (MachineProgram or op list) in place, returning its trace."""
    ops = program.ops if isinstance(program, MachineProgram) else list(program)
    ledger = ledger if ledger is not None else CostLedger()
    trace = Trace(ledger=ledger)
    for i, op in enumerate(ops):
        apply_op(state, ledger, op, index=i)
        trace.steps.append((op.kind.value, state.cursor))
    return trace
