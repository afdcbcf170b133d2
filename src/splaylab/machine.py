"""Cursor-based binary search tree machine.

Trees hold a finite set of distinct integer keys.  A tree keeps its left,
right and parent links in three lists indexed by key the way Python indexes
a list: key k >= 0 sits at index k and key k < 0 at index len + k, so the
kernels subscript a list with the key itself.  The slot of a key outside the
tree holds None, and every entry point that takes a key from outside checks
it against the tree's key set and raises KeyError before any link moves,
since a list would take a negative or hole key without complaint.

A single cursor moves between adjacent nodes; the only structural primitive
is an upward rotation of the node at the cursor.  A program is a sequence of
`OpKind` members, and `apply_ops` is the one transition: it steps a tree
through a whole op sequence in one call, and `apply_op` is its one-op form.
A move or a rotation costs 1 and a key comparison is free and is not an op;
neither call charges anything, so a caller that counts costs keeps its own
`CostLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MachineError(Exception):
    """Base class for machine-model errors."""


class ShapeError(MachineError):
    """Malformed shape descriptor, or keys that do not fit it."""


class IllegalOpError(MachineError):
    """An operation that is not legal at the current cursor position."""

    def __init__(self, message: str, index: int | None = None):
        self.reason = message  # the message without the op index
        if index is not None:
            message = f"{message} (op index {index})"
        super().__init__(message)
        self.index = index


class OpKind(Enum):
    """One cursor-machine op; a program is a sequence of these."""

    LEFT = "left"
    RIGHT = "right"
    UP = "up"
    ROTATE = "rotate"


_L, _R, _U, _ROT = OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE


@dataclass
class CostLedger:
    """Monotone per-tree tally of charged moves and rotations."""

    moves: int = 0
    rotations: int = 0


def key_set(keys) -> range | frozenset:
    """The key set of a tree over the increasing integer sequence `keys`: a
    `range` when they are contiguous, which every suite's trees are, else a
    frozenset.  Equal key sets always come out equal."""
    if keys[-1] - keys[0] + 1 == len(keys):
        return range(keys[0], keys[-1] + 1)
    return frozenset(keys)


def slot_count(lo: int, hi: int) -> int:
    """The length of the link lists of a tree whose least key is `lo` and
    greatest `hi`: one slot per key in max(lo, 0)..max(hi, -1) and one per
    key in min(lo, 0)..-1, so that a negative key k sits at index length + k."""
    return max(hi, -1) + 1 + max(0, -lo)


class TreeState:
    """Mutable BST over distinct integer keys with parent links and a cursor.

    `keys` is the key set (see `key_set`); `left`, `right` and `parent` are
    lists indexed by key (see the module docstring) holding a key or None, and
    None in every slot of a key outside `keys`.  `copy` shares `keys`."""

    __slots__ = ("keys", "left", "right", "parent", "root", "cursor")

    def __init__(self, keys: range | frozenset, left: list, right: list, parent: list,
                 root: int, cursor: int | None = None):
        self.keys = keys
        self.left = left
        self.right = right
        self.parent = parent
        self.root = root
        self.cursor = root if cursor is None else cursor

    # -- construction -----------------------------------------------------

    def copy(self) -> "TreeState":
        return TreeState(self.keys, self.left.copy(), self.right.copy(), self.parent.copy(),
                         self.root, self.cursor)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    def depth(self, key: int) -> int:
        if key not in self.keys:
            raise KeyError(f"unknown key {key!r}")
        d = 0
        node = self.parent[key]
        while node is not None:
            d += 1
            node = self.parent[node]
        return d

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

    # -- structural mutation ------------------------------------------------

    def rotate_up(self, key: int) -> None:
        """Rotate `key` one level upward.  Does not move the cursor.

        `near` is the child list on the side `key` hangs below its parent p
        (`left` when key < p) and `far` the other; the sides are told by key
        order, so each link is written once.  An unknown key raises KeyError
        and the root IllegalOpError, both before any link moves."""
        if key not in self.keys:
            raise KeyError(f"unknown key {key!r}")
        parent = self.parent
        p = parent[key]
        if p is None:
            raise IllegalOpError("cannot rotate the root")
        g = parent[p]
        near, far = (self.left, self.right) if key < p else (self.right, self.left)
        b = far[key]
        near[p] = b
        far[key] = p
        if b is not None:
            parent[b] = p
        parent[p] = key
        parent[key] = g
        if g is None:
            self.root = key
        elif p < g:
            self.left[g] = key
        else:
            self.right[g] = key


def tree_from_roots(keys, pick) -> TreeState:
    """The tree over the increasing `keys` whose subtree over keys[i:j] is
    rooted at keys[pick(i, j)].

    `pick` is called once per node, in preorder with the left subtree first.
    """
    keys = list(keys)
    n = len(keys)
    if n < 1:
        raise ValueError("a tree needs at least one key")
    left = [None] * slot_count(keys[0], keys[-1])
    right = left.copy()
    parent = left.copy()
    r = pick(0, n)
    root = keys[r]
    # Pending intervals (i, j, parent key, the parent's child links).  Each one
    # popped is followed down its left chain; nonempty right intervals wait here.
    stack = [(r + 1, n, root, right)] if r + 1 < n else []
    if r:
        stack.append((0, r, root, left))
    while stack:
        i, j, par, links = stack.pop()
        while True:
            r = pick(i, j)
            key = keys[r]
            parent[key] = par
            links[par] = key
            if r + 1 < j:
                stack.append((r + 1, j, key, right))
            if r == i:
                break
            j, par, links = r, key, left
    return TreeState(key_set(keys), left, right, parent, root)


# -- shape descriptors ------------------------------------------------------
#
# Grammar: S ::= "(" S S ")" | "."   with "." an empty subtree and one node
# per parenthesis pair; keys are assigned to node slots in in-order.
# "(.)" is accepted as an alias for the singleton "(..)".


def build_tree(keys, shape: str) -> TreeState:
    """Build the tree of descriptor `shape` with the increasing `keys`
    assigned in-order to its nodes."""
    compact = "".join(shape.split()).replace("(.)", "(..)")
    if not compact:
        raise ShapeError("empty shape descriptor")
    # One pass over the descriptor.  A node's in-order rank is fixed when its
    # left slot fills; the nodes open in preorder, the order in which
    # tree_from_roots asks for them, so list the ranks in that order.
    ranks = []
    rank = 0
    open_nodes = []  # [preorder index, child slots filled] per open node
    closed = False  # the top-level node is complete
    for ch in compact:
        if closed:
            raise ShapeError("trailing content after shape")
        if ch == "(":
            open_nodes.append([len(ranks), 0])
            ranks.append(None)
            continue
        if ch == ")":
            if not open_nodes:
                raise ShapeError("unbalanced ')'")
            if open_nodes.pop()[1] != 2:
                raise ShapeError("node must have exactly two child slots")
            if not open_nodes:
                closed = True
                continue
        elif ch == ".":
            if not open_nodes:
                raise ShapeError("unexpected '.'")
        else:
            raise ShapeError(f"unexpected character {ch!r}")
        # A subtree ("." or a closed node) fills the next slot of its parent.
        node = open_nodes[-1]
        if node[1] == 2:
            raise ShapeError("node with more than two children")
        if node[1] == 0:
            ranks[node[0]] = rank
            rank += 1
        node[1] += 1
    if open_nodes:
        raise ShapeError("unbalanced '('")
    keys = list(keys)
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ShapeError("keys must be strictly increasing")
    if len(ranks) != len(keys):
        raise ShapeError(f"shape has {len(ranks)} slots for {len(keys)} keys")
    next_rank = iter(ranks).__next__
    return tree_from_roots(keys, lambda i, j: next_rank())


# -- programs ------------------------------------------------------------------


@dataclass
class MachineProgram:
    """An op list for the cursor machine."""

    ops: list

    @property
    def move_count(self) -> int:
        return len(self.ops) - self.ops.count(_ROT)

    @property
    def rotation_count(self) -> int:
        return self.ops.count(_ROT)


def apply_ops(state: TreeState, ops, trace: list | None = None, rotate=None) -> None:
    """Apply the machine ops `ops` in order, in place.

    The links and the cursor are held in locals for the whole sequence.  Each
    key the cursor is at after an op (a rotation leaves it in place) is
    appended to `trace`, if given.  Each rotation is handed to `rotate(key)`,
    by default `state.rotate_up`, with `state.cursor` already current.  An
    illegal op raises IllegalOpError naming its index in `ops`, and leaves the
    tree and its cursor as the previous op left them.
    """
    left, right, parent = state.left, state.right, state.parent
    if rotate is None:
        rotate = state.rotate_up
    cursor = state.cursor
    for i, op in enumerate(ops):
        if op is _L:
            dest = left[cursor]
            if dest is None:
                state.cursor = cursor
                raise IllegalOpError(f"no left child at {cursor}", i)
            cursor = dest
        elif op is _R:
            dest = right[cursor]
            if dest is None:
                state.cursor = cursor
                raise IllegalOpError(f"no right child at {cursor}", i)
            cursor = dest
        elif op is _U:
            dest = parent[cursor]
            if dest is None:
                state.cursor = cursor
                raise IllegalOpError("no parent at root", i)
            cursor = dest
        elif op is _ROT:
            state.cursor = cursor
            if parent[cursor] is None:
                raise IllegalOpError("cannot rotate at root", i)
            rotate(cursor)
        else:  # pragma: no cover
            state.cursor = cursor
            raise IllegalOpError(f"unknown op {op!r}", i)
        if trace is not None:
            trace.append(cursor)
    state.cursor = cursor


def apply_op(state: TreeState, op: OpKind, index: int | None = None) -> None:
    """Apply one machine op in place: `apply_ops` on a one-op sequence.  An
    illegal op raises IllegalOpError (naming `index`, if given) and leaves the
    tree and its cursor as they were."""
    try:
        apply_ops(state, (op,))
    except IllegalOpError as exc:
        raise IllegalOpError(exc.reason, index) from None
