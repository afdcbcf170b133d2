"""Cursor-based binary search tree machine.

Every tree holds the keys 0..n-1, n its node count, so a key is its own
in-order rank.  The restricted tree of `splaylab.restricted` is one too:
T's key k is its k + 1, between the sentinels 0 and n + 1.  A tree keeps
its left, right and parent links in three lists indexed by key, so the
kernels subscript a list with the key itself.  A list would take a key
outside the tree without complaint (-1 is the last key's slot), so every
entry point that takes a key from outside checks it against the tree's key
range and raises KeyError before any link moves.  `key_path` is the one
walk from the root down to a key, with that check.

A single cursor moves between adjacent nodes; the only structural primitive
is an upward rotation of the node at the cursor.  A program is a sequence of
`OpKind` members, and `apply_ops` is the one transition: it steps a tree
through a whole op sequence in one call, and `apply_op` is its one-op form.
A move or a rotation costs 1 and a key comparison is free and is not an op,
so a program's cost is its op count: `MachineProgram` counts the moves and
the rotations of an op list, and neither call charges anything.
"""

from __future__ import annotations

from enum import Enum


class ShapeError(Exception):
    """Malformed shape descriptor."""


class IllegalOpError(Exception):
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


# The members bound once, here; the other modules import these names.
_L, _R, _U, _ROT = OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE


class TreeState:
    """Mutable BST with parent links and a cursor.

    `left`, `right` and `parent` are lists indexed by key, one slot per
    key, each holding a key or None; `keys` is `range(len(left))`."""

    __slots__ = ("keys", "left", "right", "parent", "root", "cursor")

    def __init__(self, left: list, right: list, parent: list,
                 root: int, cursor: int | None = None):
        self.keys = range(len(left))
        self.left = left
        self.right = right
        self.parent = parent
        self.root = root
        self.cursor = root if cursor is None else cursor

    # -- construction -----------------------------------------------------

    def copy(self) -> "TreeState":
        return TreeState(self.left.copy(), self.right.copy(), self.parent.copy(),
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


def key_path(tree: TreeState, key: int) -> list:
    """The path from `tree`'s root down to `key`, each node as (node, lo, hi):
    its subtree holds exactly the keys lo..hi-1.  An unknown key raises
    KeyError."""
    if key not in tree.keys:
        raise KeyError(f"unknown key {key!r}")
    left, right = tree.left, tree.right
    node, lo, hi = tree.root, 0, len(tree.keys)
    path = [(node, lo, hi)]
    while node != key:
        if key < node:
            hi = node
            node = left[node]
        else:
            lo = node + 1
            node = right[node]
        path.append((node, lo, hi))
    return path


def tree_from_roots(n: int, pick) -> TreeState:
    """The tree over the keys 0..n-1 whose subtree over the keys i..j-1 is
    rooted at pick(i, j).

    `pick` is called once per node, in preorder with the left subtree first.
    """
    if n < 1:
        raise ValueError("a tree needs at least one key")
    left = [None] * n
    right = left.copy()
    parent = left.copy()
    root = pick(0, n)
    # Pending intervals (i, j, parent key, the parent's child links).  Each one
    # popped is followed down its left chain; nonempty right intervals wait here.
    stack = [(root + 1, n, root, right)] if root + 1 < n else []
    if root:
        stack.append((0, root, root, left))
    while stack:
        i, j, par, links = stack.pop()
        while True:
            key = pick(i, j)
            parent[key] = par
            links[par] = key
            if key + 1 < j:
                stack.append((key + 1, j, key, right))
            if key == i:
                break
            j, par, links = key, key, left
    return TreeState(left, right, parent, root)


# -- shape descriptors ------------------------------------------------------
#
# Grammar: S ::= "(" S S ")" | "."   with "." an empty subtree and one node
# per parenthesis pair; the keys 0..n-1 are assigned to the nodes in in-order.
# "(.)" is accepted as an alias for the singleton "(..)".


def build_tree(shape: str) -> TreeState:
    """Build the tree of descriptor `shape` over the keys 0..n-1, n its node
    count, assigned in-order to its nodes."""
    compact = "".join(shape.split()).replace("(.)", "(..)")
    if not compact:
        raise ShapeError("empty shape descriptor")
    # One pass over the descriptor.  A node's key, its in-order rank, is fixed
    # when its left slot fills; the nodes open in preorder, the order in which
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
    next_rank = iter(ranks).__next__
    return tree_from_roots(len(ranks), lambda i, j: next_rank())


# -- programs ------------------------------------------------------------------


class MachineProgram:
    """An op list for the cursor machine."""

    __slots__ = ("ops",)

    def __init__(self, ops: list):
        self.ops = ops

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
