"""Cursor-based binary search tree machine.

Trees hold a finite set of distinct integer keys.  A single cursor moves
between adjacent nodes; the only structural primitive is an upward rotation
of the node at the cursor.  A program is a sequence of `OpKind` members, and
`apply_op` is the one transition that steps a tree by one of them.  A move or
a rotation costs 1 and a key comparison is free and is not an op; `apply_op`
charges nothing, so a caller that counts costs keeps its own `CostLedger`.
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


MOVE_KINDS = frozenset({OpKind.LEFT, OpKind.RIGHT, OpKind.UP})


@dataclass
class CostLedger:
    """Monotone per-tree tally of charged moves and rotations."""

    moves: int = 0
    rotations: int = 0


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

    def copy(self) -> "TreeState":
        return TreeState(dict(self.left), dict(self.right), dict(self.parent), self.root, self.cursor)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.left)

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

    # -- structural mutation ------------------------------------------------

    def rotate_up(self, key: int) -> None:
        """Rotate `key` one level upward.  Does not move the cursor."""
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


def tree_from_roots(keys, pick) -> TreeState:
    """The tree over the increasing `keys` whose subtree over keys[i:j] is
    rooted at keys[pick(i, j)].

    `pick` is called once per node, in preorder with the left subtree first.
    """
    keys = list(keys)
    n = len(keys)
    if n < 1:
        raise ValueError("a tree needs at least one key")
    left = dict.fromkeys(keys)
    right = dict.fromkeys(keys)
    parent = dict.fromkeys(keys)
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
    return TreeState(left, right, parent, root)


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
    # A node's in-order rank is i + the size of its left subtree, where keys[i:j]
    # is its interval.  An in-order walk pushes the nodes in preorder, the order
    # in which tree_from_roots asks for them, so list the ranks in that order.
    ranks = []
    walk = []
    node, rank = shape, 0
    while walk or node is not None:
        while node is not None:
            walk.append((node, len(ranks)))
            ranks.append(None)
            node = node[0]
        node, pre = walk.pop()
        ranks[pre] = rank
        rank += 1
        node = node[1]
    if len(ranks) != len(keys):
        raise ShapeError(f"shape has {len(ranks)} slots for {len(keys)} keys")
    next_rank = iter(ranks).__next__
    return tree_from_roots(keys, lambda i, j: next_rank())


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


# -- programs ------------------------------------------------------------------


@dataclass
class MachineProgram:
    """An op list for the cursor machine."""

    ops: list

    @property
    def move_count(self) -> int:
        return sum(1 for op in self.ops if op in MOVE_KINDS)

    @property
    def rotation_count(self) -> int:
        return sum(1 for op in self.ops if op is OpKind.ROTATE)


def apply_op(state: TreeState, op: OpKind, index: int | None = None) -> None:
    """Apply one machine op in place.  An illegal op raises IllegalOpError
    (naming `index`, if given) and leaves the tree and its cursor as they were."""
    cursor = state.cursor
    if op is OpKind.LEFT:
        dest = state.left[cursor]
        if dest is None:
            raise IllegalOpError(f"no left child at {cursor}", index)
        state.cursor = dest
    elif op is OpKind.RIGHT:
        dest = state.right[cursor]
        if dest is None:
            raise IllegalOpError(f"no right child at {cursor}", index)
        state.cursor = dest
    elif op is OpKind.UP:
        dest = state.parent[cursor]
        if dest is None:
            raise IllegalOpError("no parent at root", index)
        state.cursor = dest
    elif op is OpKind.ROTATE:
        if state.parent[cursor] is None:
            raise IllegalOpError("cannot rotate at root", index)
        state.rotate_up(cursor)
    else:  # pragma: no cover
        raise IllegalOpError(f"unknown op {op!r}", index)
