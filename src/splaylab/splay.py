"""Bottom-up splay restructuring with the move-only cost convention.

A splay of key v is charged v's depth before the splay (the downward cursor
moves needed to reach it); the rotations themselves and the post-splay cursor
position are free for the splay tree.

`splay_step` is the textbook step, built from `TreeState.rotate_up`; no suite
calls it, and the tests compare `splay` against its step loop.  `splay` is
the one kernel every suite runs: a whole splay in one call, and the only
hand-written link surgery of a splay, written once for both sides of a step.
"""

from __future__ import annotations

from itertools import repeat

from .machine import IllegalOpError, TreeState

ZIG = "zig"
ZIGZIG = "zigzig"
ZIGZAG = "zigzag"
ROTATIONS = {ZIG: 1, ZIGZIG: 2, ZIGZAG: 2}


def splay_step(state: TreeState, key: int) -> str:
    """Apply one zig / zigzig / zigzag step to `key`; its depth drops by 1 or 2.

    The textbook step on `TreeState.rotate_up`, with p the key's parent and g
    its grandparent: a zig rotates the key once; a zig-zig (x < p < g or
    x > p > g, told apart by key order) rotates p, then the key; a zig-zag
    rotates the key twice.  Moves the cursor to `key` and returns the step
    kind; an unknown key raises KeyError, and the root IllegalOpError, before
    anything moves.
    """
    if key not in state.keys:
        raise KeyError(f"unknown key {key!r}")
    parent = state.parent
    p = parent[key]
    if p is None:
        raise IllegalOpError("splay step at root")
    state.cursor = key
    g = parent[p]
    if g is None:
        state.rotate_up(key)
        return ZIG
    if (key < p) == (p < g):
        state.rotate_up(p)
        state.rotate_up(key)
        return ZIGZIG
    state.rotate_up(key)
    state.rotate_up(key)
    return ZIGZAG


def splay(state: TreeState, key: int) -> int:
    """Splay `key` to the root, bottom-up after Sleator & Tarjan (1985).

    Each zig / zig-zig / zig-zag writes the links that `splay_step`'s
    rotations leave, with the links held in locals.  The child lists are
    named by their role in the step: `near` is the list on the side x hangs
    below its parent p (`left` when x < p) and `far` the other, so each link
    write appears once.  Every step starts with the zig, x rotated over p; a
    zig-zig (p on g's near side too) then hangs g below p, taking p's far
    subtree, and a zig-zag hangs g below x, taking x's near subtree.  The
    key's own parent link, the root and the cursor are written once, at the
    end.
    Returns the key's depth before the splay, the number of rotations made.
    An unknown key raises KeyError before any link moves: the lists would
    take a negative or hole key without complaint, so the key is checked
    against `state.keys` first.
    """
    if key not in state.keys:
        raise KeyError(f"unknown key {key!r}")
    left, right, parent = state.left, state.right, state.parent
    x = key
    p = parent[x]
    depth = 0
    while p is not None:
        g = parent[p]
        if x < p:
            near, far = left, right
        else:
            near, far = right, left
        b = far[x]
        near[p] = b
        far[x] = p
        parent[p] = x
        if b is not None:
            parent[b] = p
        if g is None:  # zig
            depth += 1
            break
        gg = parent[g]
        if near[g] == p:  # zig-zig: g goes below p, on p's far side
            c = far[p]
            far[p] = g
            near[g] = c
            parent[g] = p
        else:  # zig-zag: g goes below x, on x's near side
            c = near[x]
            near[x] = g
            far[g] = c
            parent[g] = x
        if c is not None:
            parent[c] = g
        if gg is not None:
            if g < gg:
                left[gg] = x
            else:
                right[gg] = x
        depth += 2
        p = gg
    parent[x] = None
    state.root = x
    state.cursor = x
    return depth


def total_access_cost(state: TreeState, queries) -> int:
    """Total move cost of splaying `queries` in order (bulk runner, in place):
    the sum of `splay`'s returns, each key's depth before its splay."""
    total = sum(map(splay, repeat(state), queries))
    state.cursor = state.root
    return total
