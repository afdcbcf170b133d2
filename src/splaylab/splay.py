"""Bottom-up splay restructuring with the move-only cost convention.

A splay of key v is charged v's depth before the splay (the downward cursor
moves needed to reach it); the rotations themselves and the post-splay cursor
position are free for the splay tree.
"""

from __future__ import annotations

from .machine import IllegalOpError, TreeState

ZIG = "zig"
ZIGZIG = "zigzig"
ZIGZAG = "zigzag"
ROTATIONS = {ZIG: 1, ZIGZIG: 2, ZIGZAG: 2}


def splay_step(state: TreeState, key: int) -> str:
    """Apply one zig / zigzig / zigzag step to `key`; its depth drops by 1 or 2.

    Returns the step kind.
    """
    p = state.parent[key]
    if p is None:
        raise IllegalOpError("splay step at root")
    g = state.parent[p]
    if g is None:
        state.rotate_up(key)
        kind = ZIG
    elif (state.left[g] == p) == (state.left[p] == key):
        state.rotate_up(p)
        state.rotate_up(key)
        kind = ZIGZIG
    else:
        state.rotate_up(key)
        state.rotate_up(key)
        kind = ZIGZAG
    state.cursor = key
    return kind


def total_access_cost(state: TreeState, queries) -> int:
    """Total move cost of splaying `queries` in order (bulk runner, in place)."""
    parent = state.parent
    total = 0
    for key in queries:
        d = 0
        node = parent[key]
        while node is not None:
            d += 1
            node = parent[node]
        total += d
        while parent[key] is not None:
            splay_step(state, key)
    state.cursor = state.root
    return total

