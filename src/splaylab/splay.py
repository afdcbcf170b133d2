"""Bottom-up splay restructuring with the move-only cost convention.

A splay of key v is charged v's depth before the splay (the downward cursor
moves needed to reach it); the rotations themselves and the post-splay cursor
position are free for the splay tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from .machine import IllegalOpError, Trace, TreeState

ZIG = "zig"
ZIGZIG = "zigzig"
ZIGZAG = "zigzag"
ROTATIONS = {ZIG: 1, ZIGZIG: 2, ZIGZAG: 2}


@dataclass
class SplayRecord:
    key: int
    depth_before: int
    steps: list = field(default_factory=list)  # step kinds, in order

    @property
    def move_cost(self) -> int:
        return self.depth_before

    @property
    def rotation_count(self) -> int:
        return sum(ROTATIONS[kind] for kind in self.steps)


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


def splay(state: TreeState, key: int) -> SplayRecord:
    """Splay `key` to the root; returns the step decomposition and cost."""
    if key not in state.left:
        raise KeyError(f"unknown key {key!r}")
    record = SplayRecord(key, state.depth(key))
    while state.parent[key] is not None:
        record.steps.append(splay_step(state, key))
    state.cursor = state.root
    return record


def serve_queries(state: TreeState, queries) -> tuple[TreeState, Trace]:
    """Splay each query in order; the trace lists step kinds per splayed key."""
    trace = Trace()
    for i, key in enumerate(queries):
        if key not in state.left:
            raise KeyError(f"unknown key {key!r} at query index {i}")
        record = splay(state, key)
        trace.ledger.moves += record.move_cost
        trace.ledger.rotations += record.rotation_count
        trace.steps.extend((kind, key) for kind in record.steps)
    return state, trace


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


def depth_halving_violations(state: TreeState, key: int) -> list:
    """Nodes on the splay path whose depth fails the classic halving estimate.

    Observational: violations are reported, never asserted.
    """
    path = []
    node = key
    while node is not None:
        path.append(node)
        node = state.parent[node]
    before = {v: state.depth(v) for v in path}
    work = state.copy()
    splay(work, key)
    bad = []
    for v in path:
        limit = ceil((before[v] + 1) / 2) + 1
        if work.depth(v) > limit:
            bad.append((v, before[v], work.depth(v)))
    return bad
