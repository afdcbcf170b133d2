"""Ground-truth cost oracles.

Exhaustive offline-optimal cursor cost on tiny instances (uniform-cost search
over tree shape x cursor x query progress), a depth-bounded program-space
search used as an independent cross-check, and the classic interval dynamic
program for a statically optimal tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .machine import (
    CostLedger,
    IllegalOpError,
    MachineOp,
    MachineProgram,
    OpKind,
    TreeState,
    apply_op,
    parse_shape,
    shape_of,
    tree_from_shape,
)

MAX_ENUM_KEYS = 8
MAX_OPT_KEYS = 6
MAX_OPT_QUERIES = 8

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for l in _shapes(i):
            for r in _shapes(n - 1 - i):
                out.append((l, r))
    return tuple(out)


def enumerate_shapes(n: int) -> list:
    """All binary tree shapes on n nodes, canonical order (left size ascending)."""
    if not 1 <= n <= MAX_ENUM_KEYS:
        raise ValueError(f"n must be in 1..{MAX_ENUM_KEYS}, got {n}")
    return list(_shapes(n))


def shape_size(shape) -> int:
    return 0 if shape is None else 1 + shape_size(shape[0]) + shape_size(shape[1])


def shape_index(shape) -> int:
    """Rank of a shape within the canonical enumeration of its size."""
    if shape is None:
        return 0
    left, right = shape
    i = shape_size(left)
    n = 1 + i + shape_size(right)
    offset = sum(CATALAN[j] * CATALAN[n - 1 - j] for j in range(i))
    return offset + shape_index(left) * CATALAN[n - 1 - i] + shape_index(right)


# -- offline-optimal cursor cost ----------------------------------------------


@lru_cache(maxsize=None)
def _decode(shape, n):
    tree = tree_from_shape(shape, range(n))
    left = tuple(tree.left[k] for k in range(n))
    right = tuple(tree.right[k] for k in range(n))
    parent = tuple(tree.parent[k] for k in range(n))
    return left, right, parent, tree.root


@lru_cache(maxsize=None)
def _rotated(shape, n, key):
    tree = tree_from_shape(shape, range(n))
    tree.rotate_up(key)
    return shape_of(tree)


def _normalize(shape, cursor, k, returned, queries, root):
    while returned and k < len(queries) and cursor == queries[k]:
        k += 1
        returned = cursor == root
    return k, returned


def opt_cost(n: int, queries, initial_shape) -> tuple[int, MachineProgram]:
    """Minimum moves+rotations to serve the queries in order from a given shape.

    The cursor must visit each queried key in sequence and pass through the
    root between consecutive services (and after the last one).  Returns the
    optimum and a witness program achieving it.
    """
    if not 1 <= n <= MAX_OPT_KEYS:
        raise ValueError(f"instance too large: n={n}")
    queries = list(queries)
    if len(queries) > MAX_OPT_QUERIES:
        raise ValueError(f"instance too large: m={len(queries)}")
    for q in queries:
        if not 0 <= q < n:
            raise KeyError(f"unknown key {q!r}")
    if isinstance(initial_shape, str):
        initial_shape = parse_shape(initial_shape)
    if shape_size(initial_shape) != n:
        raise ValueError("initial shape does not have n nodes")

    m = len(queries)
    root0 = _decode(initial_shape, n)[3]
    k0, ret0 = _normalize(initial_shape, root0, 0, True, queries, root0)
    start = (initial_shape, root0, k0, ret0)
    pred = {start: None}
    frontier = deque([start])
    goal = None
    if k0 == m and ret0:
        goal = start
    while frontier and goal is None:
        state = frontier.popleft()
        shape, cursor, k, returned = state
        left, right, parent, root = _decode(shape, n)
        moves = []
        if left[cursor] is not None:
            moves.append((OpKind.LEFT, shape, left[cursor]))
        if right[cursor] is not None:
            moves.append((OpKind.RIGHT, shape, right[cursor]))
        if parent[cursor] is not None:
            moves.append((OpKind.UP, shape, parent[cursor]))
            moves.append((OpKind.ROTATE, _rotated(shape, n, cursor), cursor))
        for kind, nshape, ncursor in moves:
            nroot = _decode(nshape, n)[3]
            nret = returned or ncursor == nroot
            nk, nret = _normalize(nshape, ncursor, k, nret, queries, nroot)
            nstate = (nshape, ncursor, nk, nret)
            if nstate in pred:
                continue
            pred[nstate] = (state, kind)
            if nk == m and nret:
                goal = nstate
                break
            frontier.append(nstate)
    if goal is None:  # pragma: no cover - the state graph is connected
        raise RuntimeError("no serving program found")
    ops = []
    state = goal
    while pred[state] is not None:
        state, kind = pred[state]
        ops.append(MachineOp(kind))
    ops.reverse()
    return len(ops), MachineProgram(ops)


def program_search(T0: TreeState, queries, budget: int) -> bool:
    """Depth-bounded search of the raw op space, driven through the machine.

    True iff some legal program of length <= budget serves all queries with
    the required passes through the root.  Independent cross-check for
    opt_cost: explores programs directly, pruned only by revisit dominance.
    """
    queries = list(queries)
    m = len(queries)
    state = T0.copy()
    ledger = CostLedger()
    seen = {}

    def dfs(k, returned, remaining):
        while returned and k < m and state.cursor == queries[k]:
            k += 1
            returned = state.cursor == state.root
        if k == m and returned:
            return True
        if remaining == 0:
            return False
        key = (shape_of(state), state.cursor, k, returned)
        if seen.get(key, -1) >= remaining:
            return False
        seen[key] = remaining
        cursor = state.cursor
        parent = state.parent[cursor]
        for kind in (OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE):
            try:
                apply_op(state, ledger, MachineOp(kind))
            except IllegalOpError:
                continue
            found = dfs(k, returned or state.cursor == state.root, remaining - 1)
            if kind is OpKind.ROTATE:
                state.rotate_up(parent)  # inverse rotation restores the shape
            state.cursor = cursor
            if found:
                return True
        return False

    return dfs(0, True, budget)


# -- static optimality ---------------------------------------------------------


@dataclass(frozen=True)
class FrequencyTable:
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_queries(cls, keys, queries) -> "FrequencyTable":
        counts = {k: 0 for k in keys}
        for q in queries:
            counts[q] += 1
        return cls(counts)


def static_cost(tree: TreeState, freq: FrequencyTable) -> int:
    """Total successful-search cost: sum of f(v) * (depth(v) + 1)."""
    depths = tree.all_depths()
    return sum(freq.counts[v] * (depths[v] + 1) for v in depths)


def static_optimal(freq: FrequencyTable) -> TreeState:
    """Interval DP for a tree minimizing the successful-search cost."""
    keys = sorted(freq.counts)
    n = len(keys)
    if n == 0:
        raise ValueError("empty key set")
    f = [freq.counts[k] for k in keys]
    prefix = [0] * (n + 1)
    for i, x in enumerate(f):
        prefix[i + 1] = prefix[i] + x
    INF = float("inf")
    cost = [[0] * (n + 1) for _ in range(n + 1)]
    root = [[0] * (n + 1) for _ in range(n + 1)]
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            j = i + length
            best, best_r = INF, i
            for r in range(i, j):
                c = cost[i][r] + cost[r + 1][j]
                if c < best:
                    best, best_r = c, r
            cost[i][j] = best + prefix[j] - prefix[i]
            root[i][j] = best_r

    left = {k: None for k in keys}
    right = {k: None for k in keys}
    parent = {k: None for k in keys}
    stack = [(0, n, None, None)]
    tree_root = None
    while stack:
        i, j, par, side = stack.pop()
        if i >= j:
            continue
        r = root[i][j]
        key = keys[r]
        parent[key] = par
        if par is None:
            tree_root = key
        elif side == "L":
            left[par] = key
        else:
            right[par] = key
        stack.append((i, r, key, "L"))
        stack.append((r + 1, j, key, "R"))
    return TreeState(left, right, parent, tree_root)


def brute_force_static_cost(freq: FrequencyTable) -> int:
    """Minimum successful-search cost over every shape (exhaustive oracle)."""
    keys = sorted(freq.counts)
    best = None
    for shape in enumerate_shapes(len(keys)):
        c = static_cost(tree_from_shape(shape, keys), freq)
        if best is None or c < best:
            best = c
    return best


# -- strategy programs -----------------------------------------------------------


def path_ops(tree: TreeState, key: int) -> list:
    """Downward moves from the root to `key`."""
    ops = []
    node = tree.root
    while node != key:
        if key < node:
            ops.append(MachineOp(OpKind.LEFT, key))
            node = tree.left[node]
        else:
            ops.append(MachineOp(OpKind.RIGHT, key))
            node = tree.right[node]
        if node is None:
            raise KeyError(f"unknown key {key!r}")
    return ops


def split_program_by_service(T0: TreeState, ops, queries) -> list:
    """Per-query op segments: each ends at the op that serves its query."""
    queries = list(queries)
    m = len(queries)
    state = T0.copy()
    ledger = CostLedger()
    boundaries = []
    k, returned = 0, True
    while returned and k < m and state.cursor == queries[k]:
        boundaries.append(-1)
        k += 1
        returned = state.cursor == state.root
    for i, op in enumerate(ops):
        apply_op(state, ledger, op, index=i)
        returned = returned or state.cursor == state.root
        while returned and k < m and state.cursor == queries[k]:
            boundaries.append(i)
            k += 1
            returned = state.cursor == state.root
    if k < m:
        raise ValueError("program does not serve every query")
    segments = []
    prev = -1
    for k in range(m):
        segments.append(list(ops[prev + 1 : boundaries[k] + 1]))
        prev = boundaries[k]
    if segments:
        segments[-1].extend(ops[prev + 1 :])
    return segments


def per_query_segments(strategy: str, T0: TreeState, queries) -> list:
    """Cursor-op segments, one per query, for the chosen reference strategy."""
    if strategy in ("static", "static-optimal"):
        segments = []
        for q in queries:
            down = path_ops(T0, q)
            segments.append(down + [MachineOp(OpKind.UP)] * len(down))
        return segments
    if strategy == "oracle-witness":
        n = len(T0)
        _, witness = opt_cost(n, queries, shape_of(T0))
        return split_program_by_service(T0, witness.ops, queries)
    raise ValueError(f"unknown strategy {strategy!r}")


def strategy_program(strategy: str, T0: TreeState, queries) -> MachineProgram:
    ops = []
    for segment in per_query_segments(strategy, T0, queries):
        ops.extend(segment)
    return MachineProgram(ops)
