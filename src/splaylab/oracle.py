"""Ground-truth cost oracles.

Exhaustive offline-optimal cursor cost on tiny instances (breadth-first search
over tree x cursor x query progress), a depth-bounded program-space search
used as an independent cross-check, and the classic interval dynamic program
for a statically optimal tree.  Both searches key a tree by its parent tuple:
the parent of each key in a fixed key order, which fixes the shape.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .machine import (
    IllegalOpError,
    OpKind,
    TreeState,
    apply_op,
    tree_from_roots,
)

_L, _R, _U, _ROT = OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE

MAX_OPT_KEYS = 6
MAX_OPT_QUERIES = 8

# Reference strategies `per_query_segments` can build a program for.
STRATEGIES = ("static", "oracle-witness")


# -- offline-optimal cursor cost ----------------------------------------------


@lru_cache(maxsize=None)
def _links(parent):
    """Left children, right children and root of the tree over the keys
    0..n-1 whose key k has parent `parent[k]` (None at the root)."""
    left = [None] * len(parent)
    right = [None] * len(parent)
    root = None
    for key, p in enumerate(parent):
        if p is None:
            root = key
        elif key < p:
            left[p] = key
        else:
            right[p] = key
    return tuple(left), tuple(right), root


@lru_cache(maxsize=None)
def _rotated(parent, key):
    """The parent tuple after rotating `key` up over its parent."""
    left, right, _ = _links(parent)
    p = parent[key]
    inner = right[key] if key < p else left[key]  # the subtree that moves to p
    out = list(parent)
    out[key], out[p] = parent[p], key
    if inner is not None:
        out[inner] = p
    return tuple(out)


@lru_cache(maxsize=None)
def _moves(parent, cursor):
    """The ops legal at `cursor` in the tree `parent`, in the order LEFT,
    RIGHT, UP, ROTATE, each as (op, parent after, cursor after, root after)."""
    left, right, root = _links(parent)
    moves = []
    if left[cursor] is not None:
        moves.append((_L, parent, left[cursor], root))
    if right[cursor] is not None:
        moves.append((_R, parent, right[cursor], root))
    if parent[cursor] is not None:
        rotated = _rotated(parent, cursor)
        moves.append((_U, parent, parent[cursor], root))
        moves.append((_ROT, rotated, cursor, _links(rotated)[2]))
    return tuple(moves)


def opt_cost(T0: TreeState, queries) -> tuple[int, list]:
    """Minimum moves+rotations to serve the queries in order from tree `T0`
    over the keys 0..n-1, with the cursor starting at its root (a `T0` whose
    cursor is elsewhere raises ValueError).

    The cursor must visit each queried key in sequence and pass through the
    root between consecutive services (and after the last one).  Returns the
    optimum and a witness program achieving it, split into one op list per
    query: each segment ends at the op that serves its query, and the last one
    also holds the return to the root.
    """
    n = len(T0)
    if not 1 <= n <= MAX_OPT_KEYS:
        raise ValueError(f"instance too large: n={n}")
    queries = list(queries)
    if len(queries) > MAX_OPT_QUERIES:
        raise ValueError(f"instance too large: m={len(queries)}")
    if set(T0.parent) != set(range(n)):
        raise ValueError(f"tree keys must be 0..{n - 1}")
    if T0.cursor != T0.root:
        raise ValueError(f"the cursor must start at the root {T0.root}, not at {T0.cursor}")
    for q in queries:
        if not 0 <= q < n:
            raise KeyError(f"unknown key {q!r}")

    m = len(queries)
    # A state is (parent tuple, cursor, queries served, returned to the root
    # since the last service); each state is normalised by serving every
    # query it can serve at once.
    root = T0.root
    k0 = 0
    while k0 < m and queries[k0] == root:
        k0 += 1
    start = (tuple(T0.parent[k] for k in range(n)), root, k0, True)
    pred = {start: None}
    frontier = deque([start])
    goal = start if k0 == m else None
    while frontier and goal is None:
        state = frontier.popleft()
        parent, cursor, k, returned = state
        for kind, nparent, ncursor, nroot in _moves(parent, cursor):
            nk = k
            nret = returned or ncursor == nroot
            while nret and nk < m and ncursor == queries[nk]:
                nk += 1
                nret = ncursor == nroot
            nstate = (nparent, ncursor, nk, nret)
            if nstate in pred:
                continue
            pred[nstate] = (state, kind)
            if nk == m and nret:
                goal = nstate
                break
            frontier.append(nstate)
    if goal is None:  # pragma: no cover - the state graph is connected
        raise RuntimeError("no serving program found")
    # Each state holds k, the queries served before it: an op taken from a
    # state with k served belongs to query k's segment (the last, once all are).
    segments = [[] for _ in range(m)]
    cost = 0
    state = goal
    while pred[state] is not None:
        state, kind = pred[state]
        segments[min(state[2], m - 1)].append(kind)
        cost += 1
    for segment in segments:
        segment.reverse()
    return cost, segments


def program_search(T0: TreeState, queries, budget: int) -> bool:
    """Depth-bounded search of the raw op space, driven through the machine.

    True iff some legal program of length <= budget serves all queries with
    the required passes through the root.  Independent cross-check for
    opt_cost: explores programs directly, pruned only by revisit dominance.
    """
    queries = list(queries)
    m = len(queries)
    state = T0.copy()
    seen = {}

    def dfs(k, returned, remaining):
        while returned and k < m and state.cursor == queries[k]:
            k += 1
            returned = state.cursor == state.root
        if k == m and returned:
            return True
        if remaining == 0:
            return False
        # The parent links, listed in T0's fixed key order, key the shape.
        key = (tuple(state.parent.values()), state.cursor, k, returned)
        if seen.get(key, -1) >= remaining:
            return False
        seen[key] = remaining
        cursor = state.cursor
        parent = state.parent[cursor]
        for kind in (_L, _R, _U, _ROT):
            try:
                apply_op(state, kind)
            except IllegalOpError:
                continue
            found = dfs(k, returned or state.cursor == state.root, remaining - 1)
            if kind is _ROT:
                state.rotate_up(parent)  # inverse rotation restores the shape
            state.cursor = cursor
            if found:
                return True
        return False

    return dfs(0, True, budget)


# -- static optimality ---------------------------------------------------------


def static_optimal(counts: dict) -> TreeState:
    """Interval DP for a tree over the keys of `counts` ({key: access count})
    minimizing the successful-search cost."""
    keys = sorted(counts)
    n = len(keys)
    f = [counts[k] for k in keys]
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
    return tree_from_roots(keys, lambda i, j: root[i][j])


# -- strategy programs -----------------------------------------------------------


def path_ops(tree: TreeState, key: int) -> list:
    """Downward moves from the root to `key`."""
    ops = []
    node = tree.root
    while node != key:
        if key < node:
            ops.append(_L)
            node = tree.left[node]
        else:
            ops.append(_R)
            node = tree.right[node]
        if node is None:
            raise KeyError(f"unknown key {key!r}")
    return ops


def per_query_segments(strategy: str, T0: TreeState, queries) -> list:
    """Cursor-op segments, one per query, for the chosen reference strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {list(STRATEGIES)}")
    if strategy == "static":
        segments = []
        for q in queries:
            down = path_ops(T0, q)
            segments.append(down + [_U] * len(down))
        return segments
    return opt_cost(T0, queries)[1]
