"""Ground-truth cost oracles.

Exhaustive offline-optimal cursor cost on tiny instances (breadth-first search
over tree x cursor x query progress), a depth-bounded program-space search
used as an independent cross-check, and the classic interval dynamic program
for a statically optimal tree.  A parent tuple, the parent of each key in
a fixed key order, fixes a tree's shape.  The program-space search keys its
states by that tuple; the breadth-first search keys them by a small int id
that a process-wide table gives each parent tuple, and reads each shape and
cursor's legal steps from a table built once per pair.  A reference
program is either `opt_cost`'s witness or the static tree's walk down each
query's `machine.key_path` and back up.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

from .machine import (
    _L,
    _R,
    _ROT,
    _U,
    IllegalOpError,
    TreeState,
    apply_op,
    key_path,
    tree_from_roots,
)

MAX_OPT_KEYS = 6
MAX_OPT_QUERIES = 8

# Reference strategies `per_query_segments` can build a program for.
STRATEGIES = ("static", "oracle-witness")


# -- offline-optimal cursor cost ----------------------------------------------


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
    return left, right, root


# The shape table, shared by every search in the process: each parent tuple
# met gets the next int id, and `_STEPS[id][cursor]` holds the steps from
# that shape and cursor, built from `_links` and `TreeState.rotate_up` on
# first use.
_SHAPE_IDS = {}
_SHAPES = []
_STEPS = []


def _shape_id(parent) -> int:
    """The id of the shape whose key k has parent `parent[k]`."""
    sid = _SHAPE_IDS.get(parent)
    if sid is None:
        sid = _SHAPE_IDS[parent] = len(_SHAPES)
        _SHAPES.append(parent)
        _STEPS.append([None] * len(parent))
    return sid


def _steps(sid: int, cursor: int) -> tuple:
    """The ops legal at `cursor` in shape `sid`, in the order LEFT, RIGHT,
    UP, ROTATE, each as (op, shape id after, cursor after, whether that
    cursor is at the root)."""
    parent = _SHAPES[sid]
    left, right, root = _links(parent)
    steps = []
    if left[cursor] is not None:
        steps.append((_L, sid, left[cursor], left[cursor] == root))
    if right[cursor] is not None:
        steps.append((_R, sid, right[cursor], right[cursor] == root))
    if parent[cursor] is not None:
        steps.append((_U, sid, parent[cursor], parent[cursor] == root))
        tree = TreeState(left, right, list(parent), root)
        tree.rotate_up(cursor)
        steps.append((_ROT, _shape_id(tuple(tree.parent)), cursor, tree.root == cursor))
    steps = _STEPS[sid][cursor] = tuple(steps)
    return steps


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
    if T0.cursor != T0.root:
        raise ValueError(f"the cursor must start at the root {T0.root}, not at {T0.cursor}")
    for q in queries:
        if not 0 <= q < n:
            raise KeyError(f"unknown key {q!r}")

    m = len(queries)
    # A state is (shape id, cursor, queries served, returned to the root
    # since the last service); each state is normalised by serving every
    # query it can serve at once.
    root = T0.root
    k0 = 0
    while k0 < m and queries[k0] == root:
        k0 += 1
    start = (_shape_id(tuple(T0.parent)), root, k0, True)
    pred = {start: None}
    frontier = deque([start])
    goal = start if k0 == m else None
    while frontier and goal is None:
        state = frontier.popleft()
        sid, cursor, k, returned = state
        steps = _STEPS[sid][cursor]
        if steps is None:
            steps = _steps(sid, cursor)
        for kind, nsid, ncursor, at_root in steps:
            nk = k
            nret = returned or at_root
            while nret and nk < m and ncursor == queries[nk]:
                nk += 1
                nret = at_root
            nstate = (nsid, ncursor, nk, nret)
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
        # The parent list, in T0's fixed slot order, keys the shape.
        key = (tuple(state.parent), state.cursor, k, returned)
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


def static_optimal(counts: list) -> TreeState:
    """Interval DP for a tree over the keys 0..n-1 minimizing the
    successful-search cost, with `counts[k]` the access count of key k."""
    n = len(counts)
    prefix = [0, *accumulate(counts)]
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
    return tree_from_roots(n, lambda i, j: root[i][j])


# -- strategy programs -----------------------------------------------------------


def per_query_segments(strategy: str, T0: TreeState, queries) -> list:
    """Cursor-op segments, one per query, for the chosen reference strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {list(STRATEGIES)}")
    if strategy == "static":
        segments = []
        for q in queries:
            down = [_L if q < node else _R for node, _, _ in key_path(T0, q)[:-1]]
            segments.append(down + [_U] * len(down))
        return segments
    return opt_cost(T0, queries)[1]
