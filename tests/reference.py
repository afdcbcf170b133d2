"""Plain references the tests compare splaylab against.

`brute_force_static_cost` tries every tree shape, so it checks the interval
dynamic program `splaylab.oracle.static_optimal` without sharing its recurrence.
`split_program_by_service` replays a whole program to find where each query is
served, so it checks the per-query segments `splaylab.oracle.opt_cost` reads
off its search states.
`subtree_keys` lists a subtree by walking it, with no sums and no intervals.
`validate` and `same_structure` read a tree's links directly.
`merge_by_slots` files each extra query into a list per base position, so it
checks the sorted single pass of `splaylab.lab.merge_extras`.
`descriptor` writes a tree's shape descriptor, the inverse of
`splaylab.machine.build_tree` with the keys dropped.
`reference_opt_cost` is the breadth-first search that builds each state's
moves afresh and normalises through a helper, so it pins the witness, op for
op, of `splaylab.oracle.opt_cost`, which reads its moves from a cache.
`reference_subtree_sums` is the two-flag stack walk, so it pins the values and
the dict order of `splaylab.potential.subtree_sums`.
`all_depths` walks a tree by its child links, and `reference_assign_weights`
turns those depths into weights with one power per key, so they check the
in-order walk of `splaylab.potential.assign_weights` and, with
`reference_subtree_sums`, the key-interval sums of `splaylab.lab`.
`reference_apply_op` is the one-op transition dispatched per op on its kind,
and `reference_cursor_trace` and `reference_apply_t_op` call it once per op and
charge the ledger per op, so they check the batched `splaylab.machine.apply_ops`
behind `cursor_trace` and `apply_t_ops`.
`reference_is_subsequence` scans with a generator per element, so it checks
`splaylab.restricted.is_subsequence`.
`reference_run_conjecture` is the hill-climb that replays every candidate's
whole augmented sequence from the start tree, so it checks the checkpointed
replay of `splaylab.suites.run_conjecture`.
`reference_random_t_program` steps its work tree through `apply_op` once per
drawn op, so it pins the ops and the RNG draws of
`splaylab.generators.random_t_program`, which moves its cursor in a local.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache

from splaylab.generators import generate_sequence, random_tree, rng_for_trial
from splaylab.lab import cost_ratio, merge_extras
from splaylab.machine import (
    IllegalOpError,
    MachineProgram,
    OpKind,
    TreeState,
    apply_op,
    build_tree,
)
from splaylab.oracle import _links, _rotated
from splaylab.potential import WeightAssignment
from splaylab.restricted import SentineledTree, op_sequence
from splaylab.splay import total_access_cost

MAX_ENUM_KEYS = 8


def same_structure(a: TreeState, b: TreeState) -> bool:
    """The same root and the same child links; the cursors may differ."""
    return a.root == b.root and a.left == b.left and a.right == b.right


def validate(tree: TreeState) -> None:
    """Fail unless `tree` is a BST whose parent links, root and cursor agree.

    The in-order walk refuses a node it reaches twice, so a cycle in the
    child links fails here instead of walking forever."""
    order = []
    seen = set()
    stack = []
    node = tree.root
    while stack or node is not None:
        while node is not None:
            assert node not in seen, f"node {node} is reached twice"
            seen.add(node)
            stack.append(node)
            node = tree.left[node]
        node = stack.pop()
        order.append(node)
        node = tree.right[node]
    assert len(order) == len(tree.left), "traversal does not visit every node exactly once"
    assert all(a < b for a, b in zip(order, order[1:])), "in-order keys are not increasing"
    assert tree.parent[tree.root] is None, "root has a parent"
    for key in tree.left:
        for side, child in (("left", tree.left[key]), ("right", tree.right[key])):
            assert child is None or tree.parent[child] == key, \
                f"{side} child {child} of {key} has a bad parent link"
    assert tree.cursor in tree.left, "cursor is not a node of the tree"


def subtree_keys(tree: TreeState, key: int) -> set:
    """The keys of the subtree rooted at `key`."""
    keys = set()
    stack = [key]
    while stack:
        node = stack.pop()
        keys.add(node)
        for child in (tree.left[node], tree.right[node]):
            if child is not None:
                stack.append(child)
    return keys


def descriptor(tree: TreeState) -> str:
    """The shape descriptor of `tree`, written without recursion."""
    parts = []
    stack = [tree.root]  # subtrees to write, and the ")" that closes each node
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item is None:
            parts.append(".")
        else:
            parts.append("(")
            stack += [")", tree.right[item], tree.left[item]]
    return "".join(parts)


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    if n == 0:
        return (".",)
    out = []
    for i in range(n):
        for l in _shapes(i):
            for r in _shapes(n - 1 - i):
                out.append(f"({l}{r})")
    return tuple(out)


def enumerate_shapes(n: int) -> list:
    """The descriptors of all binary tree shapes on n nodes, in canonical
    order (left size ascending)."""
    if not 1 <= n <= MAX_ENUM_KEYS:
        raise ValueError(f"n must be in 1..{MAX_ENUM_KEYS}, got {n}")
    return list(_shapes(n))


def all_depths(tree: TreeState) -> dict:
    """The depth of every key of `tree`, keyed in preorder."""
    depths = {tree.root: 0}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        d = depths[node] + 1
        for child in (tree.left[node], tree.right[node]):
            if child is not None:
                depths[child] = d
                stack.append(child)
    return depths


def reference_assign_weights(optimal: TreeState) -> WeightAssignment:
    """Weight 4^(-depth) for every key, from the reference tree's shape."""
    depths = all_depths(optimal)
    scale = max(depths.values())
    return WeightAssignment(scale, {k: 4 ** (scale - d) for k, d in depths.items()})


def static_cost(tree: TreeState, counts: dict) -> int:
    """Total successful-search cost: sum of f(v) * (depth(v) + 1)."""
    depths = all_depths(tree)
    return sum(counts[v] * (depths[v] + 1) for v in depths)


def brute_force_static_cost(counts: dict) -> int:
    """Minimum successful-search cost over every shape (exhaustive oracle)."""
    keys = sorted(counts)
    return min(static_cost(build_tree(keys, shape), counts)
               for shape in enumerate_shapes(len(keys)))


def split_program_by_service(T0: TreeState, ops, queries) -> list:
    """Per-query op segments: each ends at the op that serves its query."""
    queries = list(queries)
    m = len(queries)
    state = T0.copy()
    boundaries = []
    k, returned = 0, True
    while returned and k < m and state.cursor == queries[k]:
        boundaries.append(-1)
        k += 1
        returned = state.cursor == state.root
    for i, op in enumerate(ops):
        apply_op(state, op, index=i)
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


def merge_by_slots(base, extras) -> list:
    """`base` with each (position, key) of `extras` inserted before
    base[position], built from one slot list per position."""
    slots = [[] for _ in range(len(base) + 1)]
    for pos, key in extras:
        slots[pos].append(key)
    merged = []
    for i, q in enumerate(base):
        merged.extend(slots[i])
        merged.append(q)
    merged.extend(slots[len(base)])
    return merged


def _normalize(cursor, k, returned, queries, root):
    while returned and k < len(queries) and cursor == queries[k]:
        k += 1
        returned = cursor == root
    return k, returned


def reference_opt_cost(T0: TreeState, queries) -> tuple[int, list]:
    """`splaylab.oracle.opt_cost` on a valid instance, each state's moves
    listed afresh in the order LEFT, RIGHT, UP, ROTATE."""
    n = len(T0)
    queries = list(queries)
    m = len(queries)
    k0, ret0 = _normalize(T0.root, 0, True, queries, T0.root)
    start = (tuple(T0.parent[k] for k in range(n)), T0.root, k0, ret0)
    pred = {start: None}
    frontier = deque([start])
    goal = None
    if k0 == m and ret0:
        goal = start
    while frontier and goal is None:
        state = frontier.popleft()
        parent, cursor, k, returned = state
        left, right, root = _links(parent)
        moves = []
        if left[cursor] is not None:
            moves.append((OpKind.LEFT, parent, left[cursor]))
        if right[cursor] is not None:
            moves.append((OpKind.RIGHT, parent, right[cursor]))
        if parent[cursor] is not None:
            moves.append((OpKind.UP, parent, parent[cursor]))
            moves.append((OpKind.ROTATE, _rotated(parent, cursor), cursor))
        for kind, nparent, ncursor in moves:
            nroot = _links(nparent)[2]
            nret = returned or ncursor == nroot
            nk, nret = _normalize(ncursor, k, nret, queries, nroot)
            nstate = (nparent, ncursor, nk, nret)
            if nstate in pred:
                continue
            pred[nstate] = (state, kind)
            if nk == m and nret:
                goal = nstate
                break
            frontier.append(nstate)
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


def reference_subtree_sums(tree: TreeState, wa: WeightAssignment) -> dict:
    """Scaled subtree sums from a stack of (node, children done) pairs."""
    sums = {}
    stack = [(tree.root, False)]
    while stack:
        node, done = stack.pop()
        if node is None:
            continue
        if done:
            s = wa.weights[node]
            l, r = tree.left[node], tree.right[node]
            if l is not None:
                s += sums[l]
            if r is not None:
                s += sums[r]
            sums[node] = s
        else:
            stack.append((node, True))
            stack.append((tree.left[node], False))
            stack.append((tree.right[node], False))
    return sums


def reference_apply_op(state: TreeState, op: OpKind, index: int | None = None) -> None:
    """One machine op in place, dispatched on its kind; an illegal op raises
    IllegalOpError (naming `index`, if given) and changes nothing."""
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
    else:
        raise IllegalOpError(f"unknown op {op!r}", index)


def reference_cursor_trace(initial: TreeState, ops) -> list:
    """The keys the cursor visits replaying `ops` on a copy, one call per op."""
    state = initial.copy()
    trace = [state.cursor]
    for i, op in enumerate(ops):
        reference_apply_op(state, op, index=i)
        trace.append(state.cursor)
    return trace


def reference_apply_t_op(st: SentineledTree, t_op: OpKind, rotate=None) -> tuple:
    """One simulated op on the restricted tree, one call and one charge per
    restricted op; `rotate(key)`, if given, performs each rotation."""
    seq = op_sequence(st, t_op)
    prime, ledger = st.prime, st.ledger
    for op in seq:
        if op is not OpKind.ROTATE:
            reference_apply_op(prime, op)
            ledger.moves += 1
        else:
            if rotate is None:
                reference_apply_op(prime, op)
            else:
                rotate(prime.cursor)
            ledger.rotations += 1
    if prime.root != st.sim.cursor:
        raise IllegalOpError("restricted-tree root lost the simulated cursor key")
    return seq


def reference_is_subsequence(sub, seq) -> bool:
    it = iter(seq)
    return all(any(x == y for y in it) for x in sub)


def reference_run_conjecture(suite, config, report) -> dict:
    """The conjecture hill-climb with every candidate replayed from S0."""
    n, m = config.n, config.m
    rng0 = rng_for_trial(config.seed, 0)
    S0 = random_tree(n, rng0)
    base = generate_sequence(config.generator, n, m, rng0)
    base_cost = total_access_cost(S0.copy(), base)

    extras_count = 8
    best_ratio = 0.0
    best_extras = []
    extras = [(rng0.randrange(m + 1), rng0.randrange(n)) for _ in range(extras_count)]
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial + 1)
        candidate = list(extras)
        candidate[rng.randrange(extras_count)] = (rng.randrange(m + 1), rng.randrange(n))
        aug_cost = total_access_cost(S0.copy(), merge_extras(base, candidate))
        ratio = cost_ratio(base_cost, aug_cost)
        report.tick()
        if ratio > best_ratio:
            best_ratio = ratio
            best_extras = list(candidate)
            extras = candidate
    return {
        "n": n, "m": m, "generator": config.generator,
        "base_cost": base_cost, "extras": sorted(best_extras),
        "max_ratio": best_ratio,
        "exceeds_one": best_ratio > 1.0,
    }


def reference_random_t_program(tree: TreeState, rng: random.Random,
                               max_moves: int = 100, max_rotations: int = 50):
    """Random legal move/rotate program for `tree` (consumed by simulation).

    Returns a MachineProgram; the tree passed in is not modified.
    """
    work = tree.copy()
    ops = []
    moves = rng.randrange(max_moves + 1)
    rotations = rng.randrange(max_rotations + 1)
    while moves or rotations:
        choices = []
        if moves:
            if work.left[work.cursor] is not None:
                choices.append(OpKind.LEFT)
            if work.right[work.cursor] is not None:
                choices.append(OpKind.RIGHT)
            if work.parent[work.cursor] is not None:
                choices.append(OpKind.UP)
        if rotations and work.parent[work.cursor] is not None:
            choices.append(OpKind.ROTATE)
        if not choices:
            break
        op = rng.choice(choices)
        apply_op(work, op)
        ops.append(op)
        if op is OpKind.ROTATE:
            rotations -= 1
        else:
            moves -= 1
    return MachineProgram(tuple(ops))
