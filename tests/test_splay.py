import signal
from itertools import product
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from splaylab.generators import random_tree, rng_for_trial, spine_tree
from splaylab.machine import IllegalOpError, TreeState, build_tree, tree_from_roots
from splaylab.restricted import init_prime
from splaylab.splay import ZIG, ZIGZAG, ZIGZIG, splay, splay_step, total_access_cost

from reference import in_order, reference_rotate_up, same_structure, validate

# The rotations each step kind makes, so the depth it lifts the key by.
ROTATIONS = {ZIG: 1, ZIGZIG: 2, ZIGZAG: 2}

# Each test here takes well under a second; a kernel that corrupts a parent
# link can instead make a parent walk loop forever.
TEST_SECONDS = 15


class Overrun(BaseException):
    """A test ran past TEST_SECONDS.  Not an Exception, so hypothesis passes it
    straight up rather than shrinking examples that may never end either."""


@pytest.fixture(autouse=True)
def time_bound():
    """Fail any test in this file that runs past TEST_SECONDS (where SIGALRM
    exists), so a looping kernel fails the suite instead of hanging it."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def overrun(signum, frame):
        raise Overrun(f"test ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def splay_kinds(tree, key):
    """Splay `key` to the root by `splay_step` steps; returns the step kinds."""
    kinds = []
    while tree.parent[key] is not None:
        kinds.append(splay_step(tree, key))
    return kinds


def depth_halving_violations(tree, key):
    """Nodes on the splay path whose depth fails the classic halving estimate,
    as (node, depth before, depth after); `tree` is left as it was."""
    path = []
    node = key
    while node is not None:
        path.append(node)
        node = tree.parent[node]
    before = {v: tree.depth(v) for v in path}
    work = tree.copy()
    total_access_cost(work, [key])
    return [(v, before[v], work.depth(v)) for v in path
            if work.depth(v) > ceil((before[v] + 1) / 2) + 1]


class TestSteps:
    def test_zig(self):
        tree = build_tree("((..)(..))")
        assert splay_step(tree, 0) == ZIG
        assert tree.root == 0

    def test_zigzig(self):
        tree = spine_tree(3, "right")  # 0 -> 1 -> 2
        assert splay_step(tree, 2) == ZIGZIG
        assert tree.root == 2
        # zig-zig leaves a left spine 2 -> 1 -> 0, not the naive swap
        assert tree.left[2] == 1 and tree.left[1] == 0

    def test_zigzag(self):
        tree = build_tree("((.(..)).)")  # root 2, left 0, 0's right 1
        assert splay_step(tree, 1) == ZIGZAG
        assert tree.root == 1
        assert tree.left[1] == 0 and tree.right[1] == 2

    def test_splay_equals_iterated_steps(self):
        rng = rng_for_trial(5, 0)
        for _ in range(100):
            tree = random_tree(rng.randint(1, 30), rng)
            key = rng.choice(in_order(tree))
            other = tree.copy()
            depth = tree.depth(key)
            assert total_access_cost(tree, [key]) == depth
            kinds = splay_kinds(other, key)
            assert same_structure(other, tree)
            # Each step lifts the key by its rotation count; only the last may be a zig.
            assert sum(ROTATIONS[kind] for kind in kinds) == depth
            assert len(kinds) == (depth + 1) // 2


class TestCosts:
    def test_cost_is_depth_before(self):
        tree = spine_tree(8, "right")
        assert total_access_cost(tree, [7]) == 7
        assert tree.root == 7

    def test_repeated_query_costs_nothing(self):
        tree = random_tree(16, rng_for_trial(9, 0))
        total_access_cost(tree, [5, 5, 5])
        assert tree.depth(5) == 0
        assert total_access_cost(tree, [5, 5]) == 0

    def test_scan_small_bound(self):
        tree = spine_tree(8, "left")
        assert total_access_cost(tree, range(8)) <= 9 * 8

    def test_depth_halving_observational(self):
        # The halving estimate is a heuristic, reported but never asserted
        # per-node; here we only pin down that violations stay rare and small.
        rng = rng_for_trial(21, 0)
        bad = total = 0
        for _ in range(200):
            tree = random_tree(rng.randint(2, 40), rng)
            key = rng.choice(in_order(tree))
            total += tree.depth(key) + 1
            for _, before, after in depth_halving_violations(tree, key):
                bad += 1
                assert after <= before + 2  # excess beyond the estimate stays small
        assert bad < total * 0.05


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 50), st.integers(0, 2**30))
def test_splay_preserves_order(n, seed):
    rng = rng_for_trial(seed, 0)
    tree = random_tree(n, rng)
    key = rng.choice(in_order(tree))
    before = in_order(tree)
    total_access_cost(tree, [key])
    validate(tree)
    assert tree.root == key
    assert in_order(tree) == before


def textbook_splay(tree, key):
    """Bottom-up splay after Sleator & Tarjan, one case per step on
    `reference_rotate_up`.

    The cases and the rotations' sides are told apart by child links (x and p
    on the same side of their parents is a zig-zig), not by key order as the
    kernels and `TreeState.rotate_up` do.  Returns (depth before, step kinds).
    """
    depth = 0
    node = key
    while tree.parent[node] is not None:
        node = tree.parent[node]
        depth += 1
    kinds = []
    while tree.parent[key] is not None:
        p = tree.parent[key]
        g = tree.parent[p]
        if g is None:
            reference_rotate_up(tree, key)
            kinds.append("zig")
        elif (tree.left[p] == key) == (tree.left[g] == p):
            reference_rotate_up(tree, p)
            reference_rotate_up(tree, key)
            kinds.append("zigzig")
        else:
            reference_rotate_up(tree, key)
            reference_rotate_up(tree, key)
            kinds.append("zigzag")
    return depth, kinds


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(0, 2**30))
def test_kernel_matches_textbook_splayer(data, n, seed):
    tree = random_tree(n, rng_for_trial(seed, 0))
    queries = data.draw(st.lists(st.integers(0, n - 1), max_size=30))
    reference, kernel, single, bulk = tree.copy(), tree.copy(), tree.copy(), tree.copy()
    expected_cost = 0
    for key in queries:
        depth, kinds = textbook_splay(reference, key)
        assert splay_kinds(kernel, key) == kinds
        assert total_access_cost(single, [key]) == depth
        assert same_structure(kernel, reference)
        assert same_structure(single, reference)
        expected_cost += depth
    assert total_access_cost(bulk, queries) == expected_cost
    assert same_structure(bulk, reference)


def drawn_tree(data):
    """A tree over 0..n-1 for 1-40 keys, shaped by drawn roots through
    `tree_from_roots`, or the restricted tree over 0..n+1 that `init_prime`
    builds from one."""
    n = data.draw(st.integers(1, 40))
    tree = tree_from_roots(n, lambda i, j: data.draw(st.integers(i, j - 1)))
    return init_prime(tree)[0] if data.draw(st.booleans()) else tree


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rotate_up_matches_reference_on_plain_and_restricted_trees(data):
    tree = drawn_tree(data)
    reference = tree.copy()
    for _ in range(data.draw(st.integers(1, 20))):
        key = data.draw(st.sampled_from(sorted(tree.keys)))
        if tree.parent[key] is None:
            with pytest.raises(IllegalOpError, match="cannot rotate the root"):
                tree.rotate_up(key)
            with pytest.raises(IllegalOpError, match="cannot rotate the root"):
                reference_rotate_up(reference, key)
        else:
            tree.rotate_up(key)
            reference_rotate_up(reference, key)
        assert same_structure(tree, reference)
        assert tree.parent == reference.parent
        validate(tree)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_splay_matches_textbook_on_plain_and_restricted_trees(data):
    tree = drawn_tree(data)
    reference = tree.copy()
    for key in data.draw(st.lists(st.sampled_from(sorted(tree.keys)), max_size=20)):
        depth, _ = textbook_splay(reference, key)
        assert splay(tree, key) == depth
        assert same_structure(tree, reference)
        assert tree.parent == reference.parent
        assert tree.root == tree.cursor == key
        validate(tree)


# -- the kernels' cases, one local configuration at a time ---------------------


def attach(child, other, side):
    """Descriptor of a node with `child` on `side` ("L" or "R") and `other` opposite."""
    return f"({child}{other})" if side == "L" else f"({other}{child})"


def local_configurations():
    """(descriptor, path from the root to x, first step kind) for every zig,
    zig-zig and zig-zag around x, with the great-grandparent on either side or
    absent and each subtree next to the path present or absent."""
    for side_x in "LR":
        for a, b, c in product(("(..)", "."), repeat=3):
            yield attach(f"({a}{b})", c, side_x), side_x, ZIG
    for side_p, side_x, gg_side in product("LR", "LR", (None, "L", "R")):
        kind = ZIGZIG if side_p == side_x else ZIGZAG
        for a, b, c, d, e in product(("(..)", "."), repeat=5):
            top = attach(attach(f"({a}{b})", c, side_x), d, side_p)
            if gg_side is None:
                if e != ".":
                    continue
                yield top, side_p + side_x, kind
            else:
                yield attach(top, e, gg_side), gg_side + side_p + side_x, kind


def configured_trees():
    """(tree, x, first step kind, shape) for every local configuration, with
    x the node the configuration's path leads to."""
    for shape, path, kind in local_configurations():
        tree = build_tree(shape)
        x = tree.root
        for side in path:
            x = tree.left[x] if side == "L" else tree.right[x]
        yield tree, x, kind, shape


def test_kernel_cases_match_textbook_link_for_link():
    configurations = list(local_configurations())
    # 2 sides x 8 for zig; 4 step shapes x (16 + 2 x 32) for zig-zig and zig-zag.
    assert len(set(configurations)) == 2 * 8 + 4 * (16 + 2 * 32)
    for kernel, x, kind, shape in configured_trees():
        reference = kernel.copy()
        _, expected_kinds = textbook_splay(reference, x)
        kinds = []
        while kernel.parent[x] is not None:
            kinds.append(splay_step(kernel, x))
            assert kernel.cursor == x
            validate(kernel)
        assert kinds[0] == kind, shape
        assert kinds == expected_kinds, shape
        assert same_structure(kernel, reference), shape
        assert kernel.parent == reference.parent, shape


def test_splay_cases_match_textbook_link_for_link():
    # The same configurations through the whole-splay kernel: one call.
    for kernel, x, _, shape in configured_trees():
        reference = kernel.copy()
        depth, _ = textbook_splay(reference, x)
        assert splay(kernel, x) == depth, shape
        validate(kernel)
        assert same_structure(kernel, reference), shape
        assert kernel.parent == reference.parent, shape
        assert kernel.root == kernel.cursor == reference.root == x, shape


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**30), st.data())
def test_splay_matches_step_loop(n, seed, data):
    tree = random_tree(n, rng_for_trial(seed, 0))
    key = data.draw(st.integers(0, n - 1))
    stepped = tree.copy()
    kinds = splay_kinds(stepped, key)
    assert splay(tree, key) == sum(ROTATIONS[kind] for kind in kinds)
    assert same_structure(tree, stepped)
    assert tree.parent == stepped.parent
    assert tree.cursor == key


def test_step_is_built_from_rotate_up(monkeypatch):
    # One rotation for a zig; p then x for a zig-zig; x twice for a zig-zag.
    rotated = []
    rotate_up = TreeState.rotate_up

    def counted(state, key):
        rotated.append(key)
        rotate_up(state, key)

    monkeypatch.setattr(TreeState, "rotate_up", counted)
    for tree, x, kind, shape in configured_trees():
        p = tree.parent[x]
        rotated.clear()
        assert splay_step(tree, x) == kind, shape
        assert rotated == {ZIG: [x], ZIGZIG: [p, x], ZIGZAG: [x, x]}[kind], shape
        assert tree.cursor == x, shape


def test_step_at_root_moves_nothing():
    tree = random_tree(20, rng_for_trial(19, 0))
    tree.cursor = next(key for key in in_order(tree) if key != tree.root)
    before = tree.copy()
    with pytest.raises(IllegalOpError, match="splay step at root"):
        splay_step(tree, tree.root)
    assert same_structure(tree, before) and tree.parent == before.parent
    assert tree.root == before.root and tree.cursor == before.cursor


def test_splay_at_root_costs_nothing():
    tree = random_tree(20, rng_for_trial(13, 0))
    before = tree.copy()
    assert splay(tree, tree.root) == 0
    assert same_structure(tree, before) and tree.parent == before.parent


def test_splay_of_unknown_key_moves_no_link():
    tree = random_tree(20, rng_for_trial(17, 0))
    before = tree.copy()
    with pytest.raises(KeyError):
        splay(tree, 20)
    assert same_structure(tree, before) and tree.parent == before.parent
    assert tree.cursor == before.cursor


def unknown_key_cases():
    """(tree, key) pairs whose key is not in the tree: -1 wraps onto the last
    key's slot of a 0..n-1 tree, so a list would take it without complaint,
    and n is one past it; on a restricted tree over 0..n+1, -1 lands on the
    sentinel n + 1 and n + 2 is one past it."""
    for key in (-1, 20):
        yield random_tree(20, rng_for_trial(23, 0)), key
    prime = init_prime(random_tree(20, rng_for_trial(29, 0)))[0]
    for key in (-1, 22):
        yield prime.copy(), key


ENTRY_POINTS = {
    "splay": splay,
    "splay_step": splay_step,
    "rotate_up": TreeState.rotate_up,
    "depth": TreeState.depth,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_key_raises_before_anything_moves(entry):
    for tree, key in unknown_key_cases():
        # A cursor off the root, so a moved cursor shows.
        tree.cursor = next(k for k in in_order(tree) if k != tree.root)
        before = tree.copy()
        with pytest.raises(KeyError, match=f"unknown key {key}"):
            ENTRY_POINTS[entry](tree, key)
        assert tree.keys == before.keys and tree.parent == before.parent
        assert same_structure(tree, before) and tree.cursor == before.cursor
        validate(tree)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("reverse", [False, True])
def test_cost_from_step_kinds_on_deep_spines(side, reverse):
    n = 3000
    queries = list(range(n))[::-1] if reverse else list(range(n))
    tree = spine_tree(n, side)
    reference = tree.copy()
    expected = 0
    for key in queries:
        expected += reference.depth(key)
        textbook_splay(reference, key)
    assert total_access_cost(tree, queries) == expected
    assert same_structure(tree, reference)
    assert tree.cursor == tree.root == queries[-1]
    validate(tree)
