from hypothesis import given, settings, strategies as st

from splaylab.generators import random_tree, rng_for_trial, spine_tree
from splaylab.machine import build_tree
from splaylab.splay import (
    ZIG,
    ZIGZAG,
    ZIGZIG,
    depth_halving_violations,
    splay,
    splay_step,
    total_access_cost,
)


class TestSteps:
    def test_zig(self):
        tree = build_tree(range(3), "((..)(..))")
        assert splay_step(tree, 0) == ZIG
        assert tree.root == 0

    def test_zigzig(self):
        tree = spine_tree(3, "right")  # 0 -> 1 -> 2
        assert splay_step(tree, 2) == ZIGZIG
        assert tree.root == 2
        # zig-zig leaves a left spine 2 -> 1 -> 0, not the naive swap
        assert tree.left[2] == 1 and tree.left[1] == 0

    def test_zigzag(self):
        tree = build_tree(range(3), "((.(..)).)")  # root 2, left 0, 0's right 1
        assert splay_step(tree, 1) == ZIGZAG
        assert tree.root == 1
        assert tree.left[1] == 0 and tree.right[1] == 2

    def test_splay_equals_iterated_steps(self):
        rng = rng_for_trial(5, 0)
        for _ in range(100):
            tree = random_tree(rng.randint(1, 30), rng)
            key = rng.choice(tree.in_order())
            other = tree.copy()
            record = splay(tree, key)
            steps = 0
            while other.parent[key] is not None:
                splay_step(other, key)
                steps += 1
            assert other.same_structure(tree)
            assert len(record.steps) == steps
            assert record.rotation_count >= record.depth_before // 2


class TestCosts:
    def test_cost_is_depth_before(self):
        tree = spine_tree(8, "right")
        record = splay(tree, 7)
        assert record.move_cost == 7

    def test_repeated_query_costs_nothing(self):
        tree = random_tree(16, rng_for_trial(9, 0))
        for key in (5, 5, 5):
            splay(tree, key)
        first = tree.depth(5)  # now 0
        assert first == 0
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
            key = rng.choice(tree.in_order())
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
    key = rng.choice(tree.in_order())
    before = tree.in_order()
    splay(tree, key)
    tree.validate()
    assert tree.root == key
    assert tree.in_order() == before


def textbook_splay(tree, key):
    """Bottom-up splay after Sleator & Tarjan, one case per step on `rotate_up`.

    The cases are told apart by key order (x < p < g or x > p > g is a
    zig-zig), not by child links.  Returns (depth before, step kinds).
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
            tree.rotate_up(key)
            kinds.append("zig")
        elif (key < p) == (p < g):
            tree.rotate_up(p)
            tree.rotate_up(key)
            kinds.append("zigzig")
        else:
            tree.rotate_up(key)
            tree.rotate_up(key)
            kinds.append("zigzag")
    return depth, kinds


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(0, 2**30))
def test_kernel_matches_textbook_splayer(data, n, seed):
    tree = random_tree(n, rng_for_trial(seed, 0))
    queries = data.draw(st.lists(st.integers(0, n - 1), max_size=30))
    reference, kernel, bulk = tree.copy(), tree.copy(), tree.copy()
    expected_cost = 0
    for key in queries:
        depth, kinds = textbook_splay(reference, key)
        record = splay(kernel, key)
        assert record.steps == kinds
        assert record.move_cost == depth
        assert record.rotation_count == sum(1 if k == "zig" else 2 for k in kinds)
        assert kernel.same_structure(reference)
        expected_cost += depth
    assert total_access_cost(bulk, queries) == expected_cost
    assert bulk.same_structure(reference)
