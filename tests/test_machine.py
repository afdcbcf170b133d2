import random

import pytest
from hypothesis import given, settings, strategies as st

from splaylab.machine import (
    IllegalOpError,
    MachineProgram,
    OpKind,
    ShapeError,
    apply_op,
    build_tree,
    tree_from_roots,
)
from splaylab.generators import (
    balanced_tree,
    random_tree,
    rng_for_trial,
    root_picker,
    spine_tree,
)
from splaylab.oracle import static_optimal
from splaylab.restricted import cursor_trace

from reference import (all_depths, descriptor, in_order, link_view, same_structure,
                       subtree_keys, tree_from_links, validate)


L, R, U, ROT = OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE


def replay(state, ops):
    """Apply `ops` to `state` in place."""
    for i, op in enumerate(ops):
        apply_op(state, op, index=i)


class TestShapes:
    def test_singleton_descriptor(self):
        tree = build_tree("(..)")
        assert tree.root == 0 and link_view(tree, "left") == {0: None} \
            and link_view(tree, "right") == {0: None}

    def test_singleton_alias(self):
        assert same_structure(build_tree("(.)"), build_tree("(..)"))

    def test_round_trip(self):
        desc = "(((..)(..))(..))"
        tree = build_tree(desc)
        assert descriptor(tree) == desc

    @pytest.mark.parametrize("bad", ["", "(", ")", "(.", "(...)", "()", "(..)(..)", "x",
                                     ".", "..", "(..).", "(..))", "(.(..)(..))"])
    def test_malformed(self, bad):
        with pytest.raises(ShapeError):
            build_tree(bad)

    def test_keys_are_0_to_node_count(self):
        for shape in ("(..)", "(.(..))", "(((..)(..))(..))"):
            n = shape.count("(")
            tree = build_tree(shape)
            assert tree.keys == range(n) and len(tree) == n
            assert in_order(tree) == list(range(n))
            validate(tree)

    def test_fig5_tree(self):
        tree = build_tree("(((..)(..))(..))")
        assert tree.root == 3
        assert tree.left[3] == 1 and tree.right[3] == 4
        assert tree.left[1] == 0 and tree.right[1] == 2
        assert all_depths(tree) == {3: 0, 1: 1, 4: 1, 0: 2, 2: 2}

    def test_deep_spine_descriptor(self):
        n = 1024
        right_spine = "(." * n + "." + ")" * n
        tree = build_tree(right_spine)
        assert tree.depth(n - 1) == n - 1
        # Walk the spine: each key's only child is its right child, the next key.
        node = tree.root
        for key in range(n):
            assert node == key and tree.left[node] is None
            node = tree.right[node]
        assert node is None
        assert descriptor(tree) == right_spine


class TestRotation:
    def test_zig_rotation(self):
        # Rotating y over root x hangs y's left subtree as x's right child.
        tree = build_tree("((..)(..))")  # root 1, children 0 and 2
        tree.rotate_up(2)
        assert tree.root == 2
        assert tree.left[2] == 1 and tree.right[1] is None
        validate(tree)

    def test_rotation_inverse(self):
        rng = rng_for_trial(7, 0)
        for trial in range(50):
            tree = random_tree(rng.randint(2, 12), rng)
            before = tree.copy()
            key = rng.choice([k for k in in_order(tree) if tree.parent[k] is not None])
            parent = tree.parent[key]
            tree.rotate_up(key)
            validate(tree)
            tree.rotate_up(parent)
            assert same_structure(tree, before)

    def test_rotate_root_fails(self):
        tree = build_tree("((..)(..))")
        with pytest.raises(IllegalOpError):
            tree.rotate_up(tree.root)

    def test_fuzz_invariants(self):
        rng = rng_for_trial(11, 0)
        tree = random_tree(20, rng)
        order = in_order(tree)
        applied = 0
        while applied < 10_000:
            kind = rng.choice([OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE])
            try:
                apply_op(tree, kind)
            except IllegalOpError:
                continue
            applied += 1
        validate(tree)
        assert in_order(tree) == order


class TestPrograms:
    def test_replay_of_concatenation_is_replay_of_parts(self):
        from splaylab.generators import random_t_program

        rng = rng_for_trial(3, 0)
        tree = random_tree(9, rng)
        p = random_t_program(tree, rng, max_moves=10, max_rotations=5).ops
        scratch = tree.copy()
        replay(scratch, p)
        q = random_t_program(scratch, rng, max_moves=10, max_rotations=5).ops
        t1 = tree.copy()
        replay(t1, p)
        replay(t1, q)
        t2 = tree.copy()
        replay(t2, p + q)
        assert same_structure(t1, t2) and t1.cursor == t2.cursor

    def test_illegal_op_reports_index(self):
        tree = build_tree("(.(..))")  # root 0, right child 1
        with pytest.raises(IllegalOpError) as err:
            cursor_trace(tree, [R, R])
        assert err.value.index == 1

    def test_six_op_move_simulation_counts(self):
        program = MachineProgram([L, R, ROT, U, L, ROT])
        assert program.move_count == 4
        assert program.rotation_count == 2

    def test_cursor_trace(self):
        tree = build_tree("((..)(..))")
        assert cursor_trace(tree, []) == [tree.root] == [1]
        assert cursor_trace(tree, [L, U, R]) == [1, 0, 1, 2]
        assert cursor_trace(tree, [R, ROT, L]) == [1, 2, 2, 1]
        # The replay runs on a copy: the rotation left the tree as it was.
        assert same_structure(tree, build_tree("((..)(..))")) and tree.cursor == 1
        with pytest.raises(IllegalOpError) as err:
            cursor_trace(tree, [L, U, U])
        assert err.value.index == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**30))
def test_shape_round_trip_random(n, seed):
    tree = random_tree(n, rng_for_trial(seed, 0))
    # The same root and cursor, and the same links listed in the same order.
    assert_same_tree(build_tree(descriptor(tree)), tree)


def descriptor_random_shape(n, rng):
    """The descriptor-string construction random trees used to go through."""
    if n == 0:
        return "."
    left = rng.randrange(n)
    return ("(" + descriptor_random_shape(left, rng)
            + descriptor_random_shape(n - 1 - left, rng) + ")")


def test_random_tree_matches_descriptor_route():
    for seed in range(4):
        for n in range(1, 65):
            rng_direct, rng_desc = rng_for_trial(seed, n), rng_for_trial(seed, n)
            direct = random_tree(n, rng_direct)
            via_desc = build_tree(descriptor_random_shape(n, rng_desc))
            assert direct.root == via_desc.root and direct.cursor == via_desc.cursor
            assert direct.keys == via_desc.keys
            for links in ("left", "right", "parent"):
                assert getattr(direct, links) == getattr(via_desc, links)
            assert rng_direct.random() == rng_desc.random()  # same draws consumed


# Widths 1, 2^k and 2^k +- 1: where getrandbits' bit count steps up and where
# the rejection loop rejects most often.
WIDTHS = st.integers(0, 70).flatmap(
    lambda k: st.sampled_from(sorted({max(1, 2**k + d) for d in (-1, 0, 1)})))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.lists(st.tuples(st.integers(-1000, 1000), WIDTHS), max_size=20))
def test_root_picker_matches_randrange(seed, intervals):
    # The inlined pick is randrange(i, j) on the running interpreter: the same
    # value and the same RNG state after every draw.
    ours, theirs = random.Random(seed), random.Random(seed)
    pick = root_picker(ours)
    for i, width in intervals:
        assert pick(i, i + width) == theirs.randrange(i, i + width)
        assert ours.getstate() == theirs.getstate()


def test_random_tree_needs_a_node():
    with pytest.raises(ValueError):
        random_tree(0, rng_for_trial(0, 0))


# -- the parent's hand-built constructions, kept as references for tree_from_roots


def hand_built_spine(n, side):
    keys = list(range(n) if side == "right" else range(n - 1, -1, -1))
    left = {k: None for k in keys}
    right = {k: None for k in keys}
    parent = {keys[0]: None}
    for prev, key in zip(keys, keys[1:]):
        parent[key] = prev
        if side == "right":
            right[prev] = key
        else:
            left[prev] = key
    return tree_from_links(left, right, parent, keys[0])


def hand_built_balanced(n):
    left = {k: None for k in range(n)}
    right = {k: None for k in range(n)}
    parent = {k: None for k in range(n)}
    stack = [(0, n, None, None)]
    while stack:
        lo, hi, par, slot = stack.pop()
        if lo >= hi:
            continue
        mid = (lo + hi) // 2
        parent[mid] = par
        if slot == "left":
            left[par] = mid
        elif slot == "right":
            right[par] = mid
        stack.append((lo, mid, mid, "left"))
        stack.append((mid + 1, hi, mid, "right"))
    return tree_from_links(left, right, parent, n // 2)


def hand_built_static_optimal(counts):
    keys = range(len(counts))
    n = len(keys)
    f = [counts[k] for k in keys]
    prefix = [0] * (n + 1)
    for i, x in enumerate(f):
        prefix[i + 1] = prefix[i] + x
    cost = [[0] * (n + 1) for _ in range(n + 1)]
    root = [[0] * (n + 1) for _ in range(n + 1)]
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            j = i + length
            best, best_r = float("inf"), i
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
    return tree_from_links(left, right, parent, tree_root)


def assert_same_tree(built, reference):
    """Same root, cursor and key set, and the same link lists slot for slot."""
    assert built.root == reference.root and built.cursor == reference.cursor
    assert built.keys == reference.keys
    for links in ("left", "right", "parent"):
        assert getattr(built, links) == getattr(reference, links)
    validate(built)


def test_builders_match_hand_built_references():
    for n in range(1, 65):
        assert_same_tree(balanced_tree(n), hand_built_balanced(n))
        assert_same_tree(spine_tree(n, "right"), hand_built_spine(n, "right"))
        assert_same_tree(spine_tree(n, "left"), hand_built_spine(n, "left"))


def test_static_optimal_matches_hand_built_reference():
    rng = rng_for_trial(5, 0)
    for _ in range(200):
        n = rng.randint(1, 24)
        counts = [rng.choice((0, 1, rng.randrange(100))) for _ in range(n)]
        assert_same_tree(static_optimal(counts), hand_built_static_optimal(counts))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.randoms())
def test_tree_from_roots_random_pick(n, rnd):
    keys = list(range(n))
    calls = []

    def pick(i, j):
        r = rnd.randrange(i, j)
        calls.append((i, j, r))
        return r

    tree = tree_from_roots(n, pick)
    validate(tree)
    assert in_order(tree) == keys
    # One call per node, in preorder with the left subtree first, each on the
    # interval of keys that node's subtree holds.
    preorder, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if node is not None:
            preorder.append(node)
            stack += [tree.right[node], tree.left[node]]
    assert [keys[r] for _, _, r in calls] == preorder
    for i, j, r in calls:
        assert sorted(subtree_keys(tree, keys[r])) == keys[i:j]


def test_builders_need_a_node():
    for build in (balanced_tree, lambda n: spine_tree(n, "right"),
                  lambda n: spine_tree(n, "left"), lambda n: tree_from_roots(n, lambda i, j: i)):
        with pytest.raises(ValueError):
            build(0)
    with pytest.raises(ValueError):
        spine_tree(3, "up")
    with pytest.raises(ValueError):
        static_optimal([])
