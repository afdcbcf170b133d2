import itertools

import pytest

from splaylab import oracle
from splaylab.generators import ExperimentConfig, random_tree, rng_for_trial
from splaylab.machine import OpKind, apply_op, build_tree
from splaylab.oracle import opt_cost, program_search, per_query_segments, static_optimal
from splaylab.restricted import cursor_trace
from splaylab.suites import run_suite

from reference import (
    brute_force_static_cost,
    enumerate_shapes,
    reference_opt_cost,
    split_program_by_service,
    static_cost,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


class TestShapeEnumeration:
    def test_catalan_counts(self):
        for n in range(1, 7):
            assert len(enumerate_shapes(n)) == CATALAN[n]

    def test_catalan_recurrence(self):
        # C(6) = 132 via the convolution, matching the frozen table.
        assert sum(CATALAN[i] * CATALAN[5 - i] for i in range(6)) == CATALAN[6] == 132


class TestOptCost:
    def test_query_at_root_is_free(self):
        cost, segments = opt_cost(build_tree("((..)(..))"), [1, 1, 1])
        assert cost == 0 and segments == [[], [], []]

    def test_single_child_query(self):
        # Root 0 with right child 1: either walk down and back (2 moves) or
        # rotate 1 up and return (rotation + move); both cost 2.
        cost, segments = opt_cost(build_tree("(.(..))"), [1])
        assert cost == 2

    def test_witness_replays_to_claimed_cost(self):
        rng = rng_for_trial(41, 0)
        for _ in range(30):
            n = rng.randint(1, 5)
            T = random_tree(n, rng)
            queries = [rng.randrange(n) for _ in range(rng.randint(1, 5))]
            cost, segments = opt_cost(T, queries)
            witness = [op for segment in segments for op in segment]
            state = T.copy()
            for op in witness:
                apply_op(state, op)
            assert len(witness) == cost

    def test_agrees_with_program_space_search(self):
        rng = rng_for_trial(43, 0)
        for _ in range(50):
            n = rng.randint(1, 4)
            T = random_tree(n, rng)
            queries = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
            cost, _ = opt_cost(T, queries)
            assert program_search(T, queries, cost)
            if cost > 0:
                assert not program_search(T, queries, cost - 1)

    def test_rejects_oversized_instances(self):
        with pytest.raises(ValueError):
            opt_cost(build_tree("(((((((..).).).).).).)"), [0])

    def test_rejects_cursor_off_the_root(self):
        # program_search starts at T0's cursor: from 0 the query is served at
        # once and one UP returns to the root.  From the root opt_cost needs 2.
        T = build_tree("((..)(..))")
        assert opt_cost(T, [0])[0] == 2
        T.cursor = 0
        assert program_search(T, [0], 1)
        with pytest.raises(ValueError, match="not at 0"):
            opt_cost(T, [0])


class TestCachedMoves:
    """The search keys each shape by an id and reads each state's steps from a
    table; its witness must stay the one the search over parent tuples, with
    moves listed afresh, finds, op for op."""

    def test_every_small_instance(self):
        for n in range(1, 5):
            for shape in enumerate_shapes(n):
                T = build_tree(shape)
                for m in range(4):
                    for queries in itertools.product(range(n), repeat=m):
                        assert opt_cost(T, queries) == reference_opt_cost(T, queries)

    def test_random_instances(self):
        rng = rng_for_trial(97, 0)
        for _ in range(500):
            n = rng.randint(1, 6)
            T = random_tree(n, rng)
            queries = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
            assert opt_cost(T, queries) == reference_opt_cost(T, queries)

    def test_every_seed0_theorem7_instance(self, monkeypatch):
        # Each instance the seed-0 theorem7 run at n 6, m 8 (1,500 trials)
        # hands the oracle, witness included, and the run still passes.
        solved = []

        def checked(T0, queries):
            got = opt_cost(T0, queries)
            assert got == reference_opt_cost(T0, queries)
            solved.append(got)
            return got

        monkeypatch.setattr(oracle, "opt_cost", checked)
        config = ExperimentConfig(seed=0, n=6, m=8, trials=1500, strategy="oracle-witness")
        code, _ = run_suite("theorem7", config)
        assert code == 0 and len(solved) == 1500


class TestStaticOptimal:
    def test_dominant_key_becomes_root(self):
        counts = [1, 100, 1, 1]
        assert static_optimal(counts).root == 1

    def test_matches_brute_force(self):
        rng = rng_for_trial(47, 0)
        for _ in range(100):
            n = rng.randint(1, 8)
            counts = [rng.randint(0, 20) for _ in range(n)]
            tree = static_optimal(counts)
            assert static_cost(tree, counts) == brute_force_static_cost(counts)

    def test_cost_monotone_in_frequency(self):
        freq_lo = [1, 1, 1]
        freq_hi = [1, 5, 1]
        t_lo, t_hi = static_optimal(freq_lo), static_optimal(freq_hi)
        assert static_cost(t_hi, freq_hi) <= static_cost(t_lo, freq_hi)


class TestStrategyPrograms:
    def test_static_segments_return_to_root(self):
        # Each static segment is the query's depth in moves down to it, then
        # as many UPs.  Static segments never rotate, so each one replays on
        # T itself, passing the query at that depth and ending at the root.
        rng = rng_for_trial(59, 0)
        trees = [build_tree("(((..)(..))(..))")]
        trees += [random_tree(rng.randint(1, 12), rng) for _ in range(20)]
        for T in trees:
            queries = list(T.keys)
            segments = per_query_segments("static", T, queries)
            assert len(segments) == len(queries)
            for seg, q in zip(segments, queries):
                depth = T.depth(q)
                assert len(seg) == 2 * depth
                assert seg[depth:] == [OpKind.UP] * depth
                keys = cursor_trace(T, seg)
                assert keys[depth] == q and keys[-1] == T.root

    def test_static_unknown_query_rejected_before_any_link_moves(self):
        T = build_tree("(((..)(..))(..))")
        n = len(T)
        links = T.left[:], T.right[:], T.parent[:], T.root, T.cursor
        for q in (n, -1):
            with pytest.raises(KeyError, match=f"unknown key {q}"):
                per_query_segments("static", T, [0, q])
            assert (T.left, T.right, T.parent, T.root, T.cursor) == links

    def test_split_covers_whole_program(self):
        rng = rng_for_trial(53, 0)
        for _ in range(30):
            n = rng.randint(2, 5)
            T = random_tree(n, rng)
            queries = [rng.randrange(n) for _ in range(rng.randint(1, 5))]
            cost, segments = opt_cost(T, queries)
            witness = [op for segment in segments for op in segment]
            # The segments read off the search states equal a replay's split.
            assert segments == split_program_by_service(T, witness, queries)
            assert sum(len(s) for s in segments) == len(witness) == cost
            assert len(segments) == len(queries)
