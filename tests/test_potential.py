"""Potential and weight tests, anchored to independently computed oracles.

The worked five-key example values below were derived by hand with exact
rational arithmetic (see the Fraction-based recomputation in
TestIndependentOracles) before being frozen here.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from splaylab.generators import random_pair, random_tree, rng_for_trial, spine_tree
from splaylab.lab import InterleavedRun
from splaylab.machine import build_tree
from splaylab.potential import (
    assign_weights,
    check_potential_floor,
    check_weight_sum_bounds,
    phi,
    potential_of,
    subtree_sums,
)
from splaylab.restricted import init_prime

from reference import in_order, reference_assign_weights, reference_subtree_sums, subtree_keys

# Five keys 0..4; reference tree T rooted at 3, splay tree S rooted at 1.
T_DESC = "(((..)(..))(..))"
S_DESC = "((..)((..)(..)))"


def worked_example():
    return build_tree(S_DESC), build_tree(T_DESC)


class TestWorkedExample:
    def test_scaled_weights(self):
        _, T = worked_example()
        assert assign_weights(T) == (2, [1, 4, 1, 16, 4])

    def test_scaled_sums_exact(self):
        S, T = worked_example()
        _, weights = assign_weights(T)
        assert subtree_sums(T, weights) == {0: 1, 2: 1, 4: 4, 1: 6, 3: 26}
        assert subtree_sums(S, weights) == {0: 1, 2: 1, 4: 4, 3: 21, 1: 26}

    def test_phi_value(self):
        S, T = worked_example()
        assert phi(S, T) == pytest.approx(math.log2(7 / 2), abs=1e-9)

    def test_reference_potential_value(self):
        S, T = worked_example()
        expected = math.log2(3 / 8) + math.log2(13 / 8) - 10
        assert potential_of(T, *assign_weights(T)) == pytest.approx(expected, abs=1e-9)

    def test_rank_difference_drives_phi(self):
        S, T = worked_example()
        scale, weights = assign_weights(T)
        bias = 2 * scale  # r(v) = log2 s(v), the scale divided out
        r_S = [math.log2(s) - bias for s in subtree_sums(S, weights).values()]
        r_T = [math.log2(s) - bias for s in subtree_sums(T, weights).values()]
        delta = sum(r_S) - sum(r_T)
        assert delta == pytest.approx(phi(S, T), abs=1e-12)


class TestSmallClosedForms:
    def test_balanced_three_potential(self):
        # Weights 1, 1/4, 1/4: ranks log2(3/2), log2(1/4), log2(1/4).
        tree = build_tree("((..)(..))")
        expected = math.log2(3 / 2) - 4
        assert potential_of(tree, *assign_weights(tree)) == pytest.approx(expected, abs=1e-12)

    def test_identical_trees_zero_phi(self):
        _, T = worked_example()
        assert phi(T.copy(), T) == 0.0


class TestIndependentOracles:
    def test_fraction_recomputation_three_keys(self):
        # T balanced on 3 keys, S a right spine; recompute phi with Fractions.
        T = build_tree("((..)(..))")
        S = build_tree("(.(.(..)))")
        w = {1: Fraction(1), 0: Fraction(1, 4), 2: Fraction(1, 4)}

        def p(tree):
            total = 0.0
            for v in in_order(tree):
                s = sum(w[u] for u in subtree_keys(tree, v))
                total += math.log2(s)
            return total

        expected = p(S) - p(T)
        assert phi(S, T) == pytest.approx(expected, abs=1e-12)

    def test_mpmath_recomputation_worked_example(self):
        S, T = worked_example()
        scale, weights = assign_weights(T)
        with mpmath.workdps(60):
            def p(tree):
                return sum(
                    mpmath.log(mpmath.mpf(s) / 4 ** scale, 2)
                    for s in subtree_sums(tree, weights).values()
                )
            expected = float(p(S) - p(T))
        assert phi(S, T) == pytest.approx(expected, abs=1e-9)


class TestBoundSuites:
    def test_weight_sum_bounds_random(self):
        for trial in range(200):
            rng = rng_for_trial(17, trial)
            S, T = random_pair(rng.randint(1, 64), rng)
            report = check_weight_sum_bounds(S, T)
            assert report.passed, report.violations

    def test_potential_floor_random(self):
        for trial in range(200):
            rng = rng_for_trial(19, trial)
            S, T = random_pair(rng.randint(1, 64), rng)
            report = check_potential_floor(S, T)
            assert report.passed, report.violations

    def test_floor_holds_on_spines(self):
        from splaylab.generators import balanced_tree, spine_tree

        n = 32
        for S in (spine_tree(n, "left"), spine_tree(n, "right"), balanced_tree(n)):
            for T in (spine_tree(n, "right"), balanced_tree(n)):
                assert phi(S, T) > -n

    def test_key_set_mismatch_rejected(self):
        # Five weights for a three-key tree: refused before any walk.
        S = build_tree("((..)(..))")
        T = build_tree("((((..).).).)")
        with pytest.raises(KeyError):
            subtree_sums(S, assign_weights(T)[1])

    def test_two_tree_entry_points_refuse_different_key_sets(self):
        # Keys 0..4 against 0..2: every tree is over 0..len-1, so key sets
        # differ exactly when sizes do.  Every function that meets two trees
        # refuses the pair, either way round, with no link moved.
        larger = build_tree(T_DESC)
        smaller = build_tree("((..)(..))")
        entry_points = (phi, check_weight_sum_bounds, check_potential_floor, InterleavedRun)
        for S, T in ((larger, smaller), (smaller, larger)):
            links = [(t.left[:], t.right[:], t.parent[:], t.root) for t in (S, T)]
            for entry_point in entry_points:
                with pytest.raises(KeyError, match="share one key set"):
                    entry_point(S, T)
                assert [(t.left, t.right, t.parent, t.root) for t in (S, T)] == links


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 32))
def test_subtree_sums_match_reference_in_order(n, seed):
    # `potential` adds the logs in the dict's order, so the order is pinned too.
    # So is the order on the restricted trees built from the pair.
    S, T = random_pair(n, rng_for_trial(seed, 0))
    for S, T in ((S, T), (init_prime(S)[0], init_prime(T)[0])):
        _, weights = assign_weights(T)
        for tree in (S, T):
            fast, ref = subtree_sums(tree, weights), reference_subtree_sums(tree, weights)
            assert list(fast.items()) == list(ref.items())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 32), st.sampled_from(["random", "left", "right"]))
def test_assign_weights_matches_reference_in_key_order(n, seed, shape):
    T = random_tree(n, rng_for_trial(seed, 0)) if shape == "random" else spine_tree(n, shape)
    assert assign_weights(T) == reference_assign_weights(T)

