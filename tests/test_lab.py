import math

import pytest
from hypothesis import given, settings, strategies as st

import splaylab.lab
import splaylab.potential
import splaylab.suites
from splaylab.generators import (
    ExperimentConfig,
    random_pair,
    random_tree,
    rng_for_trial,
    spine_tree,
)
from splaylab.lab import (
    ROTATION_DELTA_BOUND,
    InterleavedRun,
    accounting_run,
    checked_splay,
    check_access_lemma,
    check_amortized_depth,
    merge_extras,
    plan_organizing_splays,
)
from splaylab.machine import IllegalOpError, build_tree
from splaylab.potential import assign_weights, potential_of, subtree_sums

from reference import merge_by_slots


class TestOrganizingPlans:
    def test_depth_one_plan(self):
        T = build_tree(range(3), "((..)(..))")
        keys = plan_organizing_splays(T, 0)
        assert keys == [0, 1]
        assert [T.depth(k) for k in keys] == [1, 0]

    def test_depth_two_plan(self):
        T = build_tree(range(5), "(((..)(..))(..))")  # 0 at depth 2 under 1 under 3
        keys = plan_organizing_splays(T, 0)
        assert keys == [0, 1, 3]
        assert [T.depth(k) for k in keys] == [2, 1, 0]

    def test_root_rejected(self):
        T = build_tree(range(3), "((..)(..))")
        with pytest.raises(IllegalOpError):
            plan_organizing_splays(T, T.root)

    def test_deep_rotation_rejected(self):
        T = spine_tree(5, "right")
        with pytest.raises(IllegalOpError):
            plan_organizing_splays(T, 3)


class TestPerSplayBounds:
    def test_access_bound_holds_per_step(self):
        rng = rng_for_trial(59, 0)
        for _ in range(100):
            S, T = random_pair(rng.randint(1, 32), rng)
            key = rng.choice(T.in_order())
            wa = assign_weights(T)
            ev = checked_splay(S, wa, subtree_sums(S, wa), key, depth_ref=T.depth(key),
                               per_step=True)
            report = check_access_lemma(ev)
            assert report.passed, report.violations
            assert check_amortized_depth(ev).passed

    def test_zero_depth_splay_is_free(self):
        T = build_tree(range(3), "((..)(..))")
        S = T.copy()
        wa = assign_weights(T)
        ev = checked_splay(S, wa, subtree_sums(S, wa), T.root, depth_ref=0)
        assert ev.cost == 0 and ev.amortized == 0.0

    def test_unknown_key_rejected(self):
        T = build_tree(range(3), "((..)(..))")
        wa = assign_weights(T)
        with pytest.raises(KeyError, match="unknown key 7"):
            checked_splay(T, wa, subtree_sums(T, wa), 7, depth_ref=0)


class TestInterleavedRun:
    def test_telescoping_identity(self):
        rng = rng_for_trial(61, 0)
        for _ in range(30):
            S, T = random_pair(rng.randint(2, 24), rng)
            run = InterleavedRun(S, T)
            phi_initial = run.phi
            for _ in range(6):
                if rng.random() < 0.3:
                    shallow = [k for k in T.in_order() if 1 <= T.depth(k) <= 2]
                    run.apply_T_rotation(rng.choice(shallow))
                else:
                    run.splay_query(rng.choice(T.in_order()))
            assert abs(run.telescoping_residual(phi_initial, run.phi)) < 1e-6
            assert not run.report.violations

    def test_identical_start_zero_phi(self):
        T = random_tree(10, rng_for_trial(67, 0))
        run = InterleavedRun(T.copy(), T)
        assert run.phi == 0.0

    def test_rotation_delta_under_bound(self):
        rng = rng_for_trial(71, 0)
        worst = -math.inf
        for _ in range(100):
            S, T = random_pair(rng.randint(3, 32), rng)
            candidates = [k for k in T.in_order() if 1 <= T.depth(k) <= 2]
            run = InterleavedRun(S, T)
            rotated = rng.choice(candidates)
            depth = T.depth(rotated)
            ev = run.apply_T_rotation(rotated)
            assert ev.depth_ref == depth
            worst = max(worst, ev.delta)
            assert not run.report.violations
        assert worst <= ROTATION_DELTA_BOUND + 1e-6

    def test_organizing_splays_counted(self):
        T = build_tree(range(5), "(((..)(..))(..))")
        run = InterleavedRun(T.copy(), T)
        run.apply_T_rotation(0)  # depth 2: three organizing splays
        assert run.organizing_count == 3


class TestKeptSums:
    """`InterleavedRun.sums` is S's one set of subtree sums: every splay and
    every reference rotation leaves it equal to a from-scratch pass."""

    @pytest.mark.parametrize("per_step", [False, True])
    def test_kept_sums_match_a_fresh_pass(self, monkeypatch, per_step):
        original = splaylab.lab.checked_splay

        def checked(S, wa, sums, key, depth_ref, per_step=False):
            depth = S.copy().depth(key)
            ev = original(S, wa, sums, key, depth_ref, per_step)
            assert ev.cost == depth
            assert ev.sums == subtree_sums(S, wa)
            return ev

        monkeypatch.setattr(splaylab.lab, "checked_splay", checked)
        rng = rng_for_trial(83, per_step)
        splays = roots = rotations = 0
        for _ in range(40):
            S, T = random_pair(rng.randint(1, 16), rng)
            run = InterleavedRun(S, T, per_step=per_step)
            for _ in range(8):
                shallow = [k for k in T.in_order() if 1 <= T.depth(k) <= 2]
                roll = rng.random()
                if shallow and roll < 0.3:
                    run.apply_T_rotation(rng.choice(shallow))
                    rotations += 1
                else:
                    key = run.S.root if roll < 0.45 else rng.choice(T.in_order())
                    roots += key == run.S.root
                    assert run.splay_query(key).sums is run.sums
                    splays += 1
                assert run.sums == subtree_sums(run.S, run.wa)
                assert run.phi == potential_of(run.S, run.wa) - run.p_T
            assert not run.report.violations
        assert min(splays, roots, rotations) > 20

    def test_one_sums_pass_per_tree_state(self, monkeypatch):
        log = []
        sums_of = splaylab.potential.subtree_sums
        splay = splaylab.lab.checked_splay

        def counted_sums(tree, wa):
            log.append(tree)
            return sums_of(tree, wa)

        def marked_splay(*args, **kwargs):
            ev = splay(*args, **kwargs)
            log.append("splayed")
            return ev

        monkeypatch.setattr(splaylab.lab, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.potential, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.lab, "checked_splay", marked_splay)
        T = build_tree(range(5), "(((..)(..))(..))")  # 0 at depth 2 under 1 under 3
        run = InterleavedRun(T.copy(), T)

        def passes():
            names = ["S" if x is run.S else "T" if x is run.T else x for x in log]
            log.clear()
            return names

        assert passes() == ["S"]  # P(T) waits for its first reader
        run.splay_query(0)
        assert passes() == ["splayed"]
        run.splay_query(run.S.root)
        assert passes() == ["splayed"]
        run.apply_T_rotation(0)  # organizing splays of 0 (S's root), 1 and 3
        # P(T) before the rotation (phi_before), S's sums under the new
        # weights, then P(T) after it (phi_after).
        assert passes() == ["splayed", "splayed", "splayed", "T", "S", "T"]
        run.per_step = True
        ev = run.splay_query(0)
        assert ev.steps and passes() == ["splayed"]

    def test_one_S_pass_at_the_end_of_accounting_run(self, monkeypatch):
        # The final potential is read once, for phi_final and the residual alike.
        log, runs = [], []
        sums_of = splaylab.potential.subtree_sums

        def counted_sums(tree, wa):
            log.append(tree)
            return sums_of(tree, wa)

        class Logged(InterleavedRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.phi_initial = self.phi
                runs.append(self)

            def splay_query(self, key):
                ev = super().splay_query(key)
                log.append("event")
                return ev

            def apply_T_rotation(self, rotated):
                ev = super().apply_T_rotation(rotated)
                log.append("event")
                return ev

        monkeypatch.setattr(splaylab.lab, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.potential, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.lab, "InterleavedRun", Logged)
        acc = accounting_run(6, [1, 4, 0, 2, 0, 3])
        (run,) = runs
        assert acc.R > 0
        last = len(log) - log[::-1].index("event")
        assert log[last:] == [run.S]
        assert acc.phi_final == run.phi
        assert acc.phi_initial == run.phi_initial
        assert acc.telescoping_residual == run.telescoping_residual(run.phi_initial, run.phi)

    def test_lemma6_trial_reads_no_P_of_T(self, monkeypatch):
        # A lemma6 trial checks one splay against S's sums: they are its one
        # whole-tree pass, and P(T), which no check reads, is never computed.
        log, runs = [], []
        sums_of = splaylab.potential.subtree_sums
        potential_of_ = splaylab.potential.potential_of

        def counted_sums(tree, wa):
            log.append(tree)
            return sums_of(tree, wa)

        def counted_potential(tree, wa):
            log.append("potential_of")
            return potential_of_(tree, wa)

        class Logged(InterleavedRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        for module in (splaylab.lab, splaylab.potential):
            monkeypatch.setattr(module, "subtree_sums", counted_sums)
            monkeypatch.setattr(module, "potential_of", counted_potential)
        monkeypatch.setattr(splaylab.suites, "InterleavedRun", Logged)
        code, _ = splaylab.suites.run_suite("lemma6", ExperimentConfig(n=64, trials=3))
        assert code == 0
        assert len(runs) == 3  # trial 0 checks every step
        assert log == [run.S for run in runs]

    @pytest.mark.parametrize("per_step", [False, True])
    def test_splay_delta_matches_fresh_potentials(self, per_step):
        # The change of P(S) read off the 2-3 nodes of each step, against two
        # whole-tree potentials; the step deltas add up to the splay's delta.
        rng = rng_for_trial(89, per_step)
        checked = 0
        for _ in range(60):
            S, T = random_pair(rng.randint(1, 48), rng)
            run = InterleavedRun(S, T, per_step=per_step)
            phi_initial = run.phi
            for _ in range(6):
                shallow = [k for k in T.in_order() if 1 <= T.depth(k) <= 2]
                if shallow and rng.random() < 0.25:
                    run.apply_T_rotation(rng.choice(shallow))
                    continue
                before = potential_of(run.S, run.wa)
                ev = run.splay_query(rng.choice(T.in_order()))
                after = potential_of(run.S, run.wa)
                assert abs(ev.delta - (after - before)) < 1e-9
                if per_step:
                    assert sum(step.cost for step in ev.steps) == ev.cost
                    assert sum(step.delta for step in ev.steps) == pytest.approx(ev.delta, abs=1e-12)
                checked += ev.cost > 0
            assert abs(run.telescoping_residual(phi_initial, run.phi)) < 1e-9
        assert checked > 100


class TestRegularAccessTrials:
    def test_merge_positions(self):
        assert merge_extras([10, 20], [(0, 1), (2, 2), (1, 3)]) == [1, 10, 3, 20, 2]

    def test_merge_rejects_positions_outside_base(self):
        for pos in (-1, 3):
            with pytest.raises(IndexError):
                merge_extras([10, 20], [(1, 5), (pos, 6)])


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(st.integers(0, 9), max_size=12))
def test_merge_matches_slot_reference(data, base):
    # Few distinct positions, so repeated ones (whose order must stay stable),
    # position 0 and position len(base) all come up often.
    extras = data.draw(st.lists(
        st.tuples(st.integers(0, len(base)), st.integers(100, 199)), max_size=10))
    assert merge_extras(base, extras) == merge_by_slots(base, extras)


class TestAccountingRun:
    def test_invariants_on_random_instances(self):
        rng = rng_for_trial(79, 0)
        for _ in range(15):
            n = rng.randint(2, 5)
            queries = [rng.randrange(n) for _ in range(rng.randint(1, 6))]
            acc = accounting_run(n, queries)
            assert acc.counts_exact
            assert acc.phi_initial == 0.0
            assert acc.e_within_budget
            assert abs(acc.telescoping_residual) < 1e-6
            assert not acc.check.violations
            assert acc.passed

    def test_static_strategy(self):
        acc = accounting_run(4, [0, 3, 1, 3], strategy="static")
        assert acc.passed
        assert acc.M_prime == 4 * acc.M + 3 * acc.R

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            accounting_run(3, [5])
