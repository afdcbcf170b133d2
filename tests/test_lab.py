import sys
from fractions import Fraction
from itertools import accumulate
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import splaylab.lab
import splaylab.potential
import splaylab.splay
import splaylab.suites
from splaylab.generators import (
    ExperimentConfig,
    random_pair,
    random_tree,
    rng_for_trial,
    spine_tree,
)
from splaylab.lab import (
    ROTATION_RATIO_BOUND,
    InterleavedRun,
    accounting_run,
    checked_splay,
    check_access_lemma,
    check_amortized_depth,
    merge_extras,
    plan_organizing_splays,
)
from splaylab.machine import IllegalOpError, TreeState, build_tree
from splaylab.potential import assign_weights, potential, potential_of, subtree_sums
from splaylab.report import CheckReport
from splaylab.restricted import init_prime
from splaylab.splay import ZIG, total_access_cost
from splaylab.suites import render_report, run_suite

from reference import (
    all_depths,
    in_order,
    merge_by_slots,
    reference_assign_weights,
    reference_subtree_sums,
    same_structure,
)


def step_cost(step):
    """A splay step's rotations, decided by its kind: 1 for a zig, else 2."""
    return 1 if step.kind == ZIG else 2


def shallow_keys(run):
    """T's keys at depth 1 or 2, in key order, read off the run's kept depths."""
    return [k for k, d in zip(run.T.keys, run.t_depths) if 0 < d < 3]


def key_order(T):
    """The prefix sums of T's weights in key order: the list
    `checked_splay` reads."""
    return [0, *accumulate(assign_weights(T)[1])]


def rank_intervals(tree):
    """Each node's subtree as a rank interval [lo, hi), narrowed on a walk
    down from the root; the ranks are places in an in-order walk."""
    rank = {k: i for i, k in enumerate(in_order(tree))}
    intervals = {}
    stack = [(tree.root, 0, len(rank))]
    while stack:
        node, lo, hi = stack.pop()
        intervals[node] = lo, hi
        r = rank[node]
        if tree.left[node] is not None:
            stack.append((tree.left[node], lo, r))
        if tree.right[node] is not None:
            stack.append((tree.right[node], r + 1, hi))
    return intervals


def interval_sums(tree, prefix):
    """Each node's key-interval sum prefix[hi] - prefix[lo] over its rank
    interval [lo, hi)."""
    return {node: prefix[hi] - prefix[lo] for node, (lo, hi) in rank_intervals(tree).items()}


def sums_product(tree, weights):
    """The product of `tree`'s subtree sums, from the reference sums."""
    return prod(reference_subtree_sums(tree, weights).values())


def fresh_products(S, T):
    """The products of S's and of T's subtree sums under the reference
    weights: 2^phi is their ratio."""
    _, weights = reference_assign_weights(T)
    return sums_product(S, weights), sums_product(T, weights)


class TestOrganizingPlans:
    def test_depth_one_plan(self):
        T = build_tree("((..)(..))")
        keys = plan_organizing_splays(T, 0)
        assert keys == [0, 1]
        assert [T.depth(k) for k in keys] == [1, 0]

    def test_depth_two_plan(self):
        T = build_tree("(((..)(..))(..))")  # 0 at depth 2 under 1 under 3
        keys = plan_organizing_splays(T, 0)
        assert keys == [0, 1, 3]
        assert [T.depth(k) for k in keys] == [2, 1, 0]

    def test_root_rejected(self):
        T = build_tree("((..)(..))")
        with pytest.raises(IllegalOpError):
            plan_organizing_splays(T, T.root)

    def test_deep_rotation_rejected(self):
        T = spine_tree(5, "right")
        with pytest.raises(IllegalOpError):
            plan_organizing_splays(T, 3)

    def test_deep_rotation_rejected_without_a_depth_walk(self, monkeypatch):
        # The depth rule is decided by at most three parent reads, so a key
        # deep in a 50-key spine is refused without walking T to its root.
        log = []
        depth = TreeState.depth

        def logged_depth(tree, key):
            log.append(key)
            return depth(tree, key)

        monkeypatch.setattr(TreeState, "depth", logged_depth)
        T = spine_tree(50, "right")
        for rotated in (3, 49):
            with pytest.raises(IllegalOpError, match="depth 3 or more"):
                plan_organizing_splays(T, rotated)
        assert plan_organizing_splays(T, 2) == [2, 1, 0]
        assert log == []

    def test_unknown_key_rejected_before_any_link_moves(self):
        # n and past it would read past T's parent list, and -1 its last slot
        # (on a restricted tree, the sentinel n + 1's); each is refused with a
        # `KeyError` before an organizing splay or the rotation moves a link
        # of S or T.
        rng = rng_for_trial(103, 0)
        for restricted in (False, True):
            for _ in range(10):
                n = rng.randint(2, 24)
                S, T = random_pair(n, rng)
                keys = (n, n + 3, -1)
                if restricted:
                    S, T = init_prime(S)[0], init_prime(T)[0]
                    keys = (-1, n + 2)
                run = InterleavedRun(S, T)
                links = [(tree.left[:], tree.right[:], tree.parent[:], tree.root) for tree in (S, T)]
                for key in keys:
                    with pytest.raises(KeyError, match=f"unknown key {key}"):
                        run.apply_T_rotation(key)
                    with pytest.raises(KeyError, match=f"unknown key {key}"):
                        plan_organizing_splays(T, key)
                    assert [(tree.left, tree.right, tree.parent, tree.root)
                            for tree in (S, T)] == links
                assert run.organizing_count == 0 and run.report.checked == 0


class TestPerSplayBounds:
    def test_access_bound_holds_per_step(self):
        rng = rng_for_trial(59, 0)
        for _ in range(100):
            S, T = random_pair(rng.randint(1, 32), rng)
            key = rng.choice(in_order(T))
            ev = checked_splay(S, key_order(T), key, depth_ref=T.depth(key), per_step=True)
            report = check_access_lemma(ev, CheckReport("access"))
            assert report.passed, report.violations
            assert report.checked == 1 + len(ev.steps)
            assert check_amortized_depth(ev, CheckReport("depth")).passed

    def test_zero_depth_splay_is_free(self):
        T = build_tree("((..)(..))")
        S = T.copy()
        ev = checked_splay(S, key_order(T), T.root, depth_ref=0)
        assert ev.cost == 0 and (ev.grow, ev.shrink) == (1, 1)

    def test_run_refuses_an_unknown_key(self):
        # `splay_query` reads the key's reference depth off T's kept depths, so
        # it refuses an unknown key before that read and before any link moves.
        T = build_tree("((..)(..))")
        restricted = init_prime(T)[0]  # keys 0..4
        for S, keys in ((T, (3, 7, -1)), (restricted, (-1, 5))):
            run = InterleavedRun(S.copy(), S.copy())
            links = run.S.left[:], run.S.right[:], run.S.parent[:], run.S.root
            for key in keys:
                with pytest.raises(KeyError, match=f"unknown key {key}"):
                    run.splay_query(key)
                assert (run.S.left, run.S.right, run.S.parent, run.S.root) == links
            assert run.s_cost == 0 and run.report.checked == 0

    def test_unknown_key_rejected(self):
        # -1 would index a list from its end (on a restricted tree, the
        # sentinel n + 1's slot), and n + 2 past it; each is refused before
        # any link moves.
        T = build_tree("((..)(..))")
        restricted = init_prime(T)[0]  # keys 0..4
        for S, keys in ((T, (7, -1)), (restricted, (-1, 5))):
            links = S.left[:], S.right[:], S.parent[:], S.root
            for key in keys:
                with pytest.raises(KeyError, match=f"unknown key {key}"):
                    checked_splay(S, key_order(S), key, depth_ref=0)
                assert (S.left, S.right, S.parent, S.root) == links


class TestOneKernelCall:
    """Each checked splay restructures S in one `splay` call, and no suite
    calls the per-step kernel `splay_step`."""

    @pytest.mark.parametrize("suite, config", [
        ("lemma6", ExperimentConfig(seed=0, n=64, trials=1)),
        ("theorem7", ExperimentConfig(seed=0, trials=1)),
    ])
    def test_one_splay_call_per_checked_splay(self, monkeypatch, suite, config):
        log = []
        kernel, checked = splaylab.lab.splay, splaylab.lab.checked_splay

        def counted_splay(S, key):
            log.append(("splay", key, S.depth(key)))
            return kernel(S, key)

        def counted_checked(S, prefix, key, *args, **kwargs):
            log.append(("checked", key, None))
            ev = checked(S, prefix, key, *args, **kwargs)
            log.append(("cost", key, ev.cost))
            return ev

        monkeypatch.setattr(splaylab.lab, "splay", counted_splay)
        monkeypatch.setattr(splaylab.lab, "checked_splay", counted_checked)
        code, _ = splaylab.suites.run_suite(suite, config)
        assert code == 0
        calls = [log[i:i + 3] for i in range(0, len(log), 3)]
        assert calls
        for (c, key, _), (k, splayed, depth), (e, costed, cost) in calls:
            assert (c, k, e) == ("checked", "splay", "cost")
            assert key == splayed == costed and cost == depth
        assert any(depth > 0 for _, (_, _, depth), _ in calls)

    def test_no_suite_steps_per_call(self, monkeypatch):
        original = splaylab.splay.splay_step

        def refused(state, key):
            raise AssertionError("splay_step called on a suite path")

        for name, module in list(sys.modules.items()):
            if name == "splaylab" or name.startswith("splaylab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refused)
        assert splaylab.splay.splay_step is refused
        for suite, config in (
            ("conjecture", ExperimentConfig(n=16, m=32, trials=3)),
            ("lemma4", ExperimentConfig(n=16, trials=20)),
            ("lemma6", ExperimentConfig(n=32, trials=20)),
            ("theorem7", ExperimentConfig(trials=3)),
        ):
            code, _ = splaylab.suites.run_suite(suite, config)
            assert code == 0, suite


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32), st.data())
def test_step_kinds_match_the_step_loop(n, seed, data):
    # checked_splay reads each step's kind off key order before any link
    # moves; the per-step kernel, run on a copy, makes the same steps.
    S, T = random_pair(n, rng_for_trial(seed, 0))
    key = data.draw(st.integers(0, n - 1))
    stepped = S.copy()
    depth = S.depth(key)
    kinds = []
    while stepped.parent[key] is not None:
        kinds.append(splaylab.splay.splay_step(stepped, key))
    ev = checked_splay(S, key_order(T), key, depth_ref=T.depth(key), per_step=True)
    assert [step.kind for step in ev.steps] == kinds
    assert ev.cost == depth
    assert same_structure(S, stepped) and S.parent == stepped.parent


class TestInterleavedRun:
    def test_telescoping_identity(self):
        rng = rng_for_trial(61, 0)
        for _ in range(30):
            S, T = random_pair(rng.randint(2, 24), rng)
            run = InterleavedRun(S, T)
            start_S, start_T = fresh_products(S, T)
            for _ in range(6):
                if rng.random() < 0.3:
                    shallow = [k for k in in_order(T) if 1 <= T.depth(k) <= 2]
                    run.apply_T_rotation(rng.choice(shallow))
                else:
                    run.splay_query(rng.choice(in_order(T)))
            end_S, end_T = fresh_products(S, T)
            # 2^(phi_end - phi_start) = grow / shrink, exactly.
            assert run.grow * end_T * start_S == run.shrink * end_S * start_T
            assert not run.report.violations

    def test_long_run_products_stay_bounded(self):
        # 300 splays with no rotation, then 1,000 events, every other one a
        # shallow reference rotation: after every event both running
        # products fit in `product_bits`, 2n times the largest bit length of
        # the total weight, and their ratio still telescopes exactly.
        n = 64
        rng = rng_for_trial(73, 0)
        S, T = random_pair(n, rng)
        start_S, start_T = fresh_products(S, T)
        run = InterleavedRun(S, T)
        totals = [run.prefix[-1]]
        for i in range(1300):
            if i >= 300 and i % 2:
                run.apply_T_rotation(rng.choice(shallow_keys(run)))
                totals.append(run.prefix[-1])
            else:
                run.splay_query(rng.randrange(n))
            assert run.product_bits == 2 * n * max(t.bit_length() for t in totals)
            assert max(run.grow, run.shrink).bit_length() <= run.product_bits
        end_S, end_T = fresh_products(S, T)
        assert run.grow * end_T * start_S == run.shrink * end_S * start_T
        assert not run.report.violations

    def test_identical_start_zero_phi(self):
        T = random_tree(10, rng_for_trial(67, 0))
        run = InterleavedRun(T.copy(), T)
        sums_S, sums_T = run.sums()
        assert prod(sums_S.values()) == prod(sums_T.values())
        assert potential(sums_S, run.scale) - potential(sums_T, run.scale) == 0.0

    def test_rotation_delta_under_bound(self):
        rng = rng_for_trial(71, 0)
        worst = Fraction(0)
        for _ in range(100):
            S, T = random_pair(rng.randint(3, 32), rng)
            candidates = [k for k in in_order(T) if 1 <= T.depth(k) <= 2]
            run = InterleavedRun(S, T)
            rotated = rng.choice(candidates)
            depth = T.depth(rotated)
            ev = run.apply_T_rotation(rotated)
            assert ev.depth_ref == depth
            worst = max(worst, Fraction(ev.grow, ev.shrink))
            assert not run.report.violations
        assert worst <= ROTATION_RATIO_BOUND

    def test_organizing_splays_counted(self):
        T = build_tree("(((..)(..))(..))")
        run = InterleavedRun(T.copy(), T)
        run.apply_T_rotation(0)  # depth 2: three organizing splays
        assert run.organizing_count == 3


class TestKeptSums:
    """S's subtree sums are kept as key-interval sums of T's weights, read off
    `InterleavedRun.prefix`: after every splay and every reference rotation
    they equal a from-scratch pass."""

    @pytest.mark.parametrize("per_step", [False, True])
    def test_kept_sums_match_a_fresh_pass(self, monkeypatch, per_step):
        original = splaylab.lab.checked_splay
        runs = []

        def checked(S, prefix, key, depth_ref, per_step=False):
            depth = S.copy().depth(key)
            kept = list(prefix)
            ev = original(S, prefix, key, depth_ref, per_step)
            assert ev.cost == depth
            assert prefix == kept  # a splay leaves the weights alone
            assert interval_sums(S, prefix) == subtree_sums(S, runs[-1].weights)
            return ev

        monkeypatch.setattr(splaylab.lab, "checked_splay", checked)
        rng = rng_for_trial(83, per_step)
        splays = roots = rotations = 0
        for _ in range(40):
            S, T = random_pair(rng.randint(1, 16), rng)
            run = InterleavedRun(S, T, per_step=per_step)
            runs.append(run)
            for _ in range(8):
                shallow = [k for k in in_order(T) if 1 <= T.depth(k) <= 2]
                roll = rng.random()
                if shallow and roll < 0.3:
                    run.apply_T_rotation(rng.choice(shallow))
                    rotations += 1
                else:
                    key = run.S.root if roll < 0.45 else rng.choice(in_order(T))
                    roots += key == run.S.root
                    prefix = run.prefix
                    run.splay_query(key)
                    assert run.prefix is prefix
                    splays += 1
                assert interval_sums(run.S, run.prefix) == subtree_sums(run.S, run.weights)
                assert run.sums() == (reference_subtree_sums(run.S, run.weights),
                                      reference_subtree_sums(run.T, run.weights))
            assert not run.report.violations
        assert min(splays, roots, rotations) > 20

    def test_no_sums_pass_per_tree_state(self, monkeypatch):
        # Construction, splays and reference rotations read S's sums as
        # key-interval sums; only a `sums` read makes whole-tree passes.
        log = []
        sums_of = splaylab.potential.subtree_sums
        splay = splaylab.lab.checked_splay

        def counted_sums(tree, weights):
            log.append(tree)
            return sums_of(tree, weights)

        def marked_splay(*args, **kwargs):
            ev = splay(*args, **kwargs)
            log.append("splayed")
            return ev

        monkeypatch.setattr(splaylab.lab, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.potential, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.lab, "checked_splay", marked_splay)
        T = build_tree("(((..)(..))(..))")  # 0 at depth 2 under 1 under 3
        run = InterleavedRun(T.copy(), T)

        def passes():
            names = ["S" if x is run.S else "T" if x is run.T else x for x in log]
            log.clear()
            return names

        assert passes() == []  # weights and their prefix sums only
        run.splay_query(0)
        assert passes() == ["splayed"]
        run.splay_query(run.S.root)
        assert passes() == ["splayed"]
        run.apply_T_rotation(0)  # organizing splays of 0 (S's root), 1 and 3
        # The change of phi is read off the nodes on S's paths to 0, 1 and 3.
        assert passes() == ["splayed", "splayed", "splayed"]
        run.per_step = True
        ev = run.splay_query(0)
        assert ev.steps and passes() == ["splayed"]
        sums = run.sums()  # fresh passes over S, then over T
        assert passes() == ["S", "T"]
        assert sums == (subtree_sums(run.S, run.weights), subtree_sums(run.T, run.weights))

    def test_rotation_walks_no_T_path_and_assigns_no_weights(self, monkeypatch):
        # Construction lists T's intervals and depths with one `rank_layout`
        # walk.  A reference rotation walks S's paths to the splayed keys and
        # reads T's intervals and depths off the kept lists: it makes no
        # `rank_layout` walk, no walk of T from its root (`key_path` or
        # `TreeState.depth`) and no `assign_weights` call.
        log = []
        path, layout = splaylab.lab.key_path, splaylab.lab.rank_layout
        weights, depth = splaylab.potential.assign_weights, TreeState.depth

        def logged_path(tree, key):
            log.append(("path", tree))
            return path(tree, key)

        def logged_layout(tree):
            log.append(("layout", tree))
            return layout(tree)

        def logged_weights(tree):
            log.append(("weights", tree))
            return weights(tree)

        def logged_depth(tree, key):
            log.append(("depth", tree))
            return depth(tree, key)

        monkeypatch.setattr(splaylab.lab, "key_path", logged_path)
        monkeypatch.setattr(splaylab.lab, "rank_layout", logged_layout)
        monkeypatch.setattr(splaylab.potential, "assign_weights", logged_weights)
        monkeypatch.setattr(TreeState, "depth", logged_depth)
        rng = rng_for_trial(101, 0)
        rotations = 0
        for restricted in (False, True):
            for _ in range(20):
                S, T = random_pair(rng.randint(3, 24), rng)
                if restricted:
                    S, T = init_prime(S)[0], init_prime(T)[0]
                run = InterleavedRun(S, T)
                assert log == [("layout", T)]
                log.clear()
                for _ in range(4):
                    run.apply_T_rotation(rng.choice(shallow_keys(run)))
                    rotations += 1
                    assert log and all(entry == ("path", S) for entry in log)
                    log.clear()
        assert rotations == 160

    def test_one_S_pass_at_the_end_of_accounting_run(self, monkeypatch):
        # The final sums are read once, for phi_final and the telescoping
        # identity alike: one fresh pass over S, then one over T; nothing is
        # cached.
        log, runs = [], []
        sums_of = splaylab.potential.subtree_sums

        def counted_sums(tree, weights):
            log.append(tree)
            return sums_of(tree, weights)

        class Logged(InterleavedRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
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
        row, _ = accounting_run(6, [1, 4, 0, 2, 0, 3])
        (run,) = runs
        assert row["R"] > 0
        last = len(log) - log[::-1].index("event")
        assert log[last:] == [run.S, run.T]
        assert row["phi_final"] == (potential_of(run.S, run.scale, run.weights)
                                    - potential_of(run.T, run.scale, run.weights))
        end_S, end_T = (prod(sums.values()) for sums in run.sums())
        assert run.grow * end_T == run.shrink * end_S

    def test_lemma6_trial_reads_no_P_of_T(self, monkeypatch):
        # A lemma6 trial checks one splay against S's key-interval sums, so it
        # makes no whole-tree pass, and P(T), which no check reads, is never
        # computed.
        log, runs = [], []
        sums_of = splaylab.potential.subtree_sums
        potential_of_ = splaylab.potential.potential_of

        def counted_sums(tree, weights):
            log.append(tree)
            return sums_of(tree, weights)

        def counted_potential(tree, scale, weights):
            log.append("potential_of")
            return potential_of_(tree, scale, weights)

        class Logged(InterleavedRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        for module in (splaylab.lab, splaylab.potential):
            monkeypatch.setattr(module, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.potential, "potential_of", counted_potential)
        monkeypatch.setattr(splaylab.suites, "InterleavedRun", Logged)
        code, _ = splaylab.suites.run_suite("lemma6", ExperimentConfig(n=64, trials=3))
        assert code == 0
        assert len(runs) == 3  # trial 0 checks every step
        assert log == []

    def test_theorem7_trial_passes_only_at_phi_reads(self, monkeypatch):
        # accounting_run reads both trees' sums twice, for the zero initial
        # potential and for phi_final and the telescoping identity; each read
        # is a pass over S and one over T.  Its splays and reference rotations
        # make none.
        log, runs = [], []
        sums_of = splaylab.potential.subtree_sums

        def counted_sums(tree, weights):
            log.append(tree)
            return sums_of(tree, weights)

        class Logged(InterleavedRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

            def sums(self):
                log.append("sums")
                value = super().sums()
                log.append("/sums")
                return value

        for module in (splaylab.lab, splaylab.potential):
            monkeypatch.setattr(module, "subtree_sums", counted_sums)
        monkeypatch.setattr(splaylab.lab, "InterleavedRun", Logged)
        code, report = splaylab.suites.run_suite("theorem7", ExperimentConfig(seed=0, trials=1))
        (run,) = runs
        assert code == 0 and report["runs"][0]["R_prime"] > 0
        names = ["S" if x is run.S else "T" if x is run.T else x for x in log]
        assert names == ["sums", "S", "T", "/sums"] * 2

    @pytest.mark.parametrize("per_step", [False, True])
    def test_splay_delta_matches_fresh_potentials(self, per_step):
        # The change of P(S) read off the 2-3 nodes of each step, against the
        # products of two whole-tree passes of reference sums; the step
        # ratios multiply to the splay's ratio.
        rng = rng_for_trial(89, per_step)
        checked = 0
        for _ in range(60):
            S, T = random_pair(rng.randint(1, 48), rng)
            run = InterleavedRun(S, T, per_step=per_step)
            start_S, start_T = fresh_products(S, T)
            for _ in range(6):
                shallow = [k for k in in_order(T) if 1 <= T.depth(k) <= 2]
                if shallow and rng.random() < 0.25:
                    run.apply_T_rotation(rng.choice(shallow))
                    continue
                before = sums_product(run.S, run.weights)
                ev = run.splay_query(rng.choice(in_order(T)))
                after = sums_product(run.S, run.weights)
                assert ev.grow * before == ev.shrink * after
                if per_step:
                    assert sum(step_cost(step) for step in ev.steps) == ev.cost
                    assert prod(step.grow for step in ev.steps) == ev.grow
                    assert prod(step.shrink for step in ev.steps) == ev.shrink
                checked += ev.cost > 0
            end_S, end_T = fresh_products(S, T)
            assert run.grow * end_T * start_S == run.shrink * end_S * start_T
        assert checked > 100


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(0, 2 ** 32), st.booleans(), st.booleans())
def test_interval_sums_and_deltas_match_fresh_passes(data, n, seed, per_step, restricted):
    # Random interleavings of splays and depth-1/2 reference rotations, on
    # plain trees over 0..n-1 or restricted trees over 0..n+1.  After every
    # event each node's key-interval sum equals the reference sums under the
    # reference weights; a rotation's ratio equals 2 to the change of a
    # fresh phi over copies of the trees, taken after the organizing splays,
    # and a splay's ratio 2 to the change of a fresh P(S), with its step
    # ratios multiplying to it.  From construction on, T's kept intervals and
    # depths equal a fresh walk's and the weights the reference weights, and
    # every splay's reference depth, organizing splays included, equals a
    # fresh walk's.  Every comparison is of exact integers.
    S, T = random_pair(n, rng_for_trial(seed, 0))
    if restricted:
        S, T = init_prime(S)[0], init_prime(T)[0]

    class DepthChecked(InterleavedRun):
        def splay_query(self, key):
            ev = super().splay_query(key)
            assert ev.depth_ref == all_depths(self.T)[key]
            return ev

    run = DepthChecked(S, T, per_step=per_step)

    def assert_sums_fresh():
        scale, weights = reference_assign_weights(run.T)
        assert (run.scale, run.weights) == (scale, weights)
        assert interval_sums(run.S, run.prefix) == reference_subtree_sums(run.S, weights)
        keys = run.T.keys
        assert dict(zip(keys, run.t_intervals)) == rank_intervals(run.T)
        assert dict(zip(keys, run.t_depths)) == all_depths(run.T)

    assert_sums_fresh()
    for _ in range(data.draw(st.integers(1, 12))):
        shallow = shallow_keys(run)
        if shallow and data.draw(st.booleans()):
            rotated = data.draw(st.sampled_from(shallow))
            S2, T2 = run.S.copy(), run.T.copy()
            total_access_cost(S2, plan_organizing_splays(T2, rotated))
            before_S, before_T = fresh_products(S2, T2)
            T2.rotate_up(rotated)
            after_S, after_T = fresh_products(S2, T2)
            ev = run.apply_T_rotation(rotated)
            assert same_structure(run.S, S2) and same_structure(run.T, T2)
            assert ev.grow * before_S * after_T == ev.shrink * after_S * before_T
        else:
            _, weights = reference_assign_weights(run.T)
            before = sums_product(run.S, weights)
            ev = run.splay_query(data.draw(st.integers(S.keys[0], S.keys[-1])))
            after = sums_product(run.S, weights)
            assert ev.grow * before == ev.shrink * after
            if per_step:
                assert sum(step_cost(step) for step in ev.steps) == ev.cost
                assert prod(step.grow for step in ev.steps) == ev.grow
                assert prod(step.shrink for step in ev.steps) == ev.shrink
        assert_sums_fresh()
    assert not run.report.violations


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
            row, check = accounting_run(n, queries)
            M, R = row["M"], row["R"]
            assert row["M_prime"] == 4 * M + 3 * R and row["R_prime"] == 2 * M + R
            assert row["e"] <= 3 * row["R_prime"]
            assert check.checked == 5
            assert not check.violations
            assert check.passed

    def test_static_strategy(self):
        row, check = accounting_run(4, [0, 3, 1, 3], strategy="static")
        assert check.passed
        assert row["M_prime"] == 4 * row["M"] + 3 * row["R"]

    def test_theorem7_reports_each_row_as_returned(self, monkeypatch):
        # A trial's row is the one record of its counts: the report lists it
        # with the seed, and the CSV header is the reported row's keys.
        header = "seed,n,m,M,R,M_prime,R_prime,e,total_S_cost,phi_final,max_ratio"
        rows = []

        def recorded(*args, **kwargs):
            row, check = accounting_run(*args, **kwargs)
            rows.append(row)
            return row, check

        monkeypatch.setattr(splaylab.suites, "accounting_run", recorded)
        code, report = run_suite("theorem7", ExperimentConfig(seed=3, trials=20))
        assert code == 0 and len(rows) == 20
        assert all(",".join(["seed", *row]) == header for row in rows)
        assert report["runs"] == [{"seed": 3, **row} for row in rows]
        config = ExperimentConfig(seed=3, trials=20, output_path="runs.csv")
        assert render_report("theorem7", config, report).split("\n", 1)[0] == header

    def test_unknown_query_rejected(self):
        # -1 would count into the last key's slot of a list of counts.
        for queries in ([5], [-1], [3]):
            with pytest.raises(KeyError):
                accounting_run(3, queries)
