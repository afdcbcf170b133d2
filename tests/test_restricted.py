import sys

import pytest
from hypothesis import given, settings, strategies as hst

import splaylab.machine
import splaylab.restricted
import splaylab.suites
from splaylab.generators import ExperimentConfig, random_t_program, random_tree, rng_for_trial
from splaylab.machine import (
    IllegalOpError,
    MachineProgram,
    OpKind,
    apply_op,
    apply_ops,
    build_tree,
    tree_from_roots,
)
from splaylab.restricted import (
    apply_t_ops,
    check_restricted,
    cursor_trace,
    init_prime,
    is_subsequence,
    simulate_program,
)
from splaylab.suites import run_suite

from reference import (
    in_order,
    link_view,
    reference_apply_op,
    reference_apply_t_op,
    reference_cursor_trace,
    reference_is_subsequence,
    reference_random_t_program,
    same_structure,
    tree_from_links,
    validate,
)

L, R, U, ROT = OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE


def apply_t_op(prime, sim, t_op, rotate=None) -> tuple:
    """`apply_t_ops` on the one op `t_op`: its restricted sequence, or an
    IllegalOpError that names no index."""
    try:
        return tuple(apply_t_ops(prime, sim, (t_op,), rotate))
    except IllegalOpError as exc:
        raise IllegalOpError(exc.reason) from None


def test_every_built_tree_is_over_0_to_len_minus_1():
    # A key is its own rank and list index in every tree the package builds:
    # by `tree_from_roots`, by `init_prime` and by `copy`.  The restricted
    # tree's in-order is 0..n+1, T's key k at k + 1 below the same parent
    # one up, or below a sentinel where that parent is T's root.
    for n in (1, 2, 7, 30):
        T = tree_from_roots(n, rng_for_trial(71, n).randrange)
        prime, sim = init_prime(T)
        for tree in (T, prime, sim, T.copy(), prime.copy()):
            assert tree.keys == range(len(tree.left))
        r = T.root
        assert prime.root == r + 1
        assert (prime.left[r + 1], prime.right[r + 1]) == (0, n + 1)
        validate(prime)
        assert in_order(prime) == list(range(n + 2))
        for k in T.keys:
            p = T.parent[k]
            if p is not None:
                below = p + 1 if p != r else 0 if k < r else n + 1
                assert prime.parent[k + 1] == below


class TestInitPrime:
    def test_singleton(self):
        prime, _ = init_prime(build_tree("(..)"))
        assert prime.root == 1
        assert prime.left[1] == 0 and prime.right[1] == 2
        assert len(prime) == 3
        assert in_order(prime) == [0, 1, 2]

    def test_five_keys(self):
        T = build_tree("(((..)(..))(..))")  # root 3
        prime, _ = init_prime(T)
        assert prime.root == 3 + 1
        # The sentinels 0 and n + 1 = 6 hang below the root.
        assert prime.left[4] == 0 and prime.right[4] == 6
        # T's subtrees hang verbatim under the sentinels, T's key k as k + 1.
        assert prime.right[0] == 1 + 1 and prime.left[6] == 4 + 1
        assert prime.left[2] == 0 + 1 and prime.right[2] == 2 + 1
        assert in_order(prime) == [0, 1, 2, 3, 4, 5, 6]

    def test_node_count(self):
        for n in (1, 2, 7):
            T = random_tree(n, rng_for_trial(1, n))
            assert len(init_prime(T)[0]) == n + 2

    def test_sentinel_slots_over_contiguous_keys(self):
        # Over 0..n+1, T's key k is k + 1 and the sentinels are 0 and n + 1.
        # Every key of T keeps its links, each linked key one up, except the
        # root's two, whose subtrees hang below the sentinels: slot for slot
        # the tree laid out per key.
        for n in (1, 2, 7, 30):
            for seed in range(5):
                T = random_tree(n, rng_for_trial(3 + seed, n))
                prime, sim = init_prime(T)
                assert prime.keys == range(n + 2)
                assert len(prime.left) == len(prime.right) == len(prime.parent) == n + 2
                assert in_order(prime) == list(range(n + 2))
                up = {k: k + 1 for k in T.keys} | {None: None}
                left, right, parent = (
                    {up[k]: up[v] for k, v in link_view(T, name).items()}
                    for name in ("left", "right", "parent"))
                r = T.root + 1
                sub_left, sub_right = left[r], right[r]
                left.update({r: 0, 0: None, n + 1: sub_right})
                right.update({r: n + 1, 0: sub_left, n + 1: None})
                parent.update({0: r, n + 1: r})
                for sub, sentinel in ((sub_left, 0), (sub_right, n + 1)):
                    if sub is not None:
                        parent[sub] = sentinel
                assert snapshot(prime) == snapshot(tree_from_links(left, right, parent, r))
                validate(prime)
                validate(sim)
                assert snapshot(sim) == snapshot(T)

    @pytest.mark.parametrize("keys", [[-1000, 0, 5, 1000], [5, 9, 10], [-30, -7, -6],
                                      [-1], [0], [-3, 3], [0, 1, 2, 3, 4]])
    def test_sentinels_over_sparse_keys(self, keys):
        # Keys are read only through their order, so a tree over sparse keys
        # is the tree over their ranks 0..n-1.  Relabelled rank by rank, the
        # restricted tree built over the ranks 0..n+1 is the per-key
        # construction over the sparse keys, with sentinels min-1 and max+1
        # at the ranks 0 and n+1: every key keeps its links except the
        # root's two, whose subtrees hang below the sentinels.
        n = len(keys)
        mn, mx = keys[0] - 1, keys[-1] + 1
        label = dict(enumerate(keys)) | {None: None}
        prime_label = dict(enumerate([mn, *keys, mx])) | {None: None}
        for seed in range(5):
            T = tree_from_roots(n, rng_for_trial(seed, n).randrange)
            prime, sim = init_prime(T)
            left, right, parent = (
                {label[k]: label[v] for k, v in link_view(T, name).items()}
                for name in ("left", "right", "parent"))
            r = label[T.root]
            sub_left, sub_right = left[r], right[r]
            left.update({r: mn, mn: None, mx: sub_right})
            right.update({r: mx, mn: sub_left, mx: None})
            parent.update({mn: r, mx: r})
            for sub, sentinel in ((sub_left, mn), (sub_right, mx)):
                if sub is not None:
                    parent[sub] = sentinel
            got = [{prime_label[k]: prime_label[v] for k, v in link_view(prime, name).items()}
                   for name in ("left", "right", "parent")]
            assert got == [left, right, parent]
            assert prime_label[prime.root] == r
            assert [prime_label[k] for k in in_order(prime)] == [mn, *keys, mx]
            validate(prime)
            assert snapshot(sim) == snapshot(T)


class TestMoveSimulation:
    def test_down_then_up_restores_shape(self):
        T = build_tree("(((..)(..))(..))")
        prime, sim = init_prime(T)
        before = prime.copy()
        out = MachineProgram(list(apply_t_op(prime, sim, L)))
        assert prime.root == 1 + 1  # new simulated cursor pinned at the root
        out.ops += apply_t_op(prime, sim, U)
        assert same_structure(prime, before)
        assert (out.move_count, out.rotation_count) == (8, 4)

    def test_move_costs(self):
        T = build_tree("((..)(..))")
        prime, sim = init_prime(T)
        out = MachineProgram(list(apply_t_op(prime, sim, R)))
        assert (out.move_count, out.rotation_count) == (4, 2)
        out.ops += apply_t_op(prime, sim, ROT)
        assert (out.move_count, out.rotation_count) == (7, 3)

    def test_in_order_preserved(self):
        rng = rng_for_trial(23, 0)
        for _ in range(50):
            T = random_tree(rng.randint(2, 10), rng)
            prime, sim = init_prime(T)
            order = in_order(prime)
            program = random_t_program(T, rng, max_moves=30, max_rotations=15)
            for op in program.ops:
                apply_t_op(prime, sim, op)
                validate(prime)
            assert in_order(prime) == order

    def test_illegal_move_rejected(self):
        T = build_tree("(..)")
        prime, sim = init_prime(T)
        with pytest.raises(IllegalOpError):
            apply_t_op(prime, sim, L)
        with pytest.raises(IllegalOpError):
            apply_t_op(prime, sim, ROT)

    def test_illegal_op_changes_nothing(self):
        # The tracked tree steps first: an illegal simulated op must leave the
        # restricted tree and the tracked tree alone.
        T = build_tree("(((..)(..))(..))")  # root 3; 0 is a leaf under 1
        prime, sim = init_prime(T)
        for steps, illegal in (([], (U, ROT)), ([L, L], (L, R))):
            for op in steps:
                apply_t_op(prime, sim, op)
            prime_before, sim_before = prime.copy(), sim.copy()
            for op in illegal:
                with pytest.raises(IllegalOpError):
                    apply_t_op(prime, sim, op)
                assert same_structure(prime, prime_before) and prime.cursor == prime_before.cursor
                assert same_structure(sim, sim_before) and sim.cursor == sim_before.cursor

    def test_failed_rotation_hook_keeps_earlier_moves(self):
        # A hook that refuses the first rotation stops the sequence there:
        # at T's key 0, the restricted tree's 1.
        T = build_tree("((..)(..))")
        prime, sim = init_prime(T)

        def refuse(key):
            raise IllegalOpError(f"refused rotation at {key}")

        with pytest.raises(IllegalOpError, match="refused rotation at 1"):
            apply_t_op(prime, sim, L, rotate=refuse)
        assert prime.cursor == 1  # the moves before the refused rotation stand

    def test_refused_sequence_names_the_simulated_op_once(self):
        # A restricted cursor moved off the root corrupts the configuration:
        # from the sentinel 0, the sequence of the simulated RIGHT at index 0
        # moves right to 1 (T's key 0) and is refused at its own op 1, LEFT,
        # for 1 has no left child.  The error names the simulated op's index
        # and no other.
        prime, sim = init_prime(build_tree("((..)(..))"))
        prime.cursor = 0
        with pytest.raises(IllegalOpError) as err:
            apply_t_ops(prime, sim, [R, L])
        assert str(err.value).count("(op index") == 1
        assert err.value.index == 0
        assert err.value.reason == "no left child at 1"
        assert str(err.value) == "no left child at 1 (op index 0)"


class TestProgramSimulation:
    def test_exact_counts_fuzzed(self):
        rng = rng_for_trial(29, 0)
        for _ in range(200):
            T = random_tree(rng.randint(2, 10), rng)
            program = random_t_program(T, rng)
            M, Rc = program.move_count, program.rotation_count
            out = simulate_program(T, program)
            assert out.move_count == 4 * M + 3 * Rc
            assert out.rotation_count == 2 * M + Rc
            assert check_restricted(init_prime(T)[0], out.ops).passed

    def test_simulation_tracks_t_program(self):
        # After the simulation, the subtrees hanging off the restricted tree's
        # sentinel spine match the simulated tree around its cursor, each key
        # k of the simulated tree as k + 1.
        rng = rng_for_trial(31, 0)
        for _ in range(100):
            T = random_tree(rng.randint(2, 8), rng)
            program = random_t_program(T, rng, max_moves=20, max_rotations=10)
            sim = T.copy()
            for op in program.ops:
                apply_op(sim, op)
            prime, tracked = init_prime(T)
            for op in program.ops:
                apply_t_op(prime, tracked, op)
            assert prime.root == sim.cursor + 1
            assert in_order(prime) == [0, *(k + 1 for k in in_order(sim)), len(T) + 1]

    def test_cursor_trace_subsequence(self):
        rng = rng_for_trial(37, 0)
        for _ in range(100):
            T = random_tree(rng.randint(2, 10), rng)
            program = random_t_program(T, rng, max_moves=30, max_rotations=10)
            out = simulate_program(T, program)
            sim_keys = [k + 1 for k in cursor_trace(T, program.ops)]
            prime_keys = cursor_trace(init_prime(T)[0], out.ops)
            assert is_subsequence(sim_keys, prime_keys)


class TestRestrictedChecker:
    def test_deep_visit_flagged(self):
        T = build_tree("(((..)(..))((..)(..)))")
        prime = init_prime(T)[0]
        report = check_restricted(prime, [L, R, L])  # walks to depth 3
        assert not report.passed
        assert any("depth >= 3" in v for v in report.violations)

    def test_missed_return_flagged(self):
        T = build_tree("(((..)(..))(..))")
        prime = init_prime(T)[0]
        report = check_restricted(prime, [L, R, ROT])  # rotation at depth 2
        assert not report.passed
        assert any("ends before" in v for v in report.violations)

    def test_sideways_after_rotation_flagged(self):
        T = build_tree("(((..)(..))(..))")
        prime = init_prime(T)[0]
        report = check_restricted(prime, [L, R, ROT, R])
        assert not report.passed
        assert any("sideways" in v for v in report.violations)

    def test_legal_sequence_passes(self):
        T = build_tree("((..)(..))")
        prime = init_prime(T)[0]
        report = check_restricted(prime, [L, ROT])  # zig; ends at the new root
        assert report.passed

    def test_depth_counter_matches_depth_walk(self):
        # Reference: the checker with a TreeState.depth walk per op.
        def walked(initial, ops):
            state, found, pending = initial.copy(), [], False
            for i, op in enumerate(ops):
                if op is ROT:
                    if pending:
                        found.append(f"index {i}: rotation before cursor returned to root")
                    if state.depth(state.cursor) >= 3:
                        found.append(f"index {i}: rotated node at depth >= 3")
                    apply_op(state, op, index=i)
                    pending = state.cursor != state.root
                else:
                    if pending and op is not U:
                        found.append(f"index {i}: sideways move before returning to root")
                    apply_op(state, op, index=i)
                    if state.depth(state.cursor) >= 3:
                        found.append(f"index {i}: cursor visited depth >= 3")
                    if state.cursor == state.root:
                        pending = False
            if pending:
                found.append("program ends before cursor returns to root")
            return found

        rng = rng_for_trial(41, 0)
        flagged = 0
        for _ in range(150):
            T = random_tree(rng.randint(2, 10), rng)
            prime = init_prime(T)[0]
            program = random_t_program(T, rng, max_moves=20, max_rotations=10)
            out = simulate_program(T, program).ops
            for initial, ops in ((T, program.ops), (prime, out)):
                report = check_restricted(initial, ops)
                assert report.violations == walked(initial, ops)
                assert report.checked == len(ops)
                flagged += not report.passed
        assert flagged > 0  # the arbitrary programs exercise the failure paths

    def test_is_subsequence(self):
        assert is_subsequence([1, 3], [1, 2, 3])
        assert not is_subsequence([3, 1], [1, 2, 3])
        assert is_subsequence([], [1])

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(hst.integers(0, 4), max_size=8), hst.lists(hst.integers(0, 4), max_size=12))
    def test_is_subsequence_matches_reference(self, sub, seq):
        assert is_subsequence(sub, seq) == reference_is_subsequence(sub, seq)


def snapshot(tree):
    """Everything a transition can change: the links, the root and the cursor."""
    return tree.keys, tree.left.copy(), tree.right.copy(), tree.parent.copy(), tree.root, tree.cursor


def outcome(run):
    """What `run()` returned, or the type, message and index of what it raised."""
    try:
        return "ok", run()
    except IllegalOpError as exc:
        return type(exc), str(exc), exc.index


def illegal_at(tree):
    """The ops that are illegal at the cursor of `tree`."""
    c = tree.cursor
    return [op for op, bad in ((L, tree.left[c] is None), (R, tree.right[c] is None),
                               (U, tree.parent[c] is None), (ROT, tree.parent[c] is None)) if bad]


def one_at_a_time(step, prime, sim, ops, rotate):
    """`step(prime, sim, op, rotate=rotate)` on each op in turn: the
    concatenated sequences, or the error of the op at fault, naming its index
    in `ops`."""
    out = []
    for i, op in enumerate(ops):
        try:
            out += step(prime, sim, op, rotate=rotate)
        except IllegalOpError as exc:
            raise IllegalOpError(str(exc), i) from None
    return out


def programs(seed, count, max_keys=10):
    """Seeded (tree, op list) pairs: legal random programs, and every other one
    with one op illegal where it stands, injected at a random index."""
    rng = rng_for_trial(seed, 0)
    injected = 0
    for k in range(count):
        T = random_tree(rng.randint(1, max_keys), rng)
        ops = list(random_t_program(T, rng, max_moves=30, max_rotations=15).ops)
        if k % 2:
            at = rng.randint(0, len(ops))
            state = T.copy()
            for op in ops[:at]:
                reference_apply_op(state, op)
            bad = illegal_at(state)
            if bad:
                ops.insert(at, rng.choice(bad))
                ops += random_t_program(T, rng, max_moves=3, max_rotations=2).ops
                injected += 1
        yield T, ops
    assert injected > count // 6


class TestBatchedTransition:
    """`apply_ops` in one call against the per-op reference transition."""

    def test_apply_ops_matches_per_op_reference(self):
        for T, ops in programs(43, 300):
            fast, slow = T.copy(), T.copy()
            fast_trace, slow_trace = [fast.cursor], [slow.cursor]

            def per_op():
                for i, op in enumerate(ops):
                    reference_apply_op(slow, op, index=i)
                    slow_trace.append(slow.cursor)

            assert outcome(lambda: apply_ops(fast, ops, fast_trace)) == outcome(per_op)
            assert fast_trace == slow_trace
            assert snapshot(fast) == snapshot(slow)
            assert outcome(lambda: cursor_trace(T, ops)) == outcome(lambda: reference_cursor_trace(T, ops))

    def test_apply_op_is_the_one_op_form(self):
        rng = rng_for_trial(47, 0)
        for T, ops in programs(47, 100):
            fast, slow = T.copy(), T.copy()
            for op in ops + [L, R, U, ROT]:
                index = rng.choice([None, rng.randrange(100)])
                got = outcome(lambda: apply_op(fast, op, index))
                assert got == outcome(lambda: reference_apply_op(slow, op, index))
                assert snapshot(fast) == snapshot(slow)

    @pytest.mark.parametrize("hooked", [False, True])
    def test_apply_t_op_matches_per_op_reference(self, hooked):
        raised = hooked_calls = 0
        for T, ops in programs(53 + hooked, 200):
            runs = []
            for step in (apply_t_op, reference_apply_t_op):
                (prime, sim), calls, results = init_prime(T), [], []

                def hook(key, prime=prime, calls=calls):
                    calls.append((key, prime.cursor))
                    prime.rotate_up(key)

                for op in ops:
                    results.append(outcome(
                        lambda: step(prime, sim, op, rotate=hook if hooked else None)))
                    if results[-1][0] != "ok":
                        break
                runs.append((results, calls, snapshot(prime), snapshot(sim)))
            assert runs[0] == runs[1]
            raised += any(r[0] != "ok" for r in runs[0][0])
            hooked_calls += len(runs[0][1])
        assert raised > 30
        assert hooked_calls > 1000 if hooked else hooked_calls == 0

    @pytest.mark.parametrize("hooked", [False, True])
    def test_apply_t_ops_matches_per_op_loop(self, hooked):
        # One batch against a loop of the per-op reference that names the
        # index of the op at fault.  The hook never refuses, so whatever is
        # raised is the tracked tree refusing an op, and the tracked trees
        # must agree as well.
        raised = hooked_calls = 0
        for T, ops in programs(59 + hooked, 200):
            runs = []
            for batched in (True, False):
                (prime, sim), calls = init_prime(T), []

                def hook(key, prime=prime, calls=calls):
                    calls.append((key, prime.cursor))
                    prime.rotate_up(key)

                rotate = hook if hooked else None
                result = outcome(lambda: apply_t_ops(prime, sim, ops, rotate) if batched
                                 else one_at_a_time(reference_apply_t_op, prime, sim, ops, rotate))
                runs.append((result, calls, snapshot(prime), snapshot(sim)))
            assert runs[0] == runs[1]
            raised += runs[0][0][0] is IllegalOpError
            hooked_calls += len(runs[0][1])
        assert raised > 30
        assert hooked_calls > 1000 if hooked else hooked_calls == 0

    @pytest.mark.parametrize("skip", [False, True])
    def test_apply_t_ops_refused_rotation_names_its_op(self, skip):
        # A hook that refuses a rotation, or skips it so that the restricted
        # root loses the simulated cursor, stops the batch at that op, as a
        # loop of apply_t_op stops: the same error and index, restricted
        # tree and hook calls.  Only the tracked tree differs: the batch's
        # has already taken the later ops.
        fault = "restricted-tree root lost" if skip else "refused"
        differed = 0
        for k, (T, ops) in enumerate(programs(61, 200)):
            runs = []
            for batched in (True, False):
                (prime, sim), calls = init_prime(T), []

                def hook(key, prime=prime, calls=calls):
                    calls.append(key)
                    if len(calls) <= k % 7:
                        prime.rotate_up(key)
                    elif not skip:
                        raise IllegalOpError(f"refused rotation at {key}")

                result = outcome(lambda: apply_t_ops(prime, sim, ops, hook) if batched
                                 else one_at_a_time(apply_t_op, prime, sim, ops, hook))
                runs.append((result, calls, snapshot(prime), sim))
            assert runs[0][:3] == runs[1][:3]
            result, _, _, sim = runs[0]
            if result[0] is IllegalOpError and result[1].startswith(fault):
                differed += snapshot(sim) != snapshot(runs[1][3])
        assert differed > 40

    def test_empty_segment_moves_nothing(self, monkeypatch):
        # No ops: an empty op list back, no replay, no hook call, and both
        # trees and both cursors as they were.
        states = []
        for T, _ in programs(67, 20):
            prime, sim = init_prime(T)
            # One legal move first, where there is one, so a cursor is off the root.
            apply_t_ops(prime, sim, [op for op in (L, R) if op not in illegal_at(sim)][:1])
            states.append((prime, sim))
        replays = []
        monkeypatch.setattr(splaylab.restricted, "apply_ops",
                            lambda *args, **kwargs: replays.append(args))
        for prime, sim in states:
            before = snapshot(prime), snapshot(sim)
            calls = []
            for empty in ([], ()):
                assert apply_t_ops(prime, sim, empty, calls.append) == []
            assert (snapshot(prime), snapshot(sim)) == before
            assert calls == [] and replays == []

    def test_lemma3_applies_no_op_per_restricted_op(self, monkeypatch):
        # apply_op never runs: random_t_program moves its own cursor, and
        # apply_t_ops steps the tracked tree, the restricted tree and both
        # replays through apply_ops.
        calls, drawn = [], []
        original = splaylab.machine.apply_op

        def counted(state, op, index=None):
            calls.append(op)
            return original(state, op, index)

        for name, module in list(sys.modules.items()):
            if name == "splaylab" or name.startswith("splaylab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        draw = splaylab.suites.random_t_program

        def drawn_program(*args, **kwargs):
            program = draw(*args, **kwargs)
            drawn.append(program)
            return program

        monkeypatch.setattr(splaylab.suites, "random_t_program", drawn_program)
        code, _ = run_suite("lemma3", ExperimentConfig(n=10, trials=1))
        assert code == 0
        (program,) = drawn
        assert len(program.ops) > 10
        assert calls == []


@settings(max_examples=200, deadline=None)
@given(hst.integers(1, 12), hst.integers(0, 2**30), hst.integers(0, 30), hst.integers(0, 15))
def test_random_t_program_matches_reference(n, seed, max_moves, max_rotations):
    # The same ops from the same draws, and the RNG left in the same state;
    # the tree passed in is left as it was.
    T = random_tree(n, rng_for_trial(seed, 0))
    before = T.copy()
    ours, theirs = rng_for_trial(seed, 1), rng_for_trial(seed, 1)
    program = random_t_program(T, ours, max_moves, max_rotations)
    assert program == reference_random_t_program(T, theirs, max_moves, max_rotations)
    assert ours.getstate() == theirs.getstate()
    assert same_structure(T, before) and T.cursor == before.cursor
