import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as hst

import splaylab.machine
import splaylab.suites
from splaylab.generators import ExperimentConfig, random_t_program, random_tree, rng_for_trial
from splaylab.machine import (
    CostLedger,
    IllegalOpError,
    OpKind,
    apply_op,
    apply_ops,
    build_tree,
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
    reference_apply_op,
    reference_apply_t_op,
    reference_cursor_trace,
    reference_is_subsequence,
    reference_random_t_program,
    same_structure,
    validate,
)

L, R, U, ROT = OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE


def apply_t_op(st, t_op, rotate=None) -> tuple:
    """`apply_t_ops` on the one op `t_op`: its restricted sequence, or an
    IllegalOpError that names no index."""
    try:
        return tuple(apply_t_ops(st, (t_op,), rotate))
    except IllegalOpError as exc:
        raise IllegalOpError(exc.reason) from None


class TestInitPrime:
    def test_singleton(self):
        st = init_prime(build_tree([5], "(..)"))
        prime = st.prime
        assert prime.root == 5
        assert prime.left[5] == 4 and prime.right[5] == 6
        assert len(prime) == 3
        assert prime.in_order() == [4, 5, 6]

    def test_five_keys(self):
        T = build_tree(range(5), "(((..)(..))(..))")  # root 3
        st = init_prime(T)
        prime = st.prime
        assert prime.root == 3
        keys = T.in_order()
        assert prime.left[3] == keys[0] - 1 == -1
        assert prime.right[3] == keys[-1] + 1 == 5
        # T's subtrees hang verbatim under the sentinels.
        assert prime.right[-1] == 1 and prime.left[5] == 4
        assert prime.left[1] == 0 and prime.right[1] == 2
        assert prime.in_order() == [-1, 0, 1, 2, 3, 4, 5]

    def test_node_count(self):
        for n in (1, 2, 7):
            T = random_tree(n, rng_for_trial(1, n))
            assert len(init_prime(T).prime) == n + 2


class TestMoveSimulation:
    def test_down_then_up_restores_shape(self):
        T = build_tree(range(5), "(((..)(..))(..))")
        st = init_prime(T)
        before = st.prime.copy()
        apply_t_op(st, L)
        assert st.prime.root == 1  # new simulated cursor pinned at the root
        apply_t_op(st, U)
        assert same_structure(st.prime, before)
        assert st.ledger.moves == 8 and st.ledger.rotations == 4

    def test_move_costs(self):
        T = build_tree(range(3), "((..)(..))")
        st = init_prime(T)
        apply_t_op(st, R)
        assert (st.ledger.moves, st.ledger.rotations) == (4, 2)
        apply_t_op(st, ROT)
        assert (st.ledger.moves, st.ledger.rotations) == (7, 3)

    def test_in_order_preserved(self):
        rng = rng_for_trial(23, 0)
        for _ in range(50):
            T = random_tree(rng.randint(2, 10), rng)
            st = init_prime(T)
            order = st.prime.in_order()
            program = random_t_program(T, rng, max_moves=30, max_rotations=15)
            for op in program.ops:
                apply_t_op(st, op)
                validate(st.prime)
            assert st.prime.in_order() == order

    def test_illegal_move_rejected(self):
        T = build_tree([0], "(..)")
        st = init_prime(T)
        with pytest.raises(IllegalOpError):
            apply_t_op(st, L)
        with pytest.raises(IllegalOpError):
            apply_t_op(st, ROT)

    def test_illegal_op_changes_nothing(self):
        # The tracked tree steps first, inside op_sequence: an illegal simulated
        # op must leave the restricted tree, the tracked tree and the ledger alone.
        T = build_tree(range(5), "(((..)(..))(..))")  # root 3; 0 is a leaf under 1
        st = init_prime(T)
        for steps, illegal in (([], (U, ROT)), ([L, L], (L, R))):
            for op in steps:
                apply_t_op(st, op)
            prime, sim, ledger = st.prime.copy(), st.sim.copy(), replace(st.ledger)
            for op in illegal:
                with pytest.raises(IllegalOpError):
                    apply_t_op(st, op)
                assert same_structure(st.prime, prime) and st.prime.cursor == prime.cursor
                assert same_structure(st.sim, sim) and st.sim.cursor == sim.cursor
                assert st.ledger == ledger

    def test_failed_rotation_hook_charges_nothing(self):
        # The ledger is charged after the whole restricted sequence has run.
        T = build_tree(range(3), "((..)(..))")
        st = init_prime(T)

        def refuse(key):
            raise IllegalOpError(f"refused rotation at {key}")

        with pytest.raises(IllegalOpError, match="refused rotation at 0"):
            apply_t_op(st, L, rotate=refuse)
        assert st.ledger == CostLedger()
        assert st.prime.cursor == 0  # the moves before the refused rotation stand


class TestProgramSimulation:
    def test_exact_counts_fuzzed(self):
        rng = rng_for_trial(29, 0)
        for _ in range(200):
            T = random_tree(rng.randint(2, 10), rng)
            program = random_t_program(T, rng)
            M, Rc = program.move_count, program.rotation_count
            out, ledger = simulate_program(T, program)
            assert ledger.moves == 4 * M + 3 * Rc
            assert ledger.rotations == 2 * M + Rc
            assert check_restricted(init_prime(T).prime, out).passed

    def test_simulation_tracks_t_program(self):
        # After the simulation, the subtrees hanging off the restricted tree's
        # sentinel spine match the simulated tree around its cursor.
        rng = rng_for_trial(31, 0)
        for _ in range(100):
            T = random_tree(rng.randint(2, 8), rng)
            program = random_t_program(T, rng, max_moves=20, max_rotations=10)
            sim = T.copy()
            for op in program.ops:
                apply_op(sim, op)
            st = init_prime(T)
            for op in program.ops:
                apply_t_op(st, op)
            assert st.prime.root == sim.cursor
            keys = T.in_order()
            assert st.prime.in_order() == [keys[0] - 1] + sim.in_order() + [keys[-1] + 1]

    def test_cursor_trace_subsequence(self):
        rng = rng_for_trial(37, 0)
        for _ in range(100):
            T = random_tree(rng.randint(2, 10), rng)
            program = random_t_program(T, rng, max_moves=30, max_rotations=10)
            out, _ = simulate_program(T, program)
            sim_keys = cursor_trace(T, program.ops)
            prime_keys = cursor_trace(init_prime(T).prime, out)
            assert is_subsequence(sim_keys, prime_keys)


class TestRestrictedChecker:
    def test_deep_visit_flagged(self):
        T = build_tree(range(7), "(((..)(..))((..)(..)))")
        prime = init_prime(T).prime
        report = check_restricted(prime, [L, R, L])  # walks to depth 3
        assert not report.passed
        assert any("depth >= 3" in v for v in report.violations)

    def test_missed_return_flagged(self):
        T = build_tree(range(5), "(((..)(..))(..))")
        prime = init_prime(T).prime
        report = check_restricted(prime, [L, R, ROT])  # rotation at depth 2
        assert not report.passed
        assert any("ends before" in v for v in report.violations)

    def test_sideways_after_rotation_flagged(self):
        T = build_tree(range(5), "(((..)(..))(..))")
        prime = init_prime(T).prime
        report = check_restricted(prime, [L, R, ROT, R])
        assert not report.passed
        assert any("sideways" in v for v in report.violations)

    def test_legal_sequence_passes(self):
        T = build_tree(range(3), "((..)(..))")
        prime = init_prime(T).prime
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
            prime = init_prime(T).prime
            program = random_t_program(T, rng, max_moves=20, max_rotations=10)
            out, _ = simulate_program(T, program)
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
    return dict(tree.left), dict(tree.right), dict(tree.parent), tree.root, tree.cursor


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


def one_at_a_time(step, st, ops, rotate):
    """`step(st, op, rotate=rotate)` on each op in turn: the concatenated
    sequences, or the error of the op at fault, naming its index in `ops`."""
    out = []
    for i, op in enumerate(ops):
        try:
            out += step(st, op, rotate=rotate)
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
                st, calls, results = init_prime(T), [], []

                def hook(key, st=st, calls=calls):
                    calls.append((key, st.prime.cursor))
                    st.prime.rotate_up(key)

                for op in ops:
                    results.append(outcome(lambda: step(st, op, rotate=hook if hooked else None)))
                    if results[-1][0] != "ok":
                        break
                runs.append((results, calls, snapshot(st.prime), snapshot(st.sim), st.ledger))
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
                st, calls = init_prime(T), []

                def hook(key, st=st, calls=calls):
                    calls.append((key, st.prime.cursor))
                    st.prime.rotate_up(key)

                rotate = hook if hooked else None
                result = outcome(lambda: apply_t_ops(st, ops, rotate) if batched
                                 else one_at_a_time(reference_apply_t_op, st, ops, rotate))
                runs.append((result, calls, snapshot(st.prime), st.ledger, snapshot(st.sim)))
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
        # tree, hook calls and ledger.  Only the tracked tree differs: the
        # batch's has already taken the later ops.
        fault = "restricted-tree root lost" if skip else "refused"
        differed = 0
        for k, (T, ops) in enumerate(programs(61, 200)):
            runs = []
            for batched in (True, False):
                st, calls = init_prime(T), []

                def hook(key, st=st, calls=calls):
                    calls.append(key)
                    if len(calls) <= k % 7:
                        st.prime.rotate_up(key)
                    elif not skip:
                        raise IllegalOpError(f"refused rotation at {key}")

                result = outcome(lambda: apply_t_ops(st, ops, hook) if batched
                                 else one_at_a_time(apply_t_op, st, ops, hook))
                runs.append((result, calls, snapshot(st.prime), st.ledger, st.sim))
            assert runs[0][:4] == runs[1][:4]
            result, _, _, _, sim = runs[0]
            if result[0] is IllegalOpError and result[1].startswith(fault):
                differed += snapshot(sim) != snapshot(runs[1][4])
        assert differed > 40

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
