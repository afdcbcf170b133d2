import pytest
from hypothesis import given, settings, strategies as st

from splaylab.machine import (
    CostLedger,
    IllegalOpError,
    MachineOp,
    MachineProgram,
    OpKind,
    ShapeError,
    build_tree,
    descriptor_of,
    parse_shape,
    run_program,
    shape_of,
    tree_from_shape,
)
from splaylab.generators import random_tree, rng_for_trial


L, R, U, ROT = (MachineOp(k) for k in (OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE))


class TestShapes:
    def test_singleton_descriptor(self):
        assert parse_shape("(..)") == (None, None)

    def test_singleton_alias(self):
        assert parse_shape("(.)") == (None, None)

    def test_round_trip(self):
        desc = "(((..)(..))(..))"
        tree = build_tree(range(5), desc)
        assert descriptor_of(tree) == desc
        assert shape_of(tree) == parse_shape(desc)

    @pytest.mark.parametrize("bad", ["", "(", ")", "(.", "(...)", "()", "(..)(..)", "x"])
    def test_malformed(self, bad):
        with pytest.raises(ShapeError):
            parse_shape(bad)

    def test_key_count_mismatch(self):
        with pytest.raises(ShapeError):
            build_tree(range(3), "(..)")

    def test_keys_must_increase(self):
        with pytest.raises(ShapeError):
            tree_from_shape(parse_shape("((..)(..))"), [3, 2, 1])

    def test_fig5_tree(self):
        tree = build_tree(range(5), "(((..)(..))(..))")
        assert tree.root == 3
        assert tree.left[3] == 1 and tree.right[3] == 4
        assert tree.left[1] == 0 and tree.right[1] == 2
        assert tree.all_depths() == {3: 0, 1: 1, 4: 1, 0: 2, 2: 2}

    def test_deep_spine_descriptor(self):
        n = 1024
        right_spine = "(." * n + "." + ")" * n
        tree = build_tree(range(n), right_spine)
        assert tree.depth(n - 1) == n - 1
        assert descriptor_of(tree) == right_spine


class TestRotation:
    def test_zig_rotation(self):
        # Rotating y over root x hangs y's left subtree as x's right child.
        tree = build_tree(range(3), "((..)(..))")  # root 1, children 0 and 2
        tree.rotate_up(2)
        assert tree.root == 2
        assert tree.left[2] == 1 and tree.right[1] is None
        tree.validate()

    def test_rotation_inverse(self):
        rng = rng_for_trial(7, 0)
        for trial in range(50):
            tree = random_tree(rng.randint(2, 12), rng)
            before = shape_of(tree)
            key = rng.choice([k for k in tree.in_order() if tree.parent[k] is not None])
            parent = tree.parent[key]
            tree.rotate_up(key)
            tree.validate()
            tree.rotate_up(parent)
            assert shape_of(tree) == before

    def test_rotate_root_fails(self):
        tree = build_tree(range(3), "((..)(..))")
        with pytest.raises(IllegalOpError):
            tree.rotate_up(tree.root)

    def test_fuzz_invariants(self):
        rng = rng_for_trial(11, 0)
        tree = random_tree(20, rng)
        ledger = CostLedger()
        order = tree.in_order()
        applied = 0
        while applied < 10_000:
            kind = rng.choice([OpKind.LEFT, OpKind.RIGHT, OpKind.UP, OpKind.ROTATE])
            try:
                from splaylab.machine import apply_op
                apply_op(tree, ledger, MachineOp(kind))
            except IllegalOpError:
                continue
            applied += 1
        tree.validate()
        assert tree.in_order() == order
        assert ledger.moves + ledger.rotations == 10_000


class TestPrograms:
    def test_compare_is_free(self):
        tree = build_tree(range(3), "((..)(..))")
        trace = run_program(tree, [MachineOp(OpKind.COMPARE), L, U])
        assert trace.ledger.as_dict() == {"moves": 2, "rotations": 0, "comparisons": 1}

    def test_ledger_additive_over_concatenation(self):
        from splaylab.generators import random_t_program

        rng = rng_for_trial(3, 0)
        tree = random_tree(9, rng)
        p = random_t_program(tree, rng, max_moves=10, max_rotations=5).ops
        scratch = tree.copy()
        run_program(scratch, p)
        q = random_t_program(scratch, rng, max_moves=10, max_rotations=5).ops
        t1 = tree.copy()
        ledger = CostLedger()
        run_program(t1, p, ledger)
        run_program(t1, q, ledger)
        t2 = tree.copy()
        combined = run_program(t2, p + q).ledger
        assert ledger.as_dict() == combined.as_dict()
        assert t1.same_structure(t2)

    def test_illegal_op_reports_index(self):
        tree = build_tree(range(2), "(.(..))")  # root 0, right child 1
        with pytest.raises(IllegalOpError) as err:
            run_program(tree, [R, R])
        assert err.value.index == 1

    def test_six_op_move_simulation_counts(self):
        program = MachineProgram([L, R, ROT, U, L, ROT])
        assert program.move_count == 4
        assert program.rotation_count == 2

    def test_program_json_round_trip(self):
        program = MachineProgram([L, R, U, ROT])
        data = program.to_json()
        assert data == [{"op": "L"}, {"op": "R"}, {"op": "U"}, {"op": "ROT"}]
        again = MachineProgram.from_json(data)
        assert [op.kind for op in again.ops] == [op.kind for op in program.ops]

    def test_trace_json(self):
        tree = build_tree(range(3), "((..)(..))")
        trace = run_program(tree, [L, U, R])
        data = trace.to_json(build_tree(range(3), "((..)(..))"))
        assert data["initial_shape"] == "((..)(..))"
        assert data["keys"] == [0, 1, 2]
        assert data["steps"] == [
            {"op": "left", "cursor": 0},
            {"op": "up", "cursor": 1},
            {"op": "right", "cursor": 2},
        ]
        assert data["ledger"]["moves"] == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**30))
def test_shape_round_trip_random(n, seed):
    tree = random_tree(n, rng_for_trial(seed, 0))
    rebuilt = build_tree(tree.in_order(), descriptor_of(tree))
    assert rebuilt.same_structure(tree)


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
            via_desc = build_tree(range(n), descriptor_random_shape(n, rng_desc))
            assert direct.root == via_desc.root and direct.cursor == via_desc.cursor
            for links in ("left", "right", "parent"):
                assert list(getattr(direct, links).items()) == list(getattr(via_desc, links).items())
            assert rng_direct.random() == rng_desc.random()  # same draws consumed


def test_random_tree_needs_a_node():
    with pytest.raises(ValueError):
        random_tree(0, rng_for_trial(0, 0))
