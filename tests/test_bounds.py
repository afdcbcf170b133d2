"""Each bound's constant, pinned at its boundary.

A synthetic event or value sits EPS above or below the paper's bound: above
it the check must fail, below it the check must pass.  EPS is far above
`RANK_TOL` (1e-6), so the float tolerance decides nothing here, and far below
the slack a changed constant would add, so each constant of the mutant
catalogue in `tests/mutants.py` fails one of these tests.  The bounds are
written out as the paper states them, not read from splaylab.
"""

import math

import pytest

import splaylab.lab
import splaylab.potential
from splaylab.generators import random_tree, rng_for_trial
from splaylab.lab import (
    InterleavedRun,
    RotationEvent,
    SplayEvent,
    StepCheck,
    accounting_run,
    check_access_lemma,
    check_amortized_depth,
    check_rotation_delta,
)
from splaylab.potential import check_potential_floor
from splaylab.splay import ZIG, ZIGZAG, ZIGZIG

from mutants import MUTANTS, SRC

EPS = 1e-3
SIDES = pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])


def holds(report, side):
    """Whether `report` agrees with the value's side of its bound: a value
    above must fail, a value below must pass."""
    return report.passed == (side < 0)


@SIDES
@pytest.mark.parametrize("dr", [0.0, 0.5, 1.0, 2.5])
def test_access_bound(side, dr):
    # amortized = cost + delta against 1 + 3 [r(root) - r(key)].
    bound = 1 + 3 * dr
    ev = SplayEvent(key=0, cost=3, depth_ref=0, r_root_before=dr - 4.0, r_key_before=-4.0,
                    delta=bound + side * EPS - 3)
    assert holds(check_access_lemma(ev), side)


@SIDES
@pytest.mark.parametrize("kind, cost, constant", [(ZIG, 1, 1), (ZIGZIG, 2, 0), (ZIGZAG, 2, 0)])
@pytest.mark.parametrize("dr", [0.5, 2.0])
def test_step_bound(side, kind, cost, constant, dr):
    # A zig's amortized cost is at most 1 + 3 dr, a zig-zig's or zig-zag's
    # 3 dr, with dr the key's rank change over the step.  The splay as a
    # whole stays far inside its own bound.
    bound = constant + 3 * dr
    step = StepCheck(kind, cost, -3.0, dr - 3.0, bound + side * EPS - cost)
    ev = SplayEvent(key=0, cost=0, depth_ref=0, r_root_before=0.0, r_key_before=0.0,
                    delta=-10.0, steps=[step])
    assert holds(check_access_lemma(ev), side)


@SIDES
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_amortized_depth_bound(side, depth):
    bound = 4 + 6 * depth
    ev = SplayEvent(key=0, cost=2, depth_ref=depth, r_root_before=0.0, r_key_before=0.0,
                    delta=bound + side * EPS - 2)
    assert holds(check_amortized_depth(ev), side)


@SIDES
@pytest.mark.parametrize("depth, bound", [(2, 11 + math.log2(11)), (1, 7 + math.log2(11))])
def test_rotation_delta_bound(side, depth, bound):
    assert holds(check_rotation_delta(RotationEvent(0, depth, bound + side * EPS)), side)


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_potential_floor(side, monkeypatch):
    # -n < phi: a phi just below -n must fail, one just above must pass.
    S = random_tree(7, rng_for_trial(3, 0))
    T = random_tree(7, rng_for_trial(3, 1))
    monkeypatch.setattr(splaylab.potential, "phi", lambda S, T: -7 + side * EPS)
    assert check_potential_floor(S, T).passed == (side > 0)


@pytest.mark.parametrize("residual, passed", [(5e-7, True), (-5e-7, True),
                                              (1e-4, False), (-1e-4, False)])
def test_telescoping_tolerance(residual, passed, monkeypatch):
    monkeypatch.setattr(InterleavedRun, "telescoping_residual", lambda self, a, b: residual)
    acc = accounting_run(6, [1, 4, 0, 2, 0, 3])
    assert acc.telescoping_residual == residual
    assert acc.passed == passed


@pytest.mark.parametrize("strategy", ["oracle-witness", "static"])
def test_organizing_splays_are_5M_plus_3R(strategy):
    # Each simulated move costs R' two restricted rotations but only five
    # organizing splays, so e = 3R' - M: the budget e <= 3R' is met with
    # equality only when the reference program makes no move.
    rotated = 0
    for k in range(40):
        rng = rng_for_trial(0, k)
        n = rng.randint(2, 6)
        queries = [rng.randrange(n) for _ in range(rng.randint(1, 8))]
        acc = accounting_run(n, queries, strategy=strategy)
        assert acc.R_prime == 2 * acc.M + acc.R
        assert acc.e == 5 * acc.M + 3 * acc.R
        rotated += acc.R_prime > 0
    assert rotated > 20


@pytest.mark.parametrize("extra, passed", [(0, True), (1, False)])
def test_organizing_splay_budget(extra, passed, monkeypatch):
    # Every plan padded to three keys makes e = 3R' exactly; one more key on
    # the first plan makes e = 3R' + 1.  The padding re-splays the plan's last
    # key, S's root by then, which costs nothing and changes no potential.
    original = splaylab.lab.plan_organizing_splays
    plans = []

    def padded(T, rotated):
        keys = original(T, rotated)
        keys += [keys[-1]] * (3 - len(keys) + (extra if not plans else 0))
        plans.append(keys)
        return keys

    monkeypatch.setattr(splaylab.lab, "plan_organizing_splays", padded)
    acc = accounting_run(6, [1, 4, 0, 2, 0, 3])
    assert acc.R_prime > 0 and acc.M > 0
    assert acc.e == 3 * acc.R_prime + extra == sum(map(len, plans))
    assert acc.e_within_budget == passed
    assert acc.passed == passed


def test_every_mutant_target_occurs_once():
    # A row whose target text has moved or doubled would mutate nothing, or
    # the wrong place, so the catalogue is checked against src/ here.
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        counts = {name: text.count(m.old) for name, text in sources.items()}
        assert counts[m.module] == 1 == sum(counts.values()), m.name
        assert m.old != m.new, m.name
