"""Each bound's constant, pinned at its boundary.

A synthetic event or value sits EPS above or below the paper's bound: above
it the check must fail, below it the check must pass.  Every check compares
exact integers, so each event carries its change of potential as an integer
ratio grow / shrink within 2^-40 of 2^(bound - cost +- EPS) (`ratio`).  EPS
is far above that rounding and far below the slack a changed constant would
add, so each constant of the mutant catalogue in `tests/mutants.py` fails
one of these tests.  The bounds are written out as the paper states them,
not read from splaylab.

One family of tree pairs (`family`) drives the access bound's slack to
2.8e-19 at n = 64, past what a float can resolve; the exact check tells its
sign.
"""

import math

import mpmath
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
from splaylab.machine import tree_from_roots
from splaylab.potential import assign_weights, check_potential_floor
from splaylab.report import CheckReport
from splaylab.splay import ZIG, ZIGZAG, ZIGZIG

from mutants import MUTANTS, SRC
from reference import reference_subtree_sums

EPS = 1e-3
UNIT = 1 << 40
SIDES = pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])


def ratio(exponent):
    """(grow, shrink): integers whose ratio is within 2^-40 of 2^exponent."""
    return round(2.0 ** exponent * UNIT), UNIT


def holds(report, side):
    """Whether `report` agrees with the value's side of its bound: a value
    above must fail, a value below must pass."""
    return report.passed == (side < 0)


def checked(checker, ev):
    return checker(ev, CheckReport("bound"))


@SIDES
@pytest.mark.parametrize("dr", [0.0, 0.5, 1.0, 2.5])
def test_access_bound(side, dr):
    # amortized = cost + delta against 1 + 3 [r(root) - r(key)], where
    # r(root) - r(key) = log2(s(root) / s(key)) = dr.
    bound = 1 + 3 * dr
    ev = SplayEvent(0, 3, 0, ratio(dr)[0], UNIT, *ratio(bound + side * EPS - 3))
    assert holds(checked(check_access_lemma, ev), side)


@SIDES
@pytest.mark.parametrize("kind, cost, constant", [(ZIG, 1, 1), (ZIGZIG, 2, 0), (ZIGZAG, 2, 0)])
@pytest.mark.parametrize("dr", [0.5, 2.0])
def test_step_bound(side, kind, cost, constant, dr):
    # A zig's amortized cost is at most 1 + 3 dr, a zig-zig's or zig-zag's
    # 3 dr, with dr the key's rank change over the step.  The splay as a
    # whole stays far inside its own bound.
    bound = constant + 3 * dr
    step = StepCheck(kind, cost, UNIT, ratio(dr)[0], *ratio(bound + side * EPS - cost))
    ev = SplayEvent(0, 0, 0, UNIT, UNIT, 1, 1 << 10, [step])
    assert holds(checked(check_access_lemma, ev), side)


@SIDES
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_amortized_depth_bound(side, depth):
    bound = 4 + 6 * depth
    ev = SplayEvent(0, 2, depth, UNIT, UNIT, *ratio(bound + side * EPS - 2))
    assert holds(checked(check_amortized_depth, ev), side)


@SIDES
@pytest.mark.parametrize("depth, bound", [(2, 11 + math.log2(11)), (1, 7 + math.log2(11))])
def test_rotation_delta_bound(side, depth, bound):
    ev = RotationEvent(0, depth, *ratio(bound + side * EPS))
    assert holds(checked(check_rotation_delta, ev), side)


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_potential_floor(side, monkeypatch):
    # -n < phi: a phi just below -n must fail, one just above must pass.
    # Each tree's sums are replaced by one sum, and 2^phi is their ratio.
    S = random_tree(7, rng_for_trial(3, 0))
    T = random_tree(7, rng_for_trial(3, 1))
    s_S, s_T = ratio(-7 + side * EPS)
    monkeypatch.setattr(splaylab.potential, "subtree_sums",
                        lambda tree, weights: {0: s_S if tree is S else s_T})
    assert check_potential_floor(S, T).passed == (side > 0)


def rewrite_first_splay(monkeypatch, scale, off):
    """accounting_run(6, [1, 4, 0, 2, 0, 3]) with the first splay's ratio
    grow / shrink rewritten as (grow * scale + off) / (shrink * scale)."""
    original = splaylab.lab.checked_splay
    events = []

    def skewed(*args, **kwargs):
        ev = original(*args, **kwargs)
        if not events:
            ev.grow, ev.shrink = ev.grow * scale + off, ev.shrink * scale
        events.append(ev)
        return ev

    monkeypatch.setattr(splaylab.lab, "checked_splay", skewed)
    return accounting_run(6, [1, 4, 0, 2, 0, 3])


@pytest.mark.parametrize("off, passed", [(0, True), (1, False), (-1, False)])
def test_telescoping_is_exact(off, passed, monkeypatch):
    # The first splay's ratio, put in 2^40 times finer units, is off by `off`
    # of them: the run's change of phi then misses phi_final by at most 2^-40
    # relative, and only the telescoping identity can see it.
    _, check = rewrite_first_splay(monkeypatch, UNIT, off)
    assert check.passed == passed
    assert [v.split(":")[0] for v in check.violations] == ([] if passed else ["telescoping"])


@pytest.mark.parametrize("scale", [3, UNIT + 1], ids=["3", "2^40+1"])
def test_telescoping_compares_ratios(scale, monkeypatch):
    # The first splay's grow and shrink share a factor that is no power of
    # two: the ratio is the same, so the identity, which compares ratios and
    # not their representations, must still hold.
    _, check = rewrite_first_splay(monkeypatch, scale, 0)
    assert check.passed and check.violations == []


def family(n):
    """The pair (S, T) at even n = 2k whose access bound for key 0 has the
    thinnest slack known.  T: the root k-1, a left spine over 0..k-2 below it and a right
    spine over k..n-1.  S: the root n-1, its left child 0 and a right spine
    over 1..n-2 below 0."""
    k = n // 2
    T = tree_from_roots(n, lambda i, j: k - 1 if (i, j) == (0, n) else j - 1 if j < k else i)
    S = tree_from_roots(n, lambda i, j: n - 1 if j == n else i)
    return S, T


def access_sides(S, T, key):
    """Both sides of the exact access bound 2^d grow s(x)^3 <= 2 s(root)^3
    shrink for splaying `key`, and the check's verdict."""
    run = InterleavedRun(S, T)
    ev = run.splay_query(key)
    lhs = ev.grow * ev.s_key ** 3 << ev.cost
    return lhs, 2 * ev.s_root ** 3 * ev.shrink, run.report.passed


def test_access_bound_on_the_thinnest_family():
    # At n = 64 the true slack is about 2.8e-19 in the exponent, about 2e-19
    # relative: the exact check passes, and scaling its right side by
    # (1 - 2^-60) (2^-60 is about 8.7e-19) makes it fail.
    lhs, rhs, passed = access_sides(*family(64), 0)
    assert passed and lhs <= rhs
    assert lhs << 60 > rhs * ((1 << 60) - 1)


@pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
def test_family_slack_sign_matches_mpmath(n):
    # The slack 1 + 3 [r(root) - r(0)] - (cost + delta), with delta summed
    # over every node's rank from the reference sums before and after the
    # splay, at 60 digits; its sign is the exact check's.
    S, T = family(n)
    _, weights = assign_weights(T)
    root, cost = S.root, S.depth(0)
    before = reference_subtree_sums(S, weights)
    lhs, rhs, passed = access_sides(S, T, 0)
    after = reference_subtree_sums(S, weights)
    with mpmath.workdps(60):
        log2 = lambda s: mpmath.log(s, 2)
        delta = sum(map(log2, after.values())) - sum(map(log2, before.values()))
        slack = 1 + 3 * (log2(before[root]) - log2(before[0])) - (cost + delta)
    assert (root, cost, S.root) == (n - 1, 1, 0)
    assert mpmath.sign(slack) == (rhs > lhs) - (rhs < lhs) == 1
    assert passed


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
        row, _ = accounting_run(n, queries, strategy=strategy)
        assert row["R_prime"] == 2 * row["M"] + row["R"]
        assert row["e"] == 5 * row["M"] + 3 * row["R"]
        rotated += row["R_prime"] > 0
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
    row, check = accounting_run(6, [1, 4, 0, 2, 0, 3])
    e, r_prime = row["e"], row["R_prime"]
    assert r_prime > 0 and row["M"] > 0
    assert e == 3 * r_prime + extra == sum(map(len, plans))
    assert (e <= 3 * r_prime) == passed
    assert check.passed == passed
    assert check.violations == ([] if passed else [f"e={e} exceeds 3R'={3 * r_prime}"])


def test_every_mutant_target_occurs_once():
    # A row whose target text has moved or doubled would mutate nothing, or
    # the wrong place, so the catalogue is checked against src/ here.
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        counts = {name: text.count(m.old) for name, text in sources.items()}
        assert counts[m.module] == 1 == sum(counts.values()), m.name
        assert m.old != m.new, m.name
