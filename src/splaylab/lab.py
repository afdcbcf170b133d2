"""Interleaved splay-vs-reference execution with potential accounting.

Runs a splay tree against a reference tree over the same keys, tracking the
cross-tree potential, checking the per-splay amortized bounds and the
constant bound on the potential jump of each reference rotation (preceded by
its organizing splays), and producing full accounting reports.

Every BST subtree holds a contiguous run of keys, so S's subtree sums are
read as key-interval sums: with the weights listed in key order and `prefix`
their prefix sums, the subtree over the keys of ranks lo..hi-1 sums to
prefix[hi] - prefix[lo].  A splay reads the 2-3 sums each step changes; a
reference rotation reads only the nodes on S's paths to the keys it splayed.
Whole-tree passes are left to the potentials that reach a report (`phi`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .machine import IllegalOpError, OpKind, TreeState
from .oracle import per_query_segments, static_optimal
from .potential import (
    RANK_TOL,
    WeightAssignment,
    assign_weights,
    potential,
    subtree_sums,
)
from .report import CheckReport
from .restricted import apply_t_ops, init_prime
from .splay import ROTATIONS, ZIG, ZIGZAG, ZIGZIG, splay

_ROT = OpKind.ROTATE

ROTATION_DELTA_BOUND = 11 + math.log2(11)
ROTATION_DELTA_BOUND_SHALLOW = 7 + math.log2(11)
ORGANIZING_SPLAYS_PER_ROTATION = 3


@dataclass(slots=True)
class StepCheck:
    """One splay step with the key's rank around it and the change of P(S)."""

    kind: str
    cost: int  # 1 for zig, 2 for zigzig / zigzag
    r_key_before: float
    r_key_after: float
    delta: float  # P(S) after the step minus P(S) before it

    @property
    def amortized(self) -> float:
        return self.cost + self.delta


@dataclass(slots=True)
class SplayEvent:
    key: int
    cost: int  # the key's depth before the splay
    depth_ref: int
    r_root_before: float
    r_key_before: float
    delta: float  # P(S) after the splay minus P(S) before it
    steps: list | tuple = ()  # a list of StepChecks when recorded per step

    @property
    def amortized(self) -> float:
        return self.cost + self.delta


@dataclass(slots=True)
class RotationEvent:
    key: int
    depth_ref: int
    delta: float  # phi after the rotation minus phi after its organizing splays


def key_path(tree: TreeState, rank: dict, key: int) -> list:
    """The path from `tree`'s root down to `key`, each node as (node, lo, hi):
    its subtree holds exactly the keys of ranks lo..hi-1."""
    left, right = tree.left, tree.right
    node, lo, hi = tree.root, 0, len(rank)
    path = [(node, lo, hi)]
    while node != key:
        if key < node:
            hi = rank[node]
            node = left[node]
        else:
            lo = rank[node] + 1
            node = right[node]
        path.append((node, lo, hi))
    return path


def checked_splay(
    S: TreeState,
    wa: WeightAssignment,
    prefix: list,
    rank: dict,
    key: int,
    depth_ref: int,
    per_step: bool = False,
) -> SplayEvent:
    """Splay `key` in S under fixed weights, recording everything the
    amortized checks need.  `rank` maps each key to its place in key order and
    `prefix` lists the prefix sums of `wa`'s weights in that order, so the
    subtree over the keys of ranks lo..hi-1 sums to prefix[hi] - prefix[lo].

    A step changes the subtree sums of only the key x, its parent p and its
    grandparent g.  x takes the key interval of the top node of the three; p
    takes the part of it on p's side of x, and g (below p after a zig-zig)
    the part on g's side of p after a zig-zig, of x after a zig-zag.  The
    change of P(S) is read off those sums.  Every step's sums and kind come
    from the root path walked before any link moves, the kind by key order
    as in `splay`; one `splay` call then restructures S, and its return, the
    key's depth, is the splay's cost."""
    if key not in rank:
        raise KeyError(f"unknown key {key!r}")
    log2 = math.log2
    bias = 2 * wa.scale_exponent
    path = key_path(S, rank, key)
    _, lo, hi = path.pop()
    s_key = prefix[hi] - prefix[lo]
    r_key = log2(s_key) - bias
    ev = SplayEvent(
        key=key, cost=0, depth_ref=depth_ref, r_root_before=log2(prefix[-1]) - bias,
        r_key_before=r_key, delta=0.0, steps=[] if per_step else (),
    )
    r_x = rank[key]
    below_x, through_x = prefix[r_x], prefix[r_x + 1]
    while path:
        p, lo, hi = path.pop()
        s_p = s_top = prefix[hi] - prefix[lo]
        # x's new sum is the top's old sum, so those two ranks cancel in the
        # change of P(S): what is left is s'(p) [and s'(g)] over s(x) [and s(p)].
        if path:
            g, lo, hi = path.pop()
            s_top = prefix[hi] - prefix[lo]
            if (key < p) == (p < g):
                kind, pivot = ZIGZIG, p
            else:
                kind, pivot = ZIGZAG, key
            r = rank[pivot]
            s = prefix[hi] - prefix[r + 1] if g > pivot else prefix[r] - prefix[lo]
            delta = log2(s) - log2(s_p)
        else:
            kind, delta = ZIG, 0.0
        s = prefix[hi] - through_x if p > key else below_x - prefix[lo]
        delta += log2(s) - log2(s_key)
        ev.delta += delta
        if per_step:
            r_after = log2(s_top) - bias
            ev.steps.append(StepCheck(kind, ROTATIONS[kind], r_key, r_after, delta))
            r_key = r_after
        s_key = s_top
    ev.cost = splay(S, key)
    return ev


def check_access_lemma(ev: SplayEvent) -> CheckReport:
    """Amortized splay cost <= 1 + 3[r(root) - r(key)], plus per-step bounds."""
    steps = ev.steps
    report = CheckReport("access-bound", 1 + len(steps))
    amortized = ev.amortized
    bound = 1 + 3 * (ev.r_root_before - ev.r_key_before)
    if amortized > bound + RANK_TOL:
        report.fail(
            f"splay {ev.key}: amortized {amortized:.9f} > 1+3*dr = {bound:.9f}"
        )
    for i, step in enumerate(steps):
        dr = 3 * (step.r_key_after - step.r_key_before)
        step_bound = 1 + dr if step.kind == ZIG else dr
        if step.amortized > step_bound + RANK_TOL:
            report.fail(
                f"splay {ev.key} step {i} ({step.kind}): "
                f"amortized {step.amortized:.9f} > {step_bound:.9f}"
            )
    return report


def check_amortized_depth(ev: SplayEvent) -> CheckReport:
    """Amortized splay cost <= 4 + 6 * depth of the key in the reference tree."""
    report = CheckReport("amortized-depth", 1)
    amortized = ev.amortized
    bound = 4 + 6 * ev.depth_ref
    if amortized > bound + RANK_TOL:
        report.fail(
            f"splay {ev.key}: amortized {amortized:.9f} > 4+6d = {bound}"
        )
    return report


def check_rotation_delta(ev: RotationEvent) -> CheckReport:
    """Potential jump of a shallow reference rotation stays under 11 + log2(11);
    depth-1 rotations satisfy the tighter 7 + log2(11) subtotal."""
    report = CheckReport("rotation-delta")
    report.tick()
    if ev.delta > ROTATION_DELTA_BOUND + RANK_TOL:
        report.fail(
            f"rotation at {ev.key} (depth {ev.depth_ref}): "
            f"delta-phi {ev.delta:.9f} > {ROTATION_DELTA_BOUND:.9f}"
        )
    if ev.depth_ref == 1:
        report.tick()
        if ev.delta > ROTATION_DELTA_BOUND_SHALLOW + RANK_TOL:
            report.fail(
                f"rotation at {ev.key} (depth 1): "
                f"delta-phi {ev.delta:.9f} > {ROTATION_DELTA_BOUND_SHALLOW:.9f}"
            )
    return report


def plan_organizing_splays(T: TreeState, rotated: int) -> list:
    """The keys to splay before rotating `rotated` in T: the rotated key, then
    its reference parent, then (for depth-2 rotations) the reference root.  At
    most 3 keys, none deeper than the rotated key; the rotated key's depth is
    one less than their number."""
    parent = T.parent[rotated]
    if parent is None:
        raise IllegalOpError("cannot plan around a rotation of the root")
    depth = T.depth(rotated)
    if depth >= 3:
        raise IllegalOpError(f"rotation at depth {depth} violates the depth restriction")
    keys = [rotated, parent]
    if depth == 2:
        keys.append(T.parent[parent])
    return keys


class InterleavedRun:
    """A splay tree S evolving against a reference tree T over the same keys.

    Weights always derive from T's current depths; they are frozen during
    splays in S and reassigned at every T rotation.  `prefix` holds the
    prefix sums of the weights in key order, rebuilt at every T rotation, and
    `rank` each key's place in that order, built once because rotations keep
    the in-order.  S's subtree sums are read off them as key-interval sums, so
    neither a splay nor a rotation makes a whole-tree pass.  P(T) is computed
    when it is first read after T's latest rotation, and `phi` = P(S) - P(T)
    is computed, from fresh passes, when it is read.
    """

    def __init__(self, S: TreeState, T: TreeState, per_step: bool = False):
        if S.left.keys() != T.left.keys():
            raise KeyError("S and T must share one key set")
        self.S = S
        self.T = T
        self.per_step = per_step
        self.report = CheckReport("interleaved-run")
        self.organizing_count = 0
        self.s_cost = 0
        self.sum_amortized = 0.0
        self._reweight()
        self.rank = {key: i for i, key in enumerate(self.wa.weights)}

    def _reweight(self) -> None:
        """Weights and their prefix sums from T's current shape; P(T) is left
        for its first reader."""
        self.wa = assign_weights(self.T)
        self.prefix = [0, *accumulate(self.wa.weights.values())]
        self._p_T = None

    @property
    def p_T(self) -> float:
        """P(T) under the current weights, computed on its first read."""
        if self._p_T is None:
            self._p_T = potential(subtree_sums(self.T, self.wa), self.wa)
        return self._p_T

    @property
    def phi(self) -> float:
        """The current potential P(S) - P(T), from a fresh pass over S."""
        return potential(subtree_sums(self.S, self.wa), self.wa) - self.p_T

    def splay_query(self, key: int) -> SplayEvent:
        ev = checked_splay(
            self.S, self.wa, self.prefix, self.rank, key,
            depth_ref=self.wa.depth(key), per_step=self.per_step,
        )
        self.s_cost += ev.cost
        self.sum_amortized += ev.amortized
        self.report.absorb(check_access_lemma(ev))
        self.report.absorb(check_amortized_depth(ev))
        return ev

    def apply_T_rotation(self, rotated: int) -> RotationEvent:
        """Organizing splays in S, then the rotation in T, then reweighting.

        The change of phi is summed over Z, the nodes on S's paths from its
        root to the splayed keys.  Rotating x = `rotated` over its parent p
        scales the weights of each of the key ranges A, B and C (the subtrees
        that change depth) and of the rest by one power of 4 each, and the
        splayed keys (x, p and, at depth 2, T's root) separate those ranges.
        A node outside Z has its S-subtree and its T-subtree in one range, so
        its rank changes in S and in T are equal and cancel.  Of Z, only x and
        p change their T-subtree; a change of the scale 4^D shifts a node's
        two ranks alike, so each term reads the four sums alone."""
        plan = plan_organizing_splays(self.T, rotated)
        for key in plan:
            self.splay_query(key)
        self.organizing_count += len(plan)
        S, T, rank, before = self.S, self.T, self.rank, self.prefix
        in_S = {}
        for key in plan:
            for node, lo, hi in key_path(S, rank, key):
                in_S[node] = lo, hi
        in_T = {v: key_path(T, rank, v)[-1][1:] for v in in_S}
        T.rotate_up(rotated)
        self._reweight()
        after = self.prefix
        in_T_after = {v: key_path(T, rank, v)[-1][1:] for v in plan[:2]}
        log2 = math.log2
        delta = 0.0
        for v, (lo, hi) in in_S.items():
            t_lo, t_hi = in_T[v]
            u_lo, u_hi = in_T_after.get(v, in_T[v])
            delta += (log2(after[hi] - after[lo]) - log2(before[hi] - before[lo])
                      - log2(after[u_hi] - after[u_lo]) + log2(before[t_hi] - before[t_lo]))
        ev = RotationEvent(rotated, len(plan) - 1, delta)
        self.sum_amortized += ev.delta  # zero real cost for S
        self.report.absorb(check_rotation_delta(ev))
        return ev

    def telescoping_residual(self, phi_initial: float, phi_final: float) -> float:
        """(sum of amortized - sum of real) - (final phi - initial phi): the
        summed potential changes of every splay and rotation against
        `phi_initial`, read before the first event, and `phi_final`, a fresh
        potential of the final trees read off `phi`."""
        return (self.sum_amortized - self.s_cost) - (phi_final - phi_initial)


# -- regular-access trials ----------------------------------------------------


def cost_ratio(c_base: int, c_aug: int) -> float:
    """c_base / c_aug; 1.0 when both are zero, infinite when only c_aug is."""
    if c_aug == 0:
        return 1.0 if c_base == 0 else math.inf
    return c_base / c_aug


def merge_extras(base, extras) -> list:
    """`base` with each (position, key) of `extras` inserted before
    base[position], or after the end at position len(base); extras at one
    position keep their order in `extras`."""
    extras = sorted(extras, key=itemgetter(0))
    if extras and not 0 <= extras[0][0] <= extras[-1][0] <= len(base):
        raise IndexError(f"extra positions must lie in 0..{len(base)}")
    merged = []
    start = 0
    for pos, key in extras:
        merged += base[start:pos]
        merged.append(key)
        start = pos
    merged += base[start:]
    return merged


# -- full accounting pipeline ---------------------------------------------------


@dataclass
class AccountingReport:
    e: int
    M: int
    R: int
    M_prime: int
    R_prime: int
    total_S_cost: int
    phi_initial: float
    phi_final: float
    telescoping_residual: float
    counts_exact: bool
    e_within_budget: bool
    empirical_ratio: float
    check: CheckReport  # the five trial-level conditions, one tick each

    @property
    def passed(self) -> bool:
        return self.check.passed


def accounting_run(n: int, queries, strategy: str = "oracle-witness") -> AccountingReport:
    """Full pipeline: reference program -> restricted simulation -> interleaved
    splays with organizing splays and per-event checks -> accounting report.

    The splay tree starts identical to the restricted tree (n+2 keys including
    the sentinels), so the initial potential is exactly zero.  The report's
    check holds five conditions: no interleaved-bound violation, exact
    simulated op counts, e <= 3R', a telescoping residual within RANK_TOL and
    a zero initial potential.
    """
    queries = list(queries)
    counts = dict.fromkeys(range(n), 0)
    for q in queries:
        if not 0 <= q < n:
            raise KeyError(f"unknown key {q!r}")
        counts[q] += 1
    T0 = static_optimal(counts)
    segments = per_query_segments(strategy, T0, queries)
    R = sum(seg.count(_ROT) for seg in segments)
    M = sum(map(len, segments)) - R

    st = init_prime(T0)
    S = st.prime.copy()
    run = InterleavedRun(S, st.prime)
    phi_initial = run.phi
    for k, q in enumerate(queries):
        run.splay_query(q)
        apply_t_ops(st, segments[k], rotate=run.apply_T_rotation)

    m_prime, r_prime = st.ledger.moves, st.ledger.rotations
    counts_exact = (m_prime == 4 * M + 3 * R) and (r_prime == 2 * M + R)
    e = run.organizing_count
    e_within_budget = e <= ORGANIZING_SPLAYS_PER_ROTATION * r_prime
    phi_final = run.phi
    residual = run.telescoping_residual(phi_initial, phi_final)
    check = CheckReport("accounting", checked=5, violations=list(run.report.violations))
    if not counts_exact:
        check.fail("simulated op counts off")
    if not e_within_budget:
        check.fail(f"e={e} exceeds 3R'={ORGANIZING_SPLAYS_PER_ROTATION * r_prime}")
    if abs(residual) > RANK_TOL:
        check.fail(f"telescoping residual {residual}")
    if phi_initial != 0.0:
        check.fail(f"initial potential {phi_initial}")
    denom = n + m_prime + r_prime
    return AccountingReport(
        e=e,
        M=M,
        R=R,
        M_prime=m_prime,
        R_prime=r_prime,
        total_S_cost=run.s_cost,
        phi_initial=phi_initial,
        phi_final=phi_final,
        telescoping_residual=residual,
        counts_exact=counts_exact,
        e_within_budget=e_within_budget,
        empirical_ratio=(run.s_cost / denom) if denom else 0.0,
        check=check,
    )
