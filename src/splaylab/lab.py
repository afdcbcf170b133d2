"""Interleaved splay-vs-reference execution with potential accounting.

Runs a splay tree against a reference tree over the same keys, tracking the
cross-tree potential, checking the per-splay amortized bounds and the
constant bound on the potential jump of each reference rotation (preceded by
its organizing splays), and producing full accounting reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .machine import IllegalOpError, OpKind, TreeState
from .oracle import FrequencyTable, per_query_segments, static_optimal
from .potential import (
    RANK_TOL,
    WeightAssignment,
    assign_weights,
    potential,
    potential_of,
    subtree_sums,
)
from .report import CheckReport
from .restricted import apply_t_op, init_prime
from .splay import ROTATIONS, ZIG, splay_step, total_access_cost

ROTATION_DELTA_BOUND = 11 + math.log2(11)
ROTATION_DELTA_BOUND_SHALLOW = 7 + math.log2(11)
ORGANIZING_SPLAYS_PER_ROTATION = 3


@dataclass
class StepCheck:
    """One splay step with the rank and potential values around it."""

    kind: str
    cost: int  # 1 for zig, 2 for zigzig / zigzag
    r_key_before: float
    r_key_after: float
    pot_before: float
    pot_after: float

    @property
    def amortized(self) -> float:
        return self.cost + self.pot_after - self.pot_before


@dataclass
class SplayEvent:
    kind: str  # "query" | "organizing"
    key: int
    depth_before: int
    depth_ref: int | None
    r_root_before: float
    r_key_before: float
    pot_before: float
    pot_after: float
    steps: list = field(default_factory=list)

    @property
    def cost(self) -> int:
        return self.depth_before

    @property
    def amortized(self) -> float:
        return self.depth_before + self.pot_after - self.pot_before


@dataclass
class OrganizingPlan:
    rotated_key: int
    splay_keys: list
    depths_ref: list


@dataclass
class RotationEvent:
    key: int
    depth_ref: int
    plan: OrganizingPlan
    phi_before: float
    phi_after: float

    @property
    def delta(self) -> float:
        return self.phi_after - self.phi_before


def checked_splay(
    S: TreeState,
    wa: WeightAssignment,
    key: int,
    depth_ref: int | None = None,
    kind: str = "query",
    per_step: bool = False,
) -> SplayEvent:
    """Splay `key` in S under fixed weights, recording everything the
    amortized checks need."""
    bias = 2 * wa.scale_exponent
    sums = subtree_sums(S, wa)
    pot_before = potential(sums, wa)
    ev = SplayEvent(
        kind=kind,
        key=key,
        depth_before=S.depth(key),
        depth_ref=depth_ref,
        r_root_before=math.log2(sums[S.root]) - bias,
        r_key_before=math.log2(sums[key]) - bias,
        pot_before=pot_before,
        pot_after=pot_before,
    )
    pot = pot_before
    r_key = ev.r_key_before
    while S.parent[key] is not None:
        if per_step:
            step = splay_step(S, key)
            sums = subtree_sums(S, wa)
            pot_after = potential(sums, wa)
            r_after = math.log2(sums[key]) - bias
            ev.steps.append(
                StepCheck(step, ROTATIONS[step], r_key, r_after, pot, pot_after)
            )
            pot, r_key = pot_after, r_after
        else:
            splay_step(S, key)
    ev.pot_after = pot if per_step else potential_of(S, wa)
    S.cursor = S.root
    return ev


def check_access_lemma(ev: SplayEvent) -> CheckReport:
    """Amortized splay cost <= 1 + 3[r(root) - r(key)], plus per-step bounds."""
    report = CheckReport("access-bound")
    report.tick()
    bound = 1 + 3 * (ev.r_root_before - ev.r_key_before)
    if ev.amortized > bound + RANK_TOL:
        report.fail(
            f"splay {ev.key}: amortized {ev.amortized:.9f} > 1+3*dr = {bound:.9f}"
        )
    for i, step in enumerate(ev.steps):
        report.tick()
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
    report = CheckReport("amortized-depth")
    if ev.depth_ref is None:
        raise ValueError("event carries no reference-tree depth")
    report.tick()
    bound = 4 + 6 * ev.depth_ref
    if ev.amortized > bound + RANK_TOL:
        report.fail(
            f"splay {ev.key}: amortized {ev.amortized:.9f} > 4+6d = {bound}"
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


def plan_organizing_splays(S: TreeState, T: TreeState, rotated: int) -> OrganizingPlan:
    """Splay the rotated key, then its reference parent, then (for depth-2
    rotations) the reference root.  At most 3 keys, none deeper than the
    rotated key."""
    parent = T.parent[rotated]
    if parent is None:
        raise IllegalOpError("cannot plan around a rotation of the root")
    depth = T.depth(rotated)
    if depth >= 3:
        raise IllegalOpError(f"rotation at depth {depth} violates the depth restriction")
    keys = [rotated, parent]
    depths = [depth, depth - 1]
    if depth == 2:
        keys.append(T.parent[parent])
        depths.append(0)
    return OrganizingPlan(rotated, keys, depths)


class InterleavedRun:
    """A splay tree S evolving against a reference tree T over the same keys.

    Weights always derive from T's current depths; they are frozen during
    splays in S and reassigned at every T rotation.  `phi` is the current
    potential P(S) - P(T); P(T) is recomputed only when T rotates.
    """

    def __init__(self, S: TreeState, T: TreeState, per_step: bool = False):
        if sorted(S.in_order()) != sorted(T.in_order()):
            raise KeyError("S and T must share one key set")
        self.S = S
        self.T = T
        self.per_step = per_step
        self.events = []
        self.reports = []
        self.organizing_count = 0
        self.s_cost = 0
        self.sum_amortized = 0.0
        self._reweight()
        self.phi_initial = self.phi

    def _reweight(self) -> None:
        """Weights, P(T) and phi from T's current shape."""
        self.wa = assign_weights(self.T)
        self.p_T = potential_of(self.T, self.wa)
        self.phi = potential_of(self.S, self.wa) - self.p_T

    def violations(self) -> list:
        return [v for r in self.reports for v in r.violations]

    def splay_query(self, key: int, kind: str = "query") -> SplayEvent:
        ev = checked_splay(
            self.S, self.wa, key,
            depth_ref=self.T.depth(key), kind=kind, per_step=self.per_step,
        )
        self.s_cost += ev.cost
        self.sum_amortized += ev.amortized
        if kind == "organizing":
            self.organizing_count += 1
        self.events.append(ev)
        self.phi = ev.pot_after - self.p_T
        self.reports.append(check_access_lemma(ev))
        self.reports.append(check_amortized_depth(ev))
        return ev

    def apply_T_rotation(self, rotated: int) -> RotationEvent:
        """Organizing splays in S, then the rotation in T, then reweighting."""
        plan = plan_organizing_splays(self.S, self.T, rotated)
        depth = self.T.depth(rotated)
        for key in plan.splay_keys:
            self.splay_query(key, kind="organizing")
        phi_before = self.phi
        self.T.rotate_up(rotated)
        self._reweight()
        ev = RotationEvent(rotated, depth, plan, phi_before, self.phi)
        self.sum_amortized += ev.delta  # zero real cost for S
        self.events.append(ev)
        self.reports.append(check_rotation_delta(ev))
        return ev

    def telescoping_residual(self) -> float:
        """(sum of amortized - sum of real) - (final phi - initial phi)."""
        return (self.sum_amortized - self.s_cost) - (self.phi - self.phi_initial)


# -- regular-access trials ----------------------------------------------------


def regular_access_trial(S0: TreeState, base, extras) -> tuple[int, int, float]:
    """Cost of the base splay sequence vs the same sequence with extra splays.

    `extras` is a list of (position, key) pairs; each extra splay is inserted
    before the base query at that position (position == len(base) appends).
    Returns (base cost, augmented cost, their ratio).  No bound is asserted.
    """
    base = list(base)
    m = len(base)
    for pos, key in extras:
        if not 0 <= pos <= m:
            raise IndexError(f"extra position {pos} outside 0..{m}")
        if key not in S0.left:
            raise KeyError(f"unknown key {key!r}")
    c_base = total_access_cost(S0.copy(), base)
    c_aug = total_access_cost(S0.copy(), merge_extras(base, extras))
    return c_base, c_aug, cost_ratio(c_base, c_aug)


def cost_ratio(c_base: int, c_aug: int) -> float:
    """c_base / c_aug; 1.0 when both are zero, infinite when only c_aug is."""
    if c_aug == 0:
        return 1.0 if c_base == 0 else math.inf
    return c_base / c_aug


def merge_extras(base, extras) -> list:
    slots = [[] for _ in range(len(base) + 1)]
    for pos, key in extras:
        slots[pos].append(key)
    merged = []
    for i, q in enumerate(base):
        merged.extend(slots[i])
        merged.append(q)
    merged.extend(slots[len(base)])
    return merged


# -- full accounting pipeline ---------------------------------------------------


@dataclass
class AccountingReport:
    n: int
    m: int
    e: int
    M: int
    R: int
    M_prime: int
    R_prime: int
    total_S_cost: int
    phi_initial: float
    phi_final: float
    sum_amortized: float
    telescoping_residual: float
    counts_exact: bool
    e_within_budget: bool
    bound_terms: dict
    empirical_ratio: float
    violations: list

    @property
    def passed(self) -> bool:
        return (
            not self.violations
            and self.counts_exact
            and self.e_within_budget
            and abs(self.telescoping_residual) <= RANK_TOL
            and self.phi_initial == 0.0
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "e": self.e,
            "M": self.M,
            "R": self.R,
            "M_prime": self.M_prime,
            "R_prime": self.R_prime,
            "total_S_cost": self.total_S_cost,
            "phi_initial": self.phi_initial,
            "phi_final": self.phi_final,
            "sum_amortized": self.sum_amortized,
            "telescoping_residual": self.telescoping_residual,
            "counts_exact": self.counts_exact,
            "e_within_budget": self.e_within_budget,
            "bound_terms": self.bound_terms,
            "empirical_ratio": self.empirical_ratio,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def accounting_run(n: int, queries, strategy: str = "oracle-witness") -> AccountingReport:
    """Full pipeline: reference program -> restricted simulation -> interleaved
    splays with organizing splays and per-event checks -> accounting report.

    The splay tree starts identical to the restricted tree (n+2 keys including
    the sentinels), so the initial potential is exactly zero.
    """
    queries = list(queries)
    keys = range(n)
    for q in queries:
        if not 0 <= q < n:
            raise KeyError(f"unknown key {q!r}")
    freq = FrequencyTable.from_queries(keys, queries)
    T0 = static_optimal(freq)
    segments = per_query_segments(strategy, T0, queries)
    M = sum(1 for seg in segments for op in seg if op.kind is not OpKind.ROTATE)
    R = sum(1 for seg in segments for op in seg if op.kind is OpKind.ROTATE)

    st = init_prime(T0)
    S = st.prime.copy()
    run = InterleavedRun(S, st.prime)
    for k, q in enumerate(queries):
        run.splay_query(q)
        for t_op in segments[k]:
            apply_t_op(st, t_op, rotate=run.apply_T_rotation)

    m_prime, r_prime = st.ledger.moves, st.ledger.rotations
    counts_exact = (m_prime == 4 * M + 3 * R) and (r_prime == 2 * M + R)
    e = run.organizing_count
    denom = n + m_prime + r_prime
    return AccountingReport(
        n=n,
        m=len(queries),
        e=e,
        M=M,
        R=R,
        M_prime=m_prime,
        R_prime=r_prime,
        total_S_cost=run.s_cost,
        phi_initial=run.phi_initial,
        phi_final=run.phi,
        sum_amortized=run.sum_amortized,
        telescoping_residual=run.telescoping_residual(),
        counts_exact=counts_exact,
        e_within_budget=e <= ORGANIZING_SPLAYS_PER_ROTATION * r_prime,
        bound_terms={
            "rotation_delta_bound": ROTATION_DELTA_BOUND,
            "rotation_delta_total": ROTATION_DELTA_BOUND * r_prime,
            "query_amortized_sum": sum(
                ev.amortized for ev in run.events if isinstance(ev, SplayEvent) and ev.kind == "query"
            ),
            "organizing_amortized_sum": sum(
                ev.amortized for ev in run.events if isinstance(ev, SplayEvent) and ev.kind == "organizing"
            ),
            "rotation_delta_sum": sum(
                ev.delta for ev in run.events if isinstance(ev, RotationEvent)
            ),
        },
        empirical_ratio=(run.s_cost / denom) if denom else 0.0,
        violations=run.violations(),
    )
