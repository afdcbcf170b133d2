"""Node weights, exact subtree sums, ranks, and the cross-tree potential.

Weights come from the reference tree's depths: a node at depth d weighs
4^(-d).  All subtree sums are kept as exact integers at a common scale of
4^D (D = the reference tree's maximum depth); floating point enters only at
the final base-2 logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .machine import TreeState
from .report import CheckReport

RANK_TOL = 1e-6


@dataclass(frozen=True)
class WeightAssignment:
    """Integer weights at scale 4^scale_exponent; true weight = w / 4^D."""

    scale_exponent: int
    weights: dict

    @property
    def unit(self) -> int:
        return 4 ** self.scale_exponent


def assign_weights(optimal: TreeState) -> WeightAssignment:
    """Weight 4^(-depth) for every key, from the reference tree's shape."""
    depths = optimal.all_depths()
    scale = max(depths.values())
    return WeightAssignment(scale, {k: 4 ** (scale - d) for k, d in depths.items()})


def subtree_sums(tree: TreeState, wa: WeightAssignment) -> dict:
    """Exact scaled subtree weight sums s(v) = w(v) + s(left) + s(right)."""
    if set(tree.left) != set(wa.weights):
        raise KeyError("tree and weight assignment cover different key sets")
    sums = {}
    stack = [(tree.root, False)]
    while stack:
        node, done = stack.pop()
        if node is None:
            continue
        if done:
            s = wa.weights[node]
            l, r = tree.left[node], tree.right[node]
            if l is not None:
                s += sums[l]
            if r is not None:
                s += sums[r]
            sums[node] = s
        else:
            stack.append((node, True))
            stack.append((tree.left[node], False))
            stack.append((tree.right[node], False))
    return sums


def ranks_of(tree: TreeState, wa: WeightAssignment) -> dict:
    """r(v) = log2 s(v), in weight units (scale divided out)."""
    bias = 2 * wa.scale_exponent
    return {v: math.log2(s) - bias for v, s in subtree_sums(tree, wa).items()}


def potential(sums: dict, wa: WeightAssignment) -> float:
    """Sum of the ranks of all nodes, from their exact scaled subtree sums."""
    return sum(map(math.log2, sums.values())) - 2 * wa.scale_exponent * len(sums)


def potential_of(tree: TreeState, wa: WeightAssignment) -> float:
    """Sum of the ranks of all nodes of `tree`."""
    return potential(subtree_sums(tree, wa), wa)


@dataclass
class PotentialSnapshot:
    """Exact scaled sums of both trees plus the real-valued potentials."""

    scale_exponent: int
    sums_T: dict
    sums_S: dict
    p_T: float
    p_S: float
    phi: float


def phi(S: TreeState, T: TreeState) -> PotentialSnapshot:
    """Cross-tree potential P(S) - P(T), weights taken from T's depths."""
    wa = assign_weights(T)
    sums_t = subtree_sums(T, wa)
    sums_s = subtree_sums(S, wa)
    p_t, p_s = potential(sums_t, wa), potential(sums_s, wa)
    return PotentialSnapshot(wa.scale_exponent, sums_t, sums_s, p_t, p_s, p_s - p_t)


def check_weight_sum_bounds(S: TreeState, T: TreeState) -> CheckReport:
    """The six exact weight/sum bounds, checked node by node on both trees.

    (1) 0 <= w(v)                 (2) w(v) <= 1
    (3) w(v) <= s(v)              (4) s_T(v) < 2 w_T(v), T only
    (5) s(v) < 2                  (6) s(root of S) = s_T(root of T)
    """
    report = CheckReport("weight-sum-bounds")
    wa = assign_weights(T)
    unit = wa.unit
    sums_t = subtree_sums(T, wa)
    sums_s = subtree_sums(S, wa)
    for v, w in wa.weights.items():
        report.tick(2)
        if not 0 <= w:
            report.fail(f"eq1 node {v}: weight {w} negative")
        if not w <= unit:
            report.fail(f"eq2 node {v}: weight {w} exceeds 1")
    for label, sums in (("T", sums_t), ("S", sums_s)):
        for v, s in sums.items():
            report.tick(2)
            if not wa.weights[v] <= s:
                report.fail(f"eq3 node {v} in {label}: s < w")
            if not s < 2 * unit:
                report.fail(f"eq5 node {v} in {label}: s >= 2")
    for v, s in sums_t.items():
        report.tick()
        if not s < 2 * wa.weights[v]:
            report.fail(f"eq4 node {v}: s_T >= 2 w_T")
    report.tick()
    if sums_s[S.root] != sums_t[T.root]:
        report.fail(f"eq6: root sums differ ({sums_s[S.root]} vs {sums_t[T.root]})")
    return report


def check_potential_floor(S: TreeState, T: TreeState) -> CheckReport:
    """-n < phi, with a small tolerance on the real-valued side."""
    report = CheckReport("potential-floor")
    snap = phi(S, T)
    n = len(T)
    report.tick()
    if not snap.phi > -n - RANK_TOL:
        report.fail(f"phi {snap.phi} is not above -n = {-n}")
    return report
