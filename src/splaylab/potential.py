"""Node weights, exact subtree sums, ranks, and the cross-tree potential.

Weights come from the reference tree's depths: a node at depth d weighs
4^(-d).  All subtree sums are kept as exact integers at a common scale of
4^D (D = the reference tree's maximum depth).  A weight vector is the pair
(D, weights): `weights` lists the scaled weights in key order, so key k
weighs `weights[k]`.  Every bound is decided on products
of those integers; floating point enters only in the potentials a report or
a message reads, as base-2 logarithms.  A BST subtree holds a contiguous run
of keys, so it sums to the difference of two prefix sums of the weight list;
`lab` reads S's sums that way between the whole-tree passes of
`subtree_sums`.  `rank_layout` is the one walk that lists a tree's depths,
with each node's key interval, and `weights_of_depths` the one weight
formula: `assign_weights` applies both, and `lab` keeps the layout of its
reference tree across reference rotations and applies the formula to the
kept depths.  The powers of 4 are read off one module-level table that grows
to the largest scale exponent seen, so a reweighing after a reference
rotation computes no power.  A function that meets two trees refuses them,
with KeyError, unless they share one key set, that is, one size.
"""

from __future__ import annotations

import math

from .machine import TreeState
from .report import CheckReport


def require_same_keys(S: TreeState, T: TreeState) -> None:
    """Refuse, with KeyError, two trees over different key sets."""
    if S.keys != T.keys:
        raise KeyError("S and T must share one key set")


def rank_layout(tree: TreeState) -> tuple[list, list]:
    """Each node's key interval and depth, listed by key, from one walk down
    `tree`: the node with interval (lo, hi) roots the subtree over the keys
    lo..hi-1."""
    left, right = tree.left, tree.right
    intervals = [None] * len(tree)
    depths = [0] * len(tree)
    stack = [(tree.root, 0, len(tree), 0)]
    while stack:
        node, lo, hi, d = stack.pop()
        intervals[node] = lo, hi
        depths[node] = d
        if left[node] is not None:
            stack.append((left[node], lo, node, d + 1))
        if right[node] is not None:
            stack.append((right[node], node + 1, hi, d + 1))
    return intervals, depths


# 4^k at index k, for every k up to the largest scale exponent seen so far.
_POWERS_OF_4 = [1]


def weights_of_depths(depths: list) -> tuple[int, list]:
    """The scale exponent D, the largest of `depths`, and the weight
    4^(D - d) of each depth d, in the order of `depths`: read off the
    module's table of powers of 4, grown to 4^D on first need."""
    scale = max(depths)
    powers = _POWERS_OF_4
    if scale >= len(powers):
        powers += [1 << 2 * k for k in range(len(powers), scale + 1)]
    by_depth = powers[scale::-1]  # 4^(D - d) at index d
    return scale, list(map(by_depth.__getitem__, depths))


def assign_weights(reference: TreeState) -> tuple[int, list]:
    """The scale exponent and the weight 4^(-depth) of every key in key
    order, from the reference tree's shape: `weights_of_depths` of the
    depths `rank_layout` lists."""
    return weights_of_depths(rank_layout(reference)[1])


def subtree_sums(tree: TreeState, weights: list) -> dict:
    """Exact scaled subtree weight sums s(v) = w(v) + s(left) + s(right),
    `weights` listing one weight per key of `tree` in key order.

    One stack pass lists the nodes in preorder (node, left subtree, right
    subtree); walking that list backwards fills each node after both its
    subtrees, so the dict is in (right, left, node) post-order.
    """
    if len(weights) != len(tree):
        raise KeyError(f"{len(weights)} weights for a tree of {len(tree)} keys")
    left, right = tree.left, tree.right
    preorder = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        l, r = left[node], right[node]
        preorder.append((node, l, r))
        if r is not None:
            stack.append(r)
        if l is not None:
            stack.append(l)
    sums = {}
    for node, l, r in reversed(preorder):
        s = weights[node]
        if l is not None:
            s += sums[l]
        if r is not None:
            s += sums[r]
        sums[node] = s
    return sums


def potential(sums: dict, scale: int) -> float:
    """Sum of the ranks of all nodes, from their exact subtree sums at the
    scale 4^`scale`."""
    return sum(map(math.log2, sums.values())) - 2 * scale * len(sums)


def potential_of(tree: TreeState, scale: int, weights: list) -> float:
    """Sum of the ranks of all nodes of `tree`."""
    return potential(subtree_sums(tree, weights), scale)


def phi(S: TreeState, T: TreeState) -> float:
    """Cross-tree potential P(S) - P(T), weights taken from T's depths."""
    require_same_keys(S, T)
    scale, weights = assign_weights(T)
    return potential_of(S, scale, weights) - potential_of(T, scale, weights)


def check_weight_sum_bounds(S: TreeState, T: TreeState) -> CheckReport:
    """The six exact weight/sum bounds, checked node by node on both trees.

    (1) 0 <= w(v)                 (2) w(v) <= 1
    (3) w(v) <= s(v)              (4) s_T(v) < 2 w_T(v), T only
    (5) s(v) < 2                  (6) s(root of S) = s_T(root of T)
    """
    require_same_keys(S, T)
    report = CheckReport("weight-sum-bounds")
    scale, weights = assign_weights(T)
    unit = 4 ** scale
    sums_t = subtree_sums(T, weights)
    sums_s = subtree_sums(S, weights)
    for v, w in enumerate(weights):
        report.tick(2)
        if not 0 <= w:
            report.fail(f"eq1 node {v}: weight {w} negative")
        if not w <= unit:
            report.fail(f"eq2 node {v}: weight {w} exceeds 1")
    for label, sums in (("T", sums_t), ("S", sums_s)):
        for v, s in sums.items():
            report.tick(2)
            if not weights[v] <= s:
                report.fail(f"eq3 node {v} in {label}: s < w")
            if not s < 2 * unit:
                report.fail(f"eq5 node {v} in {label}: s >= 2")
    for v, s in sums_t.items():
        report.tick()
        if not s < 2 * weights[v]:
            report.fail(f"eq4 node {v}: s_T >= 2 w_T")
    report.tick()
    if sums_s[S.root] != sums_t[T.root]:
        report.fail(f"eq6: root sums differ ({sums_s[S.root]} vs {sums_t[T.root]})")
    return report


def check_potential_floor(S: TreeState, T: TreeState) -> CheckReport:
    """-n < phi, decided exactly.  Both trees have n nodes, so the scale 4^D
    cancels, 2^phi = prod s_S / prod s_T, and the floor reads
    prod s_T < 2^n prod s_S."""
    require_same_keys(S, T)
    report = CheckReport("potential-floor")
    scale, weights = assign_weights(T)
    sums_s, sums_t = subtree_sums(S, weights), subtree_sums(T, weights)
    n = len(T)
    report.tick()
    if not math.prod(sums_t.values()) < math.prod(sums_s.values()) << n:
        value = potential(sums_s, scale) - potential(sums_t, scale)
        report.fail(f"phi {value} is not above -n = {-n}")
    return report
