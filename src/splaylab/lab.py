"""Interleaved splay-vs-reference execution with potential accounting.

Runs a splay tree against a reference tree over the same keys, tracking the
cross-tree potential, checking the per-splay amortized bounds and the
constant bound on the potential jump of each reference rotation (preceded by
its organizing splays), and running the full accounting pipeline, whose
trial row is the one record of the counts the theorem7 report lists.

Every BST subtree holds a contiguous run of keys, so S's subtree sums are
read as key-interval sums: every tree is over 0..len-1, so with the weights
listed in key order and `prefix` their prefix sums, the subtree over the
keys lo..hi-1 sums to prefix[hi] - prefix[lo].  A splay reads the 2-3 sums
each step changes; a reference rotation reads only the nodes on S's paths
to the keys it splayed.  Both read those paths off `machine.key_path`, which
refuses an unknown key.  Whole-tree passes are left to the start and the end
of an accounting run (`InterleavedRun.sums`).

A run keeps T's key interval and depth per key, listed at its start by
`potential.rank_layout`, and its weight vector, the pair (scale, weights),
is `potential.weights_of_depths` of the kept depths: the run is its one
holder, and hands `weights` to `subtree_sums` and `scale` to `potential`.
A rotation of x over p changes only x's and p's intervals and moves two
key slices one level, so it updates those lists in place and reweighs from
the depths: no walk of T from its root remains on the rotation path, and a
splay reads its key's reference depth off the list.

Every bound is decided in exact integers.  A rank is log2 of a subtree sum,
so a change of potential is log2 of a ratio of products of sums: an event
carries that ratio as `grow / shrink`, and a bound on an amortized cost
c + delta, raised to a power of 2, reads 2^c grow <= 2^bound shrink.  A run
keeps the product of every event's ratio for the telescoping identity, and
divides its two sides by their gcd at each reference rotation and whenever
one outgrows a size the tree sets, so a long run's products stay bounded.
Floats appear only in the potential a report reads and in violation
messages.
"""

from __future__ import annotations

import math
from itertools import accumulate
from math import prod
from operator import itemgetter

from .machine import IllegalOpError, MachineProgram, TreeState, key_path
from .oracle import per_query_segments, static_optimal
from .potential import (
    potential,
    rank_layout,
    require_same_keys,
    subtree_sums,
    weights_of_depths,
)
from .report import CheckReport
from .restricted import apply_t_ops, init_prime
from .splay import ZIG, ZIGZAG, ZIGZIG, splay

# 2 to the power of the bound on a reference rotation's jump of phi:
# 2^(11 + log2 11), and 2^(7 + log2 11) at depth 1.
ROTATION_RATIO_BOUND = 11 << 11
ROTATION_RATIO_BOUND_SHALLOW = 11 << 7
ORGANIZING_SPLAYS_PER_ROTATION = 3


def log2_ratio(grow: int, shrink: int) -> float:
    """log2(grow / shrink) as a float, for violation messages."""
    return math.log2(grow) - math.log2(shrink)


class StepCheck:
    """One splay step: its kind, the key's subtree sum before and after it,
    and the change of P(S) over it as 2^delta = grow / shrink.  The kind
    decides the step's cost: 1 rotation for a zig, 2 for a zig-zig or a
    zig-zag."""

    __slots__ = ("kind", "s_before", "s_after", "grow", "shrink")

    def __init__(self, kind: str, s_before: int, s_after: int, grow: int, shrink: int):
        self.kind = kind
        self.s_before = s_before
        self.s_after = s_after
        self.grow = grow
        self.shrink = shrink


class SplayEvent:
    """One splay: the root's and the key's sums before it, and 2^delta = grow / shrink.
    `cost` is the key's depth before the splay; `steps` lists the StepChecks
    when recorded per step."""

    __slots__ = ("key", "cost", "depth_ref", "s_root", "s_key", "grow", "shrink", "steps")

    def __init__(self, key: int, cost: int, depth_ref: int, s_root: int, s_key: int,
                 grow: int, shrink: int, steps: list | tuple = ()):
        self.key = key
        self.cost = cost
        self.depth_ref = depth_ref
        self.s_root = s_root
        self.s_key = s_key
        self.grow = grow
        self.shrink = shrink
        self.steps = steps


class RotationEvent:
    """One reference rotation: 2^delta = grow / shrink, delta the change of
    phi from after its organizing splays to after the rotation."""

    __slots__ = ("key", "depth_ref", "grow", "shrink")

    def __init__(self, key: int, depth_ref: int, grow: int, shrink: int):
        self.key = key
        self.depth_ref = depth_ref
        self.grow = grow
        self.shrink = shrink


def checked_splay(
    S: TreeState,
    prefix: list,
    key: int,
    depth_ref: int,
    per_step: bool = False,
) -> SplayEvent:
    """Splay `key` in S under fixed weights, recording everything the
    amortized checks need.  `prefix` lists the prefix sums of the weights
    in key order, so the subtree over the keys lo..hi-1 sums to
    prefix[hi] - prefix[lo].

    A step changes the subtree sums of only the key x, its parent p and its
    grandparent g.  x takes the key interval of the top node of the three; p
    takes the part of it on p's side of x, and g (below p after a zig-zig)
    the part on g's side of p after a zig-zig, of x after a zig-zag.  The
    change of P(S) is the ratio of those sums' products after and before the
    step.  Every step's sums and kind come from the root path walked before
    any link moves, the kind by key order (x < p < g or x > p > g is the
    zig-zig that `splay` tells by p hanging on g's `near` side); one `splay`
    call then restructures S, and its return, the key's depth, is the
    splay's cost.  An unknown key raises KeyError, from `key_path`, before
    any link moves."""
    path = key_path(S, key)
    _, lo, hi = path.pop()
    s_x = s_key = prefix[hi] - prefix[lo]
    steps = [] if per_step else ()
    below_x, through_x = prefix[key], prefix[key + 1]
    grow = shrink = 1
    while path:
        p, lo, hi = path.pop()
        s_p = s_top = prefix[hi] - prefix[lo]
        # x's new sum is the top's old sum, so those two cancel in the change
        # of P(S): what is left is s'(p) [times s'(g)] over s(x) [times s(p)].
        if path:
            g, lo, hi = path.pop()
            s_top = prefix[hi] - prefix[lo]
            if (key < p) == (p < g):
                kind, pivot = ZIGZIG, p
            else:
                kind, pivot = ZIGZAG, key
            up = prefix[hi] - prefix[pivot + 1] if g > pivot else prefix[pivot] - prefix[lo]
            down = s_key * s_p
        else:
            kind, up, down = ZIG, 1, s_key
        up *= prefix[hi] - through_x if p > key else below_x - prefix[lo]
        grow *= up
        shrink *= down
        if per_step:
            steps.append(StepCheck(kind, s_key, s_top, up, down))
        s_key = s_top
    return SplayEvent(key, splay(S, key), depth_ref, prefix[-1], s_x, grow, shrink, steps)


def check_access_lemma(ev: SplayEvent, report: CheckReport) -> CheckReport:
    """Amortized splay cost <= 1 + 3[r(root) - r(key)], that is
    2^cost grow s(key)^3 <= 2 s(root)^3 shrink; and each step's amortized
    cost <= [zig] + 3[r'(key) - r(key)], that is
    2^cost grow s(key)^3 <= 2^[zig] s'(key)^3 shrink, a step's cost 2 - [zig]."""
    steps = ev.steps
    report.tick(1 + len(steps))
    if ev.grow * ev.s_key ** 3 << ev.cost > 2 * ev.s_root ** 3 * ev.shrink:
        amortized = ev.cost + log2_ratio(ev.grow, ev.shrink)
        bound = 1 + 3 * log2_ratio(ev.s_root, ev.s_key)
        report.fail(f"splay {ev.key}: amortized {amortized:.9f} > 1+3*dr = {bound:.9f}")
    for i, step in enumerate(steps):
        zig = step.kind == ZIG
        cost = 2 - zig
        if step.grow * step.s_before ** 3 << cost > step.s_after ** 3 * step.shrink << zig:
            amortized = cost + log2_ratio(step.grow, step.shrink)
            bound = zig + 3 * log2_ratio(step.s_after, step.s_before)
            report.fail(f"splay {ev.key} step {i} ({step.kind}): "
                        f"amortized {amortized:.9f} > {bound:.9f}")
    return report


def check_amortized_depth(ev: SplayEvent, report: CheckReport) -> CheckReport:
    """Amortized splay cost <= 4 + 6 * depth of the key in the reference tree,
    that is 2^cost grow <= 2^(4 + 6d) shrink."""
    report.tick()
    bound = 4 + 6 * ev.depth_ref
    if ev.grow << ev.cost > ev.shrink << bound:
        amortized = ev.cost + log2_ratio(ev.grow, ev.shrink)
        report.fail(f"splay {ev.key}: amortized {amortized:.9f} > 4+6d = {bound}")
    return report


def check_rotation_delta(ev: RotationEvent, report: CheckReport) -> CheckReport:
    """Potential jump of a shallow reference rotation stays under 11 + log2(11);
    depth-1 rotations satisfy the tighter 7 + log2(11) subtotal.  Each reads
    grow <= 2^bound shrink."""
    ratios = [ROTATION_RATIO_BOUND]
    if ev.depth_ref == 1:
        ratios.append(ROTATION_RATIO_BOUND_SHALLOW)
    for ratio in ratios:
        report.tick()
        if ev.grow > ratio * ev.shrink:
            report.fail(f"rotation at {ev.key} (depth {ev.depth_ref}): delta-phi "
                        f"{log2_ratio(ev.grow, ev.shrink):.9f} > {math.log2(ratio):.9f}")
    return report


def plan_organizing_splays(T: TreeState, rotated: int) -> list:
    """The keys to splay before rotating `rotated` in T: the rotated key, then
    its reference parent, then (for depth-2 rotations) the reference root.  At
    most 3 keys, none deeper than the rotated key; the rotated key's depth is
    one less than their number.  The depth is decided by at most three parent
    reads, refusing an unknown key, the root and any key at depth 3 or more."""
    if rotated not in T.keys:
        raise KeyError(f"unknown key {rotated!r}")
    parent = T.parent
    keys = [rotated]
    node = parent[rotated]
    if node is None:
        raise IllegalOpError("cannot plan around a rotation of the root")
    while node is not None:
        if len(keys) == 3:
            raise IllegalOpError("rotation at depth 3 or more violates the depth restriction")
        keys.append(node)
        node = parent[node]
    return keys


class InterleavedRun:
    """A splay tree S evolving against a reference tree T over the same keys.

    Weights always derive from T's current depths; they are frozen during
    splays in S and reassigned at every T rotation.  `weights` lists them in
    key order at the scale 4^`scale`, the pair `potential.assign_weights`
    would return for T, and `prefix` holds their prefix sums.
    S's subtree sums are read off them as key-interval sums, so neither a
    splay nor a rotation makes a whole-tree pass.  `grow / shrink` is 2 to
    the change of phi = P(S) - P(T) since the start, the product of every
    event's ratio.  Each checker ticks and fails into the report it is
    given and returns it; the run keeps the report returned.

    In lowest terms that ratio's numerator divides the product of S's n sums
    now and T's at the start, and its denominator the product of S's at the
    start and T's now.  No sum exceeds the total weight, so neither side has
    more than `product_bits` bits: 2n times the largest bit length of the
    total weight seen.  Each reference rotation divides both products by
    their gcd, and so does a splay that leaves either one longer than
    `product_bits`; a long run's products then stay that size instead of
    growing with every event.

    T's key intervals and depths are kept per key (`t_intervals`,
    `t_depths`): `rank_layout` lists them when the run starts, the weights
    are read off the depths, and each reference rotation updates both lists
    in place.  T must change only through `apply_T_rotation`.
    """

    def __init__(self, S: TreeState, T: TreeState, per_step: bool = False):
        require_same_keys(S, T)
        self.S = S
        self.T = T
        self.per_step = per_step
        self.report = CheckReport("interleaved-run")
        self.organizing_count = 0
        self.s_cost = 0
        self.grow = self.shrink = 1
        self.product_bits = 0
        self.t_intervals, self.t_depths = rank_layout(T)
        self._reweigh()

    def sums(self) -> tuple:
        """S's and T's subtree sums under the current weights, from fresh
        passes over S, then T."""
        return subtree_sums(self.S, self.weights), subtree_sums(self.T, self.weights)

    def _reweigh(self) -> None:
        """The weights and their prefix sums, from T's kept depths, and the
        bound on the products' size that the new total weight sets."""
        self.scale, self.weights = weights_of_depths(self.t_depths)
        self.prefix = prefix = [0, *accumulate(self.weights)]
        self.product_bits = max(self.product_bits, 2 * len(self.weights) * prefix[-1].bit_length())

    def _reduce(self) -> None:
        """Divide `grow` and `shrink` by their gcd; their ratio, all the
        telescoping identity reads, stays."""
        g = math.gcd(self.grow, self.shrink)
        self.grow //= g
        self.shrink //= g

    def splay_query(self, key: int) -> SplayEvent:
        """Splay `key` in S, its reference depth read off T's kept depths."""
        if key not in self.S.keys:
            raise KeyError(f"unknown key {key!r}")
        depth_ref = self.t_depths[key]
        ev = checked_splay(self.S, self.prefix, key, depth_ref, per_step=self.per_step)
        self.s_cost += ev.cost
        self.grow *= ev.grow
        self.shrink *= ev.shrink
        bits = self.product_bits
        if self.grow.bit_length() > bits or self.shrink.bit_length() > bits:
            self._reduce()
        self.report = check_access_lemma(ev, self.report)
        self.report = check_amortized_depth(ev, self.report)
        return ev

    def _rotate_T(self, x: int) -> None:
        """Rotate x over its parent p in T, updating the kept intervals and
        depths.  x takes p's interval and p keeps the part of it on p's side
        of x.  x with its outer subtree A moves up one level, p with its
        outer subtree C down one; in key order A, x and p, C are each one
        slice of p's old interval."""
        T = self.T
        p = T.parent[x]
        intervals, depths = self.t_intervals, self.t_depths
        lo, hi = intervals[p]
        intervals[x] = lo, hi
        if x < p:
            intervals[p] = x + 1, hi
            up, down = range(lo, x + 1), range(p, hi)
        else:
            intervals[p] = lo, x
            up, down = range(x, hi), range(lo, p + 1)
        for k in up:
            depths[k] -= 1
        for k in down:
            depths[k] += 1
        T.rotate_up(x)
        self._reweigh()

    def apply_T_rotation(self, rotated: int) -> RotationEvent:
        """Organizing splays in S, then the rotation in T, then reweighting.

        The change of phi is read off Z, the nodes on S's paths from its
        root to the splayed keys.  Rotating x = `rotated` over its parent p
        scales the weights of each of the key ranges A, B and C (the subtrees
        that change depth) and of the rest by one power of 4 each, and the
        splayed keys (x, p and, at depth 2, T's root) separate those ranges.
        A node outside Z has its S-subtree and its T-subtree in one range, so
        its rank changes in S and in T are equal and cancel.  Of Z, only x and
        p change their T-subtree; a change of the scale 4^D shifts a node's
        two ranks alike, so each node's term reads its four sums alone:
        s'_S s_T over s_S s'_T.  Z's T-intervals, before and after, are read
        off the kept list."""
        plan = plan_organizing_splays(self.T, rotated)
        for key in plan:
            self.splay_query(key)
        self.organizing_count += len(plan)
        S, intervals, prefix = self.S, self.t_intervals, self.prefix
        in_S = {}
        for key in plan:
            for node, lo, hi in key_path(S, key):
                in_S[node] = lo, hi
        # s_T over s_S before the rotation, then s'_S over s'_T after it.
        grow = shrink = 1
        for v, (lo, hi) in in_S.items():
            t_lo, t_hi = intervals[v]
            grow *= prefix[t_hi] - prefix[t_lo]
            shrink *= prefix[hi] - prefix[lo]
        self._rotate_T(rotated)
        prefix = self.prefix
        for v, (lo, hi) in in_S.items():
            t_lo, t_hi = intervals[v]
            grow *= prefix[hi] - prefix[lo]
            shrink *= prefix[t_hi] - prefix[t_lo]
        ev = RotationEvent(rotated, len(plan) - 1, grow, shrink)
        self.grow *= grow
        self.shrink *= shrink
        self._reduce()
        self.report = check_rotation_delta(ev, self.report)
        return ev


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


def accounting_run(n: int, queries, strategy: str = "oracle-witness") -> tuple:
    """Full pipeline: reference program -> restricted simulation -> interleaved
    splays with organizing splays and per-event checks -> (row, check).

    `row` holds the trial's counts as the theorem7 report lists them (its
    CSV columns but the seed): n, m, the reference program's M and R, the
    restricted program's M' and R', e organizing splays, the splays' total
    cost, phi_final and max_ratio = total cost / (n + M' + R').

    The splay tree starts identical to the restricted tree (n+2 keys including
    the sentinels), so the initial potential is exactly zero.  Both trees have
    n+2 nodes, so 2^phi = prod s_S / prod s_T.  `check` holds five exact
    conditions, one tick each: no interleaved-bound violation, exact
    simulated op counts, e <= 3R', the telescoping identity run.grow /
    run.shrink = 2^phi_final, read off the same final passes as `phi_final`,
    and a zero initial potential.
    """
    queries = list(queries)
    counts = [0] * n
    for q in queries:
        if not 0 <= q < n:
            raise KeyError(f"unknown key {q!r}")
        counts[q] += 1
    T0 = static_optimal(counts)
    segments = per_query_segments(strategy, T0, queries)
    reference = MachineProgram([op for seg in segments for op in seg])
    M, R = reference.move_count, reference.rotation_count

    prime, sim = init_prime(T0)
    run = InterleavedRun(prime.copy(), prime)
    start_S, start_T = (prod(sums.values()) for sums in run.sums())
    restricted = MachineProgram([])
    for k, q in enumerate(queries):
        run.splay_query(q + 1)  # T's key q is the restricted tree's q + 1
        restricted.ops += apply_t_ops(prime, sim, segments[k], rotate=run.apply_T_rotation)

    m_prime, r_prime = restricted.move_count, restricted.rotation_count
    e = run.organizing_count
    sums_S, sums_T = run.sums()
    phi_final = potential(sums_S, run.scale) - potential(sums_T, run.scale)
    check = CheckReport("accounting")
    check.tick(5)
    check.violations += run.report.violations
    if m_prime != 4 * M + 3 * R or r_prime != 2 * M + R:
        check.fail("simulated op counts off")
    if e > ORGANIZING_SPLAYS_PER_ROTATION * r_prime:
        check.fail(f"e={e} exceeds 3R'={ORGANIZING_SPLAYS_PER_ROTATION * r_prime}")
    if run.grow * prod(sums_T.values()) != run.shrink * prod(sums_S.values()):
        check.fail(f"telescoping: the events' change of phi "
                   f"{log2_ratio(run.grow, run.shrink)} is not phi_final {phi_final}")
    if start_S != start_T:
        check.fail(f"initial potential {log2_ratio(start_S, start_T)}")
    row = {
        "n": n, "m": len(queries), "M": M, "R": R, "M_prime": m_prime, "R_prime": r_prime,
        "e": e, "total_S_cost": run.s_cost, "phi_final": phi_final,
        "max_ratio": run.s_cost / (n + m_prime + r_prime),
    }
    return row, check
