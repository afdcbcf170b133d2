"""Named verification suites behind the command-line harness.

Each suite runs a batch of randomized or exhaustive checks into one
CheckReport; `run_suite` turns it into a deterministic JSON-serializable
report plus an exit code (0 = at least one check ran and none failed).  The
conjecture suite is observational: it ticks once per trial and never fails.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable, Iterator
from itertools import islice

from .generators import (
    ExperimentConfig,
    balanced_tree,
    generate_sequence,
    parse_generator,
    random_pair,
    random_t_program,
    random_tree,
    rng_for_trial,
    spine_tree,
)
from .lab import InterleavedRun, accounting_run, cost_ratio, merge_extras
from .machine import TreeState
from .oracle import MAX_OPT_KEYS, MAX_OPT_QUERIES, STRATEGIES, opt_cost, program_search
from .potential import check_potential_floor, check_weight_sum_bounds
from .report import CheckReport
from .restricted import (
    check_restricted,
    cursor_trace,
    init_prime,
    is_subsequence,
    simulate_program,
)
from .splay import total_access_cost

SCHEMA_VERSION = 1

# The JSON rendering's encoder, and how many of its chunks render_report
# joins into one partial string.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
RENDER_BATCH = 2048

CSV_COLUMNS = [
    "seed", "n", "m", "M", "R", "M_prime", "R_prime", "e",
    "total_S_cost", "phi_final", "max_ratio",
]


class Suite:
    """One suite: its runner, its default --trials and the ranges it draws from.

    A trial's key count n is drawn from min_n up to --n, capped at max_n when
    set; min_m is the least --m, None for suites that do not read it.
    max_trials, when set, is the most --trials the suite can honour.
    """

    __slots__ = ("runner", "trials", "max_trials", "min_n", "max_n", "min_m")

    def __init__(
        self,
        runner: Callable,
        trials: int,
        max_trials: int | None = None,
        min_n: int = 1,
        max_n: int | None = None,
        min_m: int | None = None,
    ):
        self.runner = runner
        self.trials = trials
        self.max_trials = max_trials
        self.min_n = min_n
        self.max_n = max_n
        self.min_m = min_m

    def trials_of(self, config: ExperimentConfig) -> Iterator:
        """Per trial k: its label, its own RNG and its key count n, drawn first."""
        high = config.n if self.max_n is None else min(self.max_n, config.n)
        for k in range(config.trials):
            rng = rng_for_trial(config.seed, k)
            yield f"trial {k}", rng, rng.randint(self.min_n, high)


def run_lemma1(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Weight and subtree-sum bounds over random tree pairs."""
    for label, rng, n in suite.trials_of(config):
        report.absorb(check_weight_sum_bounds(*random_pair(n, rng)), label)
    return {}


def run_lemma2(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Potential floor -n < phi over random tree pairs."""
    for label, rng, n in suite.trials_of(config):
        report.absorb(check_potential_floor(*random_pair(n, rng)), label)
    return {}


def run_lemma3(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Restricted simulation: exact costs, legality, cursor correspondence.

    Legality of the output is checked by `cursor_trace`, which replays it and
    raises IllegalOpError on an illegal op; `check_restricted` only counts depths.
    """
    for label, rng, n in suite.trials_of(config):
        T = random_tree(n, rng)
        program = random_t_program(T, rng)
        M, R = program.move_count, program.rotation_count
        out = simulate_program(T, program)
        prime = init_prime(T)[0]
        report.tick(3)
        moves, rotations = out.move_count, out.rotation_count
        if (moves, rotations) != (4 * M + 3 * R, 2 * M + R):
            report.fail(f"{label}: cost ({moves},{rotations}) != (4M+3R,2M+R) for M={M} R={R}")
        if not check_restricted(prime, out.ops).passed:
            report.fail(f"{label}: output program not restricted")
        # T's key k is the restricted tree's k + 1.
        t_trace = [k + 1 for k in cursor_trace(T, program.ops)]
        if not is_subsequence(t_trace, cursor_trace(prime, out.ops)):
            report.fail(f"{label}: cursor trace not embedded")
    return {}


def run_lemma4(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Per-splay amortized bounds during interleaved runs with T rotations.

    T's keys are 0..n-1 and rotations keep its in-order, so a key is its
    rank: a splay key is drawn from range(n), and a rotated key from T's
    depth-1 and depth-2 keys, in key order, read off the run's kept depths.
    """
    splays = 0
    for label, rng, n in suite.trials_of(config):
        S, T = random_pair(n, rng)
        run = InterleavedRun(S, T)
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.25:
                shallow = [k for k, d in enumerate(run.t_depths) if 0 < d < 3]
                if shallow:
                    run.apply_T_rotation(rng.choice(shallow))
                    continue
            run.splay_query(rng.choice(range(n)))
            splays += 1
        report.absorb(run.report, label)
    return {"splays": splays}


def run_lemma5(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Potential jump bound for reference rotations at depth 1 and depth 2.

    Trials are seeded per depth and retried until the tree has a key there,
    so this suite keeps its own loop; its labels count trials from 1.  The
    candidates, in key order, are read off the run's kept depths; building
    the run draws nothing from the RNG.
    """
    for depth_target in (1, 2):
        done = 0
        trial = 0
        while done < config.trials:
            rng = rng_for_trial(config.seed, 10 ** 6 * depth_target + trial)
            trial += 1
            S, T = random_pair(rng.randint(suite.min_n, config.n), rng)
            run = InterleavedRun(S, T)
            candidates = [k for k, d in enumerate(run.t_depths) if d == depth_target]
            if not candidates:
                continue
            run.apply_T_rotation(rng.choice(candidates))
            report.absorb(run.report, f"depth {depth_target} trial {trial}")
            done += 1
    return {}


def run_lemma6(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Access bound for single splays under reference-derived weights."""
    for k, (label, rng, n) in enumerate(suite.trials_of(config)):
        S, T = random_pair(n, rng)
        # Step-level checks on every 20th trial.  A step check is O(1), but each
        # ticks `checked`, so the report's bytes pin this subset.
        per_step = k % 20 == 0
        run = InterleavedRun(S, T, per_step=per_step)
        run.splay_query(rng.choice(range(n)))  # T's in-order is 0..n-1
        report.absorb(run.report, label)
    return {}


def run_theorem7(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """End-to-end accounting runs against oracle-optimal reference programs;
    each trial reports the row `accounting_run` returns, after the seed."""
    rows = []
    for label, rng, n in suite.trials_of(config):
        m = rng.randint(suite.min_m, min(MAX_OPT_QUERIES, config.m))
        queries = [rng.randrange(n) for _ in range(m)]
        row, check = accounting_run(n, queries, strategy=config.strategy)
        report.absorb(check, label)
        rows.append({"seed": config.seed, **row})
    return {"runs": rows, "max_ratio": max((r["max_ratio"] for r in rows), default=0.0)}


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# Base positions between two checkpoints of a `PrefixReplay`.
CHECKPOINT_SPACING = 16


class PrefixReplay:
    """The splay cost of `base` with extra queries merged in, replayed from
    checkpoints of the current extras.

    Checkpoint i holds the cost so far and the tree that splaying base[:b],
    with every current extra at a position < b merged in, makes of S0, where
    b = i * CHECKPOINT_SPACING <= len(base).  A candidate that agrees with the
    current extras on every extra placed before `start` replays only from
    the last checkpoint at or before `start`.
    """

    def __init__(self, S0: TreeState, base: list, extras: list):
        self.base = base
        self.extras = list(extras)
        self.costs = [0]
        self.trees = [S0.copy()]
        self._rebuild(0)

    def _merged(self, extras: list, lo: int, hi: int) -> list:
        """base[lo:hi] with each extra at a position lo <= p < hi merged in;
        extras at one position keep their order in `extras`."""
        return merge_extras(self.base[lo:hi], [(p - lo, k) for p, k in extras if lo <= p < hi])

    def cost(self, candidate: list, start: int) -> int:
        """Total cost of base merged with `candidate`, which agrees with the
        current extras, in order, on every extra at a position < `start`."""
        i = start // CHECKPOINT_SPACING
        b = i * CHECKPOINT_SPACING
        suffix = self._merged(candidate, b, len(self.base) + 1)
        return self.costs[i] + total_access_cost(self.trees[i].copy(), suffix)

    def accept(self, candidate: list, start: int) -> None:
        """Make `candidate` the current extras; checkpoints after the one
        `cost(candidate, start)` replayed from are rebuilt."""
        self.extras = list(candidate)
        self._rebuild(start // CHECKPOINT_SPACING)

    def _rebuild(self, i: int) -> None:
        """Recompute every checkpoint after checkpoint i, one chunk a call."""
        del self.costs[i + 1:], self.trees[i + 1:]
        tree = self.trees[i].copy()
        cost = self.costs[i]
        step = CHECKPOINT_SPACING
        for b in range(i * step, len(self.base) - step + 1, step):
            cost += total_access_cost(tree, self._merged(self.extras, b, b + step))
            self.costs.append(cost)
            self.trees.append(tree.copy())


def run_conjecture(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Search for base sequences whose cost is beaten by adding extra splays.

    Hill-climbs over extra-splay placements; the best cost ratio found is
    reported, never asserted, so each trial only ticks the report.  A
    candidate changes one extra, so it is replayed by `PrefixReplay` from the
    first position where it can differ from the current extras.
    """
    n, m = config.n, config.m
    rng0 = rng_for_trial(config.seed, 0)
    S0 = random_tree(n, rng0)
    base = generate_sequence(config.generator, n, m, rng0)
    base_cost = total_access_cost(S0.copy(), base)

    extras_count = 8
    best_ratio = 0.0
    best_extras = []
    replay = PrefixReplay(S0, base, [(rng0.randrange(m + 1), rng0.randrange(n))
                                     for _ in range(extras_count)])
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial + 1)
        # The report pins this draw order: the new extra, then its slot.
        new = (rng.randrange(m + 1), rng.randrange(n))
        slot = rng.randrange(extras_count)
        candidate = list(replay.extras)
        candidate[slot] = new
        start = min(replay.extras[slot][0], new[0])
        aug_cost = replay.cost(candidate, start)
        ratio = cost_ratio(base_cost, aug_cost)
        report.tick()
        if ratio > best_ratio:
            best_ratio = ratio
            best_extras = candidate
            replay.accept(candidate, start)
    return {
        "n": n, "m": m, "generator": config.generator,
        "base_cost": base_cost, "extras": sorted(best_extras),
        "max_ratio": best_ratio,
        "exceeds_one": best_ratio > 1.0,
    }


def run_scan9n(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """Sequential scan 0..n-1 costs at most 9n from spine and balanced starts.

    One deterministic pass, so its table entry allows only --trials 1.
    """
    n = config.n
    costs = {}
    for label, tree in (
        ("right-spine", spine_tree(n, "right")),
        ("left-spine", spine_tree(n, "left")),
        ("balanced", balanced_tree(n)),
    ):
        cost = costs[label] = total_access_cost(tree, range(n))
        report.tick()
        if cost > 9 * n:
            report.fail(f"{label}: scan cost {cost} > 9n = {9 * n}")
    return {"n": n, "costs": costs, "bound": 9 * n}


def run_oracle_crosscheck(suite: Suite, config: ExperimentConfig, report: CheckReport) -> dict:
    """The two independent optimal-cost searches agree on tiny instances."""
    for label, rng, n in suite.trials_of(config):
        m = rng.randint(1, 4)
        T = random_tree(n, rng)
        queries = [rng.randrange(n) for _ in range(m)]
        cost, _ = opt_cost(T, queries)
        report.tick(2)
        if cost and program_search(T, queries, cost - 1):
            report.fail(f"{label}: program search beat the oracle")
        if not program_search(T, queries, cost):
            report.fail(f"{label}: oracle cost not reachable")
    return {}


SUITES = {
    "lemma1": Suite(run_lemma1, 1000),
    "lemma2": Suite(run_lemma2, 1000),
    "lemma3": Suite(run_lemma3, 10_000, min_n=2, max_n=10),
    "lemma4": Suite(run_lemma4, 10_000, min_n=2),
    "lemma5": Suite(run_lemma5, 1000, min_n=3),
    "lemma6": Suite(run_lemma6, 10_000),
    "theorem7": Suite(run_theorem7, 100, min_n=2, max_n=MAX_OPT_KEYS, min_m=1),
    "conjecture": Suite(run_conjecture, 10_000, min_m=0),
    "scan9n": Suite(run_scan9n, 1, max_trials=1),
    "oracle-crosscheck": Suite(run_oracle_crosscheck, 200, max_n=4),
}


def run_suite(name: str, config: ExperimentConfig) -> tuple[int, dict]:
    """Run suite `name`; its exit code (0 only if it checked something and
    nothing failed) and its report.  A config `check_config` refuses raises
    ValueError before any trial runs."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    check_config(name, config)
    suite = SUITES[name]
    check = CheckReport(name)
    extra = suite.runner(suite, config, check)
    passed = check.checked > 0 and not check.violations
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "seed": config.seed,
        "trials": config.trials,
        "checked": check.checked,
        "violations": check.violations,
        "passed": passed,
        **extra,
    }
    return (0 if passed else 1), report


def check_config(name: str, config: ExperimentConfig) -> None:
    """Raise ValueError, naming the flag and its bound, for a config that
    suite `name` would run vacuously, misreport or fail on."""
    suite = SUITES[name]
    for flag, value, least in (
        ("--trials", config.trials, 1),
        ("--n", config.n, suite.min_n),
        ("--m", config.m, suite.min_m),
    ):
        if least is not None and value < least:
            raise ValueError(f"{flag} must be at least {least} for suite {name}, got {value}")
    if suite.max_trials is not None and config.trials > suite.max_trials:
        raise ValueError(
            f"--trials must be at most {suite.max_trials} for suite {name}, got {config.trials}")
    if config.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {config.strategy!r} for --strategy; "
                         f"choose from {list(STRATEGIES)}")
    parse_generator(config.generator)
    if name != "theorem7" and csv_requested(config):
        raise ValueError(f"--out {config.output_path}: only suite theorem7 writes CSV; "
                         f"suite {name} reports JSON")


def csv_requested(config: ExperimentConfig) -> bool:
    """Whether the output path names a .csv file, which selects theorem7's CSV rows."""
    return bool(config.output_path) and config.output_path.endswith(".csv")


def render_report(name: str, config: ExperimentConfig, report: dict) -> str:
    """Deterministic textual rendering: JSON, or CSV for theorem7 row dumps.

    The JSON text is `json.dumps(report, sort_keys=True, indent=2)` plus a
    newline, joined RENDER_BATCH encoder chunks at a time: with `indent` set
    the encoder yields a few characters per chunk, and `dumps` would hold
    every chunk as its own string until its one join.
    """
    if name == "theorem7" and csv_requested(config):
        return rows_to_csv(report["runs"])
    chunks = JSON_ENCODER.iterencode(report)
    parts = []
    while batch := list(islice(chunks, RENDER_BATCH)):
        parts.append("".join(batch))
    parts.append("\n")
    return "".join(parts)
