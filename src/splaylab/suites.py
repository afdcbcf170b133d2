"""Named verification suites behind the command-line harness.

Each suite runs a batch of randomized or exhaustive checks and returns a
deterministic JSON-serializable report plus an exit code (0 = all checks
passed; the conjecture suite is observational and always exits 0).
"""

from __future__ import annotations

import csv
import io
import json

from .generators import (
    ExperimentConfig,
    balanced_tree,
    generate_sequence,
    random_pair,
    random_t_program,
    random_tree,
    rng_for_trial,
    spine_tree,
)
from .lab import InterleavedRun, accounting_run, cost_ratio, merge_extras
from .oracle import opt_cost, program_search
from .machine import shape_of
from .potential import check_potential_floor, check_weight_sum_bounds
from .report import CheckReport
from .restricted import cursor_trace, init_prime, is_subsequence, simulate_program
from .splay import total_access_cost

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "seed", "n", "m", "M", "R", "M_prime", "R_prime", "e",
    "total_S_cost", "phi_final", "max_ratio",
]


def _base_report(name: str, config: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "seed": config.seed,
        "trials": config.trials,
        "checked": 0,
        "violations": [],
    }


def _absorb(report: dict, label: str, check: CheckReport) -> None:
    """Add one checker's count and its violations, each prefixed by `label`."""
    report["checked"] += check.checked
    report["violations"].extend(f"{label}: {v}" for v in check.violations)


def _finish(report: dict) -> tuple[int, dict]:
    """A suite passes only if it checked something and nothing failed."""
    report["passed"] = report["checked"] > 0 and not report["violations"]
    return (0 if report["passed"] else 1), report


def run_lemma1(config: ExperimentConfig) -> tuple[int, dict]:
    """Weight and subtree-sum bounds over random tree pairs."""
    report = _base_report("lemma1", config)
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial)
        n = rng.randint(1, config.n)
        S, T = random_pair(n, rng)
        _absorb(report, f"trial {trial}", check_weight_sum_bounds(S, T))
    return _finish(report)


def run_lemma2(config: ExperimentConfig) -> tuple[int, dict]:
    """Potential floor -n < phi over random tree pairs."""
    report = _base_report("lemma2", config)
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial)
        n = rng.randint(1, config.n)
        S, T = random_pair(n, rng)
        _absorb(report, f"trial {trial}", check_potential_floor(S, T))
    return _finish(report)


def run_lemma3(config: ExperimentConfig) -> tuple[int, dict]:
    """Restricted simulation: exact costs, legality, cursor correspondence."""
    report = _base_report("lemma3", config)
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial)
        n = rng.randint(2, min(10, config.n))
        T = random_tree(n, rng)
        program = random_t_program(T, rng)
        M, R = program.move_count, program.rotation_count
        out, ledger = simulate_program(T, program)
        if (ledger.moves, ledger.rotations) != (4 * M + 3 * R, 2 * M + R):
            report["violations"].append(
                f"trial {trial}: cost ({ledger.moves},{ledger.rotations}) "
                f"!= (4M+3R,2M+R) for M={M} R={R}"
            )
        report["checked"] += 1
        if not out.restricted:
            report["violations"].append(f"trial {trial}: output program not restricted")
        report["checked"] += 1
        sim_keys = [k for k in cursor_trace(T, program)]
        prime_keys = cursor_trace(init_prime(T).prime, out)
        if not is_subsequence(sim_keys, prime_keys):
            report["violations"].append(f"trial {trial}: cursor trace not embedded")
        report["checked"] += 1
    return _finish(report)


def run_lemma4(config: ExperimentConfig) -> tuple[int, dict]:
    """Per-splay amortized bounds during interleaved runs with T rotations."""
    report = _base_report("lemma4", config)
    splays = 0
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial)
        n = rng.randint(2, config.n)
        S, T = random_pair(n, rng)
        run = InterleavedRun(S, T)
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.25:
                shallow = [k for k in T.in_order() if 1 <= T.depth(k) <= 2]
                if shallow:
                    run.apply_T_rotation(rng.choice(shallow))
                    continue
            run.splay_query(rng.choice(T.in_order()))
            splays += 1
        for r in run.reports:
            _absorb(report, f"trial {trial}", r)
    report["splays"] = splays
    return _finish(report)


def run_lemma5(config: ExperimentConfig) -> tuple[int, dict]:
    """Potential jump bound for reference rotations at depth 1 and depth 2."""
    report = _base_report("lemma5", config)
    for depth_target in (1, 2):
        done = 0
        trial = 0
        while done < config.trials:
            rng = rng_for_trial(config.seed, 10 ** 6 * depth_target + trial)
            trial += 1
            n = rng.randint(3, config.n)
            S, T = random_pair(n, rng)
            candidates = [k for k in T.in_order() if T.depth(k) == depth_target]
            if not candidates:
                continue
            run = InterleavedRun(S, T)
            run.apply_T_rotation(rng.choice(candidates))
            for r in run.reports:
                _absorb(report, f"depth {depth_target} trial {trial}", r)
            done += 1
    return _finish(report)


def run_lemma6(config: ExperimentConfig) -> tuple[int, dict]:
    """Access bound for single splays under reference-derived weights."""
    report = _base_report("lemma6", config)
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial)
        n = rng.randint(1, config.n)
        S, T = random_pair(n, rng)
        per_step = trial % 20 == 0  # step-level checks on a subset; they are O(n) each
        run = InterleavedRun(S, T, per_step=per_step)
        run.splay_query(rng.choice(T.in_order()))
        for r in run.reports:
            _absorb(report, f"trial {trial}", r)
    return _finish(report)


def run_theorem7(config: ExperimentConfig) -> tuple[int, dict]:
    """End-to-end accounting runs against oracle-optimal reference programs."""
    report = _base_report("theorem7", config)
    rows = []
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial)
        n = rng.randint(2, min(6, config.n))
        m = rng.randint(1, min(8, config.m))
        queries = [rng.randrange(n) for _ in range(m)]
        acc = accounting_run(n, queries, strategy=config.strategy)
        report["checked"] += 5
        if acc.violations:
            report["violations"].extend(f"trial {trial}: {v}" for v in acc.violations)
        if not acc.counts_exact:
            report["violations"].append(f"trial {trial}: simulated op counts off")
        if not acc.e_within_budget:
            report["violations"].append(f"trial {trial}: e={acc.e} exceeds 3R'={3 * acc.R_prime}")
        if abs(acc.telescoping_residual) > 1e-6:
            report["violations"].append(
                f"trial {trial}: telescoping residual {acc.telescoping_residual}"
            )
        if acc.phi_initial != 0.0:
            report["violations"].append(f"trial {trial}: initial potential {acc.phi_initial}")
        rows.append({
            "seed": config.seed, "n": n, "m": m, "M": acc.M, "R": acc.R,
            "M_prime": acc.M_prime, "R_prime": acc.R_prime, "e": acc.e,
            "total_S_cost": acc.total_S_cost, "phi_final": acc.phi_final,
            "max_ratio": acc.empirical_ratio,
        })
    report["runs"] = rows
    report["max_ratio"] = max((r["max_ratio"] for r in rows), default=0.0)
    return _finish(report)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row[col] for col in CSV_COLUMNS})
    return buf.getvalue()


def run_conjecture(config: ExperimentConfig) -> tuple[int, dict]:
    """Search for base sequences whose cost is beaten by adding extra splays.

    Hill-climbs over extra-splay placements; the best cost ratio found is
    reported, never asserted.  Exit code is always 0.
    """
    n, m = config.n, config.m
    rng0 = rng_for_trial(config.seed, 0)
    S0 = random_tree(n, rng0)
    base = generate_sequence(config.generator, n, m, rng0)
    base_cost = total_access_cost(S0.copy(), base)

    extras_count = 8
    best_ratio = 0.0
    best_extras = []
    extras = [(rng0.randrange(m + 1), rng0.randrange(n)) for _ in range(extras_count)]
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial + 1)
        candidate = list(extras)
        candidate[rng.randrange(extras_count)] = (rng.randrange(m + 1), rng.randrange(n))
        aug_cost = total_access_cost(S0.copy(), merge_extras(base, candidate))
        ratio = cost_ratio(base_cost, aug_cost)
        if ratio > best_ratio:
            best_ratio = ratio
            best_extras = list(candidate)
            extras = candidate
    report = _base_report("conjecture", config)
    report.update({
        "n": n, "m": m, "generator": config.generator,
        "base_cost": base_cost, "extras": sorted(best_extras),
        "max_ratio": best_ratio,
        "exceeds_one": best_ratio > 1.0,
        "checked": config.trials,
    })
    report["passed"] = True
    return 0, report


def run_scan9n(config: ExperimentConfig) -> tuple[int, dict]:
    """Sequential scan 0..n-1 costs at most 9n from spine and balanced starts."""
    report = _base_report("scan9n", config)
    n = config.n
    results = {}
    for label, tree in (
        ("right-spine", spine_tree(n, "right")),
        ("left-spine", spine_tree(n, "left")),
        ("balanced", balanced_tree(n)),
    ):
        cost = total_access_cost(tree, range(n))
        results[label] = cost
        report["checked"] += 1
        if cost > 9 * n:
            report["violations"].append(f"{label}: scan cost {cost} > 9n = {9 * n}")
    report["n"] = n
    report["costs"] = results
    report["bound"] = 9 * n
    return _finish(report)


def run_oracle_crosscheck(config: ExperimentConfig) -> tuple[int, dict]:
    """The two independent optimal-cost searches agree on tiny instances."""
    report = _base_report("oracle-crosscheck", config)
    for trial in range(config.trials):
        rng = rng_for_trial(config.seed, trial)
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        T = random_tree(n, rng)
        queries = [rng.randrange(n) for _ in range(m)]
        cost, _ = opt_cost(n, queries, shape_of(T))
        report["checked"] += 2
        if cost and program_search(T, queries, cost - 1):
            report["violations"].append(f"trial {trial}: program search beat the oracle")
        if not program_search(T, queries, cost):
            report["violations"].append(f"trial {trial}: oracle cost not reachable")
    return _finish(report)


SUITES = {
    "lemma1": (run_lemma1, 1000),
    "lemma2": (run_lemma2, 1000),
    "lemma3": (run_lemma3, 10_000),
    "lemma4": (run_lemma4, 10_000),
    "lemma5": (run_lemma5, 1000),
    "lemma6": (run_lemma6, 10_000),
    "theorem7": (run_theorem7, 100),
    "conjecture": (run_conjecture, 10_000),
    "scan9n": (run_scan9n, 1),
    "oracle-crosscheck": (run_oracle_crosscheck, 200),
}

# The smallest --n each suite can draw a trial from (1 for the others), and
# the smallest --m for the suites that read it.
MIN_N = {"lemma3": 2, "lemma4": 2, "lemma5": 3, "theorem7": 2}
MIN_M = {"theorem7": 1, "conjecture": 0}


def run_suite(name: str, config: ExperimentConfig) -> tuple[int, dict]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    runner, _ = SUITES[name]
    return runner(config)


def default_trials(name: str) -> int:
    return SUITES[name][1]


def check_config(name: str, config: ExperimentConfig) -> None:
    """Raise ValueError, naming the flag and its minimum, for a config that
    suite `name` would run vacuously or fail on."""
    for flag, value, least in (
        ("--trials", config.trials, 1),
        ("--n", config.n, MIN_N.get(name, 1)),
        ("--m", config.m, MIN_M.get(name)),
    ):
        if least is not None and value < least:
            raise ValueError(f"{flag} must be at least {least} for suite {name}, got {value}")


def render_report(name: str, config: ExperimentConfig, report: dict) -> str:
    """Deterministic textual rendering: JSON, or CSV for theorem7 row dumps."""
    if name == "theorem7" and config.output_path and config.output_path.endswith(".csv"):
        return rows_to_csv(report["runs"])
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
