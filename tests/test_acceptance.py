"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at full scale, enforces its
runtime budget, and prints a single pass line.  Tolerances: 1e-9 for the
worked-example values, 1e-6 slack on real-valued rank inequalities, exact
integer comparisons everywhere else.
"""

import math
import time

import pytest

from splaylab.generators import ExperimentConfig
from splaylab.machine import build_tree
from splaylab.oracle import static_optimal
from splaylab.potential import assign_weights, phi, potential_of
from splaylab.suites import render_report, run_suite
from splaylab.generators import rng_for_trial

from reference import brute_force_static_cost, static_cost


def _passline(n):
    print(f"criterion {n} PASS")


def _run(name, **fields):
    config = ExperimentConfig(**fields)
    start = time.monotonic()
    code, report = run_suite(name, config)
    elapsed = time.monotonic() - start
    return code, report, elapsed


def test_criterion_1_worked_example():
    start = time.monotonic()
    S = build_tree("((..)((..)(..)))")
    T = build_tree("(((..)(..))(..))")
    assert phi(S, T) == pytest.approx(math.log2(7 / 2), abs=1e-9)
    expected_p_t = math.log2(3 / 8) + math.log2(13 / 8) - 10
    assert potential_of(T, *assign_weights(T)) == pytest.approx(expected_p_t, abs=1e-9)
    assert time.monotonic() - start < 1.0
    _passline(1)


def test_criterion_2_weight_sum_bounds():
    code, report, elapsed = _run("lemma1", seed=0, n=64, trials=1000)
    assert code == 0 and report["violations"] == []
    assert elapsed < 30.0
    _passline(2)


def test_criterion_3_potential_floor():
    code, report, _ = _run("lemma2", seed=0, n=64, trials=1000)
    assert code == 0 and report["violations"] == []
    _passline(3)


def test_criterion_4_simulation_counts():
    code, report, elapsed = _run("lemma3", seed=0, n=10, trials=10_000)
    assert code == 0 and report["violations"] == []
    assert elapsed < 120.0
    _passline(4)


def test_criterion_5_access_bound():
    code, report, _ = _run("lemma6", seed=0, n=256, trials=10_000)
    assert code == 0 and report["violations"] == []
    _passline(5)


def test_criterion_6_amortized_depth_bound():
    code, report, _ = _run("lemma4", seed=0, n=64, trials=10_000)
    assert code == 0 and report["violations"] == []
    assert report["splays"] >= 10_000
    _passline(6)


def test_criterion_7_rotation_delta_bound():
    code, report, _ = _run("lemma5", seed=0, n=64, trials=1000)
    assert code == 0 and report["violations"] == []
    _passline(7)


def test_criterion_8_accounting_pipeline():
    code, report, elapsed = _run("theorem7", seed=0, n=6, m=8, trials=100)
    assert code == 0 and report["violations"] == []
    assert len(report["runs"]) == 100
    assert elapsed < 300.0
    _passline(8)


def test_criterion_9_oracle_validity():
    code, report, _ = _run("oracle-crosscheck", seed=0, trials=50)
    assert code == 0 and report["violations"] == []
    for trial in range(100):
        rng = rng_for_trial(1, trial)
        n = rng.randint(1, 8)
        counts = [rng.randint(0, 20) for _ in range(n)]
        assert static_cost(static_optimal(counts), counts) == brute_force_static_cost(counts)
    _passline(9)


def test_criterion_10_sequential_scan():
    start = time.monotonic()
    for n in (128, 1024):
        code, report, _ = _run("scan9n", seed=0, n=n, trials=1)
        assert code == 0 and report["violations"] == []
        assert all(cost <= 9 * n for cost in report["costs"].values())
    assert time.monotonic() - start < 10.0
    _passline(10)


def test_criterion_11_conjecture_reproducibility():
    config = ExperimentConfig(seed=0, n=64, m=512, trials=10_000)
    code_a, report_a = run_suite("conjecture", config)
    code_b, report_b = run_suite("conjecture", config)
    assert code_a == code_b == 0
    text_a = render_report("conjecture", config, report_a)
    text_b = render_report("conjecture", config, report_b)
    assert text_a == text_b  # byte-identical under a fixed seed
    assert "max_ratio" in report_a
    _passline(11)
