"""The suite layer: violation labels, checked counts and the suite table."""

import re

import pytest

from splaylab import lab, suites
from splaylab.cli import main
from splaylab.generators import ExperimentConfig, random_tree
from splaylab.machine import IllegalOpError, OpKind
from splaylab.report import CheckReport
from splaylab.restricted import simulate_program
from splaylab.suites import run_suite

LAB_CHECKERS = ("check_access_lemma", "check_amortized_depth", "check_rotation_delta")

# (suite, config fields, the module and checker forced to fail, the exact
# first violation, the pattern every violation matches)
FORCED = [
    ("lemma1", dict(n=16), (suites, "check_weight_sum_bounds"),
     "trial 0: forced", r"trial \d+: forced"),
    ("lemma2", dict(n=16), (suites, "check_potential_floor"),
     "trial 0: forced", r"trial \d+: forced"),
    ("lemma4", dict(n=16), (lab, "check_access_lemma"),
     "trial 0: forced", r"trial \d+: forced"),
    ("lemma5", dict(n=16), (lab, "check_rotation_delta"),
     "depth 1 trial 1: forced", r"depth [12] trial \d+: forced"),
    ("lemma6", dict(n=16), (lab, "check_access_lemma"),
     "trial 0: forced", r"trial \d+: forced"),
]


def counting_checker(calls, fails):
    """A checker that ticks once per call and fails every call if `fails`."""
    def checker(*args, **kwargs):
        calls.append(1)
        report = CheckReport("forced", checked=1)
        if fails:
            report.fail("forced")
        return report
    return checker


@pytest.mark.parametrize("suite, fields, target, first, pattern", FORCED,
                         ids=[case[0] for case in FORCED])
def test_forced_checker_violations_are_labelled(monkeypatch, suite, fields, target, first, pattern):
    calls = []
    for name in LAB_CHECKERS:  # every interleaved-run checker ticks once per call
        monkeypatch.setattr(lab, name, counting_checker(calls, False))
    monkeypatch.setattr(*target, counting_checker(calls, True))
    code, report = run_suite(suite, ExperimentConfig(seed=1, trials=2, **fields))
    assert code == 1 and report["passed"] is False
    assert report["checked"] == len(calls)
    assert report["violations"][0] == first
    assert all(re.fullmatch(pattern, v) for v in report["violations"])


def test_oracle_crosscheck_violation_is_labelled(monkeypatch):
    monkeypatch.setattr(suites, "program_search", lambda *args: False)
    code, report = run_suite("oracle-crosscheck", ExperimentConfig(seed=1, trials=3))
    assert code == 1
    assert report["checked"] == 6
    assert report["violations"] == [f"trial {k}: oracle cost not reachable" for k in range(3)]


def test_scan9n_violation_is_labelled(monkeypatch):
    monkeypatch.setattr(suites, "total_access_cost", lambda tree, queries: 1000)
    code, report = run_suite("scan9n", ExperimentConfig(n=8, trials=1))
    assert code == 1
    assert report["checked"] == 3
    assert report["violations"] == [
        f"{label}: scan cost 1000 > 9n = 72"
        for label in ("right-spine", "left-spine", "balanced")
    ]


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_passes_at_its_table_minimum(name):
    suite = suites.SUITES[name]
    fields = dict(n=suite.min_n, trials=min(2, suite.max_trials or 2))
    if suite.min_m is not None:
        fields["m"] = suite.min_m
    code, report = run_suite(name, ExperimentConfig(**fields))
    assert code == 0 and report["passed"] and report["checked"] > 0


def test_oracle_crosscheck_honours_n_as_a_cap(monkeypatch, capsys):
    drawn = []

    def recording_tree(n, rng):
        drawn.append(n)
        return random_tree(n, rng)

    monkeypatch.setattr(suites, "random_tree", recording_tree)
    assert main(["--suite", "oracle-crosscheck", "--n", "2", "--trials", "40"]) == 0
    assert len(drawn) == 40 and set(drawn) == {1, 2}


def test_lemma3_illegal_output_op_raises(monkeypatch):
    # check_restricted counts depths without replaying; cursor_trace replays
    # the output and must still reject an op that is illegal where it lands.
    def simulate_then_up(T, program):
        out, ledger = simulate_program(T, program)
        return out + [OpKind.UP], ledger  # the cursor ends at the root

    monkeypatch.setattr(suites, "simulate_program", simulate_then_up)
    with pytest.raises(IllegalOpError):
        run_suite("lemma3", ExperimentConfig(n=10, trials=1))
