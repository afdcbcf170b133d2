"""The suite layer: violation labels, checked counts, the suite table, the
conjecture hill-climb's checkpointed replay and the report's rendering."""

import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import reference_run_conjecture, same_structure
from splaylab import lab, suites
from splaylab.cli import main
from splaylab.generators import ExperimentConfig, random_tree, rng_for_trial
from splaylab.lab import merge_extras
from splaylab.machine import IllegalOpError, MachineProgram, OpKind
from splaylab.report import CheckReport
from splaylab.restricted import simulate_program
from splaylab.splay import total_access_cost
from splaylab.suites import (
    CHECKPOINT_SPACING,
    RENDER_BATCH,
    PrefixReplay,
    render_report,
    run_suite,
)

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


def counting_checker(calls, fails, module):
    """A checker that ticks once per call and fails every call if `fails`.
    In `lab` it writes into the report it is given and returns it, as the
    interleaved-run checkers do; elsewhere it returns a report of its own."""
    def checker(*args):
        calls.append(1)
        report = args[1] if module is lab else CheckReport("forced")
        report.tick()
        if fails:
            report.fail("forced")
        return report
    return checker


@pytest.mark.parametrize("suite, fields, target, first, pattern", FORCED,
                         ids=[case[0] for case in FORCED])
def test_forced_checker_violations_are_labelled(monkeypatch, suite, fields, target, first, pattern):
    calls = []
    for name in LAB_CHECKERS:  # every interleaved-run checker ticks once per call
        monkeypatch.setattr(lab, name, counting_checker(calls, False, lab))
    module, name = target
    monkeypatch.setattr(module, name, counting_checker(calls, True, module))
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


def test_theorem7_run_rotates_the_reference():
    # The table-minimum theorem7 run above makes no reference op.  This one
    # makes reference rotations, so its restricted rotations go through
    # `InterleavedRun.apply_T_rotation` and its exact counts read R.
    code, report = run_suite("theorem7", ExperimentConfig(seed=0, n=4, m=5, trials=3))
    assert code == 0 and report["passed"]
    assert any(row["R"] > 0 for row in report["runs"])
    assert any(row["R_prime"] > 0 for row in report["runs"])


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
        out = simulate_program(T, program)
        return MachineProgram([*out.ops, OpKind.UP])  # the cursor ends at the root

    monkeypatch.setattr(suites, "simulate_program", simulate_then_up)
    with pytest.raises(IllegalOpError):
        run_suite("lemma3", ExperimentConfig(n=10, trials=1))


# -- the conjecture hill-climb against its full-replay reference ---------------

CONJECTURE_GENERATORS = ("uniform", "sequential", "zipf(1.1)", "working-set({size})",
                         "repeated-extremes")


def conjecture_both_ways(config):
    """(report dict, checked) of run_conjecture and of the full-replay reference."""
    suite = suites.SUITES["conjecture"]
    results = []
    for runner in (suites.run_conjecture, reference_run_conjecture):
        check = CheckReport("conjecture")
        results.append((runner(suite, config, check), check.checked))
    return results


@pytest.mark.parametrize("generator", CONJECTURE_GENERATORS)
def test_conjecture_matches_full_replay(generator):
    # m below, at and just past the checkpoint spacing, and one with a partial
    # last chunk; n from a single key up.
    K = CHECKPOINT_SPACING
    for n in (1, 2, 5, 64):
        for m in (0, 1, K - 1, K, K + 1, 100):
            for seed in (0, 1, 5):
                config = ExperimentConfig(seed=seed, n=n, m=m, trials=40,
                                          generator=generator.format(size=min(4, n)))
                got, want = conjecture_both_ways(config)
                assert got == want, config


def test_conjecture_splays_fewer_queries(monkeypatch):
    # The deterministic form of the speed claim: the queries handed to the
    # splay kernel, summed over calls, at the benchmark's n and m.
    counts = {}

    def counting(module):
        kernel = module.total_access_cost

        def wrapper(state, queries):
            counts[module.__name__] = counts.get(module.__name__, 0) + len(queries)
            return kernel(state, queries)
        monkeypatch.setattr(module, "total_access_cost", wrapper)

    counting(suites)
    counting(reference)
    got, want = conjecture_both_ways(ExperimentConfig(seed=0, n=64, m=512, trials=300))
    assert got == want
    assert counts["reference"] == 156_512
    assert counts["splaylab.suites"] < 0.75 * counts["reference"]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(0, 60), st.integers(0, 2**32))
def test_prefix_replay_cost_matches_full_replay(data, n, m, seed):
    rng = rng_for_trial(seed, 0)
    S0 = random_tree(n, rng)
    base = [rng.randrange(n) for _ in range(m)]
    extra = st.tuples(st.integers(0, m), st.integers(0, n - 1))
    extras = data.draw(st.lists(extra, min_size=1, max_size=8))
    replay = PrefixReplay(S0, base, extras)
    for _ in range(data.draw(st.integers(1, 4))):
        slot = data.draw(st.integers(0, len(extras) - 1))
        new = data.draw(extra)
        candidate = list(extras)
        candidate[slot] = new
        start = min(extras[slot][0], new[0])
        want = total_access_cost(S0.copy(), merge_extras(base, candidate))
        assert replay.cost(candidate, start) == want
        if data.draw(st.booleans()):
            replay.accept(candidate, start)
            extras = candidate
            fresh = PrefixReplay(S0, base, extras)
            assert replay.costs == fresh.costs
            assert len(replay.trees) == len(fresh.trees) == m // CHECKPOINT_SPACING + 1
            assert all(map(same_structure, replay.trees, fresh.trees))


def chunk_count(report) -> int:
    return sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(report))


def report_of_chunks(chunks: int) -> dict:
    """A report with nested lists (like conjecture's extras), violations that
    need escaping and an infinite max_ratio, whose JSON encoder yields exactly
    `chunks` chunks; each int of `pad` past its first adds one chunk."""
    report = {
        "schema_version": 1,
        "passed": False,
        "max_ratio": float("inf"),
        "extras": [[3, 1], [7, 0], []],
        "violations": ['trial 0: "quoted" \\ and\ttab', "trial 1: na\u00efve \u2713\n"],
        "pad": [0],
    }
    report["pad"] = list(range(chunks - chunk_count(report) + 1))
    return report


@pytest.mark.parametrize("chunks", [
    1, RENDER_BATCH - 1, RENDER_BATCH, RENDER_BATCH + 1, 2 * RENDER_BATCH, 2 * RENDER_BATCH + 1,
])
def test_render_report_matches_dumps_across_batch_edges(chunks):
    report = {} if chunks == 1 else report_of_chunks(chunks)
    assert chunk_count(report) == chunks
    text = render_report("conjecture", ExperimentConfig(), report)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    if chunks > 1:
        assert "Infinity" in text and '\\"quoted\\"' in text and "[\n      3," in text


def test_render_report_peak_memory_is_bounded():
    # The benchmark's theorem7 workload at seed 0: about 353,000 characters
    # of report from about 72,000 encoder chunks.  `json.dumps` peaks near
    # 8.6 times the text, since it holds every chunk until its one join.
    config = ExperimentConfig(seed=0, n=6, m=8, trials=1500)
    _, report = run_suite("theorem7", config)
    tracemalloc.start()
    try:
        text = render_report("theorem7", config, report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
