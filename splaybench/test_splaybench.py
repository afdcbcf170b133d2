"""Self-test of the benchmark harness (not part of the repository's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q splaybench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import splaylab.lab
import splaylab.potential
from splaylab.report import CheckReport

import run
import sample

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_every_declared_metric_is_emitted_with_its_unit():
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run_benchmark("theorem7-witness-n6", seed=5, seconds=0,
                                      trace=trace, trials=20)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_forced_violation_counts_as_failed(monkeypatch):
    def broken_checker(ev, tol=0.0):
        report = CheckReport("access-bound")
        report.tick()
        report.fail(f"splay {ev.key}: forced")
        return report

    argv = run.splaylab_argv("lemma6-n256", 0, trials=5)
    good = dict(sample.measure(argv), spawned=0.0, returncode=0, traced=False)
    monkeypatch.setattr(splaylab.lab, "check_access_lemma", broken_checker)
    bad = sample.measure(argv)
    assert bad["code"] == 1 and bad["violations"] > 0
    bad.update(spawned=0.0, returncode=bad["code"], traced=False)
    failed = run.failures([good, bad], pinned=None)
    assert failed == [bad]
    values, _ = run.end_to_end([good, bad], failed)
    assert values["pass_share"] == 0.5


def test_digest_gate():
    a = {"returncode": 0, "violations": 0, "sha256": "a"}
    b = {"returncode": 0, "violations": 0, "sha256": "b"}
    assert run.failures([a, a, b], pinned=None) == [b]
    assert run.failures([a, a], pinned="b") == [a, a]


def test_traced_run_keeps_report_bytes_and_restores_bindings():
    original = splaylab.potential.subtree_sums
    argv = run.splaylab_argv("theorem7-witness-n6", 1, trials=10)
    plain = sample.measure(argv)
    traced = sample.measure(argv, trace=True)
    assert traced["sha256"] == plain["sha256"]
    assert traced["unrestored"] == []
    assert splaylab.lab.subtree_sums is splaylab.potential.subtree_sums is original
    assert traced["layers"]["oracle.opt_cost.calls"] == 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "lemma3-n10", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
