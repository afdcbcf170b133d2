"""splaylab benchmark: time-to-verdict of four suite workloads, plus a traced run.

    python3 splaybench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it puts `src` on PYTHONPATH itself.  For
`--seconds` it starts fresh single-threaded `splaylab` processes one after
another (never two at once), checks every report, and prints one JSON
object as its last line.  With `--trace 0` that object holds the end-to-end
metrics of BENCHMARK.json, medians over the processes; with `--trace 1` it
alternates untraced and traced processes and holds the per-layer metrics.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SAMPLE = HERE / "sample.py"
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
MIN_PLAIN_SAMPLES = 3
MAX_RUN_S = 170  # a whole run, so the benchmark ends within 180 s


@dataclass(frozen=True)
class Workload:
    args: tuple  # splaylab arguments besides --seed and --trials
    trials: int  # run length of one process: 2-4 s on one core
    digest: str  # sha256 of the report at DEFAULT_SEED and `trials`


WORKLOADS = {
    # splay kernel only: every trial replays a ~520-query sequence.
    "conjecture-uniform-n64": Workload(
        ("--suite", "conjecture", "--n", "64", "--m", "512", "--generator", "uniform"), 300,
        "0a6db59e054cb17b193937945c49abcc2aba89244d21b91ed5eea064dca84abf"),
    # large random trees, one splay each: construction and whole-tree sums.
    "lemma6-n256": Workload(
        ("--suite", "lemma6", "--n", "256"), 800,
        "49c087ac4cd39bc705002841f6da45467b7a83bae296ea121527b00d4d87382f"),
    # full pipeline on tiny trees: oracle BFS, restricted ops, frequent reweighting.
    "theorem7-witness-n6": Workload(
        ("--suite", "theorem7", "--n", "6", "--m", "8", "--strategy", "oracle-witness"), 1500,
        "875ec474ffcc2fe0be00b20e36f8710eb89d23f404ce1fc5126e482977f75def"),
    # restricted simulation and its checks: apply_op and depth walks, no splaying.
    "lemma3-n10": Workload(
        ("--suite", "lemma3", "--n", "10"), 800,
        "28daba6e3d5e614d704e99e59d03809a397e01f6c70432b05b62a7611504bbd5"),
}


def splaylab_argv(name: str, seed: int, trials: int | None = None) -> list:
    workload = WORKLOADS[name]
    return [*workload.args, "--seed", str(seed), "--trials", str(trials or workload.trials)]


def spawn(argv: list, trace: bool, deadline: float) -> dict:
    """One fresh process, killed at `deadline`; its result, or an `error`."""
    cmd = [sys.executable, str(SAMPLE), *(["--trace"] if trace else []), "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(deadline - spawned, 1), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"spawned": spawned, "returncode": None, "traced": trace, "error": "timeout"}
    try:
        sample = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sample = {"error": proc.stderr.strip()[-2000:]}
    sample.update(spawned=spawned, returncode=proc.returncode, traced=trace)
    return sample


def failures(samples: list, pinned: str | None) -> list:
    """Samples that fail the gate.

    A sample fails if it exited nonzero, reported a violation, left a traced
    binding unrestored, or rendered other report bytes than the reference:
    the pinned digest, or else the digest most samples of this run agree on.
    """
    reference = pinned or Counter(s.get("sha256") for s in samples).most_common(1)[0][0]
    return [s for s in samples
            if s["returncode"] != 0 or s.get("violations") != 0
            or s.get("sha256") != reference or s.get("unrestored")]


def collect(argv: list, seconds: float, trace: bool) -> list:
    """Sequential rounds of one untraced (and, with trace, one traced) sample."""
    samples = []
    start = time.perf_counter()
    deadline = start + MAX_RUN_S
    rounds = 0
    while True:
        samples.append(spawn(argv, False, deadline))
        if trace:
            samples.append(spawn(argv, True, deadline))
        rounds += 1
        elapsed = time.perf_counter() - start
        if any(s.get("error") == "timeout" for s in samples):
            break
        enough = trace or rounds >= MIN_PLAIN_SAMPLES
        if enough and elapsed + elapsed / rounds > seconds:
            break
    return samples


def summary(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "samples": len(values)}


def end_to_end(samples: list, failed: list) -> tuple:
    """(metric values, per-metric summaries) of the untraced samples."""
    ok = [s for s in samples if "rendered" in s]
    if not ok:
        raise RuntimeError(f"no sample finished: {samples[-1].get('error')}")
    series = {
        "setup_s": [s["first_trial"] - s["spawned"] for s in ok],
        "verdict_s": [s["rendered"] - s["spawned"] for s in ok],
        "trials_per_s": [s["trials"] / (s["rendered"] - s["first_trial"]) for s in ok],
        "peak_rss_mb": [s["peak_rss_kb"] / 1024 for s in ok],
    }
    details = {name: summary(values) for name, values in series.items()}
    values = {name: d["median"] for name, d in details.items()}
    values["pass_share"] = 1 - len(failed) / len(samples)
    return values, details


def per_layer(samples: list) -> tuple:
    """(per-layer values, verdict summaries): medians over traced samples."""
    plain = [s for s in samples if not s["traced"] and "rendered" in s]
    traced = [s for s in samples if s["traced"] and "layers" in s]
    if not plain or not traced:
        raise RuntimeError(f"no complete untraced and traced pair: {samples[-1].get('error')}")
    values = {name: statistics.median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    plain_s = summary([s["rendered"] - s["spawned"] for s in plain])
    traced_s = summary([s["rendered"] - s["spawned"] for s in traced])
    values["trace.overhead_s"] = traced_s["median"] - plain_s["median"]
    return values, {"untraced_verdict_s": plain_s, "traced_verdict_s": traced_s}


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, cwd=ROOT, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  trials: int | None = None) -> tuple:
    """(result object, details) for one workload; `trials` overrides the run length."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    argv = splaylab_argv(name, seed, trials)
    pinned = WORKLOADS[name].digest if seed == DEFAULT_SEED and trials is None else None
    load_before = os.getloadavg()
    samples = collect(argv, seconds, trace)
    load_after = os.getloadavg()
    failed = failures(samples, pinned)
    values, details = per_layer(samples) if trace else end_to_end(samples, failed)
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    details.update(
        workload=name, argv=argv, pinned_digest=pinned or None,
        digests=sorted(Counter(s.get("sha256") for s in samples).items(), key=str),
        failures=[{k: s.get(k) for k in ("returncode", "violations", "sha256", "traced",
                                         "unrestored", "error")} for s in failed],
        env=dict(environment(), loadavg_before=load_before, loadavg_after=load_after),
    )
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "splaylab" / "__init__.py").is_file():
        print(f"run.py: no splaylab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        result, details = run_benchmark(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
