"""Behaviour lock: the rendered report of every suite at a small config.

Each digest is the sha256 of `render_report` for seed 3.  A refactor must
leave every one unchanged; a deliberate change of report bytes bumps
`schema_version` and re-pins these digests in the same change.  The
benchmark's workloads are pinned too, by the digests `splaybench/run.py`
declares for its default seed, and a few suites again at a held-out seed, so
that a drift in tie order or summation order shows on a second seed too.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from splaylab import cli
from splaylab.generators import ExperimentConfig
from splaylab.suites import render_report, run_suite

SEED = 3

# (test id, suite, config fields besides the seed, sha256 of the report)
GOLDEN = [
    ("lemma1", "lemma1", dict(n=32, trials=50),
     "565b861271555207c73208a4a9b68eefa49c56fd210200f444de9910745fa6a2"),
    ("lemma2", "lemma2", dict(n=32, trials=50),
     "ec8e426c60d70855aa1193d515de60e975fba05f9fc31f8062f4b28ed40e53d6"),
    ("lemma3", "lemma3", dict(n=10, trials=50),
     "495c24f56ff755286f3df2d8099a57a1f27756509530904e95bc3a5a6ea4f00a"),
    ("lemma4", "lemma4", dict(n=32, trials=50),
     "9f24a8756045b4b448dbb82c425bc533485ff40629e33483fd86ba6a818e2e0a"),
    ("lemma5", "lemma5", dict(n=32, trials=20),
     "5e07089e823fde787d433685e69d6ba27a55668e9f0e8298c93006e64a20b6a7"),
    ("lemma6", "lemma6", dict(n=64, trials=60),
     "7997eff685faf738f09b8e7f49d7fa21a0bc357a1e3ecfe9fbe42b84b7027f75"),
    ("theorem7-json", "theorem7", dict(n=6, m=8, trials=10),
     "ab4e6dfe2be1c76f98c1bbb6486b3a288932134b6e63f48884220cc5799ec322"),
    ("theorem7-csv", "theorem7", dict(n=6, m=8, trials=10, output_path="runs.csv"),
     "9a5edd78bac771c655f73ad0ec3e960da2bd2c0a23bc335d3b8a42eeea8145fa"),
    ("theorem7-static", "theorem7", dict(n=6, m=8, trials=10, strategy="static"),
     "210c3cbe712c960b40075d348507df5df06546d940be86f2caf5f6d5020457a6"),
    ("conjecture-uniform", "conjecture", dict(n=32, m=128, trials=50),
     "7b663115fd95b2bd14f5694046e93bc0a3c8a56fc3a607fe69f43938ed363e68"),
    ("conjecture-zipf", "conjecture", dict(n=32, m=128, trials=50, generator="zipf(1.1)"),
     "54184c882b2b61d02356c054805352eaa5218f28a2b3d8869f4e163f10f0846b"),
    ("scan9n", "scan9n", dict(n=128, trials=1),
     "c8ca9de40b1fd6c22394180bd54e9766f24b54051da896ed22503b1d92d978d2"),
    ("oracle-crosscheck", "oracle-crosscheck", dict(trials=10),
     "4563158e675d398ceb0a493c4427efacd8b8007695cfef207ec4fb3f85213a13"),
]


HELD_OUT_SEED = 7

# The suites whose reports rest on opt_cost's witnesses, on the potential's
# float sums, on the conjecture hill-climb's checkpointed replay and on the
# random trees and programs drawn for lemmas 1-3 and 5, at the held-out seed
# (same layout as GOLDEN).
HELD_OUT = [
    ("theorem7-witness", "theorem7", dict(n=6, m=8, trials=300, strategy="oracle-witness"),
     "e25d744478b9a382064de497d6a6c758e794130cc4919b871bcd316d8731ba48"),
    ("lemma4", "lemma4", dict(n=32, trials=50),
     "f5d88e5f2ff82a78b1aa96784f1a82b764464b6cdd1501da9a44c731c97f8f6c"),
    ("lemma6", "lemma6", dict(n=64, trials=60),
     "5db66802d3dadecc86c0fed8e5073f8ab01254c94bef78f677c702d6f16fcc83"),
    ("conjecture-sequential", "conjecture",
     dict(n=32, m=100, trials=50, generator="sequential"),
     "e4633cdec8f232c121fd59855d1b8ee3ddcd8b210d5c2177ef7c2ec7f205a742"),
    ("conjecture-working-set", "conjecture",
     dict(n=32, m=100, trials=50, generator="working-set(8)"),
     "114e1b31c8372f157fd39c8ce27d2ae696d16e4eddf44f24ee31628981ebb883"),
    ("conjecture-repeated-extremes", "conjecture",
     dict(n=32, m=100, trials=50, generator="repeated-extremes"),
     "8fe9760b7ad9ae94618720c3f8e919642f1c87028ff6b2c25c72b78b3efc5c73"),
    ("lemma1", "lemma1", dict(n=32, trials=50),
     "632dc1a1a296727d6dd468f711af33acdc0c5df6b97de6d9c0ff8e828a9c2b43"),
    ("lemma2", "lemma2", dict(n=32, trials=50),
     "fedcd0cbf60301681fad17d934713cfb00aad206565e2e8588bc956d89a753e1"),
    ("lemma3", "lemma3", dict(n=10, trials=50),
     "cf29652f38df7e12a19a640099bae0f99265b620aa63a829f9e225aced17d83a"),
    ("lemma5", "lemma5", dict(n=32, trials=20),
     "d99113abd42cc01a82b1cba427c2dfbb5aa1c60d550f2059d5a16911f675c715"),
]


@pytest.mark.parametrize(
    "seed, suite, fields, digest",
    [(SEED, *case[1:]) for case in GOLDEN]
    + [(HELD_OUT_SEED, *case[1:]) for case in HELD_OUT],
    ids=[case[0] for case in GOLDEN] + [f"seed{HELD_OUT_SEED}-{case[0]}" for case in HELD_OUT],
)
def test_report_digest(seed, suite, fields, digest):
    config = ExperimentConfig(seed=seed, **fields)
    _, report = run_suite(suite, config)
    text = render_report(suite, config, report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def load_bench_run():
    """splaybench/run.py, loaded under its own module name."""
    path = Path(__file__).resolve().parent.parent / "splaybench" / "run.py"
    spec = importlib.util.spec_from_file_location("splaybench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


BENCH = load_bench_run()


@pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
def test_benchmark_workload_digest(workload):
    # The path a benchmark sample takes: parse the arguments, build the
    # config, run the suite and render its report.
    args = cli.build_parser().parse_args(BENCH.splaylab_argv(workload, BENCH.DEFAULT_SEED))
    config = cli.config_from_args(args)
    _, report = cli.run_suite(args.suite, config)
    text = cli.render_report(args.suite, config, report)
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH.WORKLOADS[workload].digest
