"""Behaviour lock: the rendered report of every suite at a small config.

Each digest is the sha256 of `render_report` for seed 3.  A refactor must
leave every one unchanged; a deliberate change of report bytes bumps
`schema_version` and re-pins these digests in the same change.
"""

import hashlib

import pytest

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


@pytest.mark.parametrize(
    "suite, fields, digest",
    [case[1:] for case in GOLDEN],
    ids=[case[0] for case in GOLDEN],
)
def test_report_digest(suite, fields, digest):
    config = ExperimentConfig(seed=SEED, **fields)
    _, report = run_suite(suite, config)
    text = render_report(suite, config, report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
