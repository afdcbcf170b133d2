"""One benchmark sample: a fresh interpreter runs one suite through the CLI path.

    PYTHONPATH=src python3 splaybench/sample.py [--trace] -- <splaylab arguments>

It goes through `build_parser`, `config_from_args`, `run_suite` and
`render_report`, as `splaylab` does, and prints one JSON line: the
`perf_counter` instants of the first trial and of the rendered report (on
Linux the clock is shared by all processes, so the parent can subtract its
spawn instant), the report's sha256, its violation count, the suite's exit
code and the peak RSS.  With `--trace` it also prints the per-layer metrics.
The process exits with the suite's exit code.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from splaylab import cli

import spans


def measure(argv, trace: bool = False) -> dict:
    """Run splaylab's CLI path on `argv` in this process."""
    args = cli.build_parser().parse_args(argv)
    config = cli.config_from_args(args)
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        first_trial = time.perf_counter()
        code, report = cli.run_suite(args.suite, config)
        text = cli.render_report(args.suite, config, report)
        rendered = time.perf_counter()
    finally:
        broken = tracer.uninstall() if tracer else []
    result = {
        "first_trial": first_trial,
        "rendered": rendered,
        "code": code,
        "violations": len(report["violations"]),
        "trials": config.trials,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["unrestored"] = broken
        result["layers"] = tracer.layer_metrics(config.trials)
    return result


def main(argv) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    if argv[:1] != ["--"]:
        print("usage: sample.py [--trace] -- <splaylab arguments>", file=sys.stderr)
        return 2
    result = measure(argv[1:], trace)
    print(json.dumps(result))
    return result["code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
