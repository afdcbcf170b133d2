"""Command-line harness: run a named verification suite and emit its report.

Each flag but --suite and --config sets the `ExperimentConfig` field its dest
names (`--out` sets `output_path`), over the config file's value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .generators import GENERATOR_NAMES, ExperimentConfig
from .oracle import STRATEGIES
from .suites import SUITES, render_report, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splaylab",
        description="Run a splay-tree verification suite and print its report.",
    )
    parser.add_argument("--suite", required=True, choices=sorted(SUITES),
                        help="which verification suite to run")
    parser.add_argument("--seed", type=int, default=None,
                        help="master RNG seed (default 0)")
    parser.add_argument("--n", type=int, default=None, help="key-set size bound")
    parser.add_argument("--m", type=int, default=None, help="query-sequence length bound")
    parser.add_argument("--generator", default=None, metavar="NAME",
                        help="query generator, e.g. uniform, zipf(1.1), working-set(8); "
                             f"names: {', '.join(GENERATOR_NAMES)}")
    parser.add_argument("--strategy", default=None,
                        choices=STRATEGIES,
                        help="reference-tree strategy for accounting runs")
    parser.add_argument("--trials", type=int, default=None,
                        help="number of randomized trials (suite-specific default)")
    parser.add_argument("--out", dest="output_path", default=None, metavar="PATH",
                        help="write the report here instead of stdout "
                             "(.csv selects CSV rows; theorem7 only)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file of config fields; flags override it")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    config = ExperimentConfig.from_dict(data)
    if "trials" not in data:  # the file leaves it to the suite
        config.trials = SUITES[args.suite].trials
    for field in ExperimentConfig.__slots__:  # a flag's dest is its field's name
        value = getattr(args, field)
        if value is not None:
            setattr(config, field, value)
    if config.output_path:
        out = Path(config.output_path)
        if out.is_dir():
            raise ValueError(f"--out {config.output_path}: is a directory")
        if not out.parent.is_dir():
            raise ValueError(f"--out {config.output_path}: directory {out.parent} does not exist")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        code, report = run_suite(args.suite, config)
        text = render_report(args.suite, config, report)
        if config.output_path:
            Path(config.output_path).write_text(text)
            print(f"wrote {config.output_path}")
        else:
            sys.stdout.write(text)
    except (ValueError, KeyError, OSError) as exc:
        print(f"splaylab: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
