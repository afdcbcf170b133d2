import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splaylab import cli, lab, suites
from splaylab.cli import main
from splaylab.generators import ExperimentConfig, generate_sequence, parse_generator, rng_for_trial
from splaylab.suites import rows_to_csv, run_suite


# Suite arguments the CLI must reject, and the start of its message.
BAD_INPUTS = [
    (["lemma1", "--trials", "-5"], "--trials must be at least 1"),
    (["lemma1", "--trials", "0"], "--trials must be at least 1"),
    (["lemma3", "--n", "1"], "--n must be at least 2"),
    (["lemma4", "--n", "1"], "--n must be at least 2"),
    (["theorem7", "--n", "1"], "--n must be at least 2"),
    (["theorem7", "--m", "0"], "--m must be at least 1"),
    (["lemma5", "--n", "2"], "--n must be at least 3"),
    (["conjecture", "--n", "0"], "--n must be at least 1"),
    (["conjecture", "--m", "-1"], "--m must be at least 0"),
    (["lemma6", "--n", "0"], "--n must be at least 1"),
    (["scan9n", "--n", "0"], "--n must be at least 1"),
    (["scan9n", "--n", "8", "--trials", "5"], "--trials must be at most 1"),
    (["conjecture", "--generator", "zipf(-5000)"],
     "--generator 'zipf(-5000)': zipf takes a finite exponent of at least 0"),
    (["conjecture", "--generator", "zipf(inf)"],
     "--generator 'zipf(inf)': zipf takes a finite exponent of at least 0"),
    (["conjecture", "--generator", "zipf(nan)"],
     "--generator 'zipf(nan)': zipf takes a finite exponent of at least 0"),
    (["conjecture", "--generator", "zipf(abc)"],
     "--generator 'zipf(abc)': zipf takes a finite exponent of at least 0"),
    (["conjecture", "--generator", "zipf()"],
     "--generator 'zipf()': zipf takes a finite exponent of at least 0"),
    (["conjecture", "--generator", "working-set(inf)"],
     "--generator 'working-set(inf)': working-set takes a positive integer size"),
    (["conjecture", "--generator", "working-set(2.5)"],
     "--generator 'working-set(2.5)': working-set takes a positive integer size"),
    (["conjecture", "--generator", "working-set(0)"],
     "--generator 'working-set(0)': working-set takes a positive integer size"),
    (["conjecture", "--n", "8", "--generator", "working-set(100)"],
     "--generator 'working-set(100)': working-set size 100 exceeds --n 8"),
    (["conjecture", "--generator", "uniform(3)"], "--generator 'uniform(3)': uniform takes no argument"),
    (["conjecture", "--generator", "sequential(1)"],
     "--generator 'sequential(1)': sequential takes no argument"),
    (["conjecture", "--generator", "repeated-extremes(2)"],
     "--generator 'repeated-extremes(2)': repeated-extremes takes no argument"),
]

# Config-file contents the CLI must reject, and the start of its message; a
# string is the file's text, anything else is written as JSON.
BAD_CONFIGS = [
    ({"n": "64"}, "config key 'n' must be an int"),
    ({"trials": 2.5}, "config key 'trials' must be an int"),
    ({"trials": True}, "config key 'trials' must be an int"),
    ({"seed": None}, "config key 'seed' must be an int"),
    ({"m": [1]}, "config key 'm' must be an int"),
    ({"generator": 5}, "config key 'generator' must be a string"),
    ({"strategy": None}, "config key 'strategy' must be a string"),
    ({"output_path": 3}, "config key 'output_path' must be a string or null"),
    ({"strategy": "bogus"}, "unknown strategy 'bogus'"),
    ([1], "config file must hold a JSON object"),
    ("{", "Expecting property name"),  # a file cut off after its first byte
]


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestGenerators:
    def test_parse_generator(self):
        assert parse_generator("uniform") == ("uniform", None)
        assert parse_generator("zipf(1.1)") == ("zipf", 1.1)
        assert parse_generator("working-set(8)") == ("working-set", 8.0)
        with pytest.raises(ValueError):
            parse_generator("nope(3)")

    def test_sequences_deterministic(self):
        a = generate_sequence("zipf(1.2)", 32, 100, rng_for_trial(5, 0))
        b = generate_sequence("zipf(1.2)", 32, 100, rng_for_trial(5, 0))
        assert a == b
        assert all(0 <= q < 32 for q in a)

    def test_sequential_and_extremes(self):
        assert generate_sequence("sequential", 3, 5, rng_for_trial(0, 0)) == [0, 1, 2, 0, 1]
        assert generate_sequence("repeated-extremes", 4, 4, rng_for_trial(0, 0)) == [0, 3, 0, 3]

    def test_steep_zipf_concentrates_on_key_zero(self):
        # 64 ** 400 overflows a float; that key's weight is 0, not an error.
        assert generate_sequence("zipf(400)", 64, 50, rng_for_trial(0, 0)) == [0] * 50


class TestCli:
    def test_scan_suite_exit_zero(self, capsys):
        code, out = run_cli(capsys, "--suite", "scan9n", "--n", "128")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["schema_version"] == 1

    def test_module_entry_point(self, capsys):
        # `python -m splaylab` runs the same harness as the `splaylab` script.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        args = ["--suite", "scan9n", "--n", "16"]
        proc = subprocess.run([sys.executable, "-m", "splaylab", *args],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        _, out = run_cli(capsys, *args)
        assert proc.stdout == out
        assert json.loads(out)["passed"]

    def test_reports_byte_identical(self, capsys):
        args = ["--suite", "lemma1", "--seed", "7", "--trials", "25"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_conjecture_reports_ratio(self, capsys):
        code, out = run_cli(capsys, "--suite", "conjecture", "--trials", "20",
                            "--n", "16", "--m", "64")
        assert code == 0
        report = json.loads(out)
        assert "max_ratio" in report and report["base_cost"] > 0

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--suite", "bogus"])

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "theorem7", "--strategy", "static-optimal"])
        assert exc.value.code == 2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "n": 20, "trials": 10}))
        code, out = run_cli(capsys, "--suite", "lemma2", "--config", str(cfg))
        report = json.loads(out)
        assert code == 0 and report["seed"] == 3 and report["trials"] == 10

    @pytest.mark.parametrize("fields, message", BAD_CONFIGS,
                             ids=[json.dumps(fields) for fields, _ in BAD_CONFIGS])
    def test_bad_config_file_is_error_exit(self, tmp_path, capsys, fields, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(fields if isinstance(fields, str) else json.dumps(fields))
        code = main(["--suite", "lemma1", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"splaylab: error: {message}")

    def test_flag_dests_are_the_config_fields(self):
        args = cli.build_parser().parse_args(["--suite", "lemma1"])
        fields = tuple(dest for dest in vars(args) if dest not in ("suite", "config"))
        assert fields == ExperimentConfig.__slots__

    def test_every_flag_overrides_the_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "n": 10, "m": 20, "generator": "uniform",
                                   "strategy": "static", "trials": 2,
                                   "output_path": str(tmp_path / "file.json")}))
        flags = {"seed": 5, "n": 12, "m": 30, "generator": "zipf(1.5)",
                 "strategy": "oracle-witness", "trials": 4,
                 "output_path": str(tmp_path / "flag.json")}
        argv = ["--suite", "theorem7", "--config", str(cfg), "--seed", "5", "--n", "12",
                "--m", "30", "--generator", "zipf(1.5)", "--strategy", "oracle-witness",
                "--trials", "4", "--out", flags["output_path"]]
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        assert {field: getattr(config, field) for field in ExperimentConfig.__slots__} == flags

    def test_scan9n_config_trials_is_error_exit(self, tmp_path, capsys):
        # scan9n makes one pass, so a config file's trials other than 1 is refused too.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "trials": 5}))
        code = main(["--suite", "scan9n", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("splaylab: error: --trials must be at most 1 for suite scan9n")

    def test_config_file_single_trial_honoured(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "n": 8}))
        code, out = run_cli(capsys, "--suite", "lemma3", "--config", str(cfg))
        report = json.loads(out)
        assert code == 0 and report["trials"] == 1 and report["checked"] == 3

    def test_out_into_missing_directory_is_error_exit(self, tmp_path, capsys, monkeypatch):
        def must_not_run(name, config):
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setattr(cli, "run_suite", must_not_run)
        # A file in a missing directory, and a path that is an existing directory.
        for out_path in (tmp_path / "missing" / "r.json", tmp_path):
            code = main(["--suite", "scan9n", "--n", "8", "--out", str(out_path)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("splaylab: error: ")
            assert str(out_path) in captured.err
            assert not out_path.is_file()

    def test_csv_out_for_a_json_suite_is_error_exit(self, tmp_path, capsys):
        # Only theorem7 renders CSV; lemma1 would write JSON into the .csv file.
        out_path = tmp_path / "x.csv"
        code = main(["--suite", "lemma1", "--trials", "1", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"splaylab: error: --out {out_path}: only suite theorem7")
        assert not out_path.exists()

    def test_theorem7_violation_reaches_report(self, monkeypatch, capsys):
        def failing(ev, report):
            report.tick()
            report.fail(f"forced failure at {ev.key}")
            return report

        monkeypatch.setattr(lab, "check_rotation_delta", failing)
        code, out = run_cli(capsys, "--suite", "theorem7", "--trials", "3")
        report = json.loads(out)
        assert code == 1 and report["passed"] is False
        assert report["checked"] == 15
        assert report["violations"]
        assert all(v.startswith("trial ") and ": forced failure at " in v
                   for v in report["violations"])

    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "runs.csv"
        code, _ = run_cli(capsys, "--suite", "theorem7", "--trials", "3",
                          "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ("seed,n,m,M,R,M_prime,R_prime,e,"
                            "total_S_cost,phi_final,max_ratio")
        assert len(lines) == 4

    def test_bad_generator_is_error_exit(self, capsys):
        code = main(["--suite", "lemma1", "--generator", "bogus", "--trials", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("splaylab: error: --generator 'bogus': unknown name")

    @pytest.mark.parametrize("args, message", BAD_INPUTS,
                             ids=[" ".join(args) for args, _ in BAD_INPUTS])
    def test_bad_input_is_error_exit(self, capsys, args, message):
        code = main(["--suite", *args])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"splaylab: error: {message}")


def with_runner(name, runner):
    """A stand-in for suite `name`: its ranges and trial counts, `runner` as
    its runner."""
    suite = suites.SUITES[name]
    return suites.Suite(runner, suite.trials, suite.max_trials,
                        suite.min_n, suite.max_n, suite.min_m)


class TestSuiteApi:
    def test_run_suite_unknown(self):
        with pytest.raises(ValueError):
            run_suite("bogus", ExperimentConfig())

    def test_nothing_checked_is_not_a_pass(self, monkeypatch):
        idle = with_runner("lemma1", lambda suite, config, report: {})
        monkeypatch.setitem(suites.SUITES, "lemma1", idle)
        code, report = run_suite("lemma1", ExperimentConfig(trials=3))
        assert report["checked"] == 0 and report["passed"] is False and code == 1

    @pytest.mark.parametrize("name, fields, flag", [
        ("scan9n", dict(n=8, trials=5), "--trials"),
        ("lemma1", dict(trials=0), "--trials"),
        ("lemma3", dict(n=1), "--n"),
        ("theorem7", dict(m=0), "--m"),
        ("lemma1", dict(generator="bogus"), "--generator"),
        ("theorem7", dict(strategy="bogus"), "--strategy"),
        ("lemma1", dict(output_path="x.csv"), "--out"),
    ], ids=["scan9n-trials", "lemma1-trials", "lemma3-n", "theorem7-m", "generator", "strategy",
            "csv-out"])
    def test_refused_before_any_trial(self, monkeypatch, name, fields, flag):
        def must_not_run(suite, config, report):
            raise AssertionError("a trial ran on a refused config")

        refused = with_runner(name, must_not_run)
        monkeypatch.setitem(suites.SUITES, name, refused)
        with pytest.raises(ValueError, match=flag):
            run_suite(name, ExperimentConfig(**fields))

    def test_rows_to_csv_round_trip(self):
        rows = [{
            "seed": 1, "n": 3, "m": 2, "M": 4, "R": 1, "M_prime": 19,
            "R_prime": 9, "e": 20, "total_S_cost": 7, "phi_final": 0.5,
            "max_ratio": 0.9,
        }]
        text = rows_to_csv(rows)
        assert "1,3,2,4,1,19,9,20,7,0.5,0.9" in text
        # The header is the first row's keys, in the row's order.
        assert text.splitlines()[0] == ",".join(rows[0])
