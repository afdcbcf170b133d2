import json

import pytest

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


class TestCli:
    def test_scan_suite_exit_zero(self, capsys):
        code, out = run_cli(capsys, "--suite", "scan9n", "--n", "128")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["schema_version"] == 1

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

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "n": 20, "trials": 10}))
        code, out = run_cli(capsys, "--suite", "lemma2", "--config", str(cfg))
        report = json.loads(out)
        assert code == 0 and report["seed"] == 3 and report["trials"] == 10

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

    @pytest.mark.parametrize("args, message", BAD_INPUTS,
                             ids=[" ".join(args) for args, _ in BAD_INPUTS])
    def test_bad_input_is_error_exit(self, capsys, args, message):
        code = main(["--suite", *args])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"splaylab: error: {message}")


class TestSuiteApi:
    def test_run_suite_unknown(self):
        with pytest.raises(ValueError):
            run_suite("bogus", ExperimentConfig())

    def test_nothing_checked_is_not_a_pass(self):
        code, report = run_suite("lemma1", ExperimentConfig(trials=0))
        assert report["checked"] == 0 and not report["passed"] and code == 1

    def test_rows_to_csv_round_trip(self):
        rows = [{
            "seed": 1, "n": 3, "m": 2, "M": 4, "R": 1, "M_prime": 19,
            "R_prime": 9, "e": 20, "total_S_cost": 7, "phi_final": 0.5,
            "max_ratio": 0.9,
        }]
        text = rows_to_csv(rows)
        assert "1,3,2,4,1,19,9,20,7,0.5,0.9" in text
