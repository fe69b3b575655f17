import json

import numpy as np
import pytest

from pogame import bounds, cli, quantum_opt
from pogame import report as report_mod
from pogame.report import CertificationReport, Check


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def no_pipeline(monkeypatch):
    """Fail the test if the report or see-saw pipeline starts."""

    def fail(*args, **kwargs):
        raise AssertionError("the pipeline ran before the usage error was found")

    monkeypatch.setattr(report_mod, "build_report", fail)
    monkeypatch.setattr(report_mod, "optimization_section", fail)


def split_payload(text):
    json_lines, check_lines = [], []
    for line in text.splitlines():
        (check_lines if line.startswith("[") else json_lines).append(line)
    payload = json.loads("\n".join(json_lines)) if any(json_lines) else None
    return payload, check_lines


def test_bounds_command(capsys):
    code, out, _ = run_cli(["bounds", "--n", "3"], capsys)
    payload, checks = split_payload(out)
    assert code == 0
    assert payload["bounds"]["local_bound"] == 5
    assert payload["bounds"]["pnc_bound"] == 4
    assert payload["bounds"]["local_witness"]["a"] == [-1, -1, 1]
    assert all(line.startswith("[PASS]") for line in checks)


def test_even_n_is_usage_error(capsys):
    code, _, err = run_cli(["bounds", "--n", "4"], capsys)
    assert code == 2
    assert "odd" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(["bounds", "--n", "3", "--bogus"], capsys)
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 2


def test_out_of_range_n_fails_cleanly(capsys):
    for n in ("1", "-3", "16"):
        code, out, err = run_cli(["bounds", "--n", n], capsys)
        assert code == 2
        assert f"n must be odd and >= 3, got {n}" in err
        assert out == ""


def test_n_above_the_ceiling_is_usage_error(capsys):
    assert cli._odd_n(str(cli.MAX_N)) == cli.MAX_N == 1001
    code, out, err = run_cli(["bounds", "--n", "1003"], capsys)
    assert code == 2
    assert "n must be at most 1001, got 1003" in err
    assert out == ""


@pytest.mark.parametrize("perturb", ["nan", "inf", "1e300"])
def test_non_finite_or_huge_perturbation_is_usage_error(perturb, capsys):
    code, out, err = run_cli(["selftest", "--n", "3", "--perturb", perturb], capsys)
    assert code == 2
    assert "perturb" in err
    assert out == ""


def test_bounds_command_beyond_thirteen(capsys):
    code, out, _ = run_cli(["bounds", "--n", "15"], capsys)
    payload, checks = split_payload(out)
    section = payload["bounds"]
    assert code == 0
    assert section["local_bound"] == bounds.local_bound_closed_form(15)
    assert section["pnc_bound"] == section["pnc_bound_symmetric"] == 2 * 15 - 2
    assert len(checks) == 5 and all(line.startswith("[PASS]") for line in checks)


@pytest.mark.parametrize("n", [15, 21])
def test_report_beyond_thirteen(n, capsys):
    code, out, err = run_cli(["report", "--n", str(n), "--seed", "3"], capsys)
    report = CertificationReport.from_json(out)
    detail = report.optimization["bounds_detail"]
    assert code == 0
    assert report.local_bound == bounds.local_bound_closed_form(n)
    assert report.pnc_bound == detail["pnc_bound_symmetric"] == 2 * n - 2
    checks = err.splitlines()
    assert checks and all(line.startswith("[PASS]") for line in checks)


def test_optimize_command(capsys):
    code, out, _ = run_cli(["optimize", "--n", "3", "--seed", "5", "--restarts", "4"], capsys)
    payload, checks = split_payload(out)
    assert code == 0
    assert abs(payload["optimization"]["value"] - 6.0) <= 1e-6
    assert payload["provenance"]["seed"] == 5
    assert len(payload["optimization"]["restart_values"]) == 4
    assert all(line.startswith("[PASS]") for line in checks)


def test_selftest_command(capsys):
    code, out, _ = run_cli(["selftest", "--n", "3"], capsys)
    payload, _ = split_payload(out)
    assert code == 0
    assert payload["selftest"]["state_fidelity"] >= 1 - 1e-10


def test_selftest_perturbed_fails_certification(capsys):
    for n in ("3", "5"):
        code, out, _ = run_cli(["selftest", "--n", n, "--perturb", "0.05"], capsys)
        payload, checks = split_payload(out)
        section = payload["selftest"]
        assert code == 1
        assert section["residual_max"] > 1e-3
        # Each FAIL line names the failing value, the relation and the threshold.
        assert checks == [
            f"[FAIL] optimum relations hold  ({section['residual_max']} <= 1e-09)",
            f"[FAIL] state extraction is exact  ({section['state_fidelity']} >= 0.9999999999)",
            f"[FAIL] measurement extractions are exact  ({section['extraction_entry_error_max']} <= 1e-09)",
        ]


@pytest.mark.parametrize(
    "relation, below, at, above",
    [("<", True, False, False), ("<=", True, True, False), (">=", False, True, True), ("==", False, True, False)],
)
def test_check_relation_on_both_sides_of_its_bound(relation, below, at, above):
    assert Check("c", 0.5, relation, 1.0).passed is below
    assert Check("c", 1.0, relation, 1.0).passed is at
    assert Check("c", 1.5, relation, 1.0).passed is above
    assert Check("c", float("nan"), relation, 1.0).passed is False


def test_emit_checks_prints_value_relation_and_bound_on_fail(capsys):
    checks = [Check("gap closes", 2e-12, "<=", 1e-9), Check("extremal", False, "==", True), Check("x", 3, "<", 3)]
    assert cli._emit_checks(checks) is False
    assert capsys.readouterr().out == "[PASS] gap closes\n[FAIL] extremal  (False == True)\n[FAIL] x  (3 < 3)\n"
    assert cli._emit_checks(checks[:1], to_stderr=True) is True
    assert capsys.readouterr() == ("", "[PASS] gap closes\n")


def test_certify_three_and_five(capsys):
    code3, out3, _ = run_cli(["certify", "--n", "3"], capsys)
    payload3, _ = split_payload(out3)
    assert code3 == 0
    assert payload3["randomness"]["certified"] is True

    code5, out5, _ = run_cli(["certify", "--n", "5"], capsys)
    payload5, _ = split_payload(out5)
    assert code5 == 0
    assert payload5["povm"]["extremal"] is False
    assert payload5["randomness"]["certified"] is False


def test_certify_rejects_nonpositive_alpha(capsys):
    code, _, _ = run_cli(["certify", "--n", "3", "--alpha", "0"], capsys)
    assert code == 2


def test_report_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(
        ["report", "--n", "3", "--format", "json", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert all(line.startswith("[PASS]") for line in err.splitlines() if line)
    text = out_file.read_text()
    report = CertificationReport.from_json(text)
    assert report.to_dict() == json.loads(text)
    assert report.n == 3
    assert report.local_bound == 5
    assert report.pnc_bound == 4
    assert abs(report.quantum_value - 6.0) <= 1e-6
    assert abs(report.randomness["min_entropy_bits"] - np.log2(3)) <= 1e-9


def test_report_deterministic_except_timestamp(tmp_path, capsys):
    files = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run_cli(
            ["report", "--n", "3", "--format", "json", "--out", str(path)], capsys
        )
        assert code == 0
        files.append(path.read_text())
    docs = [json.loads(t) for t in files]
    stamps = [d["provenance"].pop("timestamp") for d in docs]
    assert docs[0] == docs[1]
    # Byte-identical after blanking the timestamp lines.
    blanked = [t.replace(s, "T") for t, s in zip(files, stamps)]
    assert blanked[0] == blanked[1]


def test_report_csv_and_text_formats(tmp_path, capsys):
    csv_file = tmp_path / "report.csv"
    code, _, _ = run_cli(["report", "--n", "3", "--format", "csv", "--out", str(csv_file)], capsys)
    assert code == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "local_bound" in keys
    assert "randomness.min_entropy_bits" in keys

    code, out, _ = run_cli(["report", "--n", "3", "--format", "text"], capsys)
    assert code == 0
    assert "randomness.certified" in out


def test_report_depends_only_on_seed(tmp_path, capsys):
    paths = [tmp_path / "s1.json", tmp_path / "s2.json"]
    for path, seed in zip(paths, ("9", "10")):
        run_cli(["report", "--n", "3", "--seed", seed, "--out", str(path)], capsys)
    d1, d2 = (json.loads(p.read_text()) for p in paths)
    assert d1["provenance"]["seed"] == 9
    assert d2["provenance"]["seed"] == 10
    assert d1["optimization"]["restart_values"] != d2["optimization"]["restart_values"]


def test_unwritable_out_path_is_usage_error(tmp_path, capsys, no_pipeline):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["report", "--n", "3", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write the report to {path}: No such file or directory\n"
    code, out, err = run_cli(["report", "--n", "3", "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", f"error: cannot write the report to {tmp_path}: Is a directory\n")


def test_failed_report_leaves_out_path_as_it_was(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("stage failed")

    monkeypatch.setattr(report_mod, "build_report", fail)
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report")
    for path in (kept, fresh):
        code, out, err = run_cli(["report", "--n", "3", "--out", str(path)], capsys)
        assert (code, out, err) == (2, "", "error: stage failed\n")
    assert kept.read_text() == "earlier report"
    assert not fresh.exists()


@pytest.mark.parametrize("command", ["optimize", "report"])
@pytest.mark.parametrize("restarts", ["0", "-1", "abc", str(cli.MAX_RESTARTS + 1)])
def test_invalid_restarts_is_usage_error(command, restarts, capsys):
    code, out, err = run_cli([command, "--n", "3", "--restarts", restarts], capsys)
    assert code == 2
    assert f"restarts must be an integer from 1 to {cli.MAX_RESTARTS}, got {restarts}" in err
    assert out == ""


def test_restarts_range_ends_at_the_ceiling():
    assert cli._restarts("1") == 1
    assert cli._restarts(str(cli.MAX_RESTARTS)) == cli.MAX_RESTARTS >= quantum_opt.RESTARTS


def test_env_variable_overrides_default_seed(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "123")
    code, out, _ = run_cli(["optimize", "--n", "3"], capsys)
    payload, _ = split_payload(out)
    assert code == 0
    assert payload["provenance"]["seed"] == 123


def test_explicit_seed_beats_env_variable(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "123")
    code, out, _ = run_cli(["optimize", "--n", "3", "--seed", "4"], capsys)
    payload, _ = split_payload(out)
    assert code == 0
    assert payload["provenance"]["seed"] == 4


@pytest.mark.parametrize("command", ["optimize", "report"])
def test_negative_tolerance_is_usage_error(command, capsys, no_pipeline):
    code, _, err = run_cli([command, "--n", "3", "--tol", "-1"], capsys)
    assert code == 2
    assert "tol must be >= 0" in err


@pytest.mark.parametrize("command", ["optimize", "report"])
def test_infinite_tolerance_is_usage_error(command, capsys, no_pipeline):
    code, _, err = run_cli([command, "--n", "3", "--tol", "inf"], capsys)
    assert code == 2
    assert "tol must be finite and >= 0, got inf" in err


@pytest.mark.parametrize("command", ["optimize", "report"])
@pytest.mark.parametrize(
    "tol, message",
    [("nan", "tol must be >= 0, got nan"), ("abc", "tol must be a number, got 'abc'")],
    ids=["nan", "abc"],
)
def test_invalid_tolerance_is_rejected_at_parse_time(command, tol, message, capsys, no_pipeline):
    code, out, err = run_cli([command, "--n", "1001", "--tol", tol], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --tol: {message}\n")


@pytest.mark.parametrize("command", ["optimize", "report"])
@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
def test_invalid_seed_is_usage_error(command, seed, capsys):
    code, out, err = run_cli([command, "--n", "3", "--seed", seed], capsys)
    assert code == 2
    assert f"seed must be a non-negative integer, got {seed}" in err
    assert out == ""


def test_non_integer_env_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "abc")
    code, _, err = run_cli(["optimize", "--n", "3"], capsys)
    assert code == 2
    assert "POGAME_SEED must be an integer, got 'abc'" in err


@pytest.mark.parametrize("command", ["optimize", "report"])
def test_negative_env_seed_is_usage_error(command, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "-1")
    code, out, err = run_cli([command, "--n", "3"], capsys)
    assert code == 2
    assert err == "error: POGAME_SEED must be a non-negative integer, got -1\n"
    assert out == ""


def test_one_process_runs_commands_in_sequence(capsys):
    # The parser is built once per process; each run must still act as if it were alone.
    runs = [["bounds", "--n", "5"], ["bounds", "--n", "4"], ["report", "--n", "3", "--format", "csv"]]

    def run_alone_or_not(argv, alone):
        if alone:
            cli._build_parser.cache_clear()
        code, out, err = run_cli(argv, capsys)
        return code, [line for line in out.splitlines() if not line.startswith("provenance.timestamp,")], err

    in_sequence = [run_alone_or_not(argv, alone=False) for argv in runs]
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in in_sequence] == [0, 2, 0]
    assert in_sequence == [run_alone_or_not(argv, alone=True) for argv in runs]


@pytest.mark.parametrize("command", ["certify", "report"])
@pytest.mark.parametrize("alpha", ["0", "-1", "inf", "nan"])
def test_nonpositive_alpha_is_usage_error(command, alpha, capsys):
    code, _, err = run_cli([command, "--n", "3", "--alpha", alpha], capsys)
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("n", ["3", "5"])
@pytest.mark.parametrize("alpha", ["1", "1e9", "1e20"])
def test_large_alpha_keeps_a_valid_optimum(n, alpha, capsys):
    # The flagged probabilities are roundoff at the optimum; alpha times them is not.
    code, out, _ = run_cli(["certify", "--n", n, "--alpha", alpha], capsys)
    assert code == 0
    assert "[PASS] shifted value matches the plain value" in out


@pytest.mark.parametrize("total, alpha, passed", [(2e-9, "1e-3", False), (5e-10, "1e20", True)])
def test_shifted_value_check_reads_the_penalty_total(total, alpha, passed, monkeypatch, capsys):
    from pogame import certify

    monkeypatch.setattr(certify, "penalty_probabilities", lambda setup, povm: np.array([total, 0.0, 0.0]))
    code, out, _ = run_cli(["certify", "--n", "3", "--alpha", alpha], capsys)
    payload, checks = split_payload(out)
    assert payload["povm"]["penalty_total"] == total
    assert code == (0 if passed else 1)
    mark = "[PASS]" if passed else "[FAIL]"
    assert any(line.startswith(f"{mark} shifted value matches the plain value") for line in checks)
