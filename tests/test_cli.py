import dataclasses
import json
import re

import numpy as np
import pytest

from pogame import bounds, cli, quantum_opt
from pogame import report as report_mod
from pogame.certify import ALPHA
from pogame.observables import canonical_family
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


def test_bounds_command(capsys):
    code, out, err = run_cli(["bounds", "--n", "3"], capsys)
    payload, checks = json.loads(out), err.splitlines()
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
    code, out, err = run_cli(["bounds", "--n", "15"], capsys)
    payload, checks = json.loads(out), err.splitlines()
    section = payload["bounds"]
    assert code == 0
    assert section["local_bound"] == bounds.local_bound_closed_form(15)
    assert section["pnc_bound"] == section["pnc_bound_symmetric"] == 2 * 15 - 2
    assert len(checks) == 5 and all(line.startswith("[PASS]") for line in checks)


@pytest.mark.parametrize("n", [15, 21])
def test_report_beyond_thirteen(n, capsys):
    code, out, err = run_cli(["report", "--n", str(n), "--seed", "3"], capsys)
    report = CertificationReport.from_json(out)
    assert code == 0
    assert report.local_bound == bounds.local_bound_closed_form(n)
    assert report.pnc_bound == report.bounds["pnc_bound_symmetric"] == 2 * n - 2
    assert report.selftest is None  # the report self-tests only at n = 3 and 5
    checks = err.splitlines()
    assert checks and all(line.startswith("[PASS]") for line in checks)


def test_optimize_command(capsys):
    code, out, err = run_cli(["optimize", "--n", "3", "--seed", "5", "--restarts", "4"], capsys)
    payload, checks = json.loads(out), err.splitlines()
    assert code == 0
    assert abs(payload["optimization"]["value"] - 6.0) <= 1e-6
    assert payload["provenance"]["seed"] == 5
    assert len(payload["optimization"]["restart_values"]) == 4
    assert all(line.startswith("[PASS]") for line in checks)


def test_optimize_and_report_check_the_found_setup_at_n3(capsys):
    wanted = ["[PASS] see-saw restarts converged", "[PASS] found setup is parity oblivious"]
    code, _, err = run_cli(["optimize", "--n", "3"], capsys)
    assert code == 0
    assert all(line in err.splitlines() for line in wanted)
    code, _, err = run_cli(["report", "--n", "3"], capsys)
    assert code == 0
    assert all(line in err.splitlines() for line in wanted)


def test_selftest_command(capsys):
    code, out, _ = run_cli(["selftest", "--n", "3"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["selftest"]["state_fidelity"] >= 1 - 1e-10


@pytest.mark.parametrize("n", [7, 21, 101])
def test_selftest_command_for_any_odd_n(n, capsys):
    code, out, err = run_cli(["selftest", "--n", str(n)], capsys)
    payload, checks = json.loads(out), err.splitlines()
    assert code == 0
    assert payload["n"] == n
    assert set(payload["selftest"]["extraction_entry_errors"]) == {"ZA", "XA", "YA", "ZB", "XB", "YB"}
    assert checks == [
        "[PASS] optimum relations hold",
        "[PASS] state extraction is exact",
        "[PASS] measurement extractions are exact",
        "[PASS] observables lie in the swap frame",
        "[PASS] self-tested Gram matches the correlators",
    ]
    code, out, err = run_cli(["selftest", "--n", str(n), "--perturb", "0.05"], capsys)
    payload, checks = json.loads(out), err.splitlines()
    assert code == 1
    assert payload["selftest"]["perturbation"] == 0.05
    assert [line.split("  (")[0] for line in checks] == [
        "[FAIL] optimum relations hold",
        "[FAIL] state extraction is exact",
        "[FAIL] measurement extractions are exact",
        "[PASS] observables lie in the swap frame",
        "[FAIL] self-tested Gram matches the correlators",
    ]


@pytest.mark.parametrize(
    "n, message", [("4", "n must be odd and >= 3, got 4"), ("1003", "n must be at most 1001, got 1003")]
)
def test_selftest_rejects_n_as_every_command_does(n, message, capsys):
    code, out, err = run_cli(["selftest", "--n", n], capsys)
    assert code == 2
    assert f"argument --n: {message}" in err
    assert out == ""


def test_selftest_perturbed_fails_certification(capsys):
    for n in ("3", "5"):
        code, out, err = run_cli(["selftest", "--n", n, "--perturb", "0.05"], capsys)
        payload, checks = json.loads(out), err.splitlines()
        section = payload["selftest"]
        assert code == 1
        assert section["residual_max"] > 1e-3
        # Each FAIL line names the failing value, the relation and the threshold.
        assert checks == [
            f"[FAIL] optimum relations hold  ({section['residual_max']} <= 1e-09)",
            f"[FAIL] state extraction is exact  ({section['state_fidelity']} >= 0.9999999999)",
            f"[FAIL] measurement extractions are exact  ({section['extraction_entry_error_max']} <= 1e-09)",
            "[PASS] observables lie in the swap frame",
            f"[FAIL] self-tested Gram matches the correlators  ({section['gram_deviation']} <= 1e-09)",
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
    assert capsys.readouterr() == ("", "[PASS] gap closes\n[FAIL] extremal  (False == True)\n[FAIL] x  (3 < 3)\n")
    assert cli._emit_checks(checks[:1]) is True
    assert capsys.readouterr() == ("", "[PASS] gap closes\n")


def test_certify_three_and_five(capsys):
    code3, out3, _ = run_cli(["certify", "--n", "3"], capsys)
    payload3 = json.loads(out3)
    assert code3 == 0
    assert payload3["randomness"]["certified"] is True

    code5, out5, _ = run_cli(["certify", "--n", "5"], capsys)
    payload5 = json.loads(out5)
    assert code5 == 0
    assert payload5["povm"]["extremal"] is False
    assert payload5["randomness"]["certified"] is False


def test_certify_rejects_nonpositive_alpha(capsys):
    code, _, _ = run_cli(["certify", "--n", "3", "--alpha", "0"], capsys)
    assert code == 2


def check_lines(checks):
    """What ``cli._emit_checks`` prints for checks that all pass."""
    assert all(c.passed for c in checks)
    return [f"[PASS] {c.name}" for c in checks]


def expected_checks(command, n):
    if command == "bounds":
        return check_lines(report_mod.bounds_section(n)[1])
    if command == "optimize":
        section = report_mod.optimization_section(n, quantum_opt.SEED, quantum_opt.RESTARTS, quantum_opt.TOL)
        return check_lines(section[1])
    if command == "selftest":
        return check_lines(report_mod.selftest_section(canonical_family(n))[1])
    if command == "certify":
        return check_lines(report_mod.certify_section(canonical_family(n), ALPHA)[2])
    return check_lines(report_mod.build_report(n)[1])


REPORT_FIELDS = [f.name for f in dataclasses.fields(CertificationReport)]


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize(
    "argv",
    [["bounds"], ["optimize"], ["selftest"], ["certify"], *(["report", "--format", f] for f in ("json", "csv", "text"))],
    ids=["bounds", "optimize", "selftest", "certify", "report-json", "report-csv", "report-text"],
)
def test_each_command_prints_one_document_and_its_checks_on_stderr(argv, n, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    code, out, err = run_cli([*argv, "--n", str(n)], capsys)
    assert code == 0
    assert not [line for line in out.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]
    assert err.splitlines() == expected_checks(argv[0], n)
    if argv[-1] in ("csv", "text"):
        return
    doc = json.loads(out)
    # Each section sits under the report's name for it.
    assert doc["n"] == n
    assert set(doc) <= set(REPORT_FIELDS)


@pytest.mark.parametrize("n", ["3", "5"])
def test_commands_print_the_report_sections_unchanged(n, capsys):
    report = CertificationReport.from_json(run_cli(["report", "--n", n, "--seed", "7"], capsys)[1])
    bounds_doc = json.loads(run_cli(["bounds", "--n", n], capsys)[1])
    optimize_doc = json.loads(run_cli(["optimize", "--n", n, "--seed", "7"], capsys)[1])
    assert bounds_doc == {"n": int(n), "bounds": report.bounds}
    assert optimize_doc["optimization"] == report.optimization
    assert optimize_doc["sos"] == report.sos


@pytest.fixture(scope="module")
def report_doc():
    report, _ = report_mod.build_report(3, seed=7)
    return report.to_dict()


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "report is missing field 'n'"),
        ("[]", "a report must be an object, got list"),
        ("1", "a report must be an object, got int"),
        ("null", "a report must be an object, got NoneType"),
        ('{"sos": {"gap": NaN}}', "a report must not contain NaN"),
        ('{"n": 3, "quantum_value": Infinity}', "a report must not contain Infinity"),
        ("[-Infinity]", "a report must not contain -Infinity"),
    ],
)
def test_report_parser_rejects_a_document_that_is_not_a_report(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CertificationReport.from_json(text)


@pytest.mark.parametrize("field", REPORT_FIELDS)
def test_report_parser_names_a_missing_field(field, report_doc):
    doc = {key: value for key, value in report_doc.items() if key != field}
    with pytest.raises(ValueError, match=f"^report is missing field '{field}'$"):
        CertificationReport.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"extra": 1}, "report has unknown field 'extra'"),
        ({"pnc_bound": "x"}, "report field 'pnc_bound' must be an integer, got str"),
        ({"n": True}, "report field 'n' must be an integer, got bool"),
        ({"local_bound": 5.0}, "report field 'local_bound' must be an integer, got float"),
        ({"quantum_value": "6"}, "report field 'quantum_value' must be a number, got str"),
        ({"quantum_value": False}, "report field 'quantum_value' must be a number, got bool"),
        ({"bounds": None}, "report field 'bounds' must be an object, got NoneType"),
        ({"selftest": []}, "report field 'selftest' must be an object or null, got list"),
    ],
    ids=["unknown", "str-bound", "bool-n", "float-bound", "str-value", "bool-value", "null-bounds", "list-selftest"],
)
def test_report_parser_names_an_unknown_or_mistyped_field(edit, message, report_doc):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CertificationReport.from_json(json.dumps({**report_doc, **edit}))


def test_report_parser_takes_an_integral_value_and_a_null_selftest(report_doc):
    doc = {**report_doc, "quantum_value": 6, "selftest": None}
    text = CertificationReport.from_dict(doc).to_json()
    assert CertificationReport.from_json(text).to_json() == text
    assert json.loads(text) == doc


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
@pytest.mark.parametrize(
    "restarts, message",
    [
        *((r, f"restarts must be an integer from 1 to {cli.MAX_RESTARTS}, got {r}") for r in ("0", "-1", str(cli.MAX_RESTARTS + 1))),
        ("abc", "restarts must be an integer, got 'abc'"),
    ],
    ids=["0", "-1", str(cli.MAX_RESTARTS + 1), "abc"],
)
def test_invalid_restarts_is_usage_error(command, restarts, message, capsys):
    code, out, err = run_cli([command, "--n", "3", "--restarts", restarts], capsys)
    assert code == 2
    assert message in err
    assert out == ""


def test_restarts_range_ends_at_the_ceiling():
    assert cli._restarts("1") == 1
    assert cli._restarts(str(cli.MAX_RESTARTS)) == cli.MAX_RESTARTS >= quantum_opt.RESTARTS


def test_env_variable_overrides_default_seed(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "123")
    code, out, _ = run_cli(["optimize", "--n", "3"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["provenance"]["seed"] == 123


def test_explicit_seed_beats_env_variable(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "123")
    code, out, _ = run_cli(["optimize", "--n", "3", "--seed", "4"], capsys)
    payload = json.loads(out)
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
@pytest.mark.parametrize(
    "seed, message",
    [
        ("-1", "seed must be a non-negative integer, got -1"),
        ("abc", "seed must be an integer, got 'abc'"),
        ("1.5", "seed must be an integer, got '1.5'"),
    ],
    ids=["-1", "abc", "1.5"],
)
def test_invalid_seed_is_usage_error(command, seed, message, capsys):
    code, out, err = run_cli([command, "--n", "3", "--seed", seed], capsys)
    assert code == 2
    assert message in err
    assert out == ""


# Each numeric flag: the commands that take it, the texts it refuses (unparsable,
# then one on each side of its range) with their messages, and the boundary
# texts it accepts with their values.
NUMERIC_FLAGS = {
    "n": (
        ["bounds", "optimize", "selftest", "certify", "report"],
        [
            ("abc", "n must be an integer, got 'abc'"),
            ("1", "n must be odd and >= 3, got 1"),
            ("1003", "n must be at most 1001, got 1003"),
        ],
        [("3", 3), ("1001", 1001)],
    ),
    "seed": (
        ["optimize", "report"],
        [("abc", "seed must be an integer, got 'abc'"), ("-1", "seed must be a non-negative integer, got -1")],
        [("0", 0)],
    ),
    "restarts": (
        ["optimize", "report"],
        [
            ("abc", "restarts must be an integer, got 'abc'"),
            ("0", "restarts must be an integer from 1 to 64, got 0"),
            ("65", "restarts must be an integer from 1 to 64, got 65"),
        ],
        [("1", 1), ("64", 64)],
    ),
    "tol": (
        ["optimize", "report"],
        [
            ("abc", "tol must be a number, got 'abc'"),
            ("-1e-300", "tol must be >= 0, got -1e-300"),
            ("inf", "tol must be finite and >= 0, got inf"),
        ],
        [("0", 0.0)],
    ),
    "alpha": (
        ["certify", "report"],
        [
            ("abc", "alpha must be a number, got 'abc'"),
            ("0", "alpha must be strictly positive and finite, got 0.0"),
            ("inf", "alpha must be strictly positive and finite, got inf"),
        ],
        [("5e-324", 5e-324)],
    ),
    "perturb": (
        ["selftest"],
        [
            ("abc", "perturb must be a number, got 'abc'"),
            ("-1.000001e6", "perturb must be finite with |perturb| <= 1e+06, got -1000001.0"),
            ("1.000001e6", "perturb must be finite with |perturb| <= 1e+06, got 1000001.0"),
        ],
        [("-1e6", -1e6), ("1e6", 1e6)],
    ),
}


def flag_argv(command, flag, text):
    # ``--flag=text``, since argparse takes ``-1e6`` after a space for an option.
    return [command, *(["--n", "3"] if flag != "n" else []), f"--{flag}={text}"]


@pytest.mark.parametrize(
    "command, flag, text, message",
    [
        pytest.param(c, f, t, m, id=f"{c}-{f}={t}")
        for f, (commands, refused, _) in NUMERIC_FLAGS.items()
        for c in commands
        for t, m in refused
    ],
)
def test_numeric_flag_refuses_text_outside_its_rule(command, flag, text, message, capsys, no_pipeline):
    code, out, err = run_cli(flag_argv(command, flag, text), capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --{flag}: {message}\n")


@pytest.mark.parametrize(
    "command, flag, text, value",
    [
        pytest.param(c, f, t, v, id=f"{c}-{f}={t}")
        for f, (commands, _, accepted) in NUMERIC_FLAGS.items()
        for c in commands
        for t, v in accepted
    ],
)
def test_numeric_flag_accepts_its_boundary_values(command, flag, text, value):
    got = getattr(cli._build_parser().parse_args(flag_argv(command, flag, text)), flag)
    assert (got, type(got)) == (value, type(value))


@pytest.mark.parametrize("command", ["optimize", "report"])
@pytest.mark.parametrize(
    "text, message",
    [pytest.param(t, m, id=t) for t, m in NUMERIC_FLAGS["seed"][1] + [(t, None) for t, _ in NUMERIC_FLAGS["seed"][2]]],
)
def test_env_seed_goes_through_the_seed_flags_rows(command, text, message, monkeypatch, capsys, no_pipeline):
    def stop(n, seed, *args, **kwargs):
        raise ValueError(f"the pipeline started with seed {seed}")

    monkeypatch.setattr(report_mod, "build_report" if command == "report" else "optimization_section", stop)
    monkeypatch.setenv(cli.ENV_SEED, text)
    code, out, err = run_cli([command, "--n", "3"], capsys)
    assert (code, out) == (2, "")
    if message is None:
        assert err == f"error: the pipeline started with seed {int(text)}\n"
    else:
        assert err == f"error: {message.replace('seed', cli.ENV_SEED, 1)}\n"


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
    code, _, err = run_cli(["certify", "--n", n, "--alpha", alpha], capsys)
    assert code == 0
    assert "[PASS] shifted value matches the plain value" in err.splitlines()


@pytest.mark.parametrize("total, alpha, passed", [(2e-9, "1e-3", False), (5e-10, "1e20", True)])
def test_shifted_value_check_reads_the_penalty_total(total, alpha, passed, monkeypatch, capsys):
    from pogame import certify

    povm_statistics = certify.povm_statistics

    def with_penalty(setup, povm):
        # The flagged probabilities are the diagonal of table[:, :, 1].
        stats = povm_statistics(setup, povm)
        table = stats.table.copy()
        table[np.arange(3), np.arange(3), 1] = [total, 0.0, 0.0]
        return dataclasses.replace(stats, table=table)

    monkeypatch.setattr(certify, "povm_statistics", with_penalty)
    code, out, err = run_cli(["certify", "--n", "3", "--alpha", alpha], capsys)
    payload, checks = json.loads(out), err.splitlines()
    assert payload["povm"]["penalty_total"] == total
    assert code == (0 if passed else 1)
    mark = "[PASS]" if passed else "[FAIL]"
    assert any(line.startswith(f"{mark} shifted value matches the plain value") for line in checks)


@pytest.mark.parametrize(
    "argv, alice, message",
    [
        (["selftest", "--n", "3"], ("Z", "Z", "-Z"), "swap operator has vanishing norm on the state"),
        (["selftest", "--n", "3", "--perturb", "0.3"], ("Z", "I", "-I"), "normalized swap operator does not square"),
        (["certify", "--n", "3"], ("Z", "X", "-X"), "family violates the parity condition by 1"),
    ],
    ids=["vanishing-swap-norm", "frame-span", "parity-violation"],
)
def test_certification_errors_exit_one(argv, alice, message, monkeypatch, capsys):
    # A stage that fails on its setup is a certification failure, not a usage
    # error.  The command's canonical family is replaced by Alice's ``alice``
    # and Bob's -A^T.
    from pogame import gamecore as gc
    from pogame.qmat import I2, SIGMA_X, SIGMA_Z, phi_plus

    named = {"Z": SIGMA_Z, "-Z": -SIGMA_Z, "X": SIGMA_X, "-X": -SIGMA_X, "I": I2, "-I": -I2}
    matrices = tuple(named[a] for a in alice)
    fam = gc.QuantumSetup(state=phi_plus(), alice=matrices, bob=tuple(-a.T for a in matrices))
    monkeypatch.setattr(cli, "canonical_family", lambda n: fam)
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_other_value_errors_still_exit_two(capsys, tmp_path):
    # Only CertificationError maps to 1: an unwritable --out stays a usage error.
    code, _, err = run_cli(["report", "--n", "3", "--out", str(tmp_path / "missing" / "r.json")], capsys)
    assert code == 2
    assert err.startswith("error: cannot write the report to")
