"""Acceptance suite: one test per certification criterion.

Each test drives the CLI (or the library where the criterion is about an
analytic configuration), asserts the stated tolerances, and prints a single
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from itertools import product

import numpy as np

from pogame import bounds, certify, cli, gamecore as gc, observables as obs
from pogame import quantum_opt as qo
from pogame import selftest as st

LOG2_3 = 1.584962500721156


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    # The document is all of stdout; the check lines are all of stderr.
    return code, json.loads(out), err.splitlines()


def _criterion(name, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_criterion_1_bounds_n3(capsys):
    def body():
        start = time.monotonic()
        code, payload, checks = _run(["bounds", "--n", "3"], capsys)
        elapsed = time.monotonic() - start
        assert code == 0
        assert len(checks) == 5 and all(line.startswith("[PASS]") for line in checks)
        assert payload["bounds"]["local_bound"] == 5
        assert payload["bounds"]["pnc_bound"] == 4
        assert elapsed < 1.0

    _criterion("criterion 1: n=3 bounds are exactly 5 and 4 in under 1 s", body)


def test_criterion_2_bounds_n5_n7(capsys):
    def body():
        start = time.monotonic()
        code5, p5, _ = _run(["bounds", "--n", "5"], capsys)
        code7, p7, _ = _run(["bounds", "--n", "7"], capsys)
        elapsed = time.monotonic() - start
        assert code5 == 0 and code7 == 0
        assert p5["bounds"]["pnc_bound"] == 8
        assert p7["bounds"]["pnc_bound"] == 12
        # Exhaustive local bounds recorded and cross-checked against the
        # closed-form reduction.
        for p in (p5, p7):
            assert p["bounds"]["local_bound"] == p["bounds"]["local_bound_closed_form"]
        assert p5["bounds"]["local_bound"] == 15
        assert p7["bounds"]["local_bound"] == 35
        assert elapsed < 10.0

    _criterion("criterion 2: n=5,7 PNC bounds are exactly 8 and 12 in under 10 s", body)


def test_criterion_3_seesaw_convergence(capsys):
    def body():
        for n, target, check_hits in ((3, 6.0, True), (5, 10.0, False), (7, 14.0, False)):
            start = time.monotonic()
            code, payload, _ = _run(["optimize", "--n", str(n)], capsys)
            elapsed = time.monotonic() - start
            assert code == 0
            opt = payload["optimization"]
            assert abs(opt["value"] - target) <= 1e-6
            if check_hits:
                hits = sum(1 for v in opt["restart_values"] if abs(v - target) <= 1e-6)
                assert hits >= 6
            assert elapsed < 30.0

    _criterion("criterion 3: see-saw reaches 6/10/14 within 1e-6 in under 30 s", body)


def test_criterion_4_sos_at_analytic_trine():
    def body():
        cert = qo.sos_certificate(gc.setup_from_family(obs.trine()))
        assert np.all(np.abs(cert.omegas - 2.0) <= 1e-9)
        assert cert.gap <= 1e-9
        assert np.max(cert.residuals) <= 1e-9
        assert abs(cert.delta_expectation + 3.0) <= 1e-9

    _criterion("criterion 4: analytic trine certificate (omegas 2, gap 0, delta -3)", body)


def test_criterion_5_success_probabilities():
    def body():
        expr = gc.bell_expression(3)
        beh = gc.behavior_from_setup(gc.setup_from_family(obs.trine()))
        assert abs(gc.success_probability(expr, beh) - 5 / 6) <= 1e-9
        pnc_value, _ = bounds.pnc_bound(3)
        assert gc.success_probability_at(3, pnc_value) == 13 / 18

    _criterion("criterion 5: success probabilities 5/6 (quantum) and exactly 13/18 (PNC)", body)


def test_criterion_6_selftest_n3(capsys):
    def body():
        code, payload, checks = _run(["selftest", "--n", "3"], capsys)
        assert code == 0
        assert len(checks) == 5 and all(line.startswith("[PASS]") for line in checks)
        section = payload["selftest"]
        assert section["residual_max"] <= 1e-9
        assert section["state_fidelity"] >= 1 - 1e-10
        errors = section["extraction_entry_errors"]
        assert set(errors) == {"ZA", "XA", "ZB", "XB"}
        assert all(v <= 1e-9 for v in errors.values())
        # Each observable through its frame coordinates: the trine's Gram matrix is -E.
        assert section["frame_leftover_max"] <= 1e-8
        assert section["gram_deviation"] <= 1e-9

    _criterion("criterion 6: n=3 relations, state fidelity, frame extractions and the Gram check", body)


def test_criterion_7_selftest_n5(capsys):
    def body():
        code, payload, _ = _run(["selftest", "--n", "5"], capsys)
        assert code == 0
        assert payload["selftest"]["residual_max"] <= 1e-9
        setup = gc.setup_from_family(obs.family_quartets(5))
        for target in ("YA", "YB"):
            run = st.run_isometry(setup, target)
            assert run.fidelity >= 1 - 1e-10
            assert run.junk_fidelity >= 1 - 1e-10  # sigma_z-dressed junk form

    _criterion("criterion 7: n=5 relations and dressed y-direction extraction", body)


def test_criterion_8_certify_n3(capsys):
    def body():
        code, payload, checks = _run(["certify", "--n", "3"], capsys)
        assert code == 0
        assert "[PASS] min-entropy equals log2(3)" in checks
        assert all(line.startswith("[PASS]") for line in checks)
        povm = payload["povm"]
        for spectrum in povm["element_spectra"]:
            assert abs(spectrum[0]) <= 1e-9
            assert abs(spectrum[1] - 2 / 3) <= 1e-9
        assert povm["completeness_deviation"] <= 1e-9
        assert all(abs(p - 1 / 3) <= 1e-9 for p in povm["outcome_probabilities"])
        assert povm["extremal"] is True
        rand = payload["randomness"]
        assert abs(rand["guessing_probability"] - 1 / 3) <= 1e-9
        assert abs(rand["min_entropy_bits"] - LOG2_3) <= 1e-9

    _criterion("criterion 8: n=3 POVM spectrum, completeness, G = 1/3, log2(3) bits", body)


def test_criterion_9_certify_n5(capsys):
    def body():
        code, payload, _ = _run(["certify", "--n", "5"], capsys)
        assert code == 0
        assert payload["povm"]["extremal"] is False
        assert payload["randomness"]["certified"] is False

    _criterion("criterion 9: n=5 POVM is not extremal and randomness not certified", body)


def test_criterion_10_property_suites():
    def body():
        # Witness replay reproduces each bound exactly.
        for n in (3, 5, 7):
            expr = gc.bell_expression(n)
            local_value, local_w = bounds.local_bound(n)
            assert gc.bell_value(expr, bounds.strategy_behavior(local_w, n)) == local_value
            pnc_value, pnc_w = bounds.pnc_bound(n)
            assert gc.bell_value(expr, bounds.strategy_behavior(pnc_w, n)) == pnc_value

        # Gamma reconstruction round-trip.
        fam = obs.trine()
        setup = gc.setup_from_family(fam)
        povm = certify.canonical_povm(fam)
        stats = certify.povm_statistics(setup, povm)
        assert certify.reconstruction_deviation(setup, stats, povm) <= 1e-8

        # See-saw monotonicity on every trace.
        for n in (3, 5, 7):
            result = qo.seesaw(n, seed=42)
            for trace in result.traces:
                assert np.all(np.diff(np.asarray(trace)) >= -1e-9)

        # No-signaling of generated behaviors.
        rng = np.random.default_rng(71)
        behaviors = [gc.behavior_from_setup(gc.setup_from_family(obs.canonical_family(n))) for n in (3, 5, 7)]
        for _ in range(10):
            vecs = rng.normal(size=(6, 3))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            state = rng.normal(size=4) + 1j * rng.normal(size=4)
            setup = gc.QuantumSetup(
                state=state / np.linalg.norm(state),
                alice=tuple(obs.obs_from_bloch(v) for v in vecs[:3]),
                bob=tuple(obs.obs_from_bloch(v) for v in vecs[3:]),
            )
            behaviors.append(gc.behavior_from_setup(setup))
        for beh in behaviors:
            assert beh.no_signaling_defect() <= 1e-12

    _criterion("criterion 10: witness replay, gamma round-trip, monotonicity, no-signaling", body)
