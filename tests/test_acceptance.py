"""Acceptance suite: one test and one printed pass/fail line per criterion.

The criteria and their runtime budgets:
  1. bound-product curves match closed forms at reference correlations (< 1 s)
  2. strategy crossovers: QI floor = 1 at |kappa| = sqrt(3)/2; orderings (< 1 s)
  3. numerical engine matches pure-state closed forms on the full grid (< 10 s)
  4. unequal-bandwidth closed form matches the engine; equal-sigma limit exact
  5. mixed-state limits, engine self-consistency, verdicts emitted (< 30 s)
  6. SLD compatibility residual <= 1e-8 everywhere tested
  7. Monte Carlo QCRB saturation at n = 1e5, kappa = -0.8 (< 10 s)
  8. end-to-end scenarios within 3 predicted standard errors (< 10 s)
  9. kinematics: target_estimates gradient and Doppler-inversion round trip
 10. the packaged selftest runs all of the above, exit 0, in < 60 s
"""

import time

import pytest

from qfi_radar.selftest import run_selftest

BUDGETS = {1: 1.0, 2: 1.0, 3: 10.0, 5: 30.0, 7: 10.0, 8: 10.0}


@pytest.fixture(scope="module")
def suite():
    start = time.perf_counter()
    exit_code, records = run_selftest()
    total = time.perf_counter() - start
    return exit_code, records, total


def _report(records, number):
    rec = records[number - 1]
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"criterion {number}: {status} — {rec['name']}: {rec['detail']} "
          f"[{rec['seconds']}s]")
    assert rec["passed"], f"criterion {number} failed: {rec['detail']}"
    budget = BUDGETS.get(number)
    if budget is not None:
        assert rec["seconds"] < budget, (
            f"criterion {number} took {rec['seconds']}s, budget {budget}s"
        )


def test_criterion_01_curve_reproduction(suite):
    _report(suite[1], 1)


def test_criterion_02_crossovers(suite):
    _report(suite[1], 2)


def test_criterion_03_oracle_equivalence_pure(suite):
    _report(suite[1], 3)


def test_criterion_04_general_bandwidth_form(suite):
    _report(suite[1], 4)


def test_criterion_05_mixed_state_adjudication(suite):
    _report(suite[1], 5)


def test_criterion_06_compatibility(suite):
    _report(suite[1], 6)


def test_criterion_07_qcrb_saturation(suite):
    _report(suite[1], 7)


def test_criterion_08_end_to_end_scenarios(suite):
    _report(suite[1], 8)


def test_criterion_09_kinematics_identities(suite):
    _report(suite[1], 9)


def test_criterion_10_selftest_runtime(suite):
    exit_code, records, total = suite
    status = "PASS" if (exit_code == 0 and total < 60.0) else "FAIL"
    print(f"criterion 10: {status} — selftest exit {exit_code} in {total:.2f}s "
          f"(budget 60s)")
    assert exit_code == 0
    assert total < 60.0
