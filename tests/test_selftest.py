"""The packaged selftest can fail: each criterion's failure detail is reachable.

Each test corrupts one input a criterion reads and checks the criterion's
[FAIL] line and the issues its detail names.
"""

import os
import subprocess
import sys

import pytest

import qfi_radar
from qfi_radar import cli, montecarlo, selftest
from qfi_radar.states import GaussianBiphoton


@pytest.fixture
def failed(capsys, monkeypatch):
    """A function of ``number``: the detail of criterion ``number`` in one full
    ``qfi-radar selftest`` run, checked against the line the run prints for it."""

    def run(number):
        runs = []
        run_selftest = selftest.run_selftest

        def recorded():
            runs.append(run_selftest())
            return runs[-1]

        monkeypatch.setattr(selftest, "run_selftest", recorded)
        assert cli.main(["selftest"]) == 1
        [(_code, records)] = runs
        record = records[number - 1]
        assert record["passed"] is False
        line = capsys.readouterr().out.splitlines()[number - 1]
        assert line.startswith(f"criterion {number} [FAIL] {record['name']}")
        assert line.endswith(record["detail"])
        return record["detail"]

    return run


def test_run_selftest_prints_nothing(capsys, monkeypatch):
    # a passing, a failing and a crashing criterion: only the CLI renders them
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "CRITERIA", [
        ("passes", lambda: (True, "fine")),
        ("fails", lambda: (False, "off")),
        ("crashes", crash),
    ])
    code, records = selftest.run_selftest()
    assert capsys.readouterr().out == ""
    assert code == 1
    assert [(r["name"], r["passed"], r["detail"]) for r in records] == [
        ("passes", True, "fine"),
        ("fails", False, "off"),
        ("crashes", False, "raised RuntimeError: boom"),
    ]


def test_criterion_1_curves(monkeypatch, failed):
    # every floor 1e-9 relative too high: far outside the 1e-12 tolerance
    real = selftest.asymptotic_bound
    monkeypatch.setattr(selftest, "asymptotic_bound", lambda *args: (1.0 + 1e-9) * real(*args))
    detail = failed(1)
    assert detail.startswith("max abs curve error ") and detail.endswith(" (tol 1e-12)")


def test_criterion_2_crossovers(monkeypatch, failed):
    # every floor 1.5 times too high moves both crossovers
    real = selftest.asymptotic_bound
    monkeypatch.setattr(selftest, "asymptotic_bound", lambda *args: 1.5 * real(*args))
    detail = failed(2)
    assert "QI bound at kappa=+0.8660 is 1.5" in detail
    assert "QI bound at kappa=-0.8660 is 1.5" in detail
    assert "entangled-beats-single mismatch at kappa=-0.2" in detail
    assert "QI-beats-single mismatch at kappa=0.9" in detail


def test_criteria_3_and_4_closed_form(monkeypatch, failed):
    # the entangled closed form 1% high: the engine and the sigma limit disagree
    real = selftest.qfi_entangled
    monkeypatch.setattr(selftest, "qfi_entangled",
                        lambda *args: tuple(1.01 * h for h in real(*args)))
    assert failed(3).startswith("max rel error 9.90e-03 (tol 1e-8)")
    detail = failed(4)
    assert detail.startswith("max rel error 9.90e-03 (tol 1e-8)")
    assert "equal-bandwidth limit error 2.97e-02 (tol 1e-12)" in detail


def test_criterion_5_mixed_limits_and_adjudication(monkeypatch, failed):
    real = selftest.qfi_numeric

    def late_first_branch_off(model, pair):
        # models built at t_minus < 0, whose first branch arrives after
        # t_plus = 0, read 1e-6 high: the branch swap no longer holds
        res = real(model, pair)
        base = model.stacks[0].base
        if getattr(base, "t_bar", getattr(base, "t1_bar", 0.0)) > 0.0:
            res = res._replace(H=tuple(tuple(h + 1e-6 for h in row) for row in res.H))
        return res

    monkeypatch.setattr(selftest, "qfi_numeric", late_first_branch_off)
    monkeypatch.setattr(selftest, "bound_product", lambda h11, h22: 0.0)
    monkeypatch.setattr(selftest, "adjudicate", lambda *args, **kwargs: [{"verdict": "maybe"}])
    detail = failed(5)
    assert "single-photon limit bound 0.0 (time_sum_freq_diff)" in detail
    assert "QI limit bound 0.0 vs 1.6 (kappa=0.6, time_diff_freq_sum)" in detail
    assert "branch-swap gap 1.00e-06 exceeds 1e-9" in detail
    assert detail.count("bad verdict 'maybe'") == 4
    assert detail.endswith("expected 8 verdict records, got 4")


def test_criterion_6_compatibility(monkeypatch, failed):
    # only the quantum-illumination models, two biphoton branches, read
    # incompatible: criterion 6 builds criterion 5's models itself
    real = selftest.qfi_numeric

    def incompatible(model, pair):
        res = real(model, pair)
        if len(model.stacks) == 2 and isinstance(model.stacks[0].base, GaussianBiphoton):
            res = res._replace(compat_residual=1e-6)
        return res

    monkeypatch.setattr(selftest, "qfi_numeric", incompatible)
    assert failed(6) == "max |Tr rho [L_a, L_b]| = 1.00e-06 over 336 runs"


def test_criterion_6_runs_alone():
    # in a fresh interpreter, with no other criterion run first
    code = "from qfi_radar import selftest; print(selftest.CRITERIA[5][1]())"
    src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("(True, 'max |Tr rho [L_a, L_b]| = ")
    assert proc.stdout.rstrip().endswith(" over 336 runs')")


def test_criterion_7_saturation(monkeypatch, failed):
    # arrival times 10% too spread: their variance ratio reads 1.21 times
    # the 0.9897 the correct law draws at criterion 7's seed; the law is
    # montecarlo's, which criterion 7 reaches through measure_pair
    real = montecarlo._sampling_moments

    def spread(state, config):
        mean, cov = real(state, config)
        if config.domain == "time":
            cov = tuple(tuple(1.21 * c for c in row) for row in cov)
        return mean, cov

    monkeypatch.setattr(montecarlo, "_sampling_moments", spread)
    assert failed(7).startswith("variance ratios 1.1976/1.0054")


def test_criterion_8_scenarios(monkeypatch, failed):
    # every estimate moved 10 predicted standard errors off the truth
    real = selftest.run_scenario

    def biased(*args, **kwargs):
        report = real(*args, **kwargs)
        for key, err in report["predicted_qcrb_std_errors"].items():
            report["estimates"][key] += 10.0 * err
        return report

    monkeypatch.setattr(selftest, "run_scenario", biased)
    detail = failed(8)
    for name in ("multibody midpoint", "multibody delta_v", "moving_object size",
                 "moving_object velocity"):
        assert f"{name} off by " in detail


def test_criterion_9_kinematics(monkeypatch, failed):
    # a gradient 0.1% off its central differences
    real = selftest.target_estimates

    def skewed(*args):
        values, grad = real(*args)
        return values, tuple(tuple(1.001 * g for g in row) for row in grad)

    monkeypatch.setattr(selftest, "target_estimates", skewed)
    assert failed(9).startswith("gradient FD rel diff 9.99e-04")
