"""The packaged selftest can fail: each criterion's failure detail is reachable.

Each test corrupts one input a criterion reads and checks the criterion's
[FAIL] line and the issues its detail names.
"""

from qfi_radar import selftest


def failed(number):
    """The record and printed line of criterion ``number`` in a full run."""
    lines = []
    code, records = selftest.run_selftest(emit=lines.append)
    assert code == 1
    record = records[number - 1]
    assert record["passed"] is False
    assert lines[number - 1].startswith(f"criterion {number} [FAIL] {record['name']}")
    assert lines[number - 1].endswith(record["detail"])
    return record["detail"]


def test_criterion_1_curves(monkeypatch):
    # every floor 1e-9 relative too high: far outside the 1e-12 tolerance
    real = selftest.asymptotic_bound
    monkeypatch.setattr(selftest, "asymptotic_bound", lambda *args: (1.0 + 1e-9) * real(*args))
    detail = failed(1)
    assert detail.startswith("max abs curve error ") and detail.endswith(" (tol 1e-12)")


def test_criterion_2_crossovers(monkeypatch):
    # every floor 1.5 times too high moves both crossovers
    real = selftest.asymptotic_bound
    monkeypatch.setattr(selftest, "asymptotic_bound", lambda *args: 1.5 * real(*args))
    detail = failed(2)
    assert "QI bound at kappa=+0.8660 is 1.5" in detail
    assert "QI bound at kappa=-0.8660 is 1.5" in detail
    assert "entangled-beats-single mismatch at kappa=-0.2" in detail
    assert "QI-beats-single mismatch at kappa=0.9" in detail


def test_criteria_3_and_4_closed_form(monkeypatch):
    # the entangled closed form 1% high: the engine and the sigma limit disagree
    real = selftest.qfi_entangled
    monkeypatch.setattr(selftest, "qfi_entangled",
                        lambda *args: tuple(1.01 * h for h in real(*args)))
    assert failed(3).startswith("max rel error 9.90e-03 (tol 1e-8)")
    detail = failed(4)
    assert detail.startswith("max rel error 9.90e-03 (tol 1e-8)")
    assert "equal-bandwidth limit error 2.97e-02 (tol 1e-12)" in detail


def test_criterion_5_mixed_limits_and_adjudication(monkeypatch):
    real = selftest.qfi_numeric

    def reversed_off(model, pair, *, reverse_generators=False):
        res = real(model, pair, reverse_generators=reverse_generators)
        if reverse_generators:
            res.H = res.H + 1e-6
        return res

    monkeypatch.setattr(selftest, "qfi_numeric", reversed_off)
    monkeypatch.setattr(selftest, "bound_product", lambda h11, h22: 0.0)
    monkeypatch.setattr(selftest, "adjudicate", lambda *args, **kwargs: [{"verdict": "maybe"}])
    detail = failed(5)
    assert "single-photon limit bound 0.0 (time_sum_freq_diff)" in detail
    assert "QI limit bound 0.0 vs 1.6 (kappa=0.6, time_diff_freq_sum)" in detail
    assert "generator-order gap 1.00e-06 exceeds 1e-9" in detail
    assert detail.count("bad verdict 'maybe'") == 4
    assert detail.endswith("expected 8 verdict records, got 4")


def test_criterion_6_compatibility(monkeypatch):
    real = selftest.qfi_numeric

    def incompatible(*args, **kwargs):
        res = real(*args, **kwargs)
        res.compat_residual = 1e-6
        return res

    monkeypatch.setattr(selftest, "qfi_numeric", incompatible)
    assert failed(6).startswith("max |Tr rho [L_a, L_b]| = 1.00e-06 over ")


def test_criterion_7_saturation(monkeypatch):
    # arrival times 10% too spread: their variance ratio reads 1.21
    real = selftest.sample_times
    monkeypatch.setattr(selftest, "sample_times", lambda *args: 1.1 * real(*args))
    assert failed(7).startswith("variance ratios 1.21")


def test_criterion_8_scenarios(monkeypatch):
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


def test_criterion_9_kinematics(monkeypatch):
    # a gradient 0.1% off its central differences
    real = selftest.target_estimates

    def skewed(*args):
        values, grad = real(*args)
        return values, 1.001 * grad

    monkeypatch.setattr(selftest, "target_estimates", skewed)
    assert failed(9).startswith("gradient FD rel diff 9.99e-04")
