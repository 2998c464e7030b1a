"""Built-in acceptance suite: one check per shipped guarantee.

Each criterion is a standalone function returning (passed, detail); the
runner prints one pass/fail line per criterion and aggregates an exit code.
``tests/test_selftest.py`` shows that each criterion can fail: it corrupts
an input the criterion reads and checks the failure the runner reports.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .analytic import adjudicate, asymptotic_bound, bound_product, qfi_entangled
from .kinematics import (
    C,
    ParameterPair,
    ProbeConfig,
    Strategy,
    Target,
    returned_state,
    target_estimates,
)
from .montecarlo import McConfig, estimate_pair, run_scenario, sample_frequencies, sample_times
from .oracle import model_for, qfi_numeric
from .states import GaussianBiphoton

__all__ = ["run_selftest", "CRITERIA"]

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF
PAIR_B = ParameterPair.TIME_DIFF_FREQ_SUM
ROOT3_2 = math.sqrt(3.0) / 2.0

# compatibility residuals accumulated by criteria 3-5, consumed by criterion 6
_residuals: list[float] = []


def criterion_1() -> tuple[bool, str]:
    """Bound-product curves match the closed forms at reference correlations."""
    kappas = [-0.99, -ROOT3_2, -0.5, 0.0, 0.5, ROOT3_2, 0.99]
    worst = 0.0
    for k in kappas:
        checks = [
            (asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, k),
             math.sqrt((1.0 + k) / (1.0 - k))),
            (asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_B, k),
             math.sqrt((1.0 - k) / (1.0 + k))),
            (asymptotic_bound(Strategy.TWO_SINGLE_PHOTONS, PAIR_A, k), 1.0),
            (asymptotic_bound(Strategy.TWO_SINGLE_PHOTONS, PAIR_B, k), 1.0),
            (asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_A, k),
             2.0 * math.sqrt(1.0 - k * k)),
            (asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_B, k),
             2.0 * math.sqrt(1.0 - k * k)),
        ]
        worst = max(worst, max(abs(got - want) for got, want in checks))
    return worst <= 1e-12, f"max abs curve error {worst:.2e} (tol 1e-12)"


def criterion_2() -> tuple[bool, str]:
    """Strategy crossovers: QI = 1 at |kappa| = sqrt(3)/2; strict orderings."""
    issues = []
    for k in (ROOT3_2, -ROOT3_2):
        b = asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_A, k)
        if abs(b - 1.0) > 1e-12:
            issues.append(f"QI bound at kappa={k:+.4f} is {b!r}, not 1")
    for k in np.arange(-0.95, 0.9501, 0.05):
        k = float(round(k, 10))
        ent = asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, k)
        qi = asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_A, k)
        if (ent < 1.0) != (k < 0.0):
            issues.append(f"entangled-beats-single mismatch at kappa={k}")
        if (qi < 1.0) != (abs(k) > ROOT3_2):
            issues.append(f"QI-beats-single mismatch at kappa={k}")
    return not issues, "; ".join(issues) or "crossovers confirmed on the grid"


def _entangled_errors(cases) -> tuple[float, float]:
    """Worst engine error against ``qfi_entangled`` over (sigma1, sigma2, kappa)
    cases and both pairs: relative on the diagonal, and the pure-vs-SLD gap."""
    worst_rel = worst_pure = 0.0
    for s1, s2, k in cases:
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=s1, sigma2=s2, kappa=k)
        for pair in (PAIR_A, PAIR_B):
            closed = np.array(qfi_entangled(s1, s2, k, pair))
            res = qfi_numeric(model, pair)
            _residuals.append(res.compat_residual)
            rel = float(np.max(np.abs(np.diag(res.H) - closed) / np.abs(closed)))
            worst_rel = max(worst_rel, rel)
            worst_pure = max(worst_pure, float(np.max(np.abs(res.pure_H - res.H))))
    return worst_rel, worst_pure


def criterion_3() -> tuple[bool, str]:
    """Numerical engine reproduces the pure-state closed forms."""
    kappas = (float(round(k, 10)) for k in np.arange(-0.95, 0.9501, 0.05))
    worst_rel, worst_pure = _entangled_errors(
        (sigma, sigma, k) for k in kappas for sigma in (0.5, 1.0, 2.0))
    ok = worst_rel <= 1e-8 and worst_pure <= 1e-9
    return ok, f"max rel error {worst_rel:.2e} (tol 1e-8); pure-vs-SLD gap {worst_pure:.2e}"


def criterion_4() -> tuple[bool, str]:
    """Unequal-bandwidth closed form matches the engine; equal-sigma limit exact."""
    sigmas = (0.5, 1.0, 2.0)
    kappas = (-0.8, -0.4, 0.0, 0.4, 0.8)
    worst_rel, _ = _entangled_errors(
        (s1, s2, k) for s1 in sigmas for s2 in sigmas for k in kappas)
    worst_limit = 0.0
    for k in kappas:
        got = bound_product(*qfi_entangled(1.3, 1.3, k, PAIR_A))
        worst_limit = max(worst_limit, abs(got - math.sqrt((1.0 + k) / (1.0 - k))))
    ok = worst_rel <= 1e-8 and worst_limit <= 1e-12
    return ok, (
        f"max rel error {worst_rel:.2e} (tol 1e-8); "
        f"equal-bandwidth limit error {worst_limit:.2e} (tol 1e-12)"
    )


def criterion_5() -> tuple[bool, str]:
    """Mixed-state engine: correct separated-branch limits, self-consistent adjudication."""
    issues = []
    # far-separated branches: bound products reach the strategy-level floors
    for pair in (PAIR_A, PAIR_B):
        model = model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0, t_minus=50.0)
        res = qfi_numeric(model, pair)
        _residuals.append(res.compat_residual)
        bound = bound_product(res.H[0, 0], res.H[1, 1])
        if abs(bound - 1.0) > 1e-4:
            issues.append(f"single-photon limit bound {bound!r} ({pair.value})")
        for k in (0.3, 0.6):
            model = model_for(
                Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=k, t_minus=50.0
            )
            res = qfi_numeric(model, pair)
            _residuals.append(res.compat_residual)
            want = 2.0 * math.sqrt(1.0 - k * k)
            bound = bound_product(res.H[0, 0], res.H[1, 1])
            if abs(bound - want) > 1e-4:
                issues.append(f"QI limit bound {bound!r} vs {want} (kappa={k}, {pair.value})")
    # generator-order invariance of the engine
    order_gap = 0.0
    for strategy, kwargs in (
        (Strategy.ENTANGLED_BIPHOTON, {"sigma1": 1.0, "kappa": 0.5}),
        (Strategy.TWO_SINGLE_PHOTONS, {"sigma1": 1.0, "t_minus": 1.0, "omega_minus": 0.8}),
        (Strategy.QUANTUM_ILLUMINATION,
         {"sigma1": 1.0, "kappa": 0.6, "t_minus": 1.0, "omega_minus": 0.8}),
    ):
        model = model_for(strategy, **kwargs)
        for pair in (PAIR_A, PAIR_B):
            fwd = qfi_numeric(model, pair)
            rev = qfi_numeric(model, pair, reverse_generators=True)
            _residuals.append(fwd.compat_residual)
            order_gap = max(order_gap, float(np.max(np.abs(fwd.H - rev.H))))
    if order_gap > 1e-9:
        issues.append(f"generator-order gap {order_gap:.2e} exceeds 1e-9")
    # finite-separation adjudication must produce complete verdict records
    n_records = 0
    for strategy in (Strategy.TWO_SINGLE_PHOTONS, Strategy.QUANTUM_ILLUMINATION):
        for pair in (PAIR_A, PAIR_B):
            records = adjudicate(
                strategy, pair, sigma=1.0, kappa=0.6, t_minus=1.0, omega_minus=0.8
            )
            n_records += len(records)
            for rec in records:
                if rec["verdict"] not in ("confirmed", "refuted"):
                    issues.append(f"bad verdict {rec['verdict']!r}")
    if n_records != 8:
        issues.append(f"expected 8 verdict records, got {n_records}")
    detail = "; ".join(issues) or (
        f"limits within 1e-4, order gap {order_gap:.2e}, {n_records} verdicts emitted"
    )
    return not issues, detail


def criterion_6() -> tuple[bool, str]:
    """SLD commutator residual vanishes everywhere (joint estimation compatible)."""
    if not _residuals:
        return False, "no residuals collected (criteria 3-5 must run first)"
    worst = max(_residuals)
    return worst <= 1e-8, f"max |Tr rho [L_a, L_b]| = {worst:.2e} over {len(_residuals)} runs"


def criterion_7() -> tuple[bool, str]:
    """Monte Carlo sampling saturates the pure-state QCRB."""
    sigma, kappa, n, seed = 1.0, -0.8, 100_000, 1234
    state = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, sigma, kappa)
    h_t, h_w = qfi_entangled(sigma, sigma, kappa, PAIR_A)
    times = sample_times(state, McConfig(n, seed, "time"))
    freqs = sample_frequencies(state, McConfig(n, seed + 1, "frequency"))
    rep_t = estimate_pair(times, PAIR_A, "time", h_t)
    rep_w = estimate_pair(freqs, PAIR_A, "frequency", h_w)
    product = math.sqrt(rep_t.variance * rep_w.variance)
    bound = asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, kappa)
    ok = (
        0.97 <= rep_t.ratio <= 1.03
        and 0.97 <= rep_w.ratio <= 1.03
        and 0.97 * bound <= product <= 1.05 * bound
    )
    return ok, (
        f"variance ratios {rep_t.ratio:.4f}/{rep_w.ratio:.4f} (window [0.97, 1.03]); "
        f"uncertainty product {product:.4f} vs floor {bound:.4f}"
    )


def criterion_8() -> tuple[bool, str]:
    """End-to-end scenarios recover the physical truth within predicted error bars."""
    issues = []
    probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.9)
    report = run_scenario(
        "multibody", (Target(300.0, 0.0), Target(500.0, 0.0)), probe, 10_000, seed=42
    )
    for key in ("midpoint", "delta_v"):
        err = abs(report["estimates"][key] - report["truth"][key])
        lim = 3.0 * report["predicted_qcrb_std_errors"][key]
        if err > lim:
            issues.append(f"multibody {key} off by {err:.3g} > {lim:.3g}")
    probe2 = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.5)
    c3 = C / 3.0
    report2 = run_scenario(
        "moving_object", (Target(100.0, c3), Target(101.0, c3)), probe2, 10_000, seed=42
    )
    for key in ("size", "velocity"):
        err = abs(report2["estimates"][key] - report2["truth"][key])
        lim = 3.0 * report2["predicted_qcrb_std_errors"][key]
        if err > lim:
            issues.append(f"moving_object {key} off by {err:.3g} > {lim:.3g}")
    return not issues, "; ".join(issues) or "both scenarios within 3 predicted standard errors"


def criterion_9() -> tuple[bool, str]:
    """Kinematics: target_estimates gradient vs central differences; inversion round trip."""
    probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=0.0)
    worst_grad = 0.0
    for scenario, v1, v2 in (
        ("multibody", 0.0, 0.0),
        ("multibody", 0.1 * C, 0.3 * C),
        ("moving_object", 0.0, 0.0),
        ("moving_object", C / 3.0, C / 3.0),
    ):
        state = returned_state(Target(300.0, v1), Target(500.0, v2), probe)
        x = np.concatenate([state.centers(), state.carriers()])
        _, grad = target_estimates(scenario, x, probe.omega0)
        scale = np.max(np.abs(grad), axis=1)
        for k, h in enumerate(1e-6 * np.maximum(1.0, np.abs(x))):
            step = np.eye(4)[k] * h
            up, _ = target_estimates(scenario, x + step, probe.omega0)
            down, _ = target_estimates(scenario, x - step, probe.omega0)
            fd = (up - down) / (2.0 * h)
            worst_grad = max(worst_grad, float(np.max(np.abs(grad[:, k] - fd) / scale)))
    worst_rt = 0.0
    for v in np.linspace(-0.5 * C, 0.5 * C, 21):
        state = returned_state(Target(100.0, float(v)), Target(101.0, float(v)), probe)
        x = np.concatenate([state.centers(), state.carriers()])
        values, _ = target_estimates("moving_object", x, probe.omega0)
        worst_rt = max(worst_rt, float(abs(values[0] - 1.0)), float(abs(values[1] - v) / C))
    ok = worst_grad <= 1e-6 and worst_rt <= 1e-12
    return ok, f"gradient FD rel diff {worst_grad:.2e}; inversion round-trip {worst_rt:.2e}"


CRITERIA = [
    ("bound-product curves", criterion_1),
    ("strategy crossovers", criterion_2),
    ("pure-state engine equivalence", criterion_3),
    ("unequal-bandwidth closed form", criterion_4),
    ("mixed-state limits and adjudication", criterion_5),
    ("SLD compatibility", criterion_6),
    ("Monte Carlo QCRB saturation", criterion_7),
    ("end-to-end scenarios", criterion_8),
    ("kinematics identities", criterion_9),
]


def run_selftest(emit=print) -> tuple[int, list[dict]]:
    """Run every criterion; returns (exit_code, per-criterion records)."""
    _residuals.clear()
    records = []
    for number, (name, func) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        records.append(
            {
                "criterion": number,
                "name": name,
                "passed": bool(passed),
                "seconds": round(elapsed, 3),
                "detail": detail,
            }
        )
        if emit is not None:
            status = "PASS" if passed else "FAIL"
            emit(f"criterion {number} [{status}] {name} ({elapsed:.2f}s): {detail}")
    exit_code = 0 if all(r["passed"] for r in records) else 1
    return exit_code, records
