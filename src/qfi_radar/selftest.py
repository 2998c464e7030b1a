"""Built-in acceptance suite: one check per shipped guarantee.

Each criterion is a standalone function returning (passed, detail); the
runner returns one record per criterion and an aggregate exit code.
``tests/test_selftest.py`` shows that each criterion can fail: it corrupts
an input the criterion reads and checks the failure the runner reports.
"""

from __future__ import annotations

import math
import time

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
from .montecarlo import measure_pair, run_scenario
from .oracle import model_for, qfi_numeric

__all__ = ["run_selftest", "CRITERIA"]

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF
PAIR_B = ParameterPair.TIME_DIFF_FREQ_SUM
ROOT3_2 = math.sqrt(3.0) / 2.0

# the engine cases of criteria 3-5; criterion 6 checks the same models
KAPPA_GRID = tuple(round(-0.95 + 0.05 * i, 10) for i in range(39))
# entangled (sigma1, sigma2, kappa): equal bandwidths, then unequal ones
PURE_CASES = tuple((sigma, sigma, k) for k in KAPPA_GRID for sigma in (0.5, 1.0, 2.0))
UNEQUAL_KAPPAS = (-0.8, -0.4, 0.0, 0.4, 0.8)
UNEQUAL_CASES = tuple((s1, s2, k) for s1 in (0.5, 1.0, 2.0) for s2 in (0.5, 1.0, 2.0)
                      for k in UNEQUAL_KAPPAS)
# quantum illumination's kappas at the separated-branch limit t_minus = 50
LIMIT_KAPPAS = (0.3, 0.6)
# (strategy, model_for keyword arguments) of the branch swap at t_minus = 1,
# omega_minus = 0.8
SWAP_CASES = (
    (Strategy.ENTANGLED_BIPHOTON, {"sigma1": 1.0, "kappa": 0.5}),
    (Strategy.TWO_SINGLE_PHOTONS, {"sigma1": 1.0}),
    (Strategy.QUANTUM_ILLUMINATION, {"sigma1": 1.0, "kappa": 0.6}),
)


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
    for k in KAPPA_GRID:
        ent = asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, k)
        qi = asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_A, k)
        if (ent < 1.0) != (k < 0.0):
            issues.append(f"entangled-beats-single mismatch at kappa={k}")
        if (qi < 1.0) != (abs(k) > ROOT3_2):
            issues.append(f"QI-beats-single mismatch at kappa={k}")
    return not issues, "; ".join(issues) or "crossovers confirmed on the grid"


def _entangled_errors(cases) -> float:
    """Worst relative engine error on the diagonal against ``qfi_entangled``
    over (sigma1, sigma2, kappa) cases and both pairs."""
    worst = 0.0
    for s1, s2, k in cases:
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=s1, sigma2=s2, kappa=k)
        for pair in (PAIR_A, PAIR_B):
            closed = qfi_entangled(s1, s2, k, pair)
            H = qfi_numeric(model, pair).H
            worst = max(worst, *(abs(H[i][i] - closed[i]) / abs(closed[i]) for i in range(2)))
    return worst


def criterion_3() -> tuple[bool, str]:
    """Numerical engine reproduces the pure-state closed forms."""
    worst_rel = _entangled_errors(PURE_CASES)
    return worst_rel <= 1e-8, f"max rel error {worst_rel:.2e} (tol 1e-8)"


def criterion_4() -> tuple[bool, str]:
    """Unequal-bandwidth closed form matches the engine; equal-sigma limit exact."""
    worst_rel = _entangled_errors(UNEQUAL_CASES)
    worst_limit = 0.0
    for k in UNEQUAL_KAPPAS:
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
        bound = bound_product(res.H[0][0], res.H[1][1])
        if abs(bound - 1.0) > 1e-4:
            issues.append(f"single-photon limit bound {bound!r} ({pair.value})")
        for k in LIMIT_KAPPAS:
            model = model_for(
                Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=k, t_minus=50.0
            )
            res = qfi_numeric(model, pair)
            want = 2.0 * math.sqrt(1.0 - k * k)
            bound = bound_product(res.H[0][0], res.H[1][1])
            if abs(bound - want) > 1e-4:
                issues.append(f"QI limit bound {bound!r} vs {want} (kappa={k}, {pair.value})")
    # branch swap: (t_minus, omega_minus) -> (-t_minus, -omega_minus) exchanges
    # the photons' roles, which flips only the sign of the t_minus and
    # omega_minus rows and columns of H
    swap_gap = 0.0
    for strategy, kwargs in SWAP_CASES:
        model = model_for(strategy, t_minus=1.0, omega_minus=0.8, **kwargs)
        swapped = model_for(strategy, t_minus=-1.0, omega_minus=-0.8, **kwargs)
        for pair in (PAIR_A, PAIR_B):
            H, got = qfi_numeric(model, pair).H, qfi_numeric(swapped, pair).H
            signs = [-1.0 if name.endswith("minus") else 1.0 for name in pair.param_names]
            swap_gap = max(swap_gap, *(abs(got[i][j] - H[i][j] * (signs[i] * signs[j]))
                                       for i in range(2) for j in range(2)))
    if swap_gap > 1e-9:
        issues.append(f"branch-swap gap {swap_gap:.2e} exceeds 1e-9")
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
        f"limits within 1e-4, branch-swap gap {swap_gap:.2e}, {n_records} verdicts emitted"
    )
    return not issues, detail


def criterion_6() -> tuple[bool, str]:
    """SLD commutator residual vanishes everywhere (joint estimation compatible).

    The models are those criteria 3-5 hand the engine, each at both pairs.
    """
    models = [model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=s1, sigma2=s2, kappa=k)
              for s1, s2, k in PURE_CASES + UNEQUAL_CASES]
    models.append(model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0, t_minus=50.0))
    models += [model_for(Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=k, t_minus=50.0)
               for k in LIMIT_KAPPAS]
    models += [model_for(strategy, t_minus=1.0, omega_minus=0.8, **kwargs)
               for strategy, kwargs in SWAP_CASES]
    residuals = [qfi_numeric(model, pair).compat_residual
                 for model in models for pair in (PAIR_A, PAIR_B)]
    worst = max(residuals)
    return worst <= 1e-8, f"max |Tr rho [L_a, L_b]| = {worst:.2e} over {len(residuals)} runs"


def criterion_7() -> tuple[bool, str]:
    """Monte Carlo sampling saturates the pure-state QCRB.

    False-alarm rate 4.3e-11 over seeds: a sampler at the bound draws each
    variance ratio as chi-square(n - 1)/(n - 1) at n = 1e5, which leaves
    [0.97, 1.03] with probability 6.2e-12 + 1.5e-11 = 2.2e-11, and the two
    domains draw independently.  The product window adds no failure: two
    ratios in [0.97, 1.03] put the product in [0.97, 1.03] times the floor.
    """
    kappa = -0.8
    rep_t, rep_w = measure_pair(Strategy.ENTANGLED_BIPHOTON, PAIR_A, kappa, 1.0, 100_000, 1234)
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
    """End-to-end scenarios recover the physical truth within predicted error bars.

    False-alarm rate at most 1.08% over seeds: by the normal law each of
    the four estimates leaves 3 predicted standard errors with probability
    2.70e-3, and the union bound gives 4 x 2.70e-3 (1.076% if the four were
    independent; both scenarios draw from seed 42, so they need not be).
    """
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
        x = (*state.centers(), *state.carriers())
        _, grad = target_estimates(scenario, x, probe.omega0)
        scale = [max(map(abs, row)) for row in grad]
        for k in range(4):
            h = 1e-6 * max(1.0, abs(x[k]))
            step = [h if i == k else 0.0 for i in range(4)]
            up, _ = target_estimates(scenario, [a + b for a, b in zip(x, step)], probe.omega0)
            down, _ = target_estimates(scenario, [a - b for a, b in zip(x, step)], probe.omega0)
            worst_grad = max(worst_grad, *(abs(row[k] - (u - d) / (2.0 * h)) / sc
                                           for row, u, d, sc in zip(grad, up, down, scale)))
    worst_rt = 0.0
    for i in range(21):
        v = i * (C / 20.0) - 0.5 * C
        state = returned_state(Target(100.0, v), Target(101.0, v), probe)
        values, _ = target_estimates("moving_object", (*state.centers(), *state.carriers()),
                                     probe.omega0)
        worst_rt = max(worst_rt, abs(values[0] - 1.0), abs(values[1] - v) / C)
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


def run_selftest() -> tuple[int, list[dict]]:
    """Run every criterion; returns (exit_code, per-criterion records), printing nothing."""
    records = []
    for number, (name, func) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        records.append(
            {
                "criterion": number,
                "name": name,
                "passed": bool(passed),
                "seconds": round(time.perf_counter() - start, 3),
                "detail": detail,
            }
        )
    exit_code = 0 if all(r["passed"] for r in records) else 1
    return exit_code, records
