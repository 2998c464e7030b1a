"""Closed-form information matrices, uncertainty bounds, and adjudication.

The entangled-biphoton expressions are exact and verified against the
numerical engine.  The mixed-state (two-single-photon and quantum
illumination) closed forms reproduced here from the published derivation
contain suspected typos, so ``adjudicate`` sets each published entry
against the subspace oracle and returns a verdict.  The oracle value is
authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import ParameterPair, Strategy
from .oracle import model_for, qfi_numeric

__all__ = [
    "QfiResult",
    "qfi_entangled",
    "published_mixed_qfi",
    "asymptotic_H",
    "scenario_qcrb_covariance",
    "asymptotic_bound",
    "bound_product",
    "adjudicate",
]

VERDICT_RTOL = 1e-6


@dataclass
class QfiResult:
    """2x2 information matrix for one strategy and estimator pair."""

    H: np.ndarray
    bound_product: float


def bound_product(h11: float, h22: float) -> float:
    """Uncertainty-product floor 1/sqrt(H11 H22) of a diagonal information pair."""
    return 1.0 / math.sqrt(h11 * h22)


def qfi_entangled(
    sigma1: float, sigma2: float, kappa: float, pair: ParameterPair
) -> QfiResult:
    """Exact information matrix of the pure returned biphoton.

    For the (time-sum, frequency-difference) pair:
      H11 = sigma1^2 - 2 kappa sigma1 sigma2 + sigma2^2,
      H22 = H11 / (4 (1 - kappa^2) sigma1^2 sigma2^2);
    the (time-difference, frequency-sum) pair flips the sign of kappa in H11.
    """
    if sigma1 <= 0 or sigma2 <= 0:
        raise ValueError("bandwidths must be positive")
    if not -1.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (-1, 1), got {kappa}")
    k = kappa if pair is ParameterPair.TIME_SUM_FREQ_DIFF else -kappa
    h11 = sigma1**2 - 2.0 * k * sigma1 * sigma2 + sigma2**2
    h22 = h11 / (4.0 * (1.0 - kappa**2) * sigma1**2 * sigma2**2)
    H = np.diag([h11, h22])
    return QfiResult(H=H, bound_product=bound_product(h11, h22))


def published_mixed_qfi(
    strategy: Strategy,
    pair: ParameterPair,
    sigma: float,
    t_minus: float,
    omega_minus: float,
    kappa: float = 0.0,
) -> np.ndarray:
    """Published closed forms for the mixed-state strategies, verbatim.

    These are transcribed as printed, typos included, so they can be
    adjudicated against the oracle.  Both quantum-illumination entries use
    the photon-counted normalization (asymptotes 2 sigma^2 and
    1/(2 (1-kappa^2) sigma^2)).
    """
    s2 = sigma**2
    wm2 = omega_minus**2
    tm2 = t_minus**2

    def exp(x: float, fn=math.exp) -> float:
        # saturate to inf instead of raising, so the separated-branch limit
        # evaluates (1/(e^x - 1) -> 0 and e^{-x} -> 0 for large x); e^x - 1
        # is exp(x, math.expm1), which does not cancel as x -> 0
        try:
            return fn(x)
        except OverflowError:
            return math.inf

    if strategy is Strategy.TWO_SINGLE_PHOTONS:
        if pair is ParameterPair.TIME_SUM_FREQ_DIFF:
            e = (wm2 + 4.0 * tm2 * s2**2) / (4.0 * s2)
            h11 = 2.0 * s2 - 2.0 * exp(-e) * tm2 * s2**2
            h22 = 1.0 / (2.0 * s2) - (tm2 / 2.0) / exp(e, math.expm1)
        else:
            # note sigma^2, not sigma^4, multiplying t_minus^2 as printed
            e = (wm2 + 4.0 * tm2 * s2) / (4.0 * s2)
            h11 = 2.0 * s2 - (wm2 / 2.0) / exp(e, math.expm1)
            h22 = 1.0 / (2.0 * s2) - exp(-e) * wm2 / (2.0 * s2**2)
        return np.diag([h11, h22])
    if strategy is Strategy.QUANTUM_ILLUMINATION:
        e4 = (wm2 + 4.0 * tm2 * s2**2) / (4.0 * s2)
        ek = (wm2 + 4.0 * tm2 * s2**2) / (4.0 * (1.0 - kappa**2) * s2)
        if pair is ParameterPair.TIME_SUM_FREQ_DIFF:
            h11 = 2.0 * s2 - 2.0 * exp(-e4) * tm2 * s2**2
            h22 = 1.0 / (2.0 * (1.0 - kappa**2) * s2) - (tm2 / 2.0) / exp(ek, math.expm1)
        else:
            h11 = 2.0 * s2 - 2.0 * exp(-e4) * wm2 / 2.0
            # growing exponential as printed; diverges with separation
            h22 = 1.0 / (2.0 * (1.0 - kappa**2) * s2) - exp(ek) * wm2 / (2.0 * s2**2)
        return np.diag([h11, h22])
    raise ValueError(f"no published mixed-state form for {strategy!r}")


def asymptotic_H(
    strategy: Strategy, pair: ParameterPair, kappa: float, sigma: float
) -> tuple[float, float]:
    """Diagonal (H11, H22) in the orthogonal-branch limit at bandwidth sigma.

    The entangled value is exact at any separation; the mixed strategies
    use the orthogonal-branch limit, which is where the strategy-level
    floors (1 and 2 sqrt(1 - kappa^2)) hold.
    """
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        H = qfi_entangled(sigma, sigma, kappa, pair).H
        return float(H[0, 0]), float(H[1, 1])
    if strategy is Strategy.TWO_SINGLE_PHOTONS:
        return 2.0 * sigma**2, 1.0 / (2.0 * sigma**2)
    return sigma**2, 1.0 / (4.0 * (1.0 - kappa**2) * sigma**2)


def scenario_qcrb_covariance(
    strategy: Strategy, kappa: float, sigma1: float, sigma2: float
) -> np.ndarray:
    """Per-shot QCRB covariance of the returned photons' (t1, t2, omega1, omega2).

    The returned biphoton's frequencies have covariance
    B = [[sigma1^2, -kappa sigma1 sigma2], [-kappa sigma1 sigma2, sigma2^2]]
    and its times (4B)^-1, so its QFI over (t1, t2) is 4B and over
    (omega1, omega2) is B^-1, with no time-frequency cross terms.  The bound
    with every other parameter unknown is the inverse of each full block:
    (4B)^-1 for the times and B for the frequencies.  Two single photons are
    the same form at kappa = 0.
    """
    if strategy is Strategy.TWO_SINGLE_PHOTONS:
        kappa = 0.0
    elif strategy is not Strategy.ENTANGLED_BIPHOTON:
        raise ValueError(f"no scenario QCRB for {strategy!r}")
    s12 = kappa * sigma1 * sigma2
    d = 4.0 * (1.0 - kappa**2) * sigma1**2 * sigma2**2
    cov = np.zeros((4, 4))
    cov[:2, :2] = np.array([[sigma2**2, s12], [s12, sigma1**2]]) / d
    cov[2:, 2:] = np.array([[sigma1**2, -s12], [-s12, sigma2**2]])
    return cov


def asymptotic_bound(strategy: Strategy, pair: ParameterPair, kappa: float) -> float:
    """Orthogonal-branch uncertainty-product floor Min[da db] at correlation kappa.

    The floor does not depend on the bandwidth; it is read off
    ``asymptotic_H`` at sigma = 1.
    """
    if not -1.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (-1, 1), got {kappa}")
    return bound_product(*asymptotic_H(strategy, pair, kappa, 1.0))


def adjudicate(
    strategy: Strategy,
    pair: ParameterPair,
    *,
    sigma: float,
    kappa: float = 0.0,
    t_minus: float = 0.0,
    omega_minus: float = 0.0,
) -> list[dict]:
    """Machine-readable verdict records comparing published forms to the oracle.

    One record per matrix entry, schema:
    {strategy, pair, params, paper_value, oracle_value, rel_diff, verdict}.
    For the entangled strategy the exact closed form plays the published role
    and additionally carries the pure-path/SLD-path internal-consistency gap.
    """
    base_params = {
        "sigma": sigma,
        "kappa": kappa,
        "t_minus": t_minus,
        "omega_minus": omega_minus,
    }
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        model = model_for(strategy, sigma1=sigma, kappa=kappa)
        oracle = qfi_numeric(model, pair)
        published = qfi_entangled(sigma, sigma, kappa, pair).H
        pure_diff = (
            float(np.max(np.abs(oracle.pure_H - oracle.H)))
            if oracle.pure_H is not None
            else None
        )
    else:
        model = model_for(
            strategy, sigma1=sigma, kappa=kappa, t_minus=t_minus, omega_minus=omega_minus
        )
        oracle = qfi_numeric(model, pair)
        published = published_mixed_qfi(strategy, pair, sigma, t_minus, omega_minus, kappa)
        if strategy is Strategy.QUANTUM_ILLUMINATION:
            # the engine's QI trace is 1; the published forms are photon-counted
            published = published / 2.0
        pure_diff = None

    records = []
    for idx, name in enumerate(pair.param_names):
        paper_value = float(published[idx, idx])
        oracle_value = float(oracle.H[idx, idx])
        rel = abs(paper_value - oracle_value) / abs(oracle_value)
        params = dict(base_params, entry=name)
        if pure_diff is not None:
            params["pure_path_diff"] = pure_diff
        records.append(
            {
                "strategy": strategy.value,
                "pair": pair.value,
                "params": params,
                "paper_value": paper_value,
                "oracle_value": oracle_value,
                "rel_diff": rel,
                "verdict": "confirmed" if rel <= VERDICT_RTOL else "refuted",
            }
        )
    return records
