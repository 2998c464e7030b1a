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

from .kinematics import ParameterPair, Strategy
from .oracle import model_for, qfi_numeric
from .states import GaussianBiphoton, _check_bandwidths, frequency_covariance, time_covariance

__all__ = [
    "qfi_entangled",
    "published_mixed_qfi",
    "asymptotic_H",
    "scenario_qcrb_covariance",
    "asymptotic_bound",
    "bound_product",
    "adjudicate",
]

VERDICT_RTOL = 1e-6


def _h(u: float) -> float:
    """1/u - 1/expm1(u) >= 0: the Bernoulli series through u^11 below
    u = 0.25, the overflow-free closed form above it.

    The engine has its own h; the forms it referees do not share one with it.
    """
    if u < 0.25:
        v = u * u
        return 0.5 - u * (1.0 / 12.0 - v * (1.0 / 720.0 - v * (1.0 / 30240.0 - v * (
            1.0 / 1209600.0 - v * (1.0 / 47900160.0 - v * (691.0 / 1307674368000.0))))))
    return 1.0 / u + math.exp(-u) / math.expm1(-u)


def bound_product(h11: float, h22: float) -> float:
    """Uncertainty-product floor 1/sqrt(H11 H22) of a diagonal information pair."""
    return 1.0 / math.sqrt(h11 * h22)


def qfi_entangled(
    sigma1: float, sigma2: float, kappa: float, pair: ParameterPair
) -> tuple[float, float]:
    """Diagonal (H11, H22) of the pure returned biphoton's information matrix.

    For the (time-sum, frequency-difference) pair:
      H11 = sigma1^2 - 2 kappa sigma1 sigma2 + sigma2^2,
      H22 = H11 / (4 (1 - kappa^2) sigma1^2 sigma2^2), written term by term;
    the (time-difference, frequency-sum) pair flips the sign of kappa in both.
    The off-diagonal entries are zero; the floor is ``bound_product(H11, H22)``.
    Bandwidths past the float range raise ``ArithmeticError`` (``_check_bandwidths``).
    """
    _check_bandwidths(kappa, sigma1, sigma2)
    k = kappa if pair is ParameterPair.TIME_SUM_FREQ_DIFF else -kappa
    h11 = sigma1**2 - 2.0 * k * sigma1 * sigma2 + sigma2**2
    h22 = (1.0 / sigma2**2 - 2.0 * k / (sigma1 * sigma2) + 1.0 / sigma1**2) / (
        4.0 * (1.0 - kappa**2))
    return h11, h22


def published_mixed_qfi(
    strategy: Strategy,
    pair: ParameterPair,
    sigma: float,
    t_minus: float,
    omega_minus: float,
    kappa: float = 0.0,
) -> tuple[float, float]:
    """Diagonal (H11, H22) of the published mixed-state closed forms, as printed.

    These are transcribed as printed, typos included, so they can be
    adjudicated against the oracle.  An entry printed as its asymptote minus
    a ratio over e^x - 1 is written, in the same algebra and with the same
    exponent x, as a sum of non-negative terms through h(x) = 1/x - 1/expm1(x),
    so it does not cancel to 0 as the branches meet.  Both quantum-illumination
    entries use the photon-counted normalization (asymptotes 2 sigma^2 and
    1/(2 (1-kappa^2) sigma^2)).  Raises ``ValueError`` for sigma <= 0, for
    |kappa| >= 1 under quantum illumination, and at t_minus = omega_minus = 0,
    where the branches coincide and the printed entries divide by zero, and
    ``ArithmeticError`` naming the input where sigma^2 leaves the normal
    floats or x is 0 or not finite.  Each entry is sigma^2 or 1/sigma^2 times
    a function of t_minus sigma and omega_minus/sigma, so no product of the
    bandwidths with each other or with a separation leaves the float range.
    """
    if strategy not in (Strategy.TWO_SINGLE_PHOTONS, Strategy.QUANTUM_ILLUMINATION):
        raise ValueError(f"no published mixed-state form for {strategy!r}")
    qi = strategy is Strategy.QUANTUM_ILLUMINATION
    _check_bandwidths(kappa if qi else 0.0, sigma, sigma)
    if t_minus == 0.0 and omega_minus == 0.0:
        raise ValueError("t_minus and omega_minus are both 0: the two branches coincide, "
                         "so the mixed-state entries are undefined")
    s2, k2 = sigma**2, kappa**2 if qi else 0.0
    x2, y2 = (t_minus * sigma) * (t_minus * sigma), (omega_minus / sigma) * (omega_minus / sigma)
    # the exponent x; as printed, sigma^2, not sigma^4, multiplies t_minus^2 in one form
    e4 = x2 + y2 / 4.0
    misprint = not qi and pair is ParameterPair.TIME_DIFF_FREQ_SUM
    e = y2 / 4.0 + t_minus * t_minus if misprint else e4 / (1.0 - k2)
    # every product below stays finite while x does, and none divides by 0
    if not 0.0 < e < math.inf:
        raise ArithmeticError(f"published mixed-state form is out of float range at sigma = "
                              f"{sigma!r}, t_minus = {t_minus!r}, omega_minus = {omega_minus!r}")

    def exp(x: float, fn=math.exp) -> float:
        # saturates to inf, so 1/(e^x - 1) -> 0 for large x; expm1 does not cancel as x -> 0
        try:
            return fn(x)
        except OverflowError:
            return math.inf

    if not qi:
        if pair is ParameterPair.TIME_SUM_FREQ_DIFF:
            h11 = s2 * (2.0 - 2.0 * math.exp(-e) * x2)
            # printed 1/(2 sigma^2) - (t_minus^2/2)/(e^x - 1)
            h22 = (e * _h(e) + (y2 / 4.0) / exp(e, math.expm1)) / (2.0 * s2)
        else:
            # printed 2 sigma^2 - (omega_minus^2/2)/(e^x - 1)
            h11 = 2.0 * s2 * (e * _h(e) + t_minus * t_minus / exp(e, math.expm1))
            h22 = (0.5 - math.exp(-e) * y2 / 2.0) / s2
    elif pair is ParameterPair.TIME_SUM_FREQ_DIFF:
        h11 = s2 * (2.0 - 2.0 * math.exp(-e4) * x2)
        # printed 1/(2 (1-kappa^2) sigma^2) - (t_minus^2/2)/(e^x - 1)
        h22 = (k2 * (2.0 - k2) / (1.0 - k2) + (1.0 - k2) * e * _h(e)
               + y2 / (4.0 * exp(e, math.expm1))) / (2.0 * s2)
    else:
        h11 = s2 * (2.0 - math.exp(-e4) * y2)
        # growing exponential as printed; diverges with separation (and is 0 at y = 0)
        h22 = (1.0 / (2.0 * (1.0 - k2)) - (exp(e) * y2 if y2 else 0.0) / 2.0) / s2
    return h11, h22


def asymptotic_H(
    strategy: Strategy, pair: ParameterPair, kappa: float, sigma: float
) -> tuple[float, float]:
    """Diagonal (H11, H22) in the orthogonal-branch limit at bandwidth sigma.

    The entangled value is exact at any separation; the mixed strategies
    use the orthogonal-branch limit, which is where the strategy-level
    floors (1 and 2 sqrt(1 - kappa^2)) hold.  Every strategy raises
    ``ValueError`` for sigma <= 0 or |kappa| >= 1, NaN included, and
    ``ArithmeticError`` where sigma^2 leaves the normal floats.
    """
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        return qfi_entangled(sigma, sigma, kappa, pair)
    _check_bandwidths(kappa, sigma, sigma)
    if strategy is Strategy.TWO_SINGLE_PHOTONS:
        return 2.0 * sigma**2, 1.0 / (2.0 * sigma**2)
    return sigma**2, 1.0 / (4.0 * (1.0 - kappa**2) * sigma**2)


def scenario_qcrb_covariance(
    strategy: Strategy, kappa: float, sigma1: float, sigma2: float
) -> tuple:
    """Per-shot QCRB covariance of the returned photons' (t1, t2, omega1, omega2),
    a 4x4 tuple of row tuples.

    The returned biphoton's frequencies have covariance B
    (``states.frequency_covariance``) and its times (4B)^-1
    (``states.time_covariance``), so its QFI over (t1, t2) is 4B and over
    (omega1, omega2) is B^-1, with no time-frequency cross terms.  The bound
    with every other parameter unknown is the inverse of each full block:
    (4B)^-1 for the times and B for the frequencies.  Two single photons are
    the same form at kappa = 0.  A bandwidth <= 0, or |kappa| >= 1 for the
    entangled probe, raises ``ValueError`` from ``GaussianBiphoton``.
    """
    if strategy is Strategy.TWO_SINGLE_PHOTONS:
        kappa = 0.0
    elif strategy is not Strategy.ENTANGLED_BIPHOTON:
        raise ValueError(f"no scenario QCRB for {strategy!r}")
    state = GaussianBiphoton(0.0, 0.0, 0.0, 0.0, sigma1, sigma2, kappa)
    return (tuple(row + (0.0, 0.0) for row in time_covariance(state))
            + tuple((0.0, 0.0) + row for row in frequency_covariance(state)))


def asymptotic_bound(strategy: Strategy, pair: ParameterPair, kappa: float) -> float:
    """Orthogonal-branch uncertainty-product floor Min[da db] at correlation kappa.

    The floor does not depend on the bandwidth; it is read off
    ``asymptotic_H`` at sigma = 1, which raises ``ValueError`` for |kappa| >= 1.
    """
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
    For the entangled strategy the exact closed form plays the published role.
    Inputs the closed forms reject, coincident branches included, raise ``ValueError``.
    """
    base_params = {"sigma": sigma, "kappa": kappa, "t_minus": t_minus, "omega_minus": omega_minus}
    # the closed forms first: their range errors name the input
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        published = qfi_entangled(sigma, sigma, kappa, pair)
    else:
        published = published_mixed_qfi(strategy, pair, sigma, t_minus, omega_minus, kappa)
    model = model_for(strategy, sigma1=sigma, kappa=kappa, t_minus=t_minus,
                      omega_minus=omega_minus)
    oracle = qfi_numeric(model, pair)
    # the engine's QI trace is 1; the published QI forms are photon-counted
    scale = 0.5 if strategy is Strategy.QUANTUM_ILLUMINATION else 1.0

    records = []
    for idx, name in enumerate(pair.param_names):
        paper_value = scale * published[idx]
        oracle_value = oracle.H[idx][idx]
        rel = abs(paper_value - oracle_value) / abs(oracle_value)
        records.append(
            {
                "strategy": strategy.value,
                "pair": pair.value,
                "params": dict(base_params, entry=name),
                "paper_value": paper_value,
                "oracle_value": oracle_value,
                "rel_diff": rel,
                "verdict": "confirmed" if rel <= VERDICT_RTOL else "refuted",
            }
        )
    return records
