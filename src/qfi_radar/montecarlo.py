"""Monte Carlo measurement simulation and end-to-end radar scenarios.

Arrival-time pairs and frequency pairs are drawn from the exact returned
state densities, combined into the sum/difference estimators, and compared
against the quantum Cramer-Rao floor 1/(N H).  Sampling is chunked: chunk k
of a draw comes from an SFC64 generator seeded by
SeedSequence(seed, spawn_key=(k,)), so it is the same for a fixed seed
whatever the draw's length, results are bit-identical for a fixed seed, and
a longer draw extends a shorter one.

Variance intervals take their chi-square quantiles from ``scipy.special``,
which ``variance_interval`` imports at its first call: scipy is needed only
for Monte Carlo intervals (``simulate`` and the selftest), and importing the
package loads nothing beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytic import scenario_qcrb_covariance
from .kinematics import (
    SCENARIOS,
    ParameterPair,
    ProbeConfig,
    Strategy,
    Target,
    returned_state,
    target_estimates,
)
from .states import GaussianBiphoton, frequency_covariance, time_covariance

__all__ = [
    "McConfig",
    "McReport",
    "sample_times",
    "sample_frequencies",
    "estimate_pair",
    "variance_interval",
    "run_scenario",
]

CHUNK_SIZE = 8192
MC_STRATEGIES = (Strategy.ENTANGLED_BIPHOTON, Strategy.TWO_SINGLE_PHOTONS)


@dataclass(frozen=True)
class McConfig:
    """Sampling campaign settings for one measurement domain."""

    n_samples: int
    seed: int
    domain: str = "time"
    strategy: Strategy = Strategy.ENTANGLED_BIPHOTON

    def __post_init__(self) -> None:
        if (not isinstance(self.n_samples, (int, np.integer)) or isinstance(self.n_samples, bool)
                or not self.n_samples >= 2):
            raise ValueError(f"n_samples must be at least 2 and an integer, got {self.n_samples}")
        if (not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.domain not in ("time", "frequency"):
            raise ValueError(f"domain must be 'time' or 'frequency', got {self.domain!r}")
        if self.strategy not in MC_STRATEGIES:
            raise ValueError(
                f"Monte Carlo supports {[s.value for s in MC_STRATEGIES]}, "
                f"got {self.strategy.value}"
            )


@dataclass
class McReport:
    """Empirical estimator statistics against the per-shot QCRB variance."""

    pair: ParameterPair
    domain: str
    n_samples: int
    estimate: float
    variance: float
    qcrb_variance: float
    ratio: float
    variance_interval_99: tuple[float, float]


def _sample_bivariate(
    mean: np.ndarray, cov: np.ndarray, n: int, seed: int
) -> np.ndarray:
    """Draw n correlated Gaussian pairs, chunked and reproducibly keyed.

    Rows [k * CHUNK_SIZE, (k + 1) * CHUNK_SIZE) are filled row-major with
    standard normals from SFC64(SeedSequence(seed, spawn_key=(k,))), so chunk
    k depends on (seed, k) alone.  The lower-triangular Cholesky factor and
    the mean are applied to each chunk in place right after it is drawn,
    while it is still in cache.
    """
    (l00, _), (l10, l11) = np.linalg.cholesky(cov)
    m0, m1 = mean
    out = np.empty((n, 2))
    for k, start in enumerate(range(0, n, CHUNK_SIZE)):
        block = out[start : start + CHUNK_SIZE]
        bitgen = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k,)))
        np.random.Generator(bitgen).standard_normal(out=block)
        x, y = block[:, 0], block[:, 1]
        y *= l11
        y += l10 * x
        y += m1
        x *= l00
        x += m0
    return out


def _sampling_moments(
    state: GaussianBiphoton, domain: str, strategy: Strategy
) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance of the measured pair for a returned state.

    Two independent single photons carry no correlation, so they are sampled
    from the kappa = 0 state: variance 1/(4 sigma_i^2) in time and sigma_i^2
    in frequency, with zero cross-covariance.
    """
    if strategy is Strategy.TWO_SINGLE_PHOTONS:
        state = replace(state, kappa=0.0)
    if domain == "time":
        return state.centers(), time_covariance(state)
    return state.carriers(), frequency_covariance(state)


def sample_times(state: GaussianBiphoton, config: McConfig) -> np.ndarray:
    """Arrival-time pairs (t1, t2) drawn from |phi(t1, t2)|^2."""
    if config.domain != "time":
        raise ValueError("config.domain must be 'time' for sample_times")
    mean, cov = _sampling_moments(state, "time", config.strategy)
    return _sample_bivariate(mean, cov, config.n_samples, config.seed)


def sample_frequencies(state: GaussianBiphoton, config: McConfig) -> np.ndarray:
    """Frequency pairs (w1, w2) drawn from the joint spectral intensity."""
    if config.domain != "frequency":
        raise ValueError("config.domain must be 'frequency' for sample_frequencies")
    mean, cov = _sampling_moments(state, "frequency", config.strategy)
    return _sample_bivariate(mean, cov, config.n_samples, config.seed)


def _combine(samples: np.ndarray, pair: ParameterPair, domain: str) -> np.ndarray:
    """Per-shot estimator: t1+t2 / w2-w1 (pair A) or t2-t1 / w1+w2 (pair B)."""
    a, b = samples[:, 0], samples[:, 1]
    if pair is ParameterPair.TIME_SUM_FREQ_DIFF:
        return a + b if domain == "time" else b - a
    return b - a if domain == "time" else a + b


def estimate_pair(
    samples: np.ndarray,
    pair: ParameterPair,
    domain: str,
    qfi_entry: float,
) -> McReport:
    """Empirical statistics of one pair component against its QCRB variance.

    ``qfi_entry`` is the information-matrix diagonal entry for the component
    this domain measures; the QCRB per-shot variance is its reciprocal.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
        raise ValueError("need an (n, 2) sample array with n >= 2")
    if domain not in ("time", "frequency"):
        raise ValueError(f"unknown domain {domain!r}")
    if not qfi_entry > 0:
        raise ValueError("QFI entry must be positive")
    values = _combine(samples, pair, domain)
    n = len(values)
    # np.mean and np.var(ddof=1), step for step, on the fresh combination
    mean = float(np.mean(values))
    values -= mean
    np.square(values, out=values)
    var = float(np.sum(values)) / (n - 1)
    qcrb = 1.0 / qfi_entry
    return McReport(
        pair=pair,
        domain=domain,
        n_samples=n,
        estimate=mean,
        variance=var,
        qcrb_variance=qcrb,
        ratio=var / qcrb,
        variance_interval_99=variance_interval(var, n, 0.01),
    )


def variance_interval(variance: float, n: int, alpha: float) -> tuple[float, float]:
    """Two-sided 1 - alpha interval for the variance of n Gaussian draws.

    The bounds divide (n - 1) times the sample variance by the chi-square
    quantiles at 1 - alpha/2 and alpha/2 with n - 1 degrees of freedom,
    computed as scipy.stats.chi2.ppf does; scipy loads at the first call.
    """
    from scipy.special import gammaincinv

    df = n - 1
    q = gammaincinv(df / 2.0, (1.0 - alpha / 2.0, alpha / 2.0))
    lo, hi = (df * variance / (2.0 * q)).tolist()
    return lo, hi


def run_scenario(
    scenario: str,
    targets: tuple[Target, Target],
    probe: ProbeConfig,
    n_shots: int,
    seed: int,
) -> dict:
    """End-to-end radar estimation of physical target properties.

    The targets return the biphoton ``kinematics.returned_state`` gives.
    ``multibody`` estimates the midpoint c (t1 + t2)/4 of two scatterers
    and their relative velocity; ``moving_object`` estimates the radial
    size and common velocity of a rigid two-point object, so its targets
    must share one velocity (a ``ValueError`` otherwise; see
    ``kinematics.target_estimates``).  Half the shots go to time-domain
    detection and the rest to frequency-domain detection, since one photon
    cannot yield both precisely.  The estimates and their standard errors
    come from the sample means of the drawn (t1, t2, omega1, omega2) and
    their block sample covariance, and the predicted standard errors from
    the per-shot QCRB covariance (``analytic.scenario_qcrb_covariance``)
    at the true returned bandwidths, split the same way.  That bound holds
    every other parameter unknown, for both strategies and at any v1, v2.
    A probe of a strategy Monte Carlo cannot sample (quantum illumination)
    fails in the first ``McConfig``, before any draw.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == "moving_object" and targets[0].v != targets[1].v:
        raise ValueError(
            f"moving_object assumes a rigid body: both targets need one velocity, "
            f"got {targets[0].v} and {targets[1].v}"
        )
    if n_shots < 4:
        raise ValueError("need at least 4 shots to split across domains")

    state = returned_state(targets[0], targets[1], probe)
    n_time = int(round(n_shots / 2))
    n_freq = n_shots - n_time
    times = sample_times(state, McConfig(n_time, seed, "time", probe.strategy))
    freqs = sample_frequencies(state, McConfig(n_freq, seed + 1, "frequency", probe.strategy))
    # rows t1, t2 and omega1, omega2, contiguous so that each mean is a pairwise sum
    t_cols, w_cols = np.ascontiguousarray(times.T), np.ascontiguousarray(freqs.T)
    means = np.concatenate([t_cols.mean(axis=1), w_cols.mean(axis=1)])
    cov = np.zeros((4, 4))
    cov[:2, :2] = np.cov(t_cols) / n_time
    cov[2:, 2:] = np.cov(w_cols) / n_freq
    values, grad = target_estimates(scenario, means, probe.omega0)

    if scenario == "multibody":
        truth = ((targets[0].r + targets[1].r) / 2.0, targets[1].v - targets[0].v)
    else:
        truth = (targets[1].r - targets[0].r, targets[0].v)
    qcrb = scenario_qcrb_covariance(probe.strategy, probe.kappa, state.sigma1, state.sigma2)
    qcrb[:2, :2] /= n_time
    qcrb[2:, 2:] /= n_freq
    x_true = np.concatenate([state.centers(), state.carriers()])
    _, grad_true = target_estimates(scenario, x_true, probe.omega0)

    def named(xs) -> dict:
        return dict(zip(SCENARIOS[scenario], map(float, xs)))

    return {
        "scenario": scenario,
        "strategy": probe.strategy.value,
        "n_shots": n_shots,
        "n_time_shots": n_time,
        "n_frequency_shots": n_freq,
        "seed": seed,
        "estimates": named(values),
        "std_errors": named(np.sqrt(np.diag(grad @ cov @ grad.T))),
        "predicted_qcrb_std_errors": named(np.sqrt(np.diag(grad_true @ qcrb @ grad_true.T))),
        "truth": named(truth),
    }
