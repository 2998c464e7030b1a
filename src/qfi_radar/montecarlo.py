"""Monte Carlo measurement simulation and end-to-end radar scenarios.

Arrival-time pairs and frequency pairs are drawn from the exact returned
state densities, combined into the sum/difference estimators, and compared
against the quantum Cramer-Rao floor 1/(N H).  Sampling is chunked with a
counter-based generator keyed by (seed, chunk index): chunk k of a draw is
the same for a fixed seed whatever the draw's length, so results are
bit-identical for a fixed seed and a longer draw extends a shorter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .analytic import qfi_entangled
from .kinematics import (
    NATURAL_UNITS,
    ParameterPair,
    PhysicalConstants,
    ProbeConfig,
    Strategy,
    Target,
    return_params,
)
from .states import GaussianBiphoton, frequency_covariance, time_covariance

__all__ = [
    "McConfig",
    "McReport",
    "sample_times",
    "sample_frequencies",
    "estimate_pair",
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
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
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

    Rows [k * CHUNK_SIZE, (k + 1) * CHUNK_SIZE) are standard normals from
    Philox(key=[seed, k]); the lower-triangular Cholesky factor and the mean
    are then applied in place, column by column.
    """
    (l00, _), (l10, l11) = np.linalg.cholesky(cov)
    out = np.empty((n, 2))
    for k, start in enumerate(range(0, n, CHUNK_SIZE)):
        rng = np.random.Generator(np.random.Philox(key=[seed, k]))
        rng.standard_normal(out=out[start : start + CHUNK_SIZE])
    x, y = out[:, 0], out[:, 1]
    y *= l11
    y += l10 * x
    y += mean[1]
    x *= l00
    x += mean[0]
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
    if qfi_entry <= 0:
        raise ValueError("QFI entry must be positive")
    values = _combine(samples, pair, domain)
    n = len(values)
    # np.mean and np.var(ddof=1), step for step, on the fresh combination
    mean = float(np.mean(values))
    values -= mean
    np.square(values, out=values)
    var = float(np.sum(values)) / (n - 1)
    qcrb = 1.0 / qfi_entry
    # chi-square quantiles with n - 1 degrees of freedom, as scipy.stats.chi2.ppf
    df = n - 1
    lo = df * var / (2.0 * float(special.gammaincinv(df / 2.0, 0.995)))
    hi = df * var / (2.0 * float(special.gammaincinv(df / 2.0, 0.005)))
    return McReport(
        pair=pair,
        domain=domain,
        n_samples=n,
        estimate=mean,
        variance=var,
        qcrb_variance=qcrb,
        ratio=var / qcrb,
        variance_interval_99=(lo, hi),
    )


def run_scenario(
    scenario: str,
    targets: tuple[Target, Target],
    probe: ProbeConfig,
    n_shots: int,
    seed: int,
    consts: PhysicalConstants = NATURAL_UNITS,
    time_fraction: float = 0.5,
) -> dict:
    """End-to-end radar estimation of physical target properties.

    ``multibody`` estimates the central position c*t_plus/4 of two
    scatterers and their relative velocity from the per-photon Doppler
    inversions.  ``moving_object`` estimates the radial size and the common
    velocity of a rigid two-point object via the exact Doppler-factor
    inversion of the frequency sum.  Half the shot budget (by default) goes
    to time-domain detection and the rest to frequency-domain detection,
    since one photon cannot yield both precisely.  Reported alongside are
    the standard errors the per-shot QCRB predicts for the same shot split.
    """
    if scenario not in ("multibody", "moving_object"):
        raise ValueError(f"unknown scenario {scenario!r}")
    if probe.strategy not in MC_STRATEGIES:
        raise ValueError(f"scenario simulation supports {[s.value for s in MC_STRATEGIES]}")
    if n_shots < 4:
        raise ValueError("need at least 4 shots to split across domains")
    if not 0.0 < time_fraction < 1.0:
        raise ValueError("time_fraction must be in (0, 1)")

    rp = return_params(targets[0], targets[1], probe, consts)
    state = GaussianBiphoton(
        t1_bar=rp.t1,
        t2_bar=rp.t2,
        omega1_bar=rp.omega1,
        omega2_bar=rp.omega2,
        sigma1=rp.sigma1,
        sigma2=rp.sigma2,
        kappa=probe.kappa,
    )
    n_time = int(round(n_shots * time_fraction))
    n_freq = n_shots - n_time
    t_cfg = McConfig(n_time, seed, "time", probe.strategy)
    f_cfg = McConfig(n_freq, seed + 1, "frequency", probe.strategy)
    times = sample_times(state, t_cfg)
    freqs = sample_frequencies(state, f_cfg)
    c = consts.c

    # per-shot QCRB variances at the returned-state parameters
    pair = (
        ParameterPair.TIME_SUM_FREQ_DIFF
        if scenario == "multibody"
        else ParameterPair.TIME_DIFF_FREQ_SUM
    )
    if probe.strategy is Strategy.ENTANGLED_BIPHOTON:
        H = qfi_entangled(rp.sigma1, rp.sigma2, probe.kappa, pair).H
    else:
        # known-assignment single photons: classical Fisher information of
        # independent Gaussian marginals
        var_t = 1.0 / (4.0 * rp.sigma1**2) + 1.0 / (4.0 * rp.sigma2**2)
        var_w = rp.sigma1**2 + rp.sigma2**2
        H = np.diag([1.0 / var_t, 1.0 / var_w])

    if scenario == "multibody":
        t_plus = _combine(times, pair, "time")
        t_plus_hat = float(np.mean(t_plus))
        se_t_plus = float(np.std(t_plus, ddof=1)) / math.sqrt(n_time)
        midpoint_hat = c * t_plus_hat / 4.0
        se_midpoint = c * se_t_plus / 4.0

        w1_hat = float(np.mean(freqs[:, 0]))
        w2_hat = float(np.mean(freqs[:, 1]))
        v1_hat = c * (probe.omega0 - w1_hat) / (probe.omega0 + w1_hat)
        v2_hat = c * (probe.omega0 - w2_hat) / (probe.omega0 + w2_hat)
        dv_dw1 = -2.0 * c * probe.omega0 / (probe.omega0 + w1_hat) ** 2
        dv_dw2 = -2.0 * c * probe.omega0 / (probe.omega0 + w2_hat) ** 2
        delta_v_hat = v2_hat - v1_hat
        # delta method with the sample covariance: w1 and w2 are correlated
        grad = np.array([-dv_dw1, dv_dw2])
        se_delta_v = math.sqrt(grad @ np.cov(freqs, rowvar=False) @ grad / n_freq)

        pred_se_midpoint = (c / 4.0) * math.sqrt(1.0 / (n_time * H[0, 0]))
        # linearized map delta_v = -c * omega_minus / (2 omega0)
        pred_se_delta_v = (c / (2.0 * probe.omega0)) * math.sqrt(1.0 / (n_freq * H[1, 1]))
        truth_mid = (targets[0].r + targets[1].r) / 2.0
        truth_dv = targets[1].v - targets[0].v
        estimates = {"midpoint": midpoint_hat, "delta_v": delta_v_hat}
        std_errors = {"midpoint": se_midpoint, "delta_v": se_delta_v}
        predicted = {"midpoint": pred_se_midpoint, "delta_v": pred_se_delta_v}
        truth = {"midpoint": truth_mid, "delta_v": truth_dv}
    else:
        t_minus = _combine(times, pair, "time")
        w_plus = _combine(freqs, pair, "frequency")
        t_minus_hat = float(np.mean(t_minus))
        w_plus_hat = float(np.mean(w_plus))
        se_t_minus = float(np.std(t_minus, ddof=1)) / math.sqrt(n_time)
        se_w_plus = float(np.std(w_plus, ddof=1)) / math.sqrt(n_freq)

        v_hat = c * (2.0 * probe.omega0 - w_plus_hat) / (2.0 * probe.omega0 + w_plus_hat)
        dv_dwp = -4.0 * c * probe.omega0 / (2.0 * probe.omega0 + w_plus_hat) ** 2
        se_v = abs(dv_dwp) * se_w_plus
        size_hat = t_minus_hat * (c - v_hat) / 2.0
        se_size = math.hypot((c - v_hat) / 2.0 * se_t_minus, t_minus_hat / 2.0 * se_v)

        v_true = targets[0].v
        w_plus_true = rp.omega1 + rp.omega2
        dv_dwp_true = -4.0 * c * probe.omega0 / (2.0 * probe.omega0 + w_plus_true) ** 2
        pred_se_t_minus = math.sqrt(1.0 / (n_time * H[0, 0]))
        pred_se_v = abs(dv_dwp_true) * math.sqrt(1.0 / (n_freq * H[1, 1]))
        t_minus_true = rp.t2 - rp.t1
        pred_se_size = math.hypot(
            (c - v_true) / 2.0 * pred_se_t_minus, t_minus_true / 2.0 * pred_se_v
        )
        estimates = {"size": size_hat, "velocity": v_hat}
        std_errors = {"size": se_size, "velocity": se_v}
        predicted = {"size": pred_se_size, "velocity": pred_se_v}
        truth = {"size": targets[1].r - targets[0].r, "velocity": v_true}

    return {
        "scenario": scenario,
        "strategy": probe.strategy.value,
        "n_shots": n_shots,
        "n_time_shots": n_time,
        "n_frequency_shots": n_freq,
        "seed": seed,
        "estimates": estimates,
        "std_errors": std_errors,
        "predicted_qcrb_std_errors": predicted,
        "truth": truth,
    }
