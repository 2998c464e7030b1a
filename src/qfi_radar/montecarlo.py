"""Monte Carlo measurement simulation and end-to-end radar scenarios.

Arrival-time pairs and frequency pairs are drawn from the exact returned
state densities, combined into the sum/difference estimators, and compared
against the quantum Cramer-Rao floor 1/(N H).  A draw of n pairs is the
first 2n standard normals of one SFC64 generator seeded by the draw's seed,
so results are bit-identical for a fixed seed and a longer draw extends a
shorter one.  This is the one module that needs numpy, and only the
functions that draw or reduce samples import it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

from .analytic import asymptotic_H, scenario_qcrb_covariance
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
    "measure_pair",
    "variance_interval",
    "run_scenario",
]

CHUNK_SIZE = 8192
MC_STRATEGIES = (Strategy.ENTANGLED_BIPHOTON, Strategy.TWO_SINGLE_PHOTONS)


def _is_integer(x) -> bool:
    """Whether x is an integer (numpy's included) and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class McConfig:
    """Sampling campaign settings for one measurement domain."""

    n_samples: int
    seed: int
    domain: str = "time"
    strategy: Strategy = Strategy.ENTANGLED_BIPHOTON

    def __post_init__(self) -> None:
        if not _is_integer(self.n_samples) or not self.n_samples >= 2:
            raise ValueError(f"n_samples, the draws per domain, must be at least 2 and an "
                             f"integer, got {self.n_samples}")
        if not _is_integer(self.seed) or self.seed < 0:
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

    n_samples: int
    estimate: float
    variance: float
    qcrb_variance: float
    ratio: float
    variance_interval_99: tuple[float, float]


def _sample_bivariate(mean, cov, n: int, seed: int):
    """Draw n correlated Gaussian pairs, an (n, 2) array: the first 2n normals
    of SFC64(seed).

    One generator fills the rows row-major, CHUNK_SIZE rows at a time, and
    the lower-triangular Cholesky factor and the mean are applied to each
    block in place while it is still in cache; the block size shapes no byte.
    """
    import numpy as np

    cov = np.asarray(cov)
    if not np.isfinite(cov).all():
        raise ArithmeticError(f"sampling covariance is not finite: {cov.tolist()}")
    (l00, _), (l10, l11) = np.linalg.cholesky(cov)
    m0, m1 = mean
    out = np.empty((n, 2))
    rng = np.random.Generator(np.random.SFC64(seed))
    for start in range(0, n, CHUNK_SIZE):
        block = out[start : start + CHUNK_SIZE]
        rng.standard_normal(out=block)
        x, y = block[:, 0], block[:, 1]
        y *= l11
        y += l10 * x
        y += m1
        x *= l00
        x += m0
    return out


def _sampling_moments(state: GaussianBiphoton, config: McConfig) -> tuple:
    """Mean pair and 2x2 covariance of the pair ``config`` measures on a returned state.

    Two independent single photons carry no correlation, so they are sampled
    from the kappa = 0 state: variance 1/(4 sigma_i^2) in time and sigma_i^2
    in frequency, with zero cross-covariance.
    """
    if config.strategy is Strategy.TWO_SINGLE_PHOTONS:
        state = replace(state, kappa=0.0)
    if config.domain == "time":
        return state.centers(), time_covariance(state)
    return state.carriers(), frequency_covariance(state)


def sample_times(state: GaussianBiphoton, config: McConfig):
    """Arrival-time pairs (t1, t2) drawn from |phi(t1, t2)|^2, an (n, 2) array."""
    if config.domain != "time":
        raise ValueError("config.domain must be 'time' for sample_times")
    mean, cov = _sampling_moments(state, config)
    return _sample_bivariate(mean, cov, config.n_samples, config.seed)


def sample_frequencies(state: GaussianBiphoton, config: McConfig):
    """Frequency pairs (w1, w2) drawn from the joint spectral intensity, an (n, 2) array."""
    if config.domain != "frequency":
        raise ValueError("config.domain must be 'frequency' for sample_frequencies")
    mean, cov = _sampling_moments(state, config)
    return _sample_bivariate(mean, cov, config.n_samples, config.seed)


def _draw_offsets(
    state: GaussianBiphoton, strategy: Strategy, n_time: int, n_freq: int, seed: int
) -> tuple:
    """Time pairs drawn at ``seed`` and frequency pairs at ``seed + 1``, as offsets
    from the state's own centers and carriers, so no coordinate costs digits."""
    time_config = McConfig(n_time, seed, "time", strategy)
    freq_config = McConfig(n_freq, seed + 1, "frequency", strategy)
    origin = replace(state, t1_bar=0.0, t2_bar=0.0, omega1_bar=0.0, omega2_bar=0.0)
    return sample_times(origin, time_config), sample_frequencies(origin, freq_config)


def _combine(a, b, pair: ParameterPair, domain: str):
    """Per-shot estimator from a pair's two columns or values a, b:
    t1+t2 / w2-w1 (pair A) or t2-t1 / w1+w2 (pair B)."""
    if pair is ParameterPair.TIME_SUM_FREQ_DIFF:
        return a + b if domain == "time" else b - a
    return b - a if domain == "time" else a + b


def estimate_pair(
    samples,
    pair: ParameterPair,
    domain: str,
    qfi_entry: float,
) -> McReport:
    """Empirical statistics of one pair component against its QCRB variance.

    ``qfi_entry`` is the information-matrix diagonal entry for the component
    this domain measures; the QCRB per-shot variance is its reciprocal.
    ``samples`` is an (n, 2) array of draws.
    """
    import numpy as np

    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
        raise ValueError("need an (n, 2) sample array with n >= 2")
    if domain not in ("time", "frequency"):
        raise ValueError(f"unknown domain {domain!r}")
    if not qfi_entry > 0:
        raise ValueError("QFI entry must be positive")
    values = _combine(samples[:, 0], samples[:, 1], pair, domain)
    n = len(values)
    # np.mean and np.var(ddof=1), step for step, on the fresh combination
    mean = float(np.mean(values))
    values -= mean
    np.square(values, out=values)
    var = float(np.sum(values)) / (n - 1)
    qcrb = 1.0 / qfi_entry
    return McReport(
        n_samples=n,
        estimate=mean,
        variance=var,
        qcrb_variance=qcrb,
        ratio=var / qcrb,
        variance_interval_99=variance_interval(var, n, 0.01),
    )


def measure_pair(
    strategy: Strategy, pair: ParameterPair, kappa: float, sigma: float, n: int, seed: int
) -> tuple[McReport, McReport]:
    """Time and frequency reports of ``pair`` on the biphoton at centers 0,
    carriers 1 and bandwidth sigma, against its ``asymptotic_H`` entries.
    Each estimate is taken from offsets and shifted back to those coordinates."""
    state = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, sigma, kappa)
    entries = asymptotic_H(strategy, pair, kappa, sigma)
    draws = _draw_offsets(state, strategy, n, n, seed)
    reports = []
    for domain, samples, entry, x in zip(("time", "frequency"), draws, entries,
                                         (state.centers(), state.carriers())):
        report = estimate_pair(samples, pair, domain, entry)
        report.estimate = float(report.estimate + _combine(*x, pair, domain))
        reports.append(report)
    return tuple(reports)


def _log_gamma_front(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)), without cancellation at large a.

    From a = 20 the terms of size a log a are taken out analytically:
    a (log(x/a) - x/a + 1) + log(a/2 pi)/2 minus Stirling's series for
    lgamma through 1/(1680 a^7), whose next term is below 2e-15 there.
    """
    if a < 20.0:
        return a * math.log(x) - x - math.lgamma(a)
    t = x / a - 1.0
    log_r = math.log1p(t) if abs(t) < 0.5 else math.log(x / a)
    b = 1.0 / (a * a)
    stirling = (1.0 / 12.0 - b * (1.0 / 360.0 - b * (1.0 / 1260.0 - b / 1680.0))) / a
    return a * (log_r - t) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _log_gamma_tail(a: float, x: float, lower: bool) -> tuple[float, float]:
    """log P(a, x) if lower else log Q(a, x), and that tail over x^a e^-x / Gamma(a).

    The power series for P below x = a + 1 and the modified Lentz continued
    fraction for Q above it; the other tail is one minus it.
    """
    eps = 2.0**-52  # the double-precision machine epsilon
    series = x < a + 1.0
    if series:
        term = scaled = 1.0 / a
        k = a
        while term > scaled * eps:
            k += 1.0
            term *= x / k
            scaled += term
    else:
        b = x + 1.0 - a
        c, d = math.inf, 1.0 / b
        scaled, i = d, 0
        while abs(c * d - 1.0) > eps:
            i += 1
            an = i * (a - i)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            scaled *= c * d
    log_front = _log_gamma_front(a, x)
    if series == lower:
        return log_front + math.log(scaled), scaled
    tail = -math.expm1(log_front + math.log(scaled))
    return math.log(tail), tail * math.exp(-log_front)


@functools.lru_cache
def _chi2_quantile(df: int, p: float) -> float:
    """The p quantile of the chi-square law with df degrees of freedom.

    Newton steps in u = log x on the log of the smaller tail of the
    regularized incomplete gamma function at a = df/2 (DiDonato & Morris,
    ACM TOMS 12, 377 (1986)), from a Wilson-Hilferty start.  Both tails are
    log-concave in u, so once a step is not clamped (to 5 in size) the
    iteration approaches the root monotonically from one side.
    """
    a = df / 2.0
    # the normal quantile to 4.5e-4 (Abramowitz & Stegun 26.2.23) starts it well enough
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    c = 2.0 / (9.0 * df)
    wh = 1.0 - c + math.copysign(z, p - 0.5) * math.sqrt(c)
    # where the cube goes negative, the lower-tail limit P ~ x^a / Gamma(a + 1)
    u = math.log(a * wh**3) if wh > 0.0 else (math.log(p) + math.lgamma(a + 1.0)) / a
    lower = p < 0.5
    log_target = math.log(p if lower else 1.0 - p)
    for _ in range(100):
        log_tail, ratio = _log_gamma_tail(a, math.exp(u), lower)
        # d log(tail) / du is 1/ratio for P and -1/ratio for Q
        step = (log_target - log_tail) * (ratio if lower else -ratio)
        u += max(-5.0, min(5.0, step))
        if abs(step) < 1e-10:
            return 2.0 * math.exp(u)
    raise ArithmeticError(f"chi-square quantile did not converge (df={df}, p={p})")


def variance_interval(variance: float, n: int, alpha: float) -> tuple[float, float]:
    """Two-sided 1 - alpha interval for the variance of n Gaussian draws.

    The bounds divide (n - 1) times the sample variance by the chi-square
    quantiles at 1 - alpha/2 and alpha/2 with n - 1 degrees of freedom.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    df = n - 1
    return tuple(float(df * variance / _chi2_quantile(df, p))
                 for p in (1.0 - alpha / 2.0, alpha / 2.0))


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
    Times are drawn at ``seed`` and frequencies at ``seed + 1``, as in
    ``measure_pair``: offsets from the photons' own coordinates, whose
    sample means ``target_estimates`` takes apart from those coordinates, so
    a velocity keeps its digits at any carrier (a midpoint near 1e200
    cannot: no float there holds the offset).
    A probe of a strategy Monte Carlo cannot sample (quantum illumination)
    fails in the first ``McConfig``, before any draw; a report with a number
    that is not finite, or a standard error that underflows to 0, raises
    ``ArithmeticError``.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == "moving_object" and targets[0].v != targets[1].v:
        raise ValueError(
            f"moving_object assumes a rigid body: both targets need one velocity, "
            f"got {targets[0].v} and {targets[1].v}"
        )
    if not _is_integer(n_shots) or n_shots < 4:
        raise ValueError(f"n_shots, the shots over both domains, must be an integer of at "
                         f"least 4 (2 per domain), got {n_shots!r}")

    import numpy as np

    n_time = n_shots // 2
    n_freq = n_shots - n_time

    def estimates(dx, time_cov, freq_cov):
        """The quantities at offset dx from the photons' own coordinates and
        their standard errors, from each domain's per-shot covariance over
        its shot count."""
        cov = np.zeros((4, 4))
        cov[:2, :2] = time_cov / n_time
        cov[2:, 2:] = freq_cov / n_freq
        values, grad = target_estimates(scenario, x, probe.omega0, dx)
        grad = np.array(grad)
        return values, np.sqrt(np.diag(grad @ cov @ grad.T))

    # an overflow or a division by zero is a non-finite report, raised below
    with np.errstate(all="ignore"):
        state = returned_state(targets[0], targets[1], probe)
        times, freqs = _draw_offsets(state, probe.strategy, n_time, n_freq, seed)
        # rows t1, t2 and omega1, omega2, contiguous so that each mean is a pairwise sum
        t_cols, w_cols = np.ascontiguousarray(times.T), np.ascontiguousarray(freqs.T)
        x = (*state.centers(), *state.carriers())
        means = np.concatenate([t_cols.mean(axis=1), w_cols.mean(axis=1)])
        values, std_errors = estimates(means, np.cov(t_cols), np.cov(w_cols))
        qcrb = np.array(
            scenario_qcrb_covariance(probe.strategy, probe.kappa, state.sigma1, state.sigma2))
        _, predicted = estimates(np.zeros(4), qcrb[:2, :2], qcrb[2:, 2:])

    if scenario == "multibody":
        truth = ((targets[0].r + targets[1].r) / 2.0, targets[1].v - targets[0].v)
    else:
        truth = (targets[1].r - targets[0].r, targets[0].v)

    def named(xs) -> dict:
        return dict(zip(SCENARIOS[scenario], map(float, xs)))

    report = {
        "scenario": scenario,
        "strategy": probe.strategy.value,
        "n_shots": n_shots,
        "n_time_shots": n_time,
        "n_frequency_shots": n_freq,
        "seed": seed,
        "estimates": named(values),
        "std_errors": named(std_errors),
        "predicted_qcrb_std_errors": named(predicted),
        "truth": named(truth),
    }
    for key in ("estimates", "std_errors", "predicted_qcrb_std_errors", "truth"):
        if not np.isfinite(list(report[key].values())).all():
            raise ArithmeticError(f"scenario {key} are not finite: {report[key]}")
    # n >= 4 draws of a positive bandwidth have a spread; a zero one underflowed
    if not all(se > 0.0 for se in report["std_errors"].values()):
        raise ArithmeticError(f"scenario std_errors underflow to 0: {report['std_errors']}")
    return report
