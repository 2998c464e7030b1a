"""Monte Carlo measurement simulation and end-to-end radar scenarios.

n photon pairs measured on the exact returned state densities, combined
into the sum/difference estimators and compared against the quantum
Cramer-Rao floor 1/(N H).  ``measure_pair`` and ``run_scenario`` read the
pairs only through their sample mean and (co)variance, which they draw from
its exact law with the standard library.  Only the sample-level functions,
which draw the pairs as the first 2n normals of SFC64(seed), import numpy.
``MC_STRATEGIES`` lives in ``kinematics``, so the CLI builds its parser
without this module; ``import qfi_radar`` loads it on first use of a name.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

from .analytic import asymptotic_H, scenario_qcrb_covariance
from .kinematics import (
    MC_STRATEGIES,
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
        # a chi-square quantile's cost grows as the root of n: 16 ms at 1e9
        if not _is_integer(self.n_samples) or not 2 <= self.n_samples <= 10**9:
            raise ValueError(f"n_samples, the draws per domain, must be an integer from 2 to "
                             f"10**9, got {self.n_samples}")
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
        state = GaussianBiphoton(*state.centers(), *state.carriers(),
                                 state.sigma1, state.sigma2, 0.0)
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
    return _report(n, mean, var, qfi_entry)


def _report(n: int, estimate: float, var: float, qfi_entry: float) -> McReport:
    """The report of n shots' mean ``estimate`` and variance ``var`` against the
    QCRB per-shot variance 1/``qfi_entry``, with var's 99% interval."""
    qcrb = 1.0 / qfi_entry
    return McReport(n, estimate, var, qcrb, var / qcrb, variance_interval(var, n, 0.01))


def _draw_statistics(config: McConfig, normals: int, dfs: tuple) -> tuple:
    """``normals`` standard normals, then a chi-square variate per degrees of
    freedom in ``dfs`` (0 gives 0), from ``random.Random("<seed>/<domain>")``
    (seeded by SHA-512): inverse CDFs of uniforms (k + 1/2)/2^52, inside (0, 1)
    with 1 - u exact, from the one sequence Python keeps across versions."""
    import random
    import statistics

    rng = random.Random(f"{config.seed}/{config.domain}")
    u = [(math.floor(rng.random() * 2**52) + 0.5) / 2**52 for _ in range(normals + len(dfs))]
    # the chi-square quantile uncached: random levels would evict the intervals' quantiles
    return ([statistics.NormalDist().inv_cdf(p) for p in u[:normals]],
            [_chi2_quantile.__wrapped__(df, p) if df else 0.0 for df, p in zip(dfs, u[normals:])])


def measure_pair(
    strategy: Strategy, pair: ParameterPair, kappa: float, sigma: float, n: int, seed: int
) -> tuple[McReport, McReport]:
    """Time and frequency reports of ``pair`` on the biphoton at centers 0,
    carriers 1 and bandwidth sigma, against its ``asymptotic_H`` entries,
    drawn at ``seed`` and ``seed + 1``: the mean and sample variance of n
    pairs' combination a^T x are independent, N(a^T mu, v/n) and
    v chi2(n - 1)/(n - 1) with v = a^T Sigma a (Cochran's theorem)."""
    state = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, sigma, kappa)
    configs = (McConfig(n, seed, "time", strategy), McConfig(n, seed + 1, "frequency", strategy))
    reports = []
    for config, entry in zip(configs, asymptotic_H(strategy, pair, kappa, sigma)):
        mean, ((s11, s12), (_, s22)) = _sampling_moments(state, config)
        a1, a2 = (_combine(*e, pair, config.domain) for e in ((1.0, 0.0), (0.0, 1.0)))
        v = s11 + s22 + 2.0 * a1 * a2 * s12
        (z,), (chi2,) = _draw_statistics(config, 1, (n - 1,))
        estimate = _combine(*mean, pair, config.domain) + math.sqrt(v / n) * z
        reports.append(_report(n, estimate, v * chi2 / (n - 1), entry))
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


def _cholesky(cov, n: int) -> tuple:
    """Lower-triangular L, a 2x2 tuple of rows, with L L^T = cov / n."""
    (s11, s12), (_, s22) = cov
    l11 = math.sqrt(s11 / n)
    l21 = s12 / n / l11
    return (l11, 0.0), (l21, math.sqrt(s22 / n - l21 * l21))


def _std_errors(grad, factors) -> list:
    """|F^T g| over the time and frequency blocks of each gradient row g, F
    being each domain's lower-triangular factor of its mean's covariance."""
    return [math.sqrt(sum(t * t for ((f11, _), (f21, f22)), (g1, g2)
                          in zip(factors, (row[:2], row[2:]))
                          for t in (f11 * g1 + f21 * g2, f22 * g2)))
            for row in grad]


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
    and their relative velocity; ``moving_object`` the radial size and
    common velocity of a rigid two-point object, whose targets must share
    one velocity (``ValueError`` otherwise; see ``target_estimates``).
    Half the shots go to time-domain detection and the rest to frequency-
    domain detection, since one photon cannot yield both precisely.  Each
    domain's sample mean and covariance are drawn from their exact law,
    times at ``seed`` and frequencies at ``seed + 1`` as in ``measure_pair``;
    the means are offsets from the photons' own coordinates, which
    ``target_estimates`` takes apart, so a velocity keeps its digits at any
    carrier (a midpoint near 1e200 cannot: no float there holds the offset).
    The predicted standard errors come from the per-shot QCRB covariance
    (``analytic.scenario_qcrb_covariance``) at the true returned bandwidths,
    split the same way, which holds every other parameter unknown, for both
    strategies and at any v1, v2.  A strategy Monte Carlo cannot sample
    (quantum illumination) fails in the first ``McConfig``, before any draw;
    a report with a number that is not finite, or a standard error that is 0
    or more than 1e6 times off its predicted one, raises ``ArithmeticError``.
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

    n_time = n_shots // 2
    state = returned_state(targets[0], targets[1], probe)
    configs = (McConfig(n_time, seed, "time", probe.strategy),
               McConfig(n_shots - n_time, seed + 1, "frequency", probe.strategy))
    qcrb = scenario_qcrb_covariance(probe.strategy, probe.kappa, state.sigma1, state.sigma2)
    dx, sampled, predicted = [], [], []
    for config, cols in zip(configs, (slice(0, 2), slice(2, 4))):
        n = config.n_samples
        (l11, _), (l21, l22) = _cholesky(_sampling_moments(state, config)[1], n)
        (z1, z2, z3), (c1, c2) = _draw_statistics(config, 3, (n - 1, n - 2))
        dx += [l11 * z1, l21 * z1 + l22 * z2]
        # the mean's sample covariance is (L B)(L B)^T / (n - 1), with Bartlett's
        # B = [[sqrt c1, 0], [z3, sqrt c2]] (Smith & Hocking, Appl. Stat. 21, 341)
        b1, b2, root = math.sqrt(c1), math.sqrt(c2), math.sqrt(n - 1)
        sampled.append(((l11 * b1 / root, 0.0), ((l21 * b1 + l22 * z3) / root, l22 * b2 / root)))
        predicted.append(_cholesky(tuple(row[cols] for row in qcrb[cols]), n))
    x = (*state.centers(), *state.carriers())
    values, grad = target_estimates(scenario, x, probe.omega0, dx)
    # the bound is linearized at the true coordinates
    _, true_grad = target_estimates(scenario, x, probe.omega0)

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
        "n_frequency_shots": configs[1].n_samples,
        "seed": seed,
        "estimates": named(values),
        "std_errors": named(_std_errors(grad, sampled)),
        "predicted_qcrb_std_errors": named(_std_errors(true_grad, predicted)),
        "truth": named(truth),
    }
    for key in ("estimates", "std_errors", "predicted_qcrb_std_errors", "truth"):
        if not all(map(math.isfinite, report[key].values())):
            raise ArithmeticError(f"scenario {key} are not finite: {report[key]}")
    # sampling puts an error bar 1e6 times below the bound's in about 2 runs of 1e6
    # with two time shots (n = 4, 5), and never one above; a wider gap, or a 0, is an
    # underflow or the linearized estimator failing between the estimate and the truth
    se, predicted = report["std_errors"], report["predicted_qcrb_std_errors"]
    if not all(p * 1e-6 < se[key] < p * 1e6 for key, p in predicted.items()):
        raise ArithmeticError(f"scenario std_errors are 0 or more than 1e6 times off the "
                              f"predicted QCRB std_errors: {se} against {predicted}")
    return report
