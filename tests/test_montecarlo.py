"""Monte Carlo sampling, QCRB saturation, and scenario tests."""

import math
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

import qfi_radar
from qfi_radar import montecarlo
from qfi_radar.analytic import asymptotic_H, qfi_entangled
from qfi_radar.kinematics import C, MC_STRATEGIES, ParameterPair, ProbeConfig, Strategy, Target
from qfi_radar.montecarlo import (
    CHUNK_SIZE,
    McConfig,
    estimate_pair,
    measure_pair,
    run_scenario,
    sample_frequencies,
    sample_times,
    variance_interval,
)
from qfi_radar.states import GaussianBiphoton, time_covariance

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF
PAIR_B = ParameterPair.TIME_DIFF_FREQ_SUM


# chi-square quantiles against a 40-digit root: small df, where the start
# and the plain gamma prefactor matter, both sides of the prefactor's
# switch at df = 40, and large df up to the largest campaign; levels 99%,
# 90% and simulate's per-row Sidak tail, both ends
CHI2_DFS = [1, 2, 3, 4, 7, 9, 20, 39, 41, 1000, 8192, 99_999, 999_999, 1_999_999]
CHI2_LEVELS = [p for q in (0.005, 0.05, 1.6e-5) for p in (q, 1.0 - q)]


def assert_chi2_quantile_matches_mpmath(df, p):
    """The quantile is within 1e-13 of the 40-digit root in u = log(x/2) of
    log(tail) = log(level), the tail being P below p = 1/2 and Q above it
    (1 - p is exact there)."""
    mpmath = pytest.importorskip("mpmath")
    got = montecarlo._chi2_quantile(df, p)
    with mpmath.workdps(40):
        a = mpmath.mpf(df) / 2
        if p < 0.5:
            def gap(u, target=mpmath.log(p)):
                return mpmath.log(mpmath.gammainc(a, 0, mpmath.exp(u), regularized=True)) - target
        else:
            def gap(u, target=mpmath.log(1.0 - p)):
                return mpmath.log(mpmath.gammainc(a, mpmath.exp(u), mpmath.inf,
                                                  regularized=True)) - target
        # secant steps from two points 1e-12 apart, both beside the root
        u = mpmath.log(mpmath.mpf(got) / 2)
        want = 2 * mpmath.exp(mpmath.findroot(gap, (u, u + mpmath.mpf(1e-12))))
        assert abs(got - want) <= 1e-13 * want, (df, p, got, float(want))


def biphoton(kappa, sigma=1.0):
    return GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, sigma, kappa)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(1, 0, "time")
        with pytest.raises(ValueError):
            McConfig(10, 0, "energy")
        with pytest.raises(ValueError):
            McConfig(10, 0, "time", Strategy.QUANTUM_ILLUMINATION)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            McConfig(10, -1, "time")
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            McConfig(10, 1.5, "time")
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got True"):
            McConfig(10, True)
        with pytest.raises(ValueError, match="n_samples, the draws per domain, must be at least 2"):
            McConfig(math.nan, 0)
        # a float count would otherwise fail later, inside numpy
        for n in (2.5, 10.0, True):
            with pytest.raises(ValueError, match=f"at least 2 and an integer, got {n}"):
                McConfig(n, 0)
        assert McConfig(np.int64(10), np.uint32(3)).n_samples == 10

    def test_one_integer_rule(self):
        # n_samples, seed and run_scenario's n_shots share one rule, which
        # accepts numpy's integers as integers
        config = McConfig(np.int64(10), np.int64(10))
        assert (config.n_samples, config.seed) == (10, 10)
        report = run_scenario("multibody", (Target(300.0, 0.0), Target(500.0, 0.0)),
                              ProbeConfig(10.0, 1.0, -0.9), np.int64(10), 5)
        assert report["n_shots"] == 10

    def test_domain_dispatch(self):
        state = biphoton(0.0)
        with pytest.raises(ValueError):
            sample_times(state, McConfig(10, 0, "frequency"))
        with pytest.raises(ValueError):
            sample_frequencies(state, McConfig(10, 0, "time"))


class TestSampling:
    def test_deterministic(self):
        state = biphoton(-0.5)
        cfg = McConfig(20_000, 7, "time")
        a = sample_times(state, cfg)
        b = sample_times(state, cfg)
        assert np.array_equal(a, b)

    def test_longer_draw_extends_shorter(self):
        # one stream per draw: the first rows do not depend on the draw's length
        state = biphoton(-0.5)
        short = sample_times(state, McConfig(20_000, 7, "time"))
        long = sample_times(state, McConfig(50_000, 7, "time"))
        assert np.array_equal(short, long[:20_000])

    @pytest.mark.parametrize("chunk", [None, 3, CHUNK_SIZE + 100])
    def test_draw_is_one_sfc64_stream_under_cholesky_map(self, chunk, monkeypatch):
        # the draw holds the first 2n normals of SFC64(seed), row-major, under
        # y = l11 z1 + l10 z0 + m1, x = l00 z0 + m0, whatever the block size
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk)
        state = GaussianBiphoton(0.3, -0.2, 1.0, 1.5, 1.3, 0.7, -0.6)
        n, seed = CHUNK_SIZE + 100, 21
        samples = sample_times(state, McConfig(n, seed, "time"))
        (l00, _), (l10, l11) = np.linalg.cholesky(time_covariance(state))
        z = np.random.Generator(np.random.SFC64(seed)).standard_normal((n, 2))
        assert np.array_equal(samples[:, 0], l00 * z[:, 0] + 0.3)
        assert np.array_equal(samples[:, 1], l11 * z[:, 1] + l10 * z[:, 0] + -0.2)

    def test_infinite_covariance_refused(self):
        # photon 1's time variance 1/(4 sigma1^2) leaves the float range at
        # sigma1 = 1e-155: the covariance itself refuses the bandwidth, so no
        # covariance that is not finite reaches the draw
        state = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1e-155, 1.0, 0.0)
        with pytest.raises(ArithmeticError, match="^arrival-time covariance is out of float"):
            sample_times(state, McConfig(10, 0))

    def test_golden_values(self):
        # exact draws at a fixed seed: a numpy release that changes SFC64,
        # SeedSequence or the ziggurat changes these, and every output byte
        state = GaussianBiphoton(0.3, -0.2, 1.0, 1.5, 1.3, 0.7, -0.6)
        samples = sample_times(state, McConfig(8193, 2024, "time"))
        got = samples[[0, 8192]].ravel().tolist()
        assert got == [
            0.07259517383157085, 0.7152792944384163, 0.2145520036000253, -0.21219739130908616,
        ]

    def test_uncorrelated_time_samples(self):
        n = 100_000
        samples = sample_times(biphoton(0.0), McConfig(n, 3, "time"))
        corr = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n)

    def test_time_sum_variance(self):
        # kappa = -0.8: Var(t1 + t2) = 1/3.6
        samples = sample_times(biphoton(-0.8), McConfig(100_000, 11, "time"))
        var = np.var(samples.sum(axis=1), ddof=1)
        assert var == pytest.approx(1.0 / 3.6, rel=0.02)

    def test_frequency_difference_variance(self):
        # kappa = -0.9: Var(w2 - w1) = 0.2
        samples = sample_frequencies(biphoton(-0.9), McConfig(100_000, 13, "frequency"))
        var = np.var(samples[:, 1] - samples[:, 0], ddof=1)
        assert var == pytest.approx(0.2, rel=0.02)

    def test_frequency_single_variance(self):
        samples = sample_frequencies(biphoton(0.0), McConfig(100_000, 17, "frequency"))
        assert np.var(samples[:, 0], ddof=1) == pytest.approx(1.0, rel=0.02)

    def test_means_unbiased(self):
        state = GaussianBiphoton(0.3, 0.7, 2.0, 3.0, 1.0, 1.0, -0.4)
        n = 100_000
        samples = sample_frequencies(state, McConfig(n, 19, "frequency"))
        se = np.std(samples, axis=0, ddof=1) / math.sqrt(n)
        mean = samples.mean(axis=0)
        assert abs(mean[0] - 2.0) <= 5 * se[0]
        assert abs(mean[1] - 3.0) <= 5 * se[1]

    def test_single_photon_strategy_uncorrelated(self):
        # known-assignment single photons: no cross-correlation even at
        # strong probe correlation
        n = 100_000
        cfg = McConfig(n, 23, "time", Strategy.TWO_SINGLE_PHOTONS)
        samples = sample_times(biphoton(-0.9), cfg)
        corr = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("kappa", [-0.9, 0.9])
    def test_single_photon_time_marginals(self, kappa):
        # independent photons have Var(t_i) = 1/(4 sigma^2) whatever the
        # probe correlation, so Var(t1 + t2) = 1/(2 sigma^2)
        sigma = 1.5
        cfg = McConfig(100_000, 37, "time", Strategy.TWO_SINGLE_PHOTONS)
        samples = sample_times(biphoton(kappa, sigma), cfg)
        var = np.var(samples.sum(axis=1), ddof=1)
        assert var == pytest.approx(1.0 / (2.0 * sigma**2), rel=0.02)


class TestEstimatePair:
    def test_saturation_ratio(self):
        kappa, n = -0.8, 100_000
        h_t, _ = qfi_entangled(1.0, 1.0, kappa, PAIR_A)
        times = sample_times(biphoton(kappa), McConfig(n, 29, "time"))
        rep = estimate_pair(times, PAIR_A, "time", h_t)
        assert 0.97 <= rep.ratio <= 1.03
        lo, hi = rep.variance_interval_99
        assert lo <= rep.qcrb_variance <= hi

    def test_frequency_component(self):
        kappa, n = -0.8, 100_000
        _, h_w = qfi_entangled(1.0, 1.0, kappa, PAIR_A)
        freqs = sample_frequencies(biphoton(kappa), McConfig(n, 31, "frequency"))
        rep = estimate_pair(freqs, PAIR_A, "frequency", h_w)
        assert 0.97 <= rep.ratio <= 1.03

    @pytest.mark.parametrize("qfi_entry", [0.0, math.nan])
    def test_qfi_entry_validation(self, qfi_entry):
        samples = np.array([[0.0, 0.1], [0.3, -0.1]])
        with pytest.raises(ValueError, match="QFI entry must be positive"):
            estimate_pair(samples, PAIR_A, "time", qfi_entry)

    def test_pair_b_combination(self):
        samples = np.array([[1.0, 4.0], [2.0, 6.0]])
        rep = estimate_pair(samples, PAIR_B, "time", 1.0)
        assert rep.estimate == pytest.approx(3.5)  # mean of t2 - t1

    def test_degenerate_size(self):
        samples = np.array([[0.0, 0.1], [0.3, -0.1]])
        rep = estimate_pair(samples, PAIR_A, "time", 2.0)
        lo, hi = rep.variance_interval_99
        assert lo < rep.variance < hi
        assert hi / max(lo, 1e-300) > 10.0  # interval is wide at n = 2

    @pytest.mark.parametrize("n", [2, 3, 10, 1001, 8193, 100_000, 2_000_000])
    def test_interval_matches_scipy_chi2(self, n):
        stats = pytest.importorskip("scipy.stats")
        samples = np.random.default_rng(n).standard_normal((n, 2))
        rep = estimate_pair(samples, PAIR_A, "time", 1.0)
        df = n - 1
        lo = df * rep.variance / stats.chi2.ppf(0.995, df)
        hi = df * rep.variance / stats.chi2.ppf(0.005, df)
        assert rep.variance_interval_99 == pytest.approx((lo, hi), rel=1e-13, abs=0.0)
        assert all(type(x) is float for x in rep.variance_interval_99)

    @pytest.mark.parametrize("df", CHI2_DFS)
    def test_chi2_quantile_matches_mpmath(self, df):
        for p in CHI2_LEVELS:
            assert_chi2_quantile_matches_mpmath(df, p)

    @pytest.mark.parametrize("df", [1, 9, 41, 1000])
    def test_chi2_quantile_far_lower_tail(self, df):
        # at a = df/2 >= 20 the root's x/a is far below 1, where x/a - 1 no
        # longer carries x/a to full precision
        assert_chi2_quantile_matches_mpmath(df, 1e-140)

    def test_interval_false_alarm_rate(self):
        # entangled time sums have exactly the QCRB variance, so over 2000
        # independent rows a 10% interval misses it Binomial(2000, 0.1) times
        rows, n, alpha = 2000, 8, 0.1
        state = biphoton(-0.5)
        qcrb = 1.0 / qfi_entangled(1.0, 1.0, -0.5, PAIR_A)[0]
        misses = 0
        for seed in range(rows):
            rep = estimate_pair(sample_times(state, McConfig(n, seed, "time")),
                                PAIR_A, "time", 1.0 / qcrb)
            lo, hi = variance_interval(rep.variance, n, alpha)
            misses += not lo <= qcrb <= hi
        mean, sd = rows * alpha, math.sqrt(rows * alpha * (1.0 - alpha))
        assert abs(misses - mean) <= 3.0 * sd, misses

    @pytest.mark.parametrize("n", [2, 7, 8192, 300_001])
    def test_moments_match_numpy(self, n):
        samples = np.random.default_rng(n).normal(3.0, 2.0, (n, 2))
        values = samples[:, 1] - samples[:, 0]
        rep = estimate_pair(samples, PAIR_B, "time", 1.0)
        assert rep.estimate == float(np.mean(values))
        assert rep.variance == float(np.var(values, ddof=1))

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_pair(np.zeros((1, 2)), PAIR_A, "time", 1.0)
        with pytest.raises(ValueError):
            estimate_pair(np.zeros((5, 2)), PAIR_A, "space", 1.0)
        with pytest.raises(ValueError):
            estimate_pair(np.zeros((5, 2)), PAIR_A, "time", 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    def test_interval_level_validation(self, alpha):
        # a NaN level would leave the quantile's Newton iteration nothing to converge to
        with pytest.raises(ValueError, match="alpha must lie in"):
            variance_interval(1.0, 10, alpha)


class TestMeasurePair:
    @pytest.mark.parametrize("strategy", MC_STRATEGIES)
    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B])
    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.9])
    def test_matches_absolute_coordinate_draws(self, strategy, pair, kappa):
        # time is drawn at the seed and frequency at the next one; at centers
        # 0 an offset is the coordinate itself, so the time report keeps every
        # bit, and at carriers 1 offsets move the frequency report by rounding
        sigma, n, seed = 1.0, 10_000, 17
        state = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, sigma, kappa)
        h11, h22 = asymptotic_H(strategy, pair, kappa, sigma)
        want_t = estimate_pair(sample_times(state, McConfig(n, seed, "time", strategy)),
                               pair, "time", h11)
        want_w = estimate_pair(
            sample_frequencies(state, McConfig(n, seed + 1, "frequency", strategy)),
            pair, "frequency", h22)
        rep_t, rep_w = measure_pair(strategy, pair, kappa, sigma, n, seed)
        assert rep_t == want_t
        assert rep_w.n_samples == n
        assert rep_w.qcrb_variance == want_w.qcrb_variance
        assert rep_w.variance == pytest.approx(want_w.variance, rel=1e-15, abs=0.0)
        assert rep_w.estimate == pytest.approx(want_w.estimate, rel=0.0, abs=1e-15)
        assert type(rep_t.estimate) is float and type(rep_w.estimate) is float


class TestScenarios:
    def test_multibody_recovers_midpoint(self):
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.9)
        report = run_scenario(
            "multibody", (Target(300.0, 0.0), Target(500.0, 0.0)), probe, 10_000, seed=42
        )
        est, truth = report["estimates"], report["truth"]
        pred = report["predicted_qcrb_std_errors"]
        assert truth["midpoint"] == 400.0
        assert abs(est["midpoint"] - 400.0) <= 3.0 * pred["midpoint"]
        assert abs(est["delta_v"] - 0.0) <= 3.0 * pred["delta_v"]

    def test_moving_object(self):
        v = C / 3.0
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.5)
        report = run_scenario(
            "moving_object", (Target(100.0, v), Target(101.0, v)), probe, 10_000, seed=42
        )
        est, pred = report["estimates"], report["predicted_qcrb_std_errors"]
        assert abs(est["size"] - 1.0) <= 3.0 * pred["size"]
        assert abs(est["velocity"] - v) <= 3.0 * pred["velocity"]

    def test_zero_size_object(self):
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=0.0)
        report = run_scenario(
            "moving_object", (Target(50.0, 0.0), Target(50.0, 0.0)), probe, 10_000, seed=5
        )
        est, pred = report["estimates"], report["predicted_qcrb_std_errors"]
        assert report["truth"]["size"] == 0.0
        assert abs(est["size"]) <= 3.0 * pred["size"]

    def test_delta_v_std_error_matches_qcrb(self):
        # at kappa = -0.9 the returned frequencies are strongly correlated;
        # the delta_v error bar must carry the w1-w2 covariance, and for a
        # moving pair the prediction must take the Doppler slope at the
        # returned carriers, not the at-rest -c/(2 omega0)
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.9)
        for v, n_shots in ((0.0, 100_000), (0.1, 200_000), (0.3, 200_000)):
            report = run_scenario(
                "multibody", (Target(300.0, v), Target(500.0, v)), probe, n_shots, seed=4
            )
            se = report["std_errors"]["delta_v"]
            pred = report["predicted_qcrb_std_errors"]["delta_v"]
            assert pred == pytest.approx(se, rel=0.05), f"v={v}"

    @staticmethod
    def _assert_unequal_bandwidth_predictions(probe):
        # v2 = 0.3c returns photon 2 at a narrower bandwidth; the prediction
        # holds t_minus and omega_plus unknown, which the plain sums reach
        report = run_scenario(
            "multibody", (Target(300.0, 0.0), Target(500.0, 0.3)), probe, 200_000, seed=4
        )
        for name, se in report["std_errors"].items():
            pred = report["predicted_qcrb_std_errors"][name]
            assert pred == pytest.approx(se, rel=0.05), name

    def test_single_photon_predictions_unequal_bandwidths(self):
        self._assert_unequal_bandwidth_predictions(ProbeConfig(
            omega0=10.0, sigma0=1.0, kappa=0.0, strategy=Strategy.TWO_SINGLE_PHOTONS
        ))

    def test_entangled_predictions_unequal_bandwidths(self):
        # the correlated pair's time and frequency blocks are not diagonal,
        # so holding the partner parameters known would predict the
        # midpoint error bar 0.55 times too small
        self._assert_unequal_bandwidth_predictions(
            ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.9))

    def test_default_predictions_closed_form(self):
        omega0, kappa = 10.0, -0.9
        probe = ProbeConfig(omega0=omega0, sigma0=1.0, kappa=kappa)
        report = run_scenario(
            "multibody", (Target(300.0, 0.0), Target(500.0, 0.0)), probe, 100_000, seed=0
        )
        h_t, h_w = qfi_entangled(1.0, 1.0, kappa, PAIR_A)
        n_t, n_f = report["n_time_shots"], report["n_frequency_shots"]
        pred = report["predicted_qcrb_std_errors"]
        assert pred["midpoint"] == pytest.approx(C / 4.0 / math.sqrt(n_t * h_t), rel=1e-12)
        assert pred["delta_v"] == pytest.approx(
            C / (2.0 * omega0) / math.sqrt(n_f * h_w), rel=1e-12
        )

    def test_deterministic_reports(self):
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.5)
        args = ("multibody", (Target(10.0, 0.0), Target(20.0, 0.0)), probe, 1000, 9)
        assert run_scenario(*args) == run_scenario(*args)

    def test_single_photon_strategy(self):
        probe = ProbeConfig(
            omega0=10.0, sigma0=1.0, kappa=0.0, strategy=Strategy.TWO_SINGLE_PHOTONS
        )
        report = run_scenario(
            "multibody", (Target(300.0, 0.0), Target(500.0, 0.0)), probe, 10_000, seed=8
        )
        est = report["estimates"]
        pred = report["predicted_qcrb_std_errors"]
        assert abs(est["midpoint"] - 400.0) <= 3.0 * pred["midpoint"]

    def test_validation(self):
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=0.0)
        targets = (Target(1.0, 0.0), Target(2.0, 0.0))
        with pytest.raises(ValueError):
            run_scenario("teleport", targets, probe, 100, 0)
        with pytest.raises(ValueError):
            run_scenario("multibody", targets, probe, 2, 0)
        qi_probe = ProbeConfig(
            omega0=10.0, sigma0=1.0, kappa=0.0, strategy=Strategy.QUANTUM_ILLUMINATION
        )
        # McConfig alone decides which strategies Monte Carlo can sample
        with pytest.raises(ValueError, match="Monte Carlo supports .*, got quantum_illumination"):
            run_scenario("multibody", targets, qi_probe, 100, 0)
        # a nan range is rejected, not carried into a nan midpoint
        with pytest.raises(ValueError, match="target range must be non-negative"):
            run_scenario("multibody", (Target(math.nan, 0.0), Target(2.0, 0.0)),
                         ProbeConfig(10.0, 1.0, -0.5), 100, 0)

    def test_n_shots_must_be_an_integer(self):
        # a float count used to fail inside the second McConfig, in a message
        # about n_samples, which the caller never passed
        probe = ProbeConfig(10.0, 1.0, -0.9)
        targets = (Target(300.0, 0.0), Target(500.0, 0.0))
        for bad in (100.0, True, "100"):
            with pytest.raises(ValueError, match=r"^n_shots, the shots over both domains, "
                                                 r"must be an integer of at least 4"):
                run_scenario("multibody", targets, probe, bad, 5)
        report = run_scenario("multibody", targets, probe, np.int64(100), 5)
        assert report == run_scenario("multibody", targets, probe, 100, 5)

    @pytest.mark.parametrize("n, n_time", [(5, 2), (6, 3), (7, 3)])
    def test_time_takes_the_lower_half_of_the_shots(self, n, n_time):
        # half the shots, rounded down, go to time and the rest to frequency
        report = run_scenario("multibody", (Target(300.0, 0.0), Target(500.0, 0.0)),
                              ProbeConfig(10.0, 1.0, -0.9), n, 5)
        assert (report["n_time_shots"], report["n_frequency_shots"]) == (n_time, n - n_time)

    def test_seed_to_seed_gate(self):
        """Over m = 400 seeds each quantity's estimates spread as its reported
        standard errors say and centre on the truth.

        Per quantity: the chi-square interval on the estimates' spread holds
        the mean reported s.e.^2, and |mean - truth| <= z s.e.bar / sqrt(m).
        The 8 tests (4 quantities x 2) each run at the Sidak level
        alpha = 1 - 0.99^(1/8), so a correct run_scenario fails this gate
        with probability 1% (at most 8 alpha = 1.0045% by the union bound,
        whatever the tests' dependence).  run_scenario draws from seed and
        seed + 1, so even seeds share no draw.
        """
        m, n_shots = 400, 10_000
        alpha = 1.0 - 0.99 ** (1.0 / 8.0)
        z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.9)  # the CLI's default
        c3 = C / 3.0
        cases = (("multibody", (Target(300.0, 0.0), Target(500.0, 0.0))),
                 ("moving_object", (Target(300.0, c3), Target(500.0, c3))))
        failures = []
        for scenario, targets in cases:
            reports = [run_scenario(scenario, targets, probe, n_shots, seed)
                       for seed in range(0, 2 * m, 2)]
            for key, truth in reports[0]["truth"].items():
                estimates = np.array([r["estimates"][key] for r in reports])
                std_errors = np.array([r["std_errors"][key] for r in reports])
                lo, hi = variance_interval(float(np.var(estimates, ddof=1)), m, alpha)
                if not lo <= float(np.mean(std_errors**2)) <= hi:
                    failures.append(f"{scenario} {key}: mean s.e.^2 outside [{lo}, {hi}]")
                bias_z = (float(np.mean(estimates)) - truth) / (np.mean(std_errors) / math.sqrt(m))
                if not abs(bias_z) <= z:
                    failures.append(f"{scenario} {key}: bias {bias_z:.3g} standard errors")
        assert not failures, failures

    def test_moving_object_needs_rigid_body(self):
        # one size and one velocity describe a rigid object only: targets
        # moving apart would read a size of 26.79 against a truth of 1
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.5)
        targets = (Target(100.0, 0.1), Target(101.0, 0.3))
        with pytest.raises(ValueError, match="moving_object assumes a rigid body"):
            run_scenario("moving_object", targets, probe, 2000, 0)
        # a multibody pair may move apart
        assert run_scenario("multibody", targets, probe, 2000, 0)["truth"]["delta_v"] > 0


# Monte Carlo intervals in a fresh interpreter, from estimate_pair and
# selftest criterion 7, load no scipy.
INTERVALS_WITHOUT_SCIPY = """
import sys
import numpy as np
from qfi_radar import ParameterPair, estimate_pair
from qfi_radar.selftest import criterion_7
samples = np.random.default_rng(5).standard_normal((1001, 2))
rep = estimate_pair(samples, ParameterPair.TIME_SUM_FREQ_DIFF, "time", 1.0)
lo, hi = rep.variance_interval_99
assert lo < rep.variance < hi, rep.variance_interval_99
passed, detail = criterion_7()
assert passed, detail
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_intervals_load_no_scipy():
    src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", INTERVALS_WITHOUT_SCIPY], capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
