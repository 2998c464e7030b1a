"""Monte Carlo sampling, QCRB saturation, and scenario tests."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import qfi_radar
from qfi_radar.analytic import qfi_entangled
from qfi_radar.kinematics import C, ParameterPair, ProbeConfig, Strategy, Target
from qfi_radar.montecarlo import (
    CHUNK_SIZE,
    McConfig,
    estimate_pair,
    run_scenario,
    sample_frequencies,
    sample_times,
    variance_interval,
)
from qfi_radar.states import GaussianBiphoton, time_covariance

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF
PAIR_B = ParameterPair.TIME_DIFF_FREQ_SUM


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
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            McConfig(math.nan, 0)
        # a float count would otherwise fail later, inside numpy
        for n in (2.5, 10.0, True):
            with pytest.raises(ValueError, match=f"at least 2 and an integer, got {n}"):
                McConfig(n, 0)
        assert McConfig(np.int64(10), np.uint32(3)).n_samples == 10

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
        # chunk k is keyed by (seed, k) alone, whatever the draw's length
        state = biphoton(-0.5)
        short = sample_times(state, McConfig(20_000, 7, "time"))
        long = sample_times(state, McConfig(50_000, 7, "time"))
        assert np.array_equal(short, long[:20_000])

    def test_chunks_are_keyed_sfc64_streams_under_cholesky_map(self):
        # chunk k holds SFC64(SeedSequence(seed, spawn_key=(k,))) normals,
        # row-major, under y = l11 z1 + l10 z0 + m1, x = l00 z0 + m0
        state = GaussianBiphoton(0.3, -0.2, 1.0, 1.5, 1.3, 0.7, -0.6)
        n, seed = CHUNK_SIZE + 100, 21
        samples = sample_times(state, McConfig(n, seed, "time"))
        (l00, _), (l10, l11) = np.linalg.cholesky(time_covariance(state))
        for k, rows in ((0, CHUNK_SIZE), (1, 100)):
            bitgen = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k,)))
            z = np.random.Generator(bitgen).standard_normal((rows, 2))
            block = samples[k * CHUNK_SIZE : k * CHUNK_SIZE + rows]
            assert np.array_equal(block[:, 0], l00 * z[:, 0] + 0.3)
            assert np.array_equal(block[:, 1], l11 * z[:, 1] + l10 * z[:, 0] + -0.2)

    def test_golden_values(self):
        # exact draws at a fixed seed: a numpy release that changes SFC64,
        # SeedSequence or the ziggurat changes these, and every output byte
        state = GaussianBiphoton(0.3, -0.2, 1.0, 1.5, 1.3, 0.7, -0.6)
        samples = sample_times(state, McConfig(CHUNK_SIZE + 1, 2024, "time"))
        got = samples[[0, CHUNK_SIZE]].ravel().tolist()
        assert got == [
            0.6450337515537706, -1.7508645887634786, 0.17622208191709343, 0.777800456154629,
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
        samples = np.random.default_rng(n).standard_normal((n, 2))
        rep = estimate_pair(samples, PAIR_A, "time", 1.0)
        df = n - 1
        lo = df * rep.variance / stats.chi2.ppf(0.995, df)
        hi = df * rep.variance / stats.chi2.ppf(0.005, df)
        assert rep.variance_interval_99 == (lo, hi)
        assert all(type(x) is float for x in rep.variance_interval_99)

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

    def test_moving_object_needs_rigid_body(self):
        # one size and one velocity describe a rigid object only: targets
        # moving apart would read a size of 26.79 against a truth of 1
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.5)
        targets = (Target(100.0, 0.1), Target(101.0, 0.3))
        with pytest.raises(ValueError, match="moving_object assumes a rigid body"):
            run_scenario("moving_object", targets, probe, 2000, 0)
        # a multibody pair may move apart
        assert run_scenario("multibody", targets, probe, 2000, 0)["truth"]["delta_v"] > 0


# The first interval in a fresh interpreter loads scipy.special and equals
# scipy.stats.chi2.ppf bit for bit; importing the package loads no scipy.
FIRST_INTERVAL = """
import sys
import numpy as np
from qfi_radar import ParameterPair, estimate_pair
assert "scipy" not in sys.modules, "importing qfi_radar loaded scipy"
samples = np.random.default_rng(5).standard_normal((1001, 2))
rep = estimate_pair(samples, ParameterPair.TIME_SUM_FREQ_DIFF, "time", 1.0)
assert "scipy.special" in sys.modules
from scipy import stats
want = (1000 * rep.variance / stats.chi2.ppf(0.995, 1000),
        1000 * rep.variance / stats.chi2.ppf(0.005, 1000))
assert rep.variance_interval_99 == want, (rep.variance_interval_99, want)
"""


def test_first_interval_loads_scipy():
    src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", FIRST_INTERVAL], capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
