"""Emission/return transformation and parameter-inversion tests."""

from dataclasses import astuple

import numpy as np
import pytest

from qfi_radar.kinematics import (
    NATURAL_UNITS,
    ParameterPair,
    PhysicalConstants,
    ProbeConfig,
    Strategy,
    SumDiffParams,
    Target,
    doppler_bandwidth,
    doppler_factor,
    doppler_frequency,
    return_params,
    sum_diff,
    target_estimates,
)

C = NATURAL_UNITS.c


class TestDoppler:
    def test_at_rest(self):
        assert doppler_factor(0.0) == 1.0

    def test_receding_redshifts(self):
        assert doppler_factor(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert doppler_frequency(3.0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert doppler_bandwidth(3.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_approaching_blueshifts(self):
        assert doppler_factor(-0.5) == pytest.approx(3.0, abs=1e-14)

    def test_si_units(self):
        si = PhysicalConstants()
        assert doppler_factor(0.5 * si.c, si) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            doppler_factor(1.0)
        with pytest.raises(ValueError):
            doppler_factor(-1.5)

    def test_exact_inversion_round_trip(self):
        # v -> returned carrier -> inverted v, exact to 1e-12 over |v| <= c/2
        omega0 = 7.0
        for v in np.linspace(-0.5, 0.5, 41):
            w = doppler_frequency(omega0, float(v))
            v_back = C * (omega0 - w) / (omega0 + w)
            assert abs(v_back - v) <= 1e-12


class TestReturnParams:
    def test_static_pair(self):
        probe = ProbeConfig(omega0=5.0, sigma0=1.0, kappa=-0.5)
        rp = return_params(Target(300.0, 0.0), Target(500.0, 0.0), probe)
        assert rp.t1 == pytest.approx(600.0)
        assert rp.t2 == pytest.approx(1000.0)
        assert rp.omega1 == rp.omega2 == pytest.approx(5.0)
        assert rp.sigma1 == rp.sigma2 == pytest.approx(1.0)

    def test_moving_object(self):
        probe = ProbeConfig(omega0=6.0, sigma0=3.0, kappa=0.0)
        v = C / 3.0
        rp = return_params(Target(100.0, v), Target(101.0, v), probe)
        assert rp.omega1 == pytest.approx(3.0)
        assert rp.sigma1 == pytest.approx(1.5)
        assert rp.t2 - rp.t1 == pytest.approx(2.0 / (C - v))

    def test_sum_diff_round_trip(self):
        probe = ProbeConfig(omega0=5.0, sigma0=1.0, kappa=0.2)
        rp = return_params(Target(10.0, 0.1), Target(20.0, 0.3), probe)
        sd = sum_diff(rp)
        # t1 = (t_plus - t_minus)/2, t2 = (t_plus + t_minus)/2, likewise for omega
        back = (
            (sd.t_plus - sd.t_minus) / 2.0,
            (sd.t_plus + sd.t_minus) / 2.0,
            (sd.omega_plus - sd.omega_minus) / 2.0,
            (sd.omega_plus + sd.omega_minus) / 2.0,
        )
        assert back == pytest.approx((rp.t1, rp.t2, rp.omega1, rp.omega2), rel=1e-15)

    def test_validation(self):
        probe = ProbeConfig(omega0=5.0, sigma0=1.0, kappa=0.0)
        with pytest.raises(ValueError):
            return_params(Target(-1.0, 0.0), Target(1.0, 0.0), probe)
        with pytest.raises(ValueError):
            return_params(Target(1.0, 2.0), Target(1.0, 0.0), probe)
        with pytest.raises(ValueError):
            ProbeConfig(omega0=5.0, sigma0=1.0, kappa=1.0)


def estimates(scenario, r, v):
    """target_estimates for two targets at ranges r and velocities v."""
    probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.5)
    rp = return_params(Target(r[0], v[0]), Target(r[1], v[1]), probe)
    return target_estimates(scenario, sum_diff(rp), probe.omega0)


class TestRoundTrip:
    """Targets -> return_params -> sum_diff -> target_estimates -> targets."""

    def test_static_target(self):
        values, _ = estimates("multibody", (300.0, 500.0), (0.0, 0.0))
        assert values == pytest.approx([400.0, 0.0], rel=1e-12, abs=1e-12)

    def test_receding_target(self):
        values, _ = estimates("multibody", (300.0, 500.0), (0.1, 0.1))
        assert values[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="c t_plus / 4 is the midpoint at reflection, (r1 + r2) / (2 (1 - v/c)) "
        "for a common v; CHANGES.md FOUND: a receding multibody pair",
    )
    @pytest.mark.parametrize("v", [(0.1, 0.1), (0.1, 0.3)])
    def test_receding_midpoint_is_range_midpoint(self, v):
        values, _ = estimates("multibody", (300.0, 500.0), v)
        assert values[0] == pytest.approx(400.0, rel=1e-12)


class TestInversions:
    def test_object_size(self):
        # rigid object at v = c/3: size t_minus (c - v)/2 = 1, where the
        # at-rest c t_minus / 2 would read 1.5
        values, _ = estimates("moving_object", (100.0, 101.0), (C / 3.0, C / 3.0))
        assert values == pytest.approx([1.0, C / 3.0], rel=1e-12)

    def test_object_velocity_exact(self):
        # common velocity back exactly over |v| <= c/2
        for v in np.linspace(-0.5, 0.5, 21):
            values, _ = estimates("moving_object", (100.0, 101.0), (v, v))
            assert values[0] == pytest.approx(1.0, rel=1e-12)
            assert abs(values[1] - v) <= 1e-12

    def test_relative_velocity_exact_pairwise(self):
        values, _ = estimates("multibody", (300.0, 500.0), (0.1, 0.3))
        assert values[1] == pytest.approx(0.2, abs=1e-12)


class TestJacobian:
    def test_against_finite_differences(self):
        omega0 = 10.0
        probe = ProbeConfig(omega0=omega0, sigma0=1.0, kappa=0.0)
        cases = [
            ("multibody", (0.0, 0.0)),
            ("multibody", (0.1, 0.3)),
            ("moving_object", (0.0, 0.0)),
            ("moving_object", (C / 3.0, C / 3.0)),
        ]
        for scenario, v in cases:
            rp = return_params(Target(300.0, v[0]), Target(500.0, v[1]), probe)
            x = np.array(astuple(sum_diff(rp)))
            _, grad = target_estimates(scenario, SumDiffParams(*x), omega0)
            fd = np.empty((2, 4))
            for k in range(4):
                step = np.zeros(4)
                step[k] = 1e-6 * max(1.0, abs(x[k]))
                up, _ = target_estimates(scenario, SumDiffParams(*(x + step)), omega0)
                down, _ = target_estimates(scenario, SumDiffParams(*(x - step)), omega0)
                fd[:, k] = (up - down) / (2.0 * step[k])
            scale = np.max(np.abs(grad), axis=1, keepdims=True)
            assert np.max(np.abs(grad - fd) / scale) <= 1e-6, (scenario, v)

    def test_domain_errors(self):
        sd = SumDiffParams(1.0, 0.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            target_estimates("teleport", sd, 1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(c=0.0)


class TestEnums:
    def test_strategy_values(self):
        assert {s.value for s in Strategy} == {
            "entangled_biphoton",
            "two_single_photons",
            "quantum_illumination",
        }

    def test_pair_values(self):
        assert {p.value for p in ParameterPair} == {
            "time_sum_freq_diff",
            "time_diff_freq_sum",
        }
