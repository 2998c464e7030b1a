"""Emission/return transformation and parameter-inversion tests."""

import numpy as np
import pytest

from qfi_radar.kinematics import (
    C,
    ParameterPair,
    ProbeConfig,
    Strategy,
    Target,
    doppler_factor,
    returned_state,
    target_estimates,
)


class TestDoppler:
    def test_at_rest(self):
        assert doppler_factor(0.0) == 1.0

    def test_receding_redshifts(self):
        assert doppler_factor(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        # carrier and bandwidth both scale by the factor
        probe = ProbeConfig(omega0=3.0, sigma0=3.0, kappa=0.0)
        state = returned_state(Target(1.0, 0.5), Target(1.0, 0.0), probe)
        assert state.omega1_bar == pytest.approx(1.0, abs=1e-15)
        assert state.sigma1 == pytest.approx(1.0, abs=1e-15)

    def test_approaching_blueshifts(self):
        assert doppler_factor(-0.5) == pytest.approx(3.0, abs=1e-14)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            doppler_factor(1.0)
        with pytest.raises(ValueError):
            doppler_factor(-1.5)
        with pytest.raises(ValueError, match=r"\|v\| must be below c"):
            doppler_factor(float("nan"))

    def test_exact_inversion_round_trip(self):
        # v -> returned carrier -> inverted v, exact to 1e-12 over |v| <= c/2
        omega0 = 7.0
        probe = ProbeConfig(omega0=omega0, sigma0=1.0, kappa=0.0)
        for v in np.linspace(-0.5, 0.5, 41):
            w = returned_state(Target(1.0, float(v)), Target(1.0, 0.0), probe).omega1_bar
            v_back = C * (omega0 - w) / (omega0 + w)
            assert abs(v_back - v) <= 1e-12


class TestReturnParams:
    """The returned photons' parameters: the fields of ``returned_state``."""

    def test_static_pair(self):
        probe = ProbeConfig(omega0=5.0, sigma0=1.0, kappa=-0.5)
        state = returned_state(Target(300.0, 0.0), Target(500.0, 0.0), probe)
        assert state.t1_bar == pytest.approx(600.0)
        assert state.t2_bar == pytest.approx(1000.0)
        assert state.omega1_bar == state.omega2_bar == pytest.approx(5.0)
        assert state.sigma1 == state.sigma2 == pytest.approx(1.0)
        assert state.kappa == probe.kappa

    def test_moving_object(self):
        probe = ProbeConfig(omega0=6.0, sigma0=3.0, kappa=0.0)
        v = C / 3.0
        state = returned_state(Target(100.0, v), Target(101.0, v), probe)
        assert state.omega1_bar == pytest.approx(3.0)
        assert state.sigma1 == pytest.approx(1.5)
        assert state.t2_bar - state.t1_bar == pytest.approx(2.0 / (C - v))

    def test_validation(self):
        with pytest.raises(ValueError, match="target range must be non-negative"):
            Target(-1.0, 0.0)
        with pytest.raises(ValueError, match=r"\|v\| must be below c"):
            Target(1.0, 2.0)
        with pytest.raises(ValueError):
            Target(1.0, -C)
        with pytest.raises(ValueError):
            ProbeConfig(omega0=5.0, sigma0=1.0, kappa=1.0)
        # nan <= 0 is False: each check is a negated comparison so nan fails it
        nan = float("nan")
        with pytest.raises(ValueError, match="target range must be non-negative"):
            Target(nan, 0.0)
        with pytest.raises(ValueError, match=r"\|v\| must be below c"):
            Target(1.0, nan)
        with pytest.raises(ValueError, match="carrier frequency must be positive"):
            ProbeConfig(nan, 1.0, 0.0)
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            ProbeConfig(1.0, nan, 0.0)


def photons(state):
    """The returned photons' (t1, t2, omega1, omega2): target_estimates' input."""
    return np.concatenate([state.centers(), state.carriers()])


def estimates(scenario, r, v):
    """target_estimates for two targets at ranges r and velocities v."""
    probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.5)
    state = returned_state(Target(r[0], v[0]), Target(r[1], v[1]), probe)
    return target_estimates(scenario, photons(state), probe.omega0)


class TestRoundTrip:
    """Targets -> returned_state -> target_estimates -> targets."""

    def test_static_target(self):
        values, _ = estimates("multibody", (300.0, 500.0), (0.0, 0.0))
        assert values == pytest.approx([400.0, 0.0], rel=1e-12, abs=1e-12)

    def test_receding_target(self):
        values, _ = estimates("multibody", (300.0, 500.0), (0.1, 0.1))
        assert values[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="c (t1 + t2)/4 is the midpoint at reflection, (r1 + r2) / (2 (1 - v/c)) "
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
            state = returned_state(Target(300.0, v[0]), Target(500.0, v[1]), probe)
            x = photons(state)
            _, grad = target_estimates(scenario, x, omega0)
            fd = np.empty((2, 4))
            for k in range(4):
                step = np.zeros(4)
                step[k] = 1e-6 * max(1.0, abs(x[k]))
                up, _ = target_estimates(scenario, x + step, omega0)
                down, _ = target_estimates(scenario, x - step, omega0)
                fd[:, k] = np.subtract(up, down) / (2.0 * step[k])
            scale = np.max(np.abs(grad), axis=1, keepdims=True)
            assert np.max(np.abs(grad - fd) / scale) <= 1e-6, (scenario, v)

    def test_domain_errors(self):
        x = np.array([0.5, 0.5, 1.0, 1.0])
        with pytest.raises(ValueError):
            target_estimates("teleport", x, 1.0)


class TestOffsets:
    @pytest.mark.parametrize("scenario", ["multibody", "moving_object"])
    def test_offset_is_the_shifted_point(self, scenario):
        # dyadic coordinates: x + dx is exact, so both forms agree to rounding
        x = np.array([600.0, 1000.0, 9.5, 10.5])
        dx = np.array([0.25, -0.5, 0.125, -0.0625])
        values, grad = target_estimates(scenario, x, 10.0, dx)
        shifted, shifted_grad = target_estimates(scenario, x + dx, 10.0)
        np.testing.assert_allclose(values, shifted, rtol=1e-15)
        np.testing.assert_allclose(grad, shifted_grad, rtol=1e-15)

    def test_large_carrier_keeps_a_small_offset(self):
        # 1e16 + 1 rounds to 1e16, so the shifted point would read v2 = 0
        omega0 = 1e16
        x = np.array([0.0, 0.0, omega0, omega0])
        values, _ = target_estimates("multibody", x, omega0, np.array([0.0, 0.0, 0.0, 1.0]))
        assert values[1] == pytest.approx(-C / (2.0 * omega0), rel=1e-15)


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
