"""Emission -> reflection -> return transformations for radar photon probes.

All functions are pure and unit-agnostic: pass ``PhysicalConstants()`` (SI)
for SI inputs, or ``NATURAL_UNITS`` (c = 1) for dimensionless work.
Velocities are positive for receding targets, so a receding target
redshifts the carrier by the exact two-way Doppler factor (c - v)/(c + v).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConstants",
    "NATURAL_UNITS",
    "Strategy",
    "ParameterPair",
    "Target",
    "ProbeConfig",
    "ReturnParams",
    "SumDiffParams",
    "doppler_factor",
    "doppler_frequency",
    "doppler_bandwidth",
    "SCENARIOS",
    "return_params",
    "sum_diff",
    "target_estimates",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants; only the speed of light is needed here."""

    c: float = 299792458.0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("speed of light must be positive")


NATURAL_UNITS = PhysicalConstants(c=1.0)


# the two physical quantities each end-to-end scenario estimates
SCENARIOS = {
    "multibody": ("midpoint", "delta_v"),
    "moving_object": ("size", "velocity"),
}


class Strategy(enum.Enum):
    """Probe-state strategy selector."""

    ENTANGLED_BIPHOTON = "entangled_biphoton"
    TWO_SINGLE_PHOTONS = "two_single_photons"
    QUANTUM_ILLUMINATION = "quantum_illumination"


class ParameterPair(enum.Enum):
    """Which (time, frequency) estimator pair is being targeted.

    TIME_SUM_FREQ_DIFF estimates (t1+t2, w2-w1): central position and
    relative velocity of a two-body system.  TIME_DIFF_FREQ_SUM estimates
    (t2-t1, w1+w2): object size and common velocity.
    """

    TIME_SUM_FREQ_DIFF = "time_sum_freq_diff"
    TIME_DIFF_FREQ_SUM = "time_diff_freq_sum"

    @property
    def param_names(self) -> tuple[str, str]:
        """The pair's (time, frequency) parameters, as ``SumDiffParams`` fields."""
        if self is ParameterPair.TIME_SUM_FREQ_DIFF:
            return ("t_plus", "omega_minus")
        return ("t_minus", "omega_plus")


@dataclass(frozen=True)
class Target:
    """A point scatterer at range ``r`` receding with radial velocity ``v``."""

    r: float
    v: float

    def validate(self, consts: PhysicalConstants) -> None:
        if self.r < 0:
            raise ValueError(f"target range must be non-negative, got {self.r}")
        if abs(self.v) >= consts.c:
            raise ValueError(f"|v| must be below c, got v={self.v}")


@dataclass(frozen=True)
class ProbeConfig:
    """Emitted probe: carrier ``omega0``, bandwidth ``sigma0``, time correlation ``kappa``."""

    omega0: float
    sigma0: float
    kappa: float
    strategy: Strategy = Strategy.ENTANGLED_BIPHOTON

    def __post_init__(self) -> None:
        if self.omega0 <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.sigma0 <= 0:
            raise ValueError("bandwidth must be positive")
        if not -1.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (-1, 1), got {self.kappa}")


@dataclass(frozen=True)
class ReturnParams:
    """Round-trip times, returned carriers and bandwidths of the two photons."""

    t1: float
    t2: float
    omega1: float
    omega2: float
    sigma1: float
    sigma2: float


@dataclass(frozen=True)
class SumDiffParams:
    """Sum/difference combinations of the returned times and frequencies.

    Reconstruction is exact: t1 = (t_plus - t_minus)/2, t2 = (t_plus + t_minus)/2,
    and likewise for the frequencies.
    """

    t_plus: float
    t_minus: float
    omega_plus: float
    omega_minus: float


def doppler_factor(v: float, consts: PhysicalConstants = NATURAL_UNITS) -> float:
    """Two-way Doppler scale factor (c - v)/(c + v) for a receding velocity v."""
    if abs(v) >= consts.c:
        raise ValueError(f"|v| must be below c, got v={v}")
    return (consts.c - v) / (consts.c + v)


def doppler_frequency(
    omega0: float, v: float, consts: PhysicalConstants = NATURAL_UNITS
) -> float:
    """Returned carrier frequency omega0 * (c - v)/(c + v)."""
    if omega0 <= 0:
        raise ValueError("carrier frequency must be positive")
    return omega0 * doppler_factor(v, consts)


def doppler_bandwidth(
    sigma0: float, v: float, consts: PhysicalConstants = NATURAL_UNITS
) -> float:
    """Returned bandwidth sigma0 * (c - v)/(c + v); same scaling as the carrier."""
    if sigma0 <= 0:
        raise ValueError("bandwidth must be positive")
    return sigma0 * doppler_factor(v, consts)


def return_params(
    target_a: Target,
    target_b: Target,
    probe: ProbeConfig,
    consts: PhysicalConstants = NATURAL_UNITS,
) -> ReturnParams:
    """Returned-photon parameters for photons emitted at t = 0 towards two targets."""
    target_a.validate(consts)
    target_b.validate(consts)
    return ReturnParams(
        t1=2.0 * target_a.r / (consts.c - target_a.v),
        t2=2.0 * target_b.r / (consts.c - target_b.v),
        omega1=doppler_frequency(probe.omega0, target_a.v, consts),
        omega2=doppler_frequency(probe.omega0, target_b.v, consts),
        sigma1=doppler_bandwidth(probe.sigma0, target_a.v, consts),
        sigma2=doppler_bandwidth(probe.sigma0, target_b.v, consts),
    )


def sum_diff(rp: ReturnParams) -> SumDiffParams:
    """Sum/difference combinations of the returned times and frequencies."""
    return SumDiffParams(
        t_plus=rp.t1 + rp.t2,
        t_minus=rp.t2 - rp.t1,
        omega_plus=rp.omega1 + rp.omega2,
        omega_minus=rp.omega2 - rp.omega1,
    )


def _doppler_inverse(omega: float, omega0: float, c: float) -> tuple[float, float]:
    """Exact receding velocity c (omega0 - omega)/(omega0 + omega) of a return, and dv/domega."""
    return c * (omega0 - omega) / (omega0 + omega), -2.0 * c * omega0 / (omega0 + omega) ** 2


def target_estimates(
    scenario: str,
    sd: SumDiffParams,
    omega0: float,
    consts: PhysicalConstants = NATURAL_UNITS,
) -> tuple[np.ndarray, np.ndarray]:
    """A scenario's two physical quantities and their 2x4 gradient.

    The gradient columns follow (t_plus, t_minus, omega_plus, omega_minus).
    ``multibody`` gives the midpoint c t_plus/4, which is the range midpoint
    (r1 + r2)/2 of a pair at rest (a receding pair reads its midpoint at
    reflection: 444.4 against a truth of 400 at v = 0.1c), and the relative
    velocity v2 - v1 from the exact per-photon Doppler inversions.
    ``moving_object`` gives the radial size t_minus (c - v)/2 of a rigid
    object and its common velocity v, inverted at the mean returned carrier
    omega_plus/2.
    """
    c = consts.c
    if scenario == "multibody":
        v1, s1 = _doppler_inverse((sd.omega_plus - sd.omega_minus) / 2.0, omega0, c)
        v2, s2 = _doppler_inverse((sd.omega_plus + sd.omega_minus) / 2.0, omega0, c)
        values = [c * sd.t_plus / 4.0, v2 - v1]
        grad = [[c / 4.0, 0.0, 0.0, 0.0], [0.0, 0.0, (s2 - s1) / 2.0, (s2 + s1) / 2.0]]
    elif scenario == "moving_object":
        v, s = _doppler_inverse(sd.omega_plus / 2.0, omega0, c)
        values = [sd.t_minus * (c - v) / 2.0, v]
        grad = [[0.0, (c - v) / 2.0, -sd.t_minus * s / 4.0, 0.0], [0.0, 0.0, s / 2.0, 0.0]]
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return np.array(values), np.array(grad)
