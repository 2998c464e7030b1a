"""Emission -> reflection -> return: from two targets to the returned biphoton.

One forward map runs targets -> ``returned_state`` (the returned biphoton),
and ``target_estimates`` inverts it from the returned photons' own
coordinates (t1, t2, omega1, omega2): ``state.centers()`` then
``state.carriers()``.  Everything is in natural units, the speed of light
``C`` = 1: times are lengths (a round trip to range r at rest takes 2r) and
velocities are fractions of c.  Velocities are positive for receding
targets, so a receding target redshifts the carrier and the bandwidth by
the exact two-way Doppler factor (c - v)/(c + v).

``Strategy`` names the three probes and ``MC_STRATEGIES`` the two that
``montecarlo`` samples; that tuple lives here, so the CLI builds its parser
without importing ``montecarlo``.
"""

from __future__ import annotations

import enum

from .states import GaussianBiphoton, _check_range, _Frozen

__all__ = [
    "C",
    "Strategy",
    "MC_STRATEGIES",
    "ParameterPair",
    "Target",
    "ProbeConfig",
    "doppler_factor",
    "SCENARIOS",
    "returned_state",
    "target_estimates",
]

# the speed of light in natural units
C = 1.0

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


# the strategies Monte Carlo samples, and so the ones simulate and scenario accept
MC_STRATEGIES = (Strategy.ENTANGLED_BIPHOTON, Strategy.TWO_SINGLE_PHOTONS)


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
        """The pair's (time, frequency) parameters.

        Each name is a ``model_for`` argument and a ``states.ROWS`` entry.
        """
        if self is ParameterPair.TIME_SUM_FREQ_DIFF:
            return ("t_plus", "omega_minus")
        return ("t_minus", "omega_plus")


class Target(_Frozen):
    """A point scatterer at range ``r`` receding with radial velocity ``v``."""

    __slots__ = ("r", "v")

    def __init__(self, r: float, v: float) -> None:
        if not r >= 0:
            raise ValueError(f"target range must be non-negative, got {r}")
        doppler_factor(v)  # raises unless |v| < c
        self._fill(r, v)


class ProbeConfig(_Frozen):
    """Emitted probe: carrier ``omega0``, bandwidth ``sigma0``, time correlation ``kappa``."""

    __slots__ = ("omega0", "sigma0", "kappa", "strategy")

    def __init__(self, omega0: float, sigma0: float, kappa: float,
                 strategy: Strategy = Strategy.ENTANGLED_BIPHOTON) -> None:
        if not omega0 > 0:
            raise ValueError("carrier frequency must be positive")
        _check_range(kappa, sigma0)
        self._fill(omega0, sigma0, kappa, strategy)


def doppler_factor(v: float) -> float:
    """Two-way Doppler scale factor (c - v)/(c + v) for a receding velocity v."""
    if not abs(v) < C:
        raise ValueError(f"|v| must be below c, got v={v}")
    return (C - v) / (C + v)


def returned_state(target_a: Target, target_b: Target, probe: ProbeConfig) -> GaussianBiphoton:
    """The biphoton returned by two targets, its photons emitted at t = 0.

    Photon 1 returns from ``target_a`` after the round trip 2 r / (c - v),
    its carrier and bandwidth scaled by that target's Doppler factor;
    photon 2 likewise from ``target_b``.  The time correlation is the
    probe's kappa.
    """
    d1, d2 = doppler_factor(target_a.v), doppler_factor(target_b.v)
    return GaussianBiphoton(
        t1_bar=2.0 * target_a.r / (C - target_a.v),
        t2_bar=2.0 * target_b.r / (C - target_b.v),
        omega1_bar=probe.omega0 * d1,
        omega2_bar=probe.omega0 * d2,
        sigma1=probe.sigma0 * d1,
        sigma2=probe.sigma0 * d2,
        kappa=probe.kappa,
    )


def _doppler_inverse(omega: float, omega0: float, e: float) -> tuple[float, float]:
    """Exact receding velocity c ((omega0 - omega) - e)/(omega0 + omega + e)
    of a return at carrier omega + e, and dv/domega."""
    w = omega0 + omega + e
    if w * w == 0.0:
        raise ArithmeticError(f"Doppler inversion is out of float range at carrier omega0 = "
                              f"{omega0}: omega0 + omega = {w} squares to 0")
    return C * ((omega0 - omega) - e) / w, -2.0 * C * omega0 / (w * w)


def target_estimates(
    scenario: str, x, omega0: float, dx=(0.0, 0.0, 0.0, 0.0)
) -> tuple[tuple, tuple]:
    """A scenario's two physical quantities and their 2x4 gradient at x + dx,
    as a pair and a tuple of two row tuples.

    ``x`` is (t1, t2, omega1, omega2), the returned photons' centers then
    carriers, and the gradient columns follow it.  ``multibody`` gives the
    midpoint c (t1 + t2)/4, which is the range midpoint (r1 + r2)/2 of a
    pair at rest (a receding pair reads its midpoint at reflection: 444.4
    against a truth of 400 at v = 0.1c), and the relative velocity v2 - v1
    from the exact per-photon Doppler inversions.  ``moving_object`` gives
    the radial size (t2 - t1)(c - v)/2 of a rigid object and its common
    velocity v, inverted at the mean returned carrier (omega1 + omega2)/2.
    Each is evaluated at x + dx without forming x + dx, so a velocity keeps
    an offset far below the float spacing of the carriers.
    """
    t1, t2, w1, w2 = x
    d1, d2, e1, e2 = dx
    if scenario == "multibody":
        v1, s1 = _doppler_inverse(w1, omega0, e1)
        v2, s2 = _doppler_inverse(w2, omega0, e2)
        values = (C * ((t1 + t2) + (d1 + d2)) / 4.0, v2 - v1)
        grad = ((C / 4.0, C / 4.0, 0.0, 0.0), (0.0, 0.0, -s1, s2))
    elif scenario == "moving_object":
        v, s = _doppler_inverse((w1 + w2) / 2.0, omega0, (e1 + e2) / 2.0)
        t_diff = (t2 - t1) + (d2 - d1)
        dsize = -t_diff * s / 4.0
        values = (t_diff * (C - v) / 2.0, v)
        grad = ((-(C - v) / 2.0, (C - v) / 2.0, dsize, dsize), (0.0, 0.0, s / 2.0, s / 2.0))
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return values, grad
