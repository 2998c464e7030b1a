"""Parametric Gaussian photon states: amplitudes, overlaps, derivatives, moments.

States are stored as a handful of real numbers; every integral used by the
Fisher-information machinery is an (affine x Gaussian) integral with a
closed form, evaluated here from the mean and covariance of the product
Gaussian.  Grids appear only in quadrature cross-checks elsewhere.

Amplitude conventions (x_i = t_i - t_bar_i):

  single photon:  (2 sigma^2/pi)^(1/4) exp(-sigma^2 x^2) exp(-i omega_bar x)
  biphoton:       sqrt(2 sqrt(1-kappa^2) sigma1 sigma2 / pi)
                  * exp(-[sigma1^2 x1^2 + sigma2^2 x2^2
                          - 2 kappa sigma1 sigma2 x1 x2])
                  * exp(-i omega1 x1 - i omega2 x2)

Carrier phases are referenced to the returned centers, so a state is fully
specified by its center/carrier/bandwidth parameters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GaussianSinglePhoton",
    "GaussianBiphoton",
    "Stack",
    "ROWS",
    "branch_stack",
    "single_amplitude",
    "biphoton_amplitude",
    "overlap",
    "time_covariance",
    "frequency_covariance",
]

# sum/difference parameter -> (kind, factor on photon 1, factor on photon 2),
# from t1 = (t_plus - t_minus)/2, t2 = (t_plus + t_minus)/2 and likewise for
# the carriers
_PAIR_CHAIN = {
    "t_plus": ("t", 0.5, 0.5),
    "t_minus": ("t", -0.5, 0.5),
    "omega_plus": ("omega", 0.5, 0.5),
    "omega_minus": ("omega", -0.5, 0.5),
}


@dataclass(frozen=True)
class GaussianSinglePhoton:
    """Normalized single-photon Gaussian wavepacket."""

    t_bar: float
    omega_bar: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def norm(self) -> float:
        return (2.0 * self.sigma**2 / math.pi) ** 0.25


@dataclass(frozen=True)
class GaussianBiphoton:
    """Normalized two-photon Gaussian wavepacket with time correlation kappa."""

    t1_bar: float
    t2_bar: float
    omega1_bar: float
    omega2_bar: float
    sigma1: float
    sigma2: float
    kappa: float

    def __post_init__(self) -> None:
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("bandwidths must be positive")
        if not -1.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (-1, 1), got {self.kappa}")

    @property
    def norm(self) -> float:
        return math.sqrt(
            2.0 * math.sqrt(1.0 - self.kappa**2) * self.sigma1 * self.sigma2 / math.pi
        )

    def quad_form(self) -> np.ndarray:
        """Real SPD matrix B with amplitude exponent -x^T B x."""
        p, q, r = _exponent(self)[:3]
        return np.array([[p, r], [r, q]])

    def centers(self) -> np.ndarray:
        return np.array([self.t1_bar, self.t2_bar])

    def carriers(self) -> np.ndarray:
        return np.array([self.omega1_bar, self.omega2_bar])


class Stack(NamedTuple):
    """Affine prefactors on one base Gaussian: row i of ``p`` is (c0, c) of
    the state (c0 + c . x) |base>; a one-dimensional ``p`` is a single state.

    x is t - t_bar for a single-photon base (``c`` has one entry) and
    (t1 - t1_bar, t2 - t2_bar) for a biphoton base (two entries).
    """

    base: GaussianSinglePhoton | GaussianBiphoton
    p: np.ndarray


def _split(state) -> tuple:
    """(base, p) of a stack, or of a plain Gaussian with prefactor 1."""
    if isinstance(state, Stack):
        return state
    if isinstance(state, GaussianSinglePhoton):
        return state, (1.0, 0.0)
    if isinstance(state, GaussianBiphoton):
        return state, (1.0, 0.0, 0.0)
    raise TypeError(f"not a Gaussian state: {state!r}")


def single_amplitude(state: GaussianSinglePhoton, t) -> complex | np.ndarray:
    """Time-domain amplitude psi(t)."""
    x = np.asarray(t) - state.t_bar
    return state.norm * np.exp(-state.sigma**2 * x**2 - 1j * state.omega_bar * x)


def biphoton_amplitude(state: GaussianBiphoton, t1, t2) -> complex | np.ndarray:
    """Joint time-domain amplitude phi(t1, t2)."""
    x1 = np.asarray(t1) - state.t1_bar
    x2 = np.asarray(t2) - state.t2_bar
    s1, s2, k = state.sigma1, state.sigma2, state.kappa
    quad = s1**2 * x1**2 + s2**2 * x2**2 - 2.0 * k * s1 * s2 * x1 * x2
    phase = state.omega1_bar * x1 + state.omega2_bar * x2
    return state.norm * np.exp(-quad - 1j * phase)


# ---------------------------------------------------------------------------
# Overlaps


def overlap(a, b) -> complex | np.ndarray:
    """Closed-form inner product <a|b> of (affine x Gaussian) states.

    For plain states conj(a) b = n_a n_b exp(-x^T A x + beta . x + gamma),
    which integrates to pref = n_a n_b exp(gamma + beta^T A^-1 beta / 4)
    sqrt(pi^d / det A) and, divided by pref, is a complex Gaussian with mean
    mu = A^-1 beta / 2 and covariance Sigma = A^-1 / 2.  With prefactors
    a0 + a . (x - t_a) and b0 + b . (x - t_b) the overlap is then

        pref * [(conj(a0) + conj(a) . (mu - t_a)) (b0 + b . (mu - t_b))
                + conj(a)^T Sigma b]
        = conj(p_a)^T Q p_b,   p = (c0, c),
        Q = pref * [[1, (mu - t_b)^T], [mu - t_a, (mu - t_a)(mu - t_b)^T + Sigma]].

    Q depends on the two base Gaussians only; it is evaluated in two
    dimensions (``_exponent``), and single photons read its leading 2x2
    block.  Either side may be a ``Stack`` of k rows: Q is then evaluated
    once and the call returns the whole block of overlaps, shape (k_a, k_b),
    (k_a,) or (k_b,).  Two single states give a complex number.
    """
    ga, pa = _split(a)
    gb, pb = _split(b)
    if type(ga) is not type(gb):
        raise TypeError("cannot overlap single-photon with biphoton states")
    Q = _moments(_exponent(ga), _exponent(gb))
    if isinstance(ga, GaussianSinglePhoton):
        Q = Q[:2, :2]
    block = np.conj(pa).dot(Q).dot(np.transpose(pb))
    return complex(block) if block.ndim == 0 else block


def _exponent(g) -> tuple[float, ...]:
    """(p, q, r, t1, t2, w1, w2, norm) of g's amplitude in two dimensions.

    The amplitude is norm exp(-(x - t)^T [[p, r], [r, q]] (x - t)
    - i w . (x - t)).  A single photon is photon 1 of a product with the
    unit-bandwidth Gaussian (2/pi)^(1/4) exp(-x^2) at rest; that factor is
    the same on both sides of an overlap, so it integrates to one.
    """
    if isinstance(g, GaussianSinglePhoton):
        norm = g.norm * (2.0 / math.pi) ** 0.25
        return g.sigma**2, 1.0, 0.0, g.t_bar, 0.0, g.omega_bar, 0.0, norm
    return (g.sigma1**2, g.sigma2**2, -g.kappa * g.sigma1 * g.sigma2,
            g.t1_bar, g.t2_bar, g.omega1_bar, g.omega2_bar, g.norm)


def _moments(ea, eb) -> np.ndarray:
    """``overlap``'s Q from the ``_exponent`` tuples of its two bases."""
    pa, qa, ra, ta1, ta2, wa1, wa2, na = ea
    pb, qb, rb, tb1, tb2, wb1, wb2, nb = eb
    A11, A22, A12 = pa + pb, qa + qb, ra + rb
    det = A11 * A22 - A12**2
    if det <= 0:
        raise ArithmeticError("combined Gaussian quadratic form is not positive definite")
    beta1 = (
        2.0 * (pa * ta1 + ra * ta2) + 2.0 * (pb * tb1 + rb * tb2)
        + 1j * (wa1 - wb1)
    )
    beta2 = (
        2.0 * (ra * ta1 + qa * ta2) + 2.0 * (rb * tb1 + qb * tb2)
        + 1j * (wa2 - wb2)
    )
    gamma = (
        -(pa * ta1**2 + 2.0 * ra * ta1 * ta2 + qa * ta2**2)
        - (pb * tb1**2 + 2.0 * rb * tb1 * tb2 + qb * tb2**2)
        - 1j * (wa1 * ta1 + wa2 * ta2 - wb1 * tb1 - wb2 * tb2)
    )
    s11, s22, s12 = 0.5 * A22 / det, 0.5 * A11 / det, -0.5 * A12 / det
    mu1 = s11 * beta1 + s12 * beta2
    mu2 = s12 * beta1 + s22 * beta2
    pref = (
        na * nb * cmath.exp(gamma + 0.5 * (beta1 * mu1 + beta2 * mu2))
        * math.pi / math.sqrt(det)
    )
    ma1, ma2, mb1, mb2 = mu1 - ta1, mu2 - ta2, mu1 - tb1, mu2 - tb2
    return np.array([
        [pref, pref * mb1, pref * mb2],
        [pref * ma1, pref * (ma1 * mb1 + s11), pref * (ma1 * mb2 + s12)],
        [pref * ma2, pref * (ma2 * mb1 + s12), pref * (ma2 * mb2 + s22)],
    ])


# ---------------------------------------------------------------------------
# Parameter derivatives (analytic, affine x Gaussian)

# the rows of a branch's stack: its ket, then its derivative along each
# sum/difference parameter
ROWS = ("ket", *_PAIR_CHAIN)


def branch_stack(base: GaussianSinglePhoton | GaussianBiphoton,
                 photons: tuple[int, ...]) -> Stack:
    """|base> and its derivatives along t_plus, t_minus, omega_plus, omega_minus.

    The sum/difference parameters are chained through the photon centers
    and carriers: t1 = (t_plus - t_minus)/2, t2 = (t_plus + t_minus)/2, etc.
    ``photons`` names, for each coordinate of ``base``, the photon of the
    pair (1 or 2) it carries, or 0 for a coordinate the pair does not move.
    Row i of the stack is the state ``ROWS[i]``.
    """
    p, q, r, _, _, w1, w2, _ = _exponent(base)
    rows = [(1.0, *(0.0 for _ in photons))]
    for kind, *pair_factors in _PAIR_CHAIN.values():
        factors = [pair_factors[i - 1] if i else 0.0 for i in photons]
        f1, f2 = (*factors, 0.0)[:2]
        if kind == "t":
            c0 = 1j * (f1 * w1 + f2 * w2)
            c = (2.0 * (f1 * p + f2 * r), 2.0 * (f1 * r + f2 * q))
        else:
            c0, c = 0.0, (-1j * f1, -1j * f2)
        rows.append((c0, *c[:len(photons)]))
    return Stack(base, np.array(rows, dtype=complex))


# ---------------------------------------------------------------------------
# Second moments of the exact densities


def time_covariance(state: GaussianBiphoton) -> np.ndarray:
    """Covariance of the arrival-time pair (t1, t2) under |phi|^2."""
    B = state.quad_form()
    # |phi|^2 ~ exp(-2 x^T B x)  =>  covariance = (4 B)^(-1)
    return np.linalg.inv(4.0 * B)


def frequency_covariance(state: GaussianBiphoton) -> np.ndarray:
    """Covariance of the frequency pair (w1, w2) under the spectral intensity.

    The joint spectral intensity is the squared Fourier transform of phi;
    its covariance equals the amplitude quadratic form itself, so time
    correlation kappa shows up as frequency anticorrelation -kappa.
    """
    return state.quad_form()
