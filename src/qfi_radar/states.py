"""Parametric Gaussian photon states: overlaps, derivatives, moments.

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
import sys
from typing import NamedTuple

__all__ = [
    "GaussianSinglePhoton",
    "GaussianBiphoton",
    "Stack",
    "ROWS",
    "branch_stack",
    "overlap",
    "pair_terms",
    "time_covariance",
    "frequency_covariance",
]

# sum/difference parameter -> (kind, factors): factors[i] is the factor on
# photon i, from t1 = (t_plus - t_minus)/2, t2 = (t_plus + t_minus)/2 and
# likewise for the carriers, and factors[0] = 0 that on a coordinate no photon
# of the pair carries
_PAIR_CHAIN = {
    "t_plus": ("t", (0.0, 0.5, 0.5)),
    "t_minus": ("t", (0.0, -0.5, 0.5)),
    "omega_plus": ("omega", (0.0, 0.5, 0.5)),
    "omega_minus": ("omega", (0.0, -0.5, 0.5)),
}


# the normal floats: a product outside them, or its reciprocal, has lost digits
_TINY = sys.float_info.min
_HUGE = 1.0 / _TINY


def _check_range(kappa: float, *sigmas: float) -> None:
    """Reject a bandwidth that is not positive or a kappa outside (-1, 1); NaN fails both."""
    if not all(s > 0 for s in sigmas):
        raise ValueError("bandwidths must be positive")
    if not -1.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (-1, 1), got {kappa}")


def _check_bandwidths(kappa: float, sigma1: float, sigma2: float) -> None:
    """``_check_range``, and an ``ArithmeticError`` naming the bandwidths where a
    square, which every closed-form information entry scales as, is not a normal float."""
    _check_range(kappa, sigma1, sigma2)
    if not (_TINY <= sigma1 * sigma1 <= _HUGE and _TINY <= sigma2 * sigma2 <= _HUGE):
        raise ArithmeticError(f"closed-form information is out of float range at bandwidths "
                              f"sigma1 = {sigma1!r}, sigma2 = {sigma2!r}")


# ``_Frozen.__setattr__`` refuses every assignment, so ``_fill`` stores through object's
_set_field = object.__setattr__


class _Frozen:
    """An immutable record compared, hashed and shown by its fields, in
    ``__slots__`` order, as a frozen dataclass is.  A subclass's ``__init__``
    validates its arguments, then stores them with ``_fill``.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class GaussianSinglePhoton(_Frozen):
    """Normalized single-photon Gaussian wavepacket."""

    __slots__ = ("t_bar", "omega_bar", "sigma")

    def __init__(self, t_bar: float, omega_bar: float, sigma: float) -> None:
        _check_range(0.0, sigma)
        self._fill(t_bar, omega_bar, sigma)


class GaussianBiphoton(_Frozen):
    """Normalized two-photon Gaussian wavepacket with time correlation kappa."""

    __slots__ = ("t1_bar", "t2_bar", "omega1_bar", "omega2_bar", "sigma1", "sigma2", "kappa")

    def __init__(self, t1_bar: float, t2_bar: float, omega1_bar: float, omega2_bar: float,
                 sigma1: float, sigma2: float, kappa: float) -> None:
        _check_range(kappa, sigma1, sigma2)
        self._fill(t1_bar, t2_bar, omega1_bar, omega2_bar, sigma1, sigma2, kappa)

    def centers(self) -> tuple[float, float]:
        return self.t1_bar, self.t2_bar

    def carriers(self) -> tuple[float, float]:
        return self.omega1_bar, self.omega2_bar


class Stack(NamedTuple):
    """Derivative rows on one base Gaussian: row i of ``p`` is the coefficient
    pair (c1, c2) of the state c . x |base> = (c1 x1 + c2 x2) |base>, and
    ``p = ()`` a stack of no rows.  x = (t1 - t1_bar, t2 - t2_bar); a single
    photon is photon 1 of its lift (``_exponent``), and its own rows have
    c2 = 0.  Every row has two entries: no row holds a multiple of the plain
    state, so each is orthogonal to its own base.
    """

    base: GaussianSinglePhoton | GaussianBiphoton
    p: tuple


# ---------------------------------------------------------------------------
# Overlaps


def overlap(a: Stack, b: Stack) -> tuple:
    """Closed-form inner products <a_i|b_j> of the rows of two stacks.

    For plain normalized states conj(a) b integrates to g = <a|b> and,
    divided by g, is a complex Gaussian with mean mu and covariance Sigma
    (``pair_terms``).  With rows a . (x - t_a) and b . (x - t_b) the overlap
    is then

        g * [(conj(a) . (mu - t_a)) (b . (mu - t_b)) + conj(a)^T Sigma b]
        = conj(a)^T Q b,   Q = g * [(mu - t_a)(mu - t_b)^T + Sigma].

    The 2x2 Q depends on the two base Gaussians only and is evaluated once,
    single photons lifted (``_exponent``).  Returns the block of overlaps,
    nested tuples of shape (k_a, k_b) for stacks of k_a and k_b rows; a stack
    of no rows gives an empty block.
    """
    ga, pa = a
    gb, pb = b
    if type(ga) is not type(gb):
        raise TypeError("cannot overlap single-photon with biphoton states")
    log_g, (ma1, ma2), (mb1, mb2), (s11, s22, s12) = pair_terms(ga, gb)
    g = cmath.exp(log_g)
    # Q, entry q_ij multiplying conj(a_i) b_j
    q11, q21 = g * (ma1 * mb1 + s11), g * (ma2 * mb1 + s12)
    q12, q22 = g * (ma1 * mb2 + s12), g * (ma2 * mb2 + s22)
    block = []
    for a1, a2 in pa:
        # conj(row)^T Q, then its product with each row of b
        c1, c2 = a1.conjugate(), a2.conjugate()
        q1, q2 = c1 * q11 + c2 * q21, c1 * q12 + c2 * q22
        block.append(tuple([q1 * b1 + q2 * b2 for b1, b2 in pb]))
    return tuple(block)


def _exponent(g) -> tuple[float, ...]:
    """(p, q, r, t1, t2, w1, w2) of g's normalized amplitude in two dimensions.

    The amplitude is proportional to exp(-(x - t)^T [[p, r], [r, q]] (x - t)
    - i w . (x - t)).  A single photon is photon 1 of a product with the
    normalized unit-bandwidth Gaussian exp(-x^2) at rest; that factor is the
    same on both sides of an overlap, so it integrates to one.
    """
    if isinstance(g, GaussianSinglePhoton):
        return g.sigma**2, 1.0, 0.0, g.t_bar, 0.0, g.omega_bar, 0.0
    return (g.sigma1**2, g.sigma2**2, -g.kappa * g.sigma1 * g.sigma2,
            g.t1_bar, g.t2_bar, g.omega1_bar, g.omega2_bar)


def pair_terms(a, b) -> tuple:
    """(log<a|b>, mu - t_a, mu - t_b, Sigma) of two base Gaussians, in difference form.

    With quadratic forms A_a, A_b, S = A_a + A_b, dt = t_a - t_b and
    dw = w_a - w_b (``_exponent``):

        log<a|b> = N - dt^T A_a S^-1 A_b dt - dw^T S^-1 dw / 4
                   + i (dt^T A_a S^-1 dw - w_a . dt),
        mu - t_b = S^-1 A_a dt + (i/2) S^-1 dw,   mu - t_a = (mu - t_b) - dt,
        Sigma = S^-1 / 2,

    and N = -1/2 sum_i log1p((1 - sqrt c_i)^2 / (2 sqrt c_i)) over the
    eigenvalues c_i of A_a^-1 A_b, the normalization; N is exactly 0 for
    equal forms.  Only differences enter, so equal bases give log<a|b> = 0
    and mu - t = 0 exactly, whatever their centers and carriers.  The two
    means are pairs of complex numbers and Sigma is (s11, s22, s12).
    """
    pa, qa, ra, ta1, ta2, wa1, wa2 = _exponent(a)
    pb, qb, rb, tb1, tb2, wb1, wb2 = _exponent(b)
    S11, S22, S12 = pa + pb, qa + qb, ra + rb
    det = S11 * S22 - S12 * S12
    # det, and Sigma's determinant 1/(4 det), must be normal floats to keep their digits
    if not _TINY <= det <= 0.25 * _HUGE:
        where = " and ".join(dict.fromkeys((_bandwidths(a), _bandwidths(b))))
        raise ArithmeticError(f"Gaussian overlap is out of float range at bandwidths {where}")
    i11, i22, i12 = S22 / det, S11 / det, -S12 / det
    dt1, dt2 = ta1 - tb1, ta2 - tb2
    dw1, dw2 = wa1 - wb1, wa2 - wb2
    u1, u2 = pa * dt1 + ra * dt2, ra * dt1 + qa * dt2  # A_a dt
    x1, x2 = i11 * u1 + i12 * u2, i12 * u1 + i22 * u2  # S^-1 A_a dt
    y1, y2 = i11 * dw1 + i12 * dw2, i12 * dw1 + i22 * dw2  # S^-1 dw
    quad_t = x1 * (pb * dt1 + rb * dt2) + x2 * (rb * dt1 + qb * dt2)
    quad_w = dw1 * y1 + dw2 * y2
    phase = y1 * u1 + y2 * u2 - (wa1 * dt1 + wa2 * dt2)
    log_g = complex(_log_norm(pa, qa, ra, pb, qb, rb) - quad_t - 0.25 * quad_w, phase)
    mb1, mb2 = complex(x1, 0.5 * y1), complex(x2, 0.5 * y2)
    return log_g, (mb1 - dt1, mb2 - dt2), (mb1, mb2), (0.5 * i11, 0.5 * i22, 0.5 * i12)


def _bandwidths(g) -> str:
    """g's bandwidths, and its correlation, as an error message names them."""
    if isinstance(g, GaussianSinglePhoton):
        return f"sigma = {g.sigma!r}"
    return f"sigma1 = {g.sigma1!r}, sigma2 = {g.sigma2!r} (kappa = {g.kappa!r})"


def _log_norm(pa, qa, ra, pb, qb, rb) -> float:
    """N = log(n_a n_b pi / sqrt(det S)) of two normalized Gaussians' forms.

    The eigenvalues of A_a^-1 A_b are 1 + d for the eigenvalues d of
    M = A_a^-1 (A_b - A_a), taken from its trace and determinant with the
    smaller root from their product, so 1 - sqrt(1 + d) keeps its digits.
    """
    d11, d22, d12 = pb - pa, qb - qa, rb - ra
    if d11 == d22 == d12 == 0.0:
        return 0.0
    det_a = pa * qa - ra * ra
    trace = (qa * d11 - 2.0 * ra * d12 + pa * d22) / det_a
    det_m = (d11 * d22 - d12 * d12) / det_a
    big = 0.5 * trace + math.copysign(math.sqrt(max(0.25 * trace * trace - det_m, 0.0)), trace)
    total = 0.0
    for d in (big, det_m / big if big else 0.0):
        root = math.sqrt(1.0 + d)
        total += math.log1p((d / (1.0 + root)) ** 2 / (2.0 * root))
    return -0.5 * total


# ---------------------------------------------------------------------------
# Parameter derivatives (analytic, affine x Gaussian)

# the rows of a branch's stack: its derivative along each sum/difference parameter
ROWS = tuple(_PAIR_CHAIN)


def branch_stack(base: GaussianSinglePhoton | GaussianBiphoton,
                 photons: tuple[int, int]) -> Stack:
    """The derivatives of |base> along t_plus, t_minus, omega_plus, omega_minus.

    The sum/difference parameters are chained through the photon centers
    and carriers: t1 = (t_plus - t_minus)/2, t2 = (t_plus + t_minus)/2, etc.
    ``photons`` names, for each coordinate x1, x2 of ``base``, the photon of
    the pair (1 or 2) it carries, or 0 for a coordinate the pair does not
    move (a single photon's lift, an idler).  Row i is the state ``ROWS[i]``.

    The rows are taken in the carrier gauge: a time derivative of the
    amplitude is (i (f1 w1 + f2 w2) + c . x) |base>, and its imaginary
    constant only turns the branch's phase, which no density matrix sees,
    so it is left out.  Every row is then c . x |base>, the pair (c1, c2),
    and <base|row> = 0.
    """
    p, q, r = _exponent(base)[:3]
    i1, i2 = photons
    rows = []
    for kind, factors in _PAIR_CHAIN.values():
        f1, f2 = factors[i1], factors[i2]
        if kind == "t":
            rows.append((2.0 * (f1 * p + f2 * r), 2.0 * (f1 * r + f2 * q)))
        else:
            rows.append((-1j * f1, -1j * f2))
    return Stack(base, tuple(rows))


# ---------------------------------------------------------------------------
# Second moments of the exact densities


def time_covariance(state: GaussianBiphoton) -> tuple:
    """Covariance (4 B)^-1 of the arrival-time pair (t1, t2) under
    |phi|^2 ~ exp(-2 x^T B x), B = ``frequency_covariance(state)``, inverted
    exactly; a 2x2 tuple of row tuples.

    Each entry is divided by its own product, 1/(4 (1 - kappa^2) sigma_i^2)
    and kappa/(4 (1 - kappa^2) sigma1 sigma2), not by 4 det B, whose fourth
    power of the bandwidths leaves the float range near sigma = 1e-77.
    Where a product itself leaves it (a bandwidth below about 1e-154 or
    above 1e154), raises ``ArithmeticError`` naming the bandwidths.
    """
    s1, s2, k = state.sigma1, state.sigma2, state.kappa
    c = 4.0 * (1.0 - k**2)
    d1, d2, d12 = c * s1 * s1, c * s2 * s2, c * s1 * s2
    # a product, and its reciprocal, must be a normal float to keep its digits
    if not _TINY <= min(d1, d2, d12) <= max(d1, d2, d12) <= _HUGE:
        raise ArithmeticError(
            f"arrival-time covariance is out of float range at bandwidths {_bandwidths(state)}")
    return (1.0 / d1, k / d12), (k / d12, 1.0 / d2)


def frequency_covariance(state: GaussianBiphoton) -> tuple:
    """Covariance of the frequency pair (w1, w2) under the spectral intensity.

    The joint spectral intensity is the squared Fourier transform of phi;
    its covariance is the amplitude's quadratic form B (phi ~ exp(-x^T B x)),
    so time correlation kappa shows up as frequency anticorrelation -kappa.
    A 2x2 tuple of row tuples.
    """
    p, q, r = _exponent(state)[:3]
    return (p, r), (r, q)
