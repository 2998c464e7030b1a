"""Gaussian state, overlap, derivative, and covariance tests.

Nontrivial expected values are frozen from independent grid quadrature of
the amplitudes (see the quadrature helpers below), not from any closed-form
information expression.
"""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfi_radar.analytic import qfi_entangled
from qfi_radar.kinematics import ParameterPair, ProbeConfig, Strategy, Target
from qfi_radar.states import (
    ROWS,
    GaussianBiphoton,
    GaussianSinglePhoton,
    Stack,
    branch_stack,
    frequency_covariance,
    overlap,
    pair_terms,
    time_covariance,
)

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF
PARAMS = ("t_plus", "t_minus", "omega_plus", "omega_minus")
# photon factors of each sum/difference parameter: t1 = (t_plus - t_minus)/2 ...
CHAIN = {"t_plus": (0.5, 0.5), "t_minus": (-0.5, 0.5),
         "omega_plus": (0.5, 0.5), "omega_minus": (-0.5, 0.5)}


def single_amplitude(state: GaussianSinglePhoton, t):
    """Time-domain amplitude psi(t), on a grid: the quadrature reference,
    normalized by (2 sigma^2/pi)^(1/4)."""
    x = np.asarray(t) - state.t_bar
    norm = (2.0 * state.sigma**2 / math.pi) ** 0.25
    return norm * np.exp(-state.sigma**2 * x**2 - 1j * state.omega_bar * x)


def biphoton_amplitude(state: GaussianBiphoton, t1, t2):
    """Joint time-domain amplitude phi(t1, t2), on a grid: the quadrature
    reference, normalized by sqrt(2 sqrt(1 - kappa^2) sigma1 sigma2/pi)."""
    x1 = np.asarray(t1) - state.t1_bar
    x2 = np.asarray(t2) - state.t2_bar
    s1, s2, k = state.sigma1, state.sigma2, state.kappa
    norm = math.sqrt(2.0 * math.sqrt(1.0 - k**2) * s1 * s2 / math.pi)
    quad = s1**2 * x1**2 + s2**2 * x2**2 - 2.0 * k * s1 * s2 * x1 * x2
    phase = state.omega1_bar * x1 + state.omega2_bar * x2
    return norm * np.exp(-quad - 1j * phase)


def braket(a, b):
    """<a|b> of two states, each a plain Gaussian or a one-row stack.

    Two rows give the one entry of their ``overlap`` block.  A plain state's
    overlaps are read from ``pair_terms``, as ``build_subspace`` reads them:
    <a|b> = g = exp(log g), <a|c . (x - t_b) b> = g c . (mu - t_b) and
    <c . (x - t_a) a|b> = g conj(c) . (mu - t_a).
    """
    if isinstance(a, Stack) and isinstance(b, Stack):
        ((value,),) = overlap(a, b)
        return value
    log_g, ma, mb, _ = pair_terms(*(s.base if isinstance(s, Stack) else s for s in (a, b)))
    g = cmath.exp(log_g)
    if isinstance(b, Stack):
        ((c1, c2),) = b.p
        return g * (c1 * mb[0] + c2 * mb[1])
    if isinstance(a, Stack):
        ((c1, c2),) = a.p
        return g * (c1.conjugate() * ma[0] + c2.conjugate() * ma[1])
    return g


def derivative(state, param, photon=None):
    """d|state>/d(param): one row of ``branch_stack``, as a one-row stack.

    A biphoton carries both photons of the pair; a single photon is the
    ``photon``-th (1 or 2).
    """
    photons = (1, 2) if isinstance(state, GaussianBiphoton) else (photon, 0)
    return Stack(state, (branch_stack(state, photons).p[ROWS.index(param)],))


def gauge_term(state, param, photon=None):
    """i (f1 w1 + f2 w2): the multiple of the ket that ``branch_stack``'s
    carrier gauge leaves out of a time-derivative row; 0 along a carrier."""
    if not param.startswith("t"):
        return 0.0
    f1, f2 = CHAIN[param]
    if isinstance(state, GaussianBiphoton):
        return 1j * (f1 * state.omega1_bar + f2 * state.omega2_bar)
    return 1j * (f1, f2)[photon - 1] * state.omega_bar


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
sigmas = st.floats(0.3, 3.0)
centers = st.floats(-2.0, 2.0)
carriers = st.floats(-3.0, 3.0)
single_photons = st.builds(GaussianSinglePhoton, centers, carriers, sigmas)
biphotons = st.builds(GaussianBiphoton, centers, centers, carriers, carriers,
                      sigmas, sigmas, st.floats(-0.99, 0.99))
params = st.sampled_from(PARAMS)
photon_indices = st.sampled_from((1, 2))
# plain states, and their derivative states as one-row stacks
any_singles = st.one_of(
    single_photons, st.builds(derivative, single_photons, params, photon_indices))
any_biphotons = st.one_of(biphotons, st.builds(derivative, biphotons, params))
state_pairs = st.one_of(st.tuples(any_singles, any_singles),
                        st.tuples(any_biphotons, any_biphotons))
# nonzero prefactor coefficients: magnitude 0.5 to 2, any phase
coefficients = st.builds(lambda r, phase: r * complex(math.cos(phase), math.sin(phase)),
                         st.floats(0.5, 2.0), st.floats(-math.pi, math.pi))


@st.composite
def stack_pairs(draw):
    """Two single-photon or two biphoton bases, each a stack of the same 1-3
    rows (c1, c2), each row one of the base's ``branch_stack`` rows or a
    random one; a single photon's rows leave its lift's coordinate x2 at c2 = 0."""
    dim = draw(st.sampled_from((1, 2)))
    bases = draw(st.lists(single_photons if dim == 1 else biphotons,
                          min_size=2, max_size=2))
    n_rows = draw(st.integers(1, 3))
    stacks = []
    for base in bases:
        photons = (1, 2) if dim == 2 else (draw(photon_indices), 0)
        rows = []
        for _ in range(n_rows):
            if draw(st.booleans()):
                rows.append(draw(st.sampled_from(branch_stack(base, photons).p)))
            else:
                c = [draw(coefficients) for _ in range(dim)]
                rows.append((*c, *(0.0,) * (2 - dim)))
        stacks.append(Stack(base, tuple(rows)))
    return stacks


def shift_single(psi, param, photon_index, eps):
    """psi with one sum/difference parameter displaced by eps."""
    fac = CHAIN[param][photon_index - 1] * eps
    if param.startswith("t"):
        return GaussianSinglePhoton(psi.t_bar + fac, psi.omega_bar, psi.sigma)
    return GaussianSinglePhoton(psi.t_bar, psi.omega_bar + fac, psi.sigma)


def shift_biphoton(phi, param, eps):
    """phi with one sum/difference parameter displaced by eps."""
    f1, f2 = CHAIN[param]
    t1, t2, w1, w2 = *phi.centers(), *phi.carriers()
    if param.startswith("t"):
        t1, t2 = t1 + f1 * eps, t2 + f2 * eps
    else:
        w1, w2 = w1 + f1 * eps, w2 + f2 * eps
    return GaussianBiphoton(t1, t2, w1, w2, phi.sigma1, phi.sigma2, phi.kappa)


def quad_norm_error(state, points=512, half_width_sigmas=8.0):
    """|1 - <state|state>| by grid quadrature of the amplitude."""
    if isinstance(state, GaussianSinglePhoton):
        hw = half_width_sigmas / state.sigma
        t = np.linspace(state.t_bar - hw, state.t_bar + hw, points)
        norm = np.trapezoid(np.abs(single_amplitude(state, t)) ** 2, t)
    else:
        # widen the grid as the correlated Gaussian spreads along t1 +/- t2
        spread = 1.0 / np.sqrt(1.0 - abs(state.kappa))
        hw1 = half_width_sigmas * spread / state.sigma1
        hw2 = half_width_sigmas * spread / state.sigma2
        t1 = np.linspace(state.t1_bar - hw1, state.t1_bar + hw1, points)
        t2 = np.linspace(state.t2_bar - hw2, state.t2_bar + hw2, points)
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        amp = biphoton_amplitude(state, T1, T2)
        norm = np.trapezoid(np.trapezoid(np.abs(amp) ** 2, t2, axis=1), t1)
    return abs(float(norm) - 1.0)


def quad_overlap_1d(a, b, points=4001, half_width=12.0):
    """Independent quadrature of <a|b> for single-photon states."""
    width = half_width / min(a.sigma, b.sigma)
    center = (a.t_bar + b.t_bar) / 2.0
    t = np.linspace(center - width, center + width, points)
    return np.trapezoid(np.conj(single_amplitude(a, t)) * single_amplitude(b, t), t)


def quad_overlap_2d(a, b, points=701, half_width=9.0):
    """Independent quadrature of <a|b> for biphoton states."""
    spread = 1.0 / math.sqrt(1.0 - max(abs(a.kappa), abs(b.kappa)))
    w1 = half_width * spread / min(a.sigma1, b.sigma1)
    w2 = half_width * spread / min(a.sigma2, b.sigma2)
    c1 = (a.t1_bar + b.t1_bar) / 2.0
    c2 = (a.t2_bar + b.t2_bar) / 2.0
    t1 = np.linspace(c1 - w1, c1 + w1, points)
    t2 = np.linspace(c2 - w2, c2 + w2, points)
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    integrand = np.conj(biphoton_amplitude(a, T1, T2)) * biphoton_amplitude(b, T1, T2)
    return np.trapezoid(np.trapezoid(integrand, t2, axis=1), t1)


class TestNormalization:
    def test_single_peak_amplitude(self):
        psi = GaussianSinglePhoton(0.0, 1.0, 1.0)
        assert abs(single_amplitude(psi, 0.0)) == pytest.approx((2.0 / math.pi) ** 0.25)

    def test_single_phase_at_center(self):
        psi = GaussianSinglePhoton(0.5, 3.0, 1.0)
        assert np.angle(single_amplitude(psi, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_single_quadrature_norm(self):
        assert quad_norm_error(GaussianSinglePhoton(0.3, 2.0, 1.5)) <= 1e-8

    def test_biphoton_quadrature_norm(self):
        state = GaussianBiphoton(0.0, 1.0, 2.0, 3.0, 1.0, 2.0, -0.5)
        assert quad_norm_error(state) <= 1e-8

    def test_biphoton_high_correlation_norm(self):
        state = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.9)
        assert quad_norm_error(state) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianSinglePhoton(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        # nan <= 0 is False: each check is a negated comparison so nan fails it
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            GaussianBiphoton(0.0, 0.0, 1.0, 1.0, math.nan, 1.0, 0.0)
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, math.nan, 0.0)
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            GaussianSinglePhoton(0.0, 1.0, math.nan)


# each validated record, by position and by keyword, and its repr
RECORDS = [
    (GaussianSinglePhoton(0.5, 3.0, 1.0),
     GaussianSinglePhoton(t_bar=0.5, omega_bar=3.0, sigma=1.0),
     "GaussianSinglePhoton(t_bar=0.5, omega_bar=3.0, sigma=1.0)"),
    (GaussianBiphoton(0.0, 1.0, 2.0, 3.0, 1.0, 2.0, -0.5),
     GaussianBiphoton(t1_bar=0.0, t2_bar=1.0, omega1_bar=2.0, omega2_bar=3.0, sigma1=1.0,
                      sigma2=2.0, kappa=-0.5),
     "GaussianBiphoton(t1_bar=0.0, t2_bar=1.0, omega1_bar=2.0, omega2_bar=3.0, sigma1=1.0, "
     "sigma2=2.0, kappa=-0.5)"),
    (Target(300.0, 0.1), Target(r=300.0, v=0.1), "Target(r=300.0, v=0.1)"),
    (ProbeConfig(10.0, 1.0, -0.9),
     ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.9, strategy=Strategy.ENTANGLED_BIPHOTON),
     "ProbeConfig(omega0=10.0, sigma0=1.0, kappa=-0.9, "
     "strategy=<Strategy.ENTANGLED_BIPHOTON: 'entangled_biphoton'>)"),
]


@pytest.mark.parametrize("record, twin, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_records_are_frozen_values(record, twin, text):
    # compared, hashed, shown and frozen as the frozen dataclasses they replace
    assert record == twin and hash(record) == hash(twin)
    assert repr(record) == text
    name = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1.0
    assert record == twin
    others = [r for r, _, _ in RECORDS if r is not record]
    assert all(record != other for other in others)
    assert not isinstance(record, tuple)


class TestOverlapSingle:
    def test_overlap_type_errors(self):
        psi = GaussianSinglePhoton(0.0, 1.0, 1.0)
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(TypeError, match="cannot overlap single-photon with biphoton"):
            overlap(derivative(psi, "t_plus", 1), derivative(phi, "t_plus"))
        # a plain Gaussian or a number is not a stack
        with pytest.raises(TypeError, match="non-iterable"):
            overlap(psi, derivative(psi, "t_plus", 1))
        with pytest.raises(TypeError, match="non-iterable"):
            overlap(derivative(psi, "t_plus", 1), 1.0)

    def test_self_overlap(self):
        psi = GaussianSinglePhoton(0.7, 2.0, 1.3)
        assert braket(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_carrier_shift(self):
        # equal sigma = 1, carrier separation 2: modulus e^{-0.5}
        a = GaussianSinglePhoton(0.0, 1.0, 1.0)
        b = GaussianSinglePhoton(0.0, 3.0, 1.0)
        assert abs(braket(a, b)) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_bandwidth_mismatch_prefactor(self):
        a = GaussianSinglePhoton(0.0, 1.0, 1.0)
        b = GaussianSinglePhoton(0.0, 1.0, 3.0)
        assert abs(braket(a, b)) == pytest.approx(math.sqrt(0.6), abs=1e-12)

    def test_time_shift(self):
        a = GaussianSinglePhoton(0.0, 1.0, 1.0)
        b = GaussianSinglePhoton(1.0, 1.0, 1.0)
        assert abs(braket(a, b)) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_general_vs_quadrature(self):
        a = GaussianSinglePhoton(0.2, 1.5, 0.8)
        b = GaussianSinglePhoton(-0.4, 2.5, 1.4)
        assert braket(a, b) == pytest.approx(quad_overlap_1d(a, b), abs=1e-9)


class TestOverlapBiphoton:
    def test_self_overlap(self):
        phi = GaussianBiphoton(0.1, 0.2, 1.0, 2.0, 1.0, 2.0, 0.4)
        assert braket(phi, phi) == pytest.approx(1.0, abs=1e-12)

    def test_separable_factorizes(self):
        a = GaussianBiphoton(0.0, 0.0, 1.0, 2.0, 1.0, 1.5, 0.0)
        b = GaussianBiphoton(0.5, -0.3, 1.5, 2.5, 1.0, 1.5, 0.0)
        lhs = braket(a, b)
        rhs = braket(
            GaussianSinglePhoton(0.0, 1.0, 1.0), GaussianSinglePhoton(0.5, 1.5, 1.0)
        ) * braket(
            GaussianSinglePhoton(0.0, 2.0, 1.5), GaussianSinglePhoton(-0.3, 2.5, 1.5)
        )
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_single_coordinate_shift_is_correlation_independent(self):
        # shifting one photon's center by 1 at sigma = 1 decays as e^{-1/2}
        # regardless of kappa: the marginal width along one coordinate is
        # set by that coordinate's own bandwidth.  Frozen by quadrature.
        for kappa in (0.0, 0.5, -0.7):
            a = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, kappa)
            b = GaussianBiphoton(1.0, 0.0, 1.0, 1.0, 1.0, 1.0, kappa)
            got = abs(braket(a, b))
            assert got == pytest.approx(math.exp(-0.5), abs=1e-12), f"kappa={kappa}"
            assert got == pytest.approx(abs(quad_overlap_2d(a, b)), abs=1e-8)

    def test_general_vs_quadrature(self):
        a = GaussianBiphoton(0.0, 0.3, 1.0, 2.0, 1.0, 1.5, 0.5)
        b = GaussianBiphoton(0.4, -0.2, 1.5, 2.2, 1.2, 1.3, 0.3)
        assert braket(a, b) == pytest.approx(quad_overlap_2d(a, b), abs=1e-8)


class TestOverlapFloatRange:
    @pytest.mark.parametrize("sigma", [1e-100, 1e-80, 1e-78, 1e77, 1e100])
    def test_out_of_range_determinant_names_the_bandwidths(self, sigma):
        # the combined form's determinant scales as sigma^4: at 1e-80 it was
        # subnormal and the overlaps lost digits, at 1e77 it overflowed and
        # they read 0, and at 1e100 it raised "not positive definite"
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, 1.7 * sigma, -0.5)
        psi = GaussianBiphoton(0.1 / sigma, 0.0, 1.0, 1.0, sigma, sigma, 0.0)
        both = (f"sigma1 = {sigma!r}, sigma2 = {1.7 * sigma!r} (kappa = -0.5) and "
                f"sigma1 = {sigma!r}, sigma2 = {sigma!r} (kappa = 0.0)")
        for a, b, where in ((phi, phi, both.partition(" and ")[0]), (phi, psi, both)):
            with pytest.raises(ArithmeticError, match=re.escape(
                    f"Gaussian overlap is out of float range at bandwidths {where}")):
                overlap(branch_stack(a, (1, 2)), branch_stack(b, (1, 2)))

    @pytest.mark.parametrize("sigma", [1e-76, 1e76])
    def test_determinant_inside_the_range(self, sigma):
        # |<phi|psi>| = exp(-1/2) for a unit shift of photon 1 in units of 1/sigma
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, sigma, -0.5)
        psi = GaussianBiphoton(1.0 / sigma, 0.0, 1.0, 1.0, sigma, sigma, -0.5)
        assert abs(braket(phi, psi)) == pytest.approx(math.exp(-0.5), rel=1e-15)


class TestDerivatives:
    @pytest.mark.parametrize("param", ["t_plus", "t_minus", "omega_plus", "omega_minus"])
    def test_biphoton_derivative_vs_finite_difference(self, param):
        # <phi | d phi / d lambda> compared with central differences of the
        # exact overlap under a sum/difference parameter shift; the gauged
        # row lacks the ket's multiple i (f1 w1 + f2 w2)
        phi = GaussianBiphoton(0.1, 0.4, 1.0, 2.0, 1.0, 1.5, 0.5)
        d = derivative(phi, param)
        h = 1e-6
        sign_t = {"t_plus": (0.5, 0.5), "t_minus": (-0.5, 0.5)}
        sign_w = {"omega_plus": (0.5, 0.5), "omega_minus": (-0.5, 0.5)}

        def shifted(eps):
            kw = {
                "t1_bar": phi.t1_bar,
                "t2_bar": phi.t2_bar,
                "omega1_bar": phi.omega1_bar,
                "omega2_bar": phi.omega2_bar,
            }
            if param in sign_t:
                kw["t1_bar"] += sign_t[param][0] * eps
                kw["t2_bar"] += sign_t[param][1] * eps
            else:
                kw["omega1_bar"] += sign_w[param][0] * eps
                kw["omega2_bar"] += sign_w[param][1] * eps
            return GaussianBiphoton(sigma1=1.0, sigma2=1.5, kappa=0.5, **kw)

        got = braket(phi, d)
        fd = (braket(phi, shifted(h)) - braket(phi, shifted(-h))) / (2.0 * h)
        assert got == pytest.approx(fd - gauge_term(phi, param), abs=1e-8)

    @pytest.mark.parametrize("var", ["t_bar", "omega_bar"])
    def test_single_own_derivative_vs_finite_difference(self, var):
        # photon 2 moves by half of t_plus (omega_plus), so twice its
        # derivative is the derivative along its own center (carrier)
        psi = GaussianSinglePhoton(0.2, 1.5, 1.1)
        d = derivative(psi, {"t_bar": "t_plus", "omega_bar": "omega_plus"}[var], photon=2)
        h = 1e-6

        def shifted(eps):
            kw = {"t_bar": psi.t_bar, "omega_bar": psi.omega_bar, "sigma": psi.sigma}
            kw[var] += eps
            return GaussianSinglePhoton(**kw)

        got = 2.0 * braket(psi, d)
        fd = (braket(psi, shifted(h)) - braket(psi, shifted(-h))) / (2.0 * h)
        gauge = 2.0 * gauge_term(psi, {"t_bar": "t_plus", "omega_bar": "omega_plus"}[var], 2)
        assert got == pytest.approx(fd - gauge, abs=1e-8)

    def test_chain_rule_signs(self):
        # photon 1 responds to t_minus with -1/2, photon 2 with +1/2
        psi = GaussianSinglePhoton(0.0, 1.0, 1.0)
        bra = GaussianSinglePhoton(0.3, 1.4, 0.9)
        d1 = derivative(psi, "t_minus", photon=1)
        d2 = derivative(psi, "t_minus", photon=2)
        assert abs(braket(bra, d1)) > 0.1
        assert braket(bra, d1) == pytest.approx(-braket(bra, d2), abs=1e-12)
        assert gauge_term(psi, "t_minus", 1) == -gauge_term(psi, "t_minus", 2)


class TestOverlapKernelProperties:
    @PROPERTY
    @given(state_pairs)
    def test_hermitian_symmetry(self, pair):
        a, b = pair
        scale = math.sqrt(abs(braket(a, a)) * abs(braket(b, b)))
        assert abs(braket(a, b) - braket(b, a).conjugate()) <= 1e-12 * scale

    @PROPERTY
    @given(any_singles, single_photons, params, photon_indices)
    def test_single_derivative_vs_finite_difference(self, psi, other, param, photon_index):
        h = 1e-5
        got = braket(psi, derivative(other, param, photon_index))
        fd = (braket(psi, shift_single(other, param, photon_index, h))
              - braket(psi, shift_single(other, param, photon_index, -h))) / (2.0 * h)
        gauge = gauge_term(other, param, photon_index) * braket(psi, other)
        assert abs(got - fd + gauge) <= 1e-7

    @PROPERTY
    @given(any_biphotons, biphotons, params)
    def test_biphoton_derivative_vs_finite_difference(self, phi, other, param):
        h = 1e-5
        got = (braket(phi, derivative(other, param))
               + gauge_term(other, param) * braket(phi, other))
        fd = (braket(phi, shift_biphoton(other, param, h))
              - braket(phi, shift_biphoton(other, param, -h))) / (2.0 * h)
        assert abs(got - fd) <= 1e-7


class TestStackedOverlap:
    @PROPERTY
    @given(stack_pairs())
    def test_block_matches_scalar_overlaps(self, stacks):
        stack_a, stack_b = stacks
        rows_a = [Stack(stack_a.base, (p,)) for p in stack_a.p]
        rows_b = [Stack(stack_b.base, (p,)) for p in stack_b.p]
        block = overlap(stack_a, stack_b)
        assert [len(line) for line in block] == [len(rows_b)] * len(rows_a)
        for i, a in enumerate(rows_a):
            (row,) = overlap(a, stack_b)  # one row against a stack
            norm_a = math.sqrt(braket(a, a).real)
            for j, b in enumerate(rows_b):
                scale = norm_a * math.sqrt(braket(b, b).real)
                want = braket(a, b)
                assert abs(block[i][j] - want) <= 1e-14 * scale
                assert abs(row[j] - want) <= 1e-14 * scale

    @PROPERTY
    @given(stack_pairs(), st.randoms(use_true_random=False))
    def test_blocks_hermitian_under_permutation(self, stacks, rng):
        # reorder each stack's rows and swap the two stacks: the block is the
        # conjugate transpose of the original, read in the new row order
        a, b = stacks
        rows_a, rows_b = (rng.sample(range(len(s.p)), len(s.p)) for s in stacks)
        block = np.array(overlap(a, b))
        mirrored = np.array(overlap(Stack(b.base, tuple(b.p[i] for i in rows_b)),
                                    Stack(a.base, tuple(a.p[i] for i in rows_a))))
        scale = math.sqrt(np.max(np.abs(overlap(a, a))) * np.max(np.abs(overlap(b, b))))
        assert np.max(np.abs(mirrored.conj().T - block[np.ix_(rows_a, rows_b)])) <= 1e-14 * scale
        own = np.array(overlap(a, a))
        assert np.max(np.abs(own - own.conj().T)) <= 1e-14 * np.max(np.abs(own))

    @PROPERTY
    @given(st.one_of(st.tuples(single_photons, photon_indices), st.tuples(biphotons, st.none())))
    def test_own_block_matches_the_general_path(self, based):
        # overlap(s, s) reads Q = (4A)^-1 from the exponent; a twin base, equal
        # but another object, takes pair_terms' general path.  The blocks
        # agree to the bit: == on floats ignores only the sign of an exact zero
        base, photon = based
        s = branch_stack(base, (1, 2) if photon is None else (photon, 0))
        twin = Stack(type(base)(*base._values()), s.p)
        assert twin.base == base and twin.base is not base
        assert overlap(s, s) == overlap(s, twin)

    def test_stack_of_no_rows_gives_an_empty_block(self):
        # a branch with no derivative rows
        phi = GaussianBiphoton(0.0, 0.3, 1.0, 1.2, 1.0, 1.5, 0.4)
        none, two = Stack(phi, ()), branch_stack(phi, (1, 2))
        assert overlap(none, none) == ()
        assert overlap(none, two) == ()
        assert overlap(two, none) == ((),) * len(two.p)
        assert overlap(derivative(phi, "t_plus"), none) == ((),)


class TestCovariances:
    @pytest.mark.parametrize("kappa", [k / 20.0 for k in range(-19, 20)] + [-0.999, 0.999])
    def test_unit_bandwidth_bits_unchanged(self, kappa):
        # at sigma = 1 each entry over its own product is the entry over the
        # shared determinant 4 det B, bit for bit, so simulate and scenario
        # outputs at the default bandwidth keep their bytes
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, kappa)
        det4 = 4.0 * (1.0 - kappa**2) * 1.0**2 * 1.0**2
        s12 = kappa * 1.0 * 1.0
        assert time_covariance(phi) == ((1.0 / det4, s12 / det4), (s12 / det4, 1.0 / det4))

    @pytest.mark.parametrize("sigma", [1e-80, 1e-150, 1e150])
    def test_extreme_bandwidths_keep_their_digits(self, sigma):
        # 4 det B = 4 (1 - kappa^2) sigma^4 leaves the float range near
        # sigma = 1e-77; each entry's own product, near 1e-154
        kappa = -0.9
        (t11, t12), (_, t22) = time_covariance(
            GaussianBiphoton(0.0, 0.0, 1.0, 1.0, sigma, sigma, kappa))
        want = 1.0 / (4.0 * (1.0 - kappa**2)) / sigma**2
        assert t11 == pytest.approx(want, rel=4e-16)
        assert t22 == pytest.approx(want, rel=4e-16)
        assert t12 == pytest.approx(kappa * want, rel=4e-16)

    @pytest.mark.parametrize("s1, s2", [(1e-155, 1e-155), (1.0, 1e-160), (1e155, 1.0)])
    def test_out_of_range_bandwidths_raise(self, s1, s2):
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, s1, s2, 0.5)
        with pytest.raises(ArithmeticError, match=re.escape(
                f"arrival-time covariance is out of float range at bandwidths "
                f"sigma1 = {s1!r}, sigma2 = {s2!r} (kappa = 0.5)")):
            time_covariance(phi)

    def test_time_covariance_independent(self):
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert np.allclose(time_covariance(phi), 0.25 * np.eye(2))

    def test_time_sum_variance_anticorrelated(self):
        # kappa = -0.8, sigma = 1: Var(t1 + t2) = 1/3.6
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, -0.8)
        cov = time_covariance(phi)
        var_sum = cov[0][0] + cov[1][1] + 2.0 * cov[0][1]
        assert var_sum == pytest.approx(1.0 / 3.6, abs=1e-12)

    def test_frequency_difference_variance(self):
        # kappa = -0.9, sigma = 1: Var(w2 - w1) = 2(1 + kappa) = 0.2
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, -0.9)
        cov = frequency_covariance(phi)
        var_diff = cov[0][0] + cov[1][1] - 2.0 * cov[0][1]
        assert var_diff == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("kappa", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_saturation_identities(self, kappa):
        # the Gaussian time/frequency statistics saturate the pure-state
        # information matrix: Var(t_plus) * H_tplus = Var(w_minus) * H_wminus = 1
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, kappa)
        h_t, h_w = qfi_entangled(1.0, 1.0, kappa, PAIR_A)
        tc, fc = time_covariance(phi), frequency_covariance(phi)
        var_tp = tc[0][0] + tc[1][1] + 2.0 * tc[0][1]
        var_wm = fc[0][0] + fc[1][1] - 2.0 * fc[0][1]
        assert var_tp * h_t == pytest.approx(1.0, abs=1e-12)
        assert var_wm * h_w == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_time_marginals(self):
        # second moments of |phi|^2 on a grid match the covariance algebra
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.6)
        t = np.linspace(-8, 8, 801)
        T1, T2 = np.meshgrid(t, t, indexing="ij")
        p = np.abs(biphoton_amplitude(phi, T1, T2)) ** 2
        z = np.trapezoid(np.trapezoid(p, t, axis=1), t)
        cov = time_covariance(phi)
        var1 = np.trapezoid(np.trapezoid(p * T1**2, t, axis=1), t) / z
        cross = np.trapezoid(np.trapezoid(p * T1 * T2, t, axis=1), t) / z
        assert var1 == pytest.approx(cov[0][0], abs=1e-8)
        assert cross == pytest.approx(cov[0][1], abs=1e-8)

    @pytest.mark.parametrize("s1, s2, kappa", [(1.0, 1.7, -0.6), (0.8, 1.3, 0.5), (1.0, 1.0, 0.0)])
    @pytest.mark.parametrize("pair", list(ParameterPair))
    def test_commuting_pair_joint_law(self, pair, s1, s2, kappa):
        # a pair's time combination u and the partner's frequency
        # combination commute ([t1 + t2, w2 - w1] = [t2 - t1, w1 + w2] = 0),
        # so one shot measures both: the joint law is |phi|^2 Fourier
        # transformed in the partner coordinate v only.  Its covariance
        # is zero and its variances are a^T (4B)^-1 a and b^T B b.  On a
        # 256^2 grid spaced sqrt(2 pi / 256) in v and in its conjugate the
        # worst case read a correlation of 2.0e-17, variances 3.3e-16 off
        # and the frequency mean 4.4e-16 off
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, s1, s2, kappa)
        n = 256
        step = math.sqrt(2.0 * math.pi / n)
        x = (np.arange(n) - n // 2) * step
        u, v = np.meshgrid(x, x, indexing="ij")
        plus, minus = np.array([1.0, 1.0]), np.array([-1.0, 1.0])
        if pair is PAIR_A:  # u = t1 + t2, v = t2 - t1, conjugate (w2 - w1)/2
            a, b, t1 = plus, minus, (u - v) / 2.0
        else:  # u = t2 - t1, v = t1 + t2, conjugate (w1 + w2)/2
            a, b, t1 = minus, plus, (v - u) / 2.0
        amp = biphoton_amplitude(phi, t1, (u + v) / 2.0)
        law = np.abs(np.fft.fft(amp, axis=1)) ** 2
        law /= law.sum()
        # phi carries exp(-i w t), so a frequency w sits at the transform's -w/2
        w = np.broadcast_to(-4.0 * math.pi * np.fft.fftfreq(n, step), law.shape)
        du, dw = u - (law * u).sum(), w - (law * w).sum()
        var_u, var_w = (law * du**2).sum(), (law * dw**2).sum()
        assert abs((law * du * dw).sum()) <= 1e-16 * math.sqrt(var_u * var_w)
        assert var_u == pytest.approx(a @ time_covariance(phi) @ a, rel=2e-15, abs=0)
        assert var_w == pytest.approx(b @ frequency_covariance(phi) @ b, rel=2e-15, abs=0)
        assert (law * w).sum() == pytest.approx(b @ phi.carriers(), abs=2e-15)
