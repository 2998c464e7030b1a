"""Numerical Fisher-information engine tests.

The engine never uses a closed-form information expression, so comparisons
against the analytic module are genuine cross-checks; mixed-state expected
values below are frozen from branch-overlap algebra or from limits where
the mixture becomes an orthogonal ensemble.
"""

import collections
import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_states import PROPERTY

from qfi_radar import oracle
from qfi_radar.analytic import asymptotic_bound, bound_product, qfi_entangled
from qfi_radar.kinematics import ParameterPair, Strategy
from qfi_radar.oracle import (
    ProjectedState,
    build_subspace,
    model_for,
    project,
    qfi_numeric,
    sld_solve,
)
from qfi_radar.states import (
    ROWS,
    GaussianBiphoton,
    GaussianSinglePhoton,
    Stack,
    branch_stack,
    overlap,
)

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF
PAIR_B = ParameterPair.TIME_DIFF_FREQ_SUM
STAGES = ("build_subspace", "project", "sld_solve")

# one configuration per strategy with distinct, partly overlapping branches
STRATEGY_CASES = (
    (Strategy.ENTANGLED_BIPHOTON, {"sigma1": 1.0, "kappa": 0.5}),
    (Strategy.TWO_SINGLE_PHOTONS, {"sigma1": 1.0, "t_minus": 1.0, "omega_minus": 0.8}),
    (Strategy.QUANTUM_ILLUMINATION,
     {"sigma1": 1.0, "kappa": 0.6, "t_minus": 1.0, "omega_minus": 0.8}),
)


# benign engine points: clear of generator drops and near-coincident branches
# (t_minus in units of 1/sigma, omega_minus in units of sigma, where sigma is
# photon 1's bandwidth and photon 2's is sigma times ratio)
engine_points = st.fixed_dictionaries({
    "sigma": st.floats(0.5, 2.0), "ratio": st.floats(0.5, 2.0),
    "kappa": st.floats(-0.9, 0.9),
    "t_sigma": st.floats(0.05, 5.0), "w_over_sigma": st.floats(0.0, 2.0),
})
strategies = st.sampled_from(list(Strategy))
pairs = st.sampled_from(list(ParameterPair))
# round-off of the float engine over these points: it peaks near 2e-9 at
# t_minus sigma = 0.05 with omega_minus = 0, where the branches overlap most
PROPERTY_RTOL = 2e-8


def point_kwargs(point, scale=1.0):
    """``model_for`` arguments at ``point`` with every bandwidth and carrier
    times ``scale`` and every time divided by it; quantum illumination does
    not read ``sigma2``."""
    s = point["sigma"] * scale
    return {"sigma1": s, "sigma2": s * point["ratio"], "kappa": point["kappa"],
            "t_minus": point["t_sigma"] / s, "omega_minus": point["w_over_sigma"] * s,
            "omega_plus": 2.0 * scale}


def point_model(strategy, point, scale=1.0):
    return model_for(strategy, **point_kwargs(point, scale))


def pair_stacks(model, params):
    """Each branch's ket and derivative rows along ``params``: the generators
    ``qfi_numeric`` builds its subspace from."""
    rows = [0, *map(ROWS.index, params)]
    return [Stack(s.base, s.p[rows]) for s in model.stacks]


def fd_qfi(strategy, kwargs, pair, h):
    """Finite-difference reference for the engine's H on ``pair``.

    d(rho) is the central difference of rho over ``model_for`` rebuilt with
    each parameter moved by +-h, every rho projected onto the subspace of
    the undisplaced model from exact overlaps of its branch kets.  Returns
    (H, residuals): residuals[i] is ||(1-P) d(rho)_fd||_HS for the i-th
    parameter, computed exactly from pairwise Gaussian overlaps of the
    displaced kets.  It subtracts two nearly equal O(1/h^2) norms, so it
    carries a cancellation noise floor of roughly sqrt(machine epsilon)/h
    even when the true leakage is zero.
    """
    model = model_for(strategy, **kwargs)
    params = pair.param_names
    basis = build_subspace(pair_stacks(model, params))
    K = len(basis.generators)

    def rho_matrix(m):
        # sum_k w_k |k><k| in the subspace basis; generator r K + k is row r
        # of stack k
        G = np.empty((basis.gram.shape[0], len(m.stacks)), dtype=complex)
        for k, stack in enumerate(basis.generators):
            for l, branch in enumerate(m.stacks):
                G[k::K, l] = overlap(stack, branch.base)
        V = basis.transform.conj().T @ G
        return (V * np.asarray(m.weights)) @ V.conj().T

    defaults = inspect.signature(model_for).parameters
    drhos, residuals = [], []
    for param in params:
        value = kwargs.get(param, defaults[param].default)
        plus = model_for(strategy, **{**kwargs, param: value + h})
        minus = model_for(strategy, **{**kwargs, param: value - h})
        dR = (rho_matrix(plus) - rho_matrix(minus)) / (2.0 * h)
        drhos.append(dR)
        # X = sum_k c_k |k><k| over the displaced kets has Tr(X^2) =
        # sum_kl c_k c_l |<k|l>|^2
        kets = [s.base for s in plus.stacks + minus.stacks]
        cs = np.array(plus.weights + tuple(-w for w in minus.weights)) / (2.0 * h)
        O2 = np.array([[abs(overlap(a, b)) ** 2 for b in kets] for a in kets])
        proj_norm2 = float(np.real(np.trace(dR @ dR)))
        residuals.append(float(np.sqrt(max(float(cs @ O2 @ cs) - proj_norm2, 0.0))))

    L, lam, _U = sld_solve(ProjectedState(rho_matrix(model), np.array(drhos)))
    X = np.einsum("i,aij,bji->ab", lam, L, L)
    return np.real(X + X.T) / 2.0, residuals


def rel_error(H, want):
    """Largest entry error in units of sqrt(want_ii want_jj)."""
    d = np.sqrt(np.diag(want))
    return np.max(np.abs(H - want) / np.outer(d, d))


class TestSubspace:
    def test_single_pure_state_dimension(self):
        psi = GaussianSinglePhoton(0.0, 1.0, 1.0)
        basis = build_subspace([Stack(psi, branch_stack(psi, (1,)).p[:1])])
        assert basis.dim == 1

    def test_entangled_with_derivatives_dimension(self):
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5)
        stack = branch_stack(phi, (1, 2))
        basis = build_subspace([Stack(phi, stack.p[[0, 1, 4]])])  # t_plus, omega_minus
        assert basis.dim == 3

    def test_transformed_gram_is_identity(self):
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5)
        stack = branch_stack(phi, (1, 2))
        basis = build_subspace([Stack(phi, stack.p[[0, 2, 3]])])  # t_minus, omega_plus
        G = basis.transform.conj().T @ basis.gram @ basis.transform
        assert np.max(np.abs(G - np.eye(basis.dim))) <= 1e-10

    def test_qi_ensemble_dimension(self):
        model = model_for(
            Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=0.6,
            t_minus=1.0, omega_minus=0.8,
        )
        res = qfi_numeric(model, PAIR_A)
        assert res.dim <= 6
        assert res.dim == 6

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            build_subspace([])

    @pytest.mark.parametrize("strategy, kwargs", STRATEGY_CASES,
                             ids=[s.value for s, _ in STRATEGY_CASES])
    def test_each_distinct_overlap_evaluated_once(self, monkeypatch, strategy, kwargs):
        # every generator is a branch's base Gaussian times an affine
        # prefactor, so K branches need one stacked overlap per base pair,
        # K(K+1)/2 in all; projection, the SLD solve and the pure-state path
        # read theirs from the Gram matrix
        calls = []
        real_overlap = oracle.overlap

        def counted(a, b):
            calls.append((a.base, b.base))
            return real_overlap(a, b)

        # each stage runs once per call, looked up through the module, also
        # on a repeated call with the same model: the traced benchmark times
        # the stages by replacing these globals
        stages = collections.Counter()

        def counting(name):
            real = getattr(oracle, name)

            def wrapped(*args, **kw):
                stages[name] += 1
                return real(*args, **kw)

            return wrapped

        for name in STAGES:
            monkeypatch.setattr(oracle, name, counting(name))
        monkeypatch.setattr(oracle, "overlap", counted)
        model = model_for(strategy, **kwargs)
        K = len(model.stacks)
        for pair in (PAIR_A, PAIR_A, PAIR_B, PAIR_B):
            calls.clear()
            stages.clear()
            qfi_numeric(model, pair)
            assert len(calls) == K * (K + 1) // 2
            assert len({frozenset(bases) for bases in calls}) == len(calls)
            assert stages == dict.fromkeys(STAGES, 1)


class TestPureStates:
    def test_uncorrelated_reference_point(self):
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.0)
        res = qfi_numeric(model, PAIR_A)
        assert np.max(np.abs(res.H - np.diag([2.0, 0.5]))) <= 1e-9

    def test_correlated_pair_b(self):
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.5)
        res = qfi_numeric(model, PAIR_B)
        assert np.max(np.abs(res.H - np.diag([3.0, 1.0]))) <= 1e-9

    @pytest.mark.parametrize("kappa", [-0.8, -0.3, 0.4, 0.9])
    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_closed_form_grid(self, kappa, sigma):
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=sigma, kappa=kappa)
        for pair in (PAIR_A, PAIR_B):
            closed = qfi_entangled(sigma, sigma, kappa, pair).H
            res = qfi_numeric(model, pair)
            rel = np.max(np.abs(np.diag(res.H - closed)) / np.abs(np.diag(closed)))
            assert rel <= 1e-8

    def test_pure_fast_path_agrees(self):
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.5)
        res = qfi_numeric(model, PAIR_A)
        assert res.pure_H is not None
        assert np.max(np.abs(res.pure_H - res.H)) <= 1e-9

    def test_pure_rho_is_rank_one(self):
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.3)
        res = qfi_numeric(model, PAIR_A)
        lam = np.sort(res.rho_eigenvalues)[::-1]
        assert lam[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(lam[1:])) <= 1e-10


class TestMixedStates:
    def test_two_orthogonal_branches_eigenvalues(self):
        # photon-counted: each orthogonal branch carries one photon
        model = model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0, t_minus=50.0)
        res = qfi_numeric(model, PAIR_A)
        lam = np.sort(res.rho_eigenvalues)[::-1]
        assert lam[0] == pytest.approx(1.0, abs=1e-10)
        assert lam[1] == pytest.approx(1.0, abs=1e-10)

    def test_branch_weights_from_overlap(self):
        # photon-counted single-photon mixture: rho eigenvalues are
        # 1 +/- |<psi1|psi2>| with the Gaussian overlap
        # sqrt(2 s1 s2/(s1^2+s2^2)) exp(-(w-^2 + 4 t-^2 s1^2 s2^2)/(4(s1^2+s2^2)))
        t_minus, omega_minus = 1.0, 0.8
        model = model_for(
            Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0,
            t_minus=t_minus, omega_minus=omega_minus,
        )
        res = qfi_numeric(model, PAIR_A)
        ov = math.exp(-(omega_minus**2 + 4.0 * t_minus**2) / 8.0)
        lam = np.sort(res.rho_eigenvalues)[::-1]
        assert lam[0] == pytest.approx(1.0 + ov, abs=1e-10)
        assert lam[1] == pytest.approx(1.0 - ov, abs=1e-10)

    def test_single_photon_far_limit(self):
        for sigma in (0.7, 1.0, 1.6):
            model = model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=sigma,
                              t_minus=50.0 / sigma)
            for pair in (PAIR_A, PAIR_B):
                res = qfi_numeric(model, pair)
                want = np.diag([2.0 * sigma**2, 1.0 / (2.0 * sigma**2)])
                rel = np.max(np.abs(np.diag(res.H - want)) / np.abs(np.diag(want)))
                assert rel <= 1e-6
                assert abs(bound_product(res.H[0, 0], res.H[1, 1]) - 1.0) <= 1e-4

    @pytest.mark.parametrize("kappa", [0.3, 0.6, -0.5])
    def test_quantum_illumination_far_limit(self, kappa):
        model = model_for(Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=kappa,
                          t_minus=50.0)
        for pair in (PAIR_A, PAIR_B):
            res = qfi_numeric(model, pair)
            want = 2.0 * math.sqrt(1.0 - kappa**2)
            assert abs(bound_product(res.H[0, 0], res.H[1, 1]) - want) <= 1e-4

    def test_qi_uncorrelated_reduces_to_single_photon(self):
        # kappa = 0: the idler decouples; normalized-trace H is half the
        # photon-counted single-photon H
        qi = qfi_numeric(
            model_for(Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=0.0,
                      t_minus=1.0, omega_minus=0.8),
            PAIR_A,
        )
        sp = qfi_numeric(
            model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0,
                      t_minus=1.0, omega_minus=0.8),
            PAIR_A,
        )
        assert np.max(np.abs(2.0 * qi.H - sp.H)) <= 1e-9


class TestSldProperties:
    def _models(self):
        return [
            (model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.5), PAIR_A),
            (model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0,
                       t_minus=1.0, omega_minus=0.8), PAIR_B),
            (model_for(Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=0.6,
                       t_minus=1.0, omega_minus=0.8), PAIR_A),
        ]

    def _solved(self):
        """(rho, d(rho), SLDs) of each model, stacked over the pair's
        parameters, in rho's eigenbasis: the basis ``sld_solve`` returns."""
        for model, pair in self._models():
            params = pair.param_names
            basis = build_subspace(pair_stacks(model, params))
            projected = project(model, basis, params)
            L, lam, U = sld_solve(projected)
            assert L.shape == projected.drho.shape == (len(params), basis.dim, basis.dim)
            assert np.max(np.abs(U @ np.diag(lam) @ U.conj().T - projected.rho)) <= 1e-12
            yield np.diag(lam), U.conj().T @ projected.drho @ U, L

    def test_sld_hermitian(self):
        for _, _, Ls in self._solved():
            for L in Ls:
                assert np.max(np.abs(L - L.conj().T)) <= 1e-9

    def test_trace_rho_L_vanishes(self):
        # Tr rho L = Tr d(rho) = 0 for every solved SLD
        for rho, _, Ls in self._solved():
            for L in Ls:
                assert abs(np.trace(rho @ L)) <= 1e-10

    def test_sld_equation_residual(self):
        for rho, drho, Ls in self._solved():
            for L, dR in zip(Ls, drho):
                recon = (rho @ L + L @ rho) / 2.0
                assert np.max(np.abs(recon - dR)) <= 1e-9

    def test_compatibility_residual(self):
        for model, pair in self._models():
            res = qfi_numeric(model, pair)
            assert res.compat_residual <= 1e-8

    def test_h_symmetric_psd(self):
        for model, pair in self._models():
            res = qfi_numeric(model, pair)
            assert np.max(np.abs(res.H - res.H.T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(res.H)) >= -1e-10


class TestEngineProperties:
    @PROPERTY
    @given(strategies, pairs, engine_points)
    def test_h_symmetric_psd(self, strategy, pair, point):
        H = qfi_numeric(point_model(strategy, point), pair).H
        assert np.array_equal(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-12 * np.max(np.abs(H))

    @PROPERTY
    @given(strategies, pairs, engine_points)
    def test_generator_order_invariance(self, strategy, pair, point):
        model = point_model(strategy, point)
        fwd = qfi_numeric(model, pair).H
        rev = qfi_numeric(model, pair, reverse_generators=True).H
        assert rel_error(rev, fwd) <= PROPERTY_RTOL

    @PROPERTY
    @given(strategies, pairs, engine_points, st.floats(0.5, 2.0))
    def test_bandwidth_scaling(self, strategy, pair, point, lam):
        # sigma, omega -> lam sigma, lam omega and t -> t/lam scale the time
        # entry of H by lam^2 and the frequency entry by 1/lam^2
        H = qfi_numeric(point_model(strategy, point), pair).H
        scaled = qfi_numeric(point_model(strategy, point, lam), pair).H
        S = np.diag([lam, 1.0 / lam])
        assert rel_error(scaled, S @ H @ S) <= PROPERTY_RTOL

    @PROPERTY
    @given(pairs, engine_points)
    def test_entangled_matches_closed_form(self, pair, point):
        kwargs = point_kwargs(point)
        H = qfi_numeric(model_for(Strategy.ENTANGLED_BIPHOTON, **kwargs), pair).H
        want = qfi_entangled(kwargs["sigma1"], kwargs["sigma2"], kwargs["kappa"], pair).H
        assert rel_error(H, want) <= PROPERTY_RTOL

    @PROPERTY
    @given(pairs, engine_points)
    def test_uncorrelated_qi_is_half_single_photons(self, pair, point):
        # quantum illumination has one bandwidth
        point = {**point, "kappa": 0.0, "ratio": 1.0}
        qi = qfi_numeric(point_model(Strategy.QUANTUM_ILLUMINATION, point), pair).H
        sp = qfi_numeric(point_model(Strategy.TWO_SINGLE_PHOTONS, point), pair).H
        assert rel_error(2.0 * qi, sp) <= PROPERTY_RTOL

    @PROPERTY
    @given(strategies, pairs, engine_points)
    def test_analytic_matches_finite_difference(self, strategy, pair, point):
        # the error is the central difference's own: its eps/h round-off in
        # d(rho) is divided by rho's small eigenvalue, about (t_minus sigma)^2/4,
        # and peaks near 1.3e-7 on the omega_minus entry at t_minus sigma =
        # 0.05, omega_minus = 0; it grows as h shrinks below 1e-4
        an = qfi_numeric(point_model(strategy, point), pair).H
        fd, _ = fd_qfi(strategy, point_kwargs(point), pair, 1e-5)
        assert np.max(np.abs(np.diag(fd - an)) / np.abs(np.diag(an))) <= 1e-6

    @PROPERTY
    @given(strategies, pairs, engine_points)
    def test_bound_product_above_floor(self, strategy, pair, point):
        # overlapping branches only lose information, so the product sits at
        # or above the orthogonal-branch floor; the entangled probe meets it
        # at every separation, hence the round-off margin; the floors are
        # those of equal bandwidths
        point = {**point, "ratio": 1.0}
        res = qfi_numeric(point_model(strategy, point), pair)
        floor = asymptotic_bound(strategy, pair, point["kappa"])
        assert bound_product(res.H[0, 0], res.H[1, 1]) >= floor * (1.0 - 1e-12)


class TestRobustness:
    def test_generator_order_invariance(self):
        for strategy, kwargs in STRATEGY_CASES:
            model = model_for(strategy, **kwargs)
            for pair in (PAIR_A, PAIR_B):
                fwd = qfi_numeric(model, pair)
                rev = qfi_numeric(model, pair, reverse_generators=True)
                assert np.max(np.abs(fwd.H - rev.H)) <= 1e-9, (strategy, pair)

    def test_finite_difference_mode(self):
        for strategy, kwargs in STRATEGY_CASES:
            model = model_for(strategy, **kwargs)
            for pair in (PAIR_A, PAIR_B):
                an = qfi_numeric(model, pair)
                fd, residuals = fd_qfi(strategy, kwargs, pair, 1e-5)
                rel = np.max(np.abs(np.diag(fd - an.H)) / np.abs(np.diag(an.H)))
                assert rel <= 1e-6, (strategy, pair)
                # the residual estimate subtracts two O(1/h^2) Hilbert-Schmidt
                # norms, so its numerical floor is ~sqrt(eps)/h, not zero
                assert max(residuals) <= 1e-2

    def test_high_correlation_conditioning(self):
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.99)
        res = qfi_numeric(model, PAIR_A)
        closed = qfi_entangled(1.0, 1.0, 0.99, PAIR_A).H
        rel = np.max(np.abs(np.diag(res.H - closed)) / np.abs(np.diag(closed)))
        assert rel <= 1e-8
