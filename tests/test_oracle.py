"""Numerical Fisher-information engine tests.

The engine never uses a closed-form information expression, so comparisons
against the analytic module are genuine cross-checks; mixed-state expected
values below are frozen from branch-overlap algebra or from limits where
the mixture becomes an orthogonal ensemble.
"""

import collections
import importlib
import inspect
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_states import PROPERTY, braket

from qfi_radar import oracle
from qfi_radar.analytic import asymptotic_bound, asymptotic_H, bound_product, qfi_entangled
from qfi_radar.kinematics import ParameterPair, Strategy
from qfi_radar.oracle import (
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
    _exponent,
    branch_stack,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
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


def pair_rows(model, params):
    """Each branch's derivative rows along ``params``: the stacks
    ``qfi_numeric`` builds its subspace from."""
    rows = [ROWS.index(param) for param in params]
    return [Stack(s.base, tuple(s.p[i] for i in rows)) for s in model.stacks]


def pair_generators(model, params):
    """Each branch's ket, then its derivative rows along ``params`` as
    one-row stacks: the generators the reference spans."""
    return [g for s in pair_rows(model, params)
            for g in (s.base, *(Stack(s.base, (row,)) for row in s.p))]


def fd_qfi(strategy, kwargs, pair, h):
    """Finite-difference reference for the engine's H on ``pair``.

    The subspace is spanned by every branch's ket and derivative rows along
    ``pair``, orthonormalized here through the eigenbasis of their exact-
    overlap Gram matrix, so the reference shares no frame with the engine;
    its entries with a ket come from ``pair_terms`` (``braket``).
    d(rho) is the central difference of rho over ``model_for`` rebuilt with
    each parameter moved by +-h, every rho projected onto that subspace from
    exact overlaps of its branch kets, and the SLD equation is solved in the
    eigenbasis of the projected rho.  Returns (H, residuals): residuals[i] is
    ||(1-P) d(rho)_fd||_HS for the i-th parameter, computed exactly from
    pairwise Gaussian overlaps of the displaced kets.  It subtracts two
    nearly equal O(1/h^2) norms, so it carries a cancellation noise floor of
    roughly sqrt(machine epsilon)/h even when the true leakage is zero.
    """
    model = model_for(strategy, **kwargs)
    params = pair.param_names
    generators = pair_generators(model, params)
    gram = np.array([[braket(a, b) for b in generators] for a in generators])
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    keep = evals > 1e-12 * evals[-1]
    # column j holds the generator coefficients of orthonormal basis vector j
    T = evecs[:, keep] / np.sqrt(evals[keep])

    def rho_matrix(m):
        # w sum_k |k><k| in the orthonormal basis
        G = np.array([[braket(g, branch.base) for branch in m.stacks] for g in generators])
        V = T.conj().T @ G
        return m.weight * V @ V.conj().T

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
        cs = np.repeat([plus.weight, -minus.weight], len(model.stacks)) / (2.0 * h)
        O2 = np.array([[abs(braket(a, b)) ** 2 for b in kets] for a in kets])
        proj_norm2 = float(np.real(np.trace(dR @ dR)))
        residuals.append(float(np.sqrt(max(float(cs @ O2 @ cs) - proj_norm2, 0.0))))

    lam, U = np.linalg.eigh(rho_matrix(model))
    denom = lam[:, None] + lam
    factor = np.divide(2.0, denom, out=np.zeros_like(denom), where=denom > 1e-12 * lam.sum())
    L = factor * (U.conj().T @ np.array(drhos) @ U)
    X = np.einsum("i,aij,bji->ab", lam, L, L)
    return np.real(X + X.T) / 2.0, residuals


def rel_error(H, want):
    """Largest entry error in units of sqrt(want_ii want_jj)."""
    d = np.sqrt(np.diag(want))
    return np.max(np.abs(H - want) / np.outer(d, d))


class TestSubspace:
    def test_single_pure_state_dimension(self):
        psi = GaussianSinglePhoton(0.0, 1.0, 1.0)
        # the ket alone: a stack of no derivative rows
        basis = build_subspace([Stack(psi, ())])
        assert basis.dim == 1

    def test_entangled_with_derivatives_dimension(self):
        # the dimension is the rank of rho: the derivatives live in its kernel,
        # and in the carrier gauge <psi|d psi> = 0
        phi = GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5)
        stack = branch_stack(phi, (1, 2))
        # rows t_plus and omega_minus
        basis = build_subspace([Stack(phi, tuple(stack.p[i] for i in (0, 3)))])
        assert basis.dim == 1
        assert basis.derivatives == [[[0j]], [[0j]]]
        assert len(basis.kernel) == 2

    def test_frame_reproduces_branch_gram(self):
        # the eigenvalues of sum_k |psi_k><psi_k| are those of the branch Gram
        # [[1, g], [conj(g), 1]]: trace 2 and determinant 1 - |g|^2
        for strategy, kwargs in STRATEGY_CASES[1:]:
            model = model_for(strategy, **kwargs)
            basis = build_subspace(pair_rows(model, PAIR_A.param_names))
            lam_plus, lam_minus = basis.eigenvalues
            g = braket(model.stacks[0].base, model.stacks[1].base)
            assert abs(lam_plus + lam_minus - 2.0) <= 1e-15
            assert abs(lam_plus * lam_minus - (1.0 - abs(g) ** 2)) <= 1e-15

    @pytest.mark.parametrize("strategy", [Strategy.TWO_SINGLE_PHOTONS,
                                          Strategy.QUANTUM_ILLUMINATION],
                             ids=lambda s: s.value)
    def test_frame_derivatives_give_purity_slope(self, strategy):
        # sum_i lam_i r^a_ii = Tr(rho d_a rho) = d_a Tr(rho^2)/2, and with
        # rho = w (|psi_1><psi_1| + |psi_2><psi_2|) that is w^2 d_a |<psi_1|psi_2>|^2,
        # here a central difference of overlaps over model_for; unequal
        # bandwidths included (quantum illumination does not read sigma2)
        cases = (
            {"sigma1": 1.0, "kappa": 0.5, "t_minus": 1.0, "omega_minus": 0.8},
            {"sigma1": 0.7, "sigma2": 1.2, "kappa": -0.3, "t_minus": 0.5, "omega_minus": 0.3},
            {"sigma1": 2.0, "sigma2": 3.4, "kappa": 0.0, "t_minus": 0.4, "omega_minus": 1.5,
             "t_plus": 0.3},
        )
        defaults = inspect.signature(model_for).parameters
        h = 1e-6

        def g2(kwargs):
            first, second = model_for(strategy, **kwargs).stacks
            return abs(braket(first.base, second.base)) ** 2

        for kwargs in cases:
            model = model_for(strategy, **kwargs)
            lam, r, _ = project(model, build_subspace(list(model.stacks)))
            want = []
            for param in ROWS:
                value = kwargs.get(param, defaults[param].default)
                slope = (g2({**kwargs, param: value + h}) - g2({**kwargs, param: value - h}))
                want.append(model.weight ** 2 * slope / (2.0 * h))
            # the frame is at unit bandwidth: a time row moves sigma1 times as fast
            d = [model.sigma1 if param[0] == "t" else 1.0 / model.sigma1 for param in ROWS]
            got = [d[a] * sum(lam[i] * r[a][i][i] for i in range(len(lam)))
                   for a in range(len(want))]
            assert max(map(abs, np.subtract(got, want))) <= 1e-8 * max(map(abs, want))

    def test_qi_ensemble_dimension(self):
        model = model_for(
            Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=0.6,
            t_minus=1.0, omega_minus=0.8,
        )
        res = qfi_numeric(model, PAIR_A)
        assert res.dim == 2

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            build_subspace([])
        # the frame is closed-form for one or two equally weighted branches
        model = model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0, t_minus=1.0)
        with pytest.raises(ValueError, match="need one or two branch stacks, got 3"):
            build_subspace([*model.stacks, model.stacks[0]])

    @pytest.mark.parametrize("strategy, kwargs", STRATEGY_CASES,
                             ids=[s.value for s, _ in STRATEGY_CASES])
    def test_each_distinct_overlap_evaluated_once(self, monkeypatch, strategy, kwargs):
        # every generator is a branch's base Gaussian times an affine
        # prefactor, so each branch needs one stacked overlap with itself;
        # the two branches' overlap comes from pair_terms, and projection and
        # the SLD solve read the frame
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
            assert len(calls) == K
            assert all(a is b for a, b in calls)
            assert len({a for a, _ in calls}) == K
            assert stages == dict.fromkeys(STAGES, 1)


def test_model_for_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        model_for("entangled_biphoton", sigma1=1.0)


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
            closed = np.diag(qfi_entangled(sigma, sigma, kappa, pair))
            res = qfi_numeric(model, pair)
            rel = np.max(np.abs(np.diag(res.H - closed)) / np.abs(np.diag(closed)))
            assert rel <= 1e-8

    def test_pure_state_formula_agrees(self):
        # for one branch the block formula is H_ab = 4 Re(<da|db> -
        # <da|psi><psi|db>), here from the overlaps of the true derivatives
        # (the carrier-gauge rows plus their i(f1 w1 + f2 w2) psi)
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.5,
                          t_minus=0.3, omega_minus=0.8)
        for pair in (PAIR_A, PAIR_B):
            generators = pair_generators(model, pair.param_names)
            psi = generators[0]
            # column j: generator coefficients of the ket (j = 0) or of a true
            # derivative, its row plus i (f1 w1 + f2 w2) times the ket
            C = np.eye(3, dtype=complex)
            for row, name in enumerate(pair.param_names, 1):
                if name.startswith("t"):
                    f1, f2 = {"t_plus": (0.5, 0.5), "t_minus": (-0.5, 0.5)}[name]
                    C[0, row] = 1j * (f1 * psi.omega1_bar + f2 * psi.omega2_bar)
            G = C.conj().T @ np.array([[braket(a, b) for b in generators]
                                       for a in generators]) @ C
            want = 4.0 * np.real(G[1:, 1:] - np.outer(G[1:, 0], G[1:, 0].conj()))
            assert np.max(np.abs(qfi_numeric(model, pair).H - want)) <= 1e-12

    def test_pure_rho_is_rank_one(self):
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=1.0, kappa=0.3)
        res = qfi_numeric(model, PAIR_A)
        assert res.dim == 1
        assert res.rho_eigenvalues == [1.0]


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
                assert abs(bound_product(res.H[0][0], res.H[1][1]) - 1.0) <= 1e-4

    @pytest.mark.parametrize("kappa", [0.3, 0.6, -0.5])
    def test_quantum_illumination_far_limit(self, kappa):
        model = model_for(Strategy.QUANTUM_ILLUMINATION, sigma1=1.0, kappa=kappa,
                          t_minus=50.0)
        for pair in (PAIR_A, PAIR_B):
            res = qfi_numeric(model, pair)
            want = 2.0 * math.sqrt(1.0 - kappa**2)
            assert abs(bound_product(res.H[0][0], res.H[1][1]) - want) <= 1e-4

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
        assert np.max(np.abs(2.0 * np.array(qi.H) - sp.H)) <= 1e-9

    def test_single_photon_is_lifted_biphoton(self, monkeypatch):
        # a single photon is photon 1 of a product with the unit-bandwidth
        # Gaussian at rest: built as that product, each branch gives the same
        # H, bit for bit, at every engine_map point
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        for point in workloads.engine_points():
            model = model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=point["sigma"],
                              t_minus=point["t_minus"], omega_minus=point["omega_minus"])
            lifted = oracle.MixedModel(model.weight, tuple(
                branch_stack(GaussianBiphoton(psi.t_bar, 0.0, psi.omega_bar, 0.0,
                                              psi.sigma, 1.0, 0.0), (i, 0))
                for i, psi in enumerate((s.base for s in model.stacks), 1)), model.sigma1)
            for pair in (PAIR_A, PAIR_B):
                got, want = qfi_numeric(lifted, pair).H, qfi_numeric(model, pair).H
                assert np.array(got).tobytes() == np.array(want).tobytes(), (point, pair)

    def test_one_weight_per_model(self):
        # the closed-form frame needs equally weighted branches, so a model
        # holds one weight: its trace over the number of branches; its
        # branches are at unit bandwidth, and it holds the caller's sigma1
        assert oracle.MixedModel._fields == ("weight", "stacks", "sigma1")
        for strategy, trace in ((Strategy.ENTANGLED_BIPHOTON, 1.0),
                                (Strategy.TWO_SINGLE_PHOTONS, 2.0),
                                (Strategy.QUANTUM_ILLUMINATION, 1.0)):
            model = model_for(strategy, sigma1=0.25, t_minus=1.0)
            assert model.weight * len(model.stacks) == trace
            assert model.sigma1 == 0.25
            assert [_exponent(s.base)[0] for s in model.stacks] == [1.0] * len(model.stacks)


class TestCoincidence:
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("t_sigma", [1e-9, 1e-6, 1e-3, 1.0, 10.0])
    def test_omega_minus_entry_of_near_coincident_photons(self, sigma, t_sigma):
        # two single photons at omega_minus = 0: d psi_k/d omega_minus lies
        # in span{psi_1, psi_2} up to O(t_minus sigma), and what is left over
        # gives H(omega_minus, omega_minus) = (t_minus^2/4) 2 h(sigma^2 t_minus^2),
        # h(u) = 1/u - 1/expm1(u) = 1/2 - u/12 + u^3/720 - ... (Bernoulli series)
        t_minus, u = t_sigma / sigma, t_sigma**2
        h = 0.5 - u / 12.0 + u**3 / 720.0 if u < 1e-4 else 1.0 / u - 1.0 / math.expm1(u)
        model = model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=sigma, t_minus=t_minus)
        H = qfi_numeric(model, PAIR_A).H
        assert H[1][1] == pytest.approx(t_minus**2 / 4.0 * 2.0 * h, rel=1e-12)

    def test_exact_coincidence_is_rank_one(self):
        # t_minus = omega_minus = 0: rho = 2 |psi><psi| has rank 1 and both
        # photons move as one; t_plus and omega_plus keep 2 sigma^2 and
        # 1/(2 sigma^2), while t_minus and omega_minus move the photons apart
        # and leave rho unchanged to first order
        model = model_for(Strategy.TWO_SINGLE_PHOTONS, sigma1=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res_a, res_b = qfi_numeric(model, PAIR_A), qfi_numeric(model, PAIR_B)
        assert res_a.dim == res_b.dim == 1
        assert res_a.rho_eigenvalues == [2.0]
        assert np.array_equal(res_a.H, np.diag([2.0, 0.0]))
        assert np.array_equal(res_b.H, np.diag([0.0, 0.5]))


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
        """(rho, d(rho), SLDs) of each model on rho's support, stacked over
        the pair's parameters, in the frame ``build_subspace`` writes them in."""
        for model, pair in self._models():
            basis = build_subspace(pair_rows(model, pair.param_names))
            lam, r, _kernel = project(model, basis)
            L, r = np.array(sld_solve(lam, r)), np.array(r)
            assert L.shape == r.shape == (2, basis.dim, basis.dim)
            assert min(lam) > 0.0
            assert np.max(np.abs(r - r.conj().swapaxes(1, 2))) <= 1e-15
            yield np.diag(lam), r, L

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
            H = np.array(qfi_numeric(model, pair).H)
            assert np.max(np.abs(H - H.T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(H)) >= -1e-10


class TestEngineProperties:
    @PROPERTY
    @given(strategies, pairs, engine_points)
    def test_h_symmetric_psd(self, strategy, pair, point):
        H = np.array(qfi_numeric(point_model(strategy, point), pair).H)
        assert np.array_equal(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-12 * np.max(np.abs(H))

    @PROPERTY
    @given(strategies, pairs, engine_points)
    def test_branch_swap_invariance(self, strategy, pair, point):
        # (t_minus, omega_minus) -> (-t_minus, -omega_minus) exchanges the
        # photons' roles: only the signs of the t_minus and omega_minus rows
        # and columns flip; the photons share one bandwidth here
        point = {**point, "ratio": 1.0}
        H = qfi_numeric(point_model(strategy, point), pair).H
        swapped = {**point, "t_sigma": -point["t_sigma"], "w_over_sigma": -point["w_over_sigma"]}
        S = np.diag([-1.0 if name.endswith("minus") else 1.0 for name in pair.param_names])
        assert rel_error(qfi_numeric(point_model(strategy, swapped), pair).H, S @ H @ S) <= 1e-12

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
        want = np.diag(qfi_entangled(kwargs["sigma1"], kwargs["sigma2"], kwargs["kappa"], pair))
        assert rel_error(H, want) <= PROPERTY_RTOL

    @PROPERTY
    @given(pairs, engine_points)
    def test_uncorrelated_qi_is_half_single_photons(self, pair, point):
        # quantum illumination has one bandwidth
        point = {**point, "kappa": 0.0, "ratio": 1.0}
        qi = qfi_numeric(point_model(Strategy.QUANTUM_ILLUMINATION, point), pair).H
        sp = qfi_numeric(point_model(Strategy.TWO_SINGLE_PHOTONS, point), pair).H
        assert rel_error(2.0 * np.array(qi), sp) <= PROPERTY_RTOL

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
        assert bound_product(res.H[0][0], res.H[1][1]) >= floor * (1.0 - 1e-12)


class TestRobustness:
    def test_branch_swap_invariance(self):
        for strategy, kwargs in STRATEGY_CASES:
            model = model_for(strategy, **kwargs)
            swapped = model_for(strategy, **{**kwargs, "t_minus": -kwargs.get("t_minus", 0.0),
                                             "omega_minus": -kwargs.get("omega_minus", 0.0)})
            for pair in (PAIR_A, PAIR_B):
                S = np.diag([-1.0 if name.endswith("minus") else 1.0
                             for name in pair.param_names])
                H = qfi_numeric(model, pair).H
                assert np.max(np.abs(qfi_numeric(swapped, pair).H - S @ H @ S)) <= 1e-12, (
                    strategy, pair)

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
        closed = np.diag(qfi_entangled(1.0, 1.0, 0.99, PAIR_A))
        rel = np.max(np.abs(np.diag(res.H - closed)) / np.abs(np.diag(closed)))
        assert rel <= 1e-8

    # Carriers far above the bandwidth, the regime of a real radar (omega0/sigma
    # well over 1e3).  Without the carrier gauge a time derivative is
    # i (f1 w1 + f2 w2) times its ket plus a bandwidth-sized rest, and an
    # engine that orthonormalizes the rows loses the rest to round-off.
    @pytest.mark.parametrize("strategy, pair, kwargs, want", [
        (Strategy.ENTANGLED_BIPHOTON, PAIR_B, {"kappa": -0.9, "omega_minus": 1e3}, 0.2),
        (Strategy.ENTANGLED_BIPHOTON, PAIR_A, {"kappa": -0.9, "omega_plus": 3e3}, 3.8),
        (Strategy.QUANTUM_ILLUMINATION, PAIR_A,
         {"kappa": 0.5, "t_minus": 1.0, "omega_minus": 1e4}, 1.0),
    ], ids=["entangled-omega_minus", "entangled-omega_plus", "qi-omega_minus"])
    def test_large_carrier_time_entry(self, strategy, pair, kwargs, want):
        # want: the closed form 1 -+ 2 kappa + 1 for the entangled probe, the
        # separated-branch value for quantum illumination
        res = qfi_numeric(model_for(strategy, sigma1=1.0, **kwargs), pair)
        assert res.H[0][0] == pytest.approx(want, rel=1e-6)


# H and the compatibility residual for both pairs at fixed points, frozen from
# the engine as repr floats: (id, strategy, model_for arguments, (H, residual)
# for PAIR_A, (H, residual) for PAIR_B).  The points cover coincident,
# near-coincident, overlapping and separated branches and unequal forms.
PINNED = (
    ("entangled", Strategy.ENTANGLED_BIPHOTON,
     {"sigma1": 1.0, "kappa": -0.5, "t_minus": 1.0, "omega_minus": 0.8},
     (((3.0, 0.0), (0.0, 1.0)), 0.0),
     (((1.0, 0.0), (0.0, 0.3333333333333333)), 0.0)),
    ("entangled-unequal", Strategy.ENTANGLED_BIPHOTON,
     {"sigma1": 1.0, "sigma2": 1.7, "kappa": -0.9, "t_plus": 0.3},
     (((6.95, 0.0), (0.0, 3.1642688034966326)), 0.0),
     (((0.8299999999999994, 0.0), (0.0, 0.3778910945183027)), 0.0)),
    ("entangled-high-kappa", Strategy.ENTANGLED_BIPHOTON,
     {"sigma1": 1000.0, "kappa": 0.999, "t_minus": 0.001},
     (((2000.0000000000302, 0.0), (0.0, 2.501250625312821e-07)), 0.0),
     (((3998000.0, 0.0), (0.0, 0.0005000000000000067)), 0.0)),
    ("tsp-coincident", Strategy.TWO_SINGLE_PHOTONS,
     {"sigma1": 1.0},
     (((2.0, 0.0), (0.0, 0.0)), 0.0),
     (((0.0, 0.0), (0.0, 0.5)), 0.0)),
    ("tsp-near-coincident", Strategy.TWO_SINGLE_PHOTONS,
     {"sigma1": 1.0, "t_minus": 0.0001},
     (((1.9999999800000003, 0.0), (0.0, 2.4999999958333333e-09)), 0.0),
     (((2.0000000000000004, 0.0), (0.0, 0.5)), 0.0)),
    ("tsp-overlapping", Strategy.TWO_SINGLE_PHOTONS,
     {"sigma1": 1.0, "t_minus": 1.0, "omega_minus": 0.8, "t_plus": 0.5},
     (((1.3730276382347897, 0.0), (0.0, 0.2716825414485948)), 0.0),
     (((1.8538768265271006, 0.0), (0.0, 0.4749211055293916)), 0.0)),
    ("tsp-separated", Strategy.TWO_SINGLE_PHOTONS,
     {"sigma1": 0.001, "t_minus": 10000.0, "omega_minus": 0.0008},
     (((2.0000000000000003e-06, 0.0), (0.0, 500000.0)), 0.0),
     (((2.0000000000000003e-06, 0.0), (0.0, 500000.0)), 0.0)),
    ("tsp-unequal", Strategy.TWO_SINGLE_PHOTONS,
     {"sigma1": 1.0, "sigma2": 1.7, "t_minus": 0.7, "omega_minus": 0.3, "t_plus": -0.4},
     (((2.979807312211374, 0.03651434052757047),
       (0.03651434052757047, 0.16114619691358018)), 0.2870916190184567),
     (((3.8577912052942733, -0.036514340527570466),
       (-0.036514340527570466, 0.2938691861717323)), 0.5016928993958151)),
    ("qi-coincident", Strategy.QUANTUM_ILLUMINATION,
     {"sigma1": 1.0, "kappa": 0.9},
     (((1.0, 0.0), (0.0, 0.0)), 0.0),
     (((0.0, 0.0), (0.0, 1.3157894736842108)), 0.0)),
    ("qi-near-coincident", Strategy.QUANTUM_ILLUMINATION,
     {"sigma1": 1.0, "kappa": 0.3, "t_minus": 0.001, "omega_minus": 0.001},
     (((0.9999990000012745, 3.469446951953614e-18),
       (3.469446951953614e-18, 0.07860471007006642)), 1.2758063191103475e-17),
     (((0.8038794353448347, 3.469446951953614e-18),
       (3.469446951953614e-18, 0.2747251992513943)), 1.2758063191103475e-17)),
    ("qi-near-coincident-narrow", Strategy.QUANTUM_ILLUMINATION,
     {"sigma1": 1000.0, "kappa": 0.5, "t_minus": 2e-07, "omega_minus": 1.0},
     (((999999.9600000145, 0.0), (0.0, 3.065476240476188e-07)), 0.0),
     (((330357.26785713504, 0.0), (0.0, 3.3333322222226364e-07)), 0.0)),
    ("qi-overlapping", Strategy.QUANTUM_ILLUMINATION,
     {"sigma1": 1.0, "kappa": -0.5, "t_minus": 1.0, "omega_minus": 0.8},
     (((0.7027950566891843, 0.0), (0.0, 0.22761085404081866)), 0.0),
     (((0.9323376132527906, 0.0), (0.0, 0.31219875958678645)), 0.0)),
    ("qi-separated", Strategy.QUANTUM_ILLUMINATION,
     {"sigma1": 1.0, "kappa": 0.5, "t_minus": 30.0, "omega_plus": 3.0},
     (((1.0, 0.0), (0.0, 0.3333333333333333)), 0.0),
     (((1.0, 0.0), (0.0, 0.3333333333333333)), 0.0)),
)


def ulps(x: float, scale: float) -> float:
    """|x| in units in the last place of ``scale``."""
    return abs(x) / math.ulp(abs(scale))


class TestPinnedNumbers:
    """The engine's numbers, to 4 ulp: a diagonal entry of its own value, an
    off-diagonal entry and the residual of sqrt(H00 H11), their natural scale.
    Any change to the engine's arithmetic shows here, while a libm that rounds
    exp or expm1 differently by an ulp still passes."""

    @pytest.mark.parametrize("label, strategy, kwargs, want_a, want_b", PINNED,
                             ids=[row[0] for row in PINNED])
    def test_pinned(self, label, strategy, kwargs, want_a, want_b):
        model = model_for(strategy, **kwargs)
        for pair, (want_H, want_compat) in ((PAIR_A, want_a), (PAIR_B, want_b)):
            res = qfi_numeric(model, pair)
            (h00, h01), (h10, h11) = want_H
            scale = math.sqrt(h00 * h11)
            assert ulps(res.H[0][0] - h00, h00) <= 4, (pair, res.H)
            assert ulps(res.H[1][1] - h11, h11) <= 4, (pair, res.H)
            assert ulps(res.H[0][1] - h01, scale) <= 4, (pair, res.H)
            assert ulps(res.H[1][0] - h10, scale) <= 4, (pair, res.H)
            assert ulps(res.compat_residual - want_compat, scale) <= 4, (pair, res)

    def test_h_matches_mpmath(self):
        # 1/u - 1/expm1(u) loses log10(1/u) digits to cancellation, so the
        # reference carries 350 of them; at u = 1.17e-3 the closed form alone
        # is 3.6e-13 off, and the series must take over there
        mpmath = pytest.importorskip("mpmath")
        for u in (1e-300, 1e-18, 1e-6, 9.99e-4, 1e-3, 1.01e-3, 1.17e-3, 0.1, 0.2499, 0.25,
                  0.2501, 1.0, 30.0, 800.0, 1e6):
            with mpmath.workdps(350):
                x = mpmath.mpf(u)
                want = float(1 / x - 1 / mpmath.expm1(x))
            assert oracle._h(u) == pytest.approx(want, rel=4e-15, abs=0.0), u


class TestFloatRange:
    """The engine works at unit bandwidth and scales H back, so one rule
    decides its range: a diagonal entry of D H D must be a normal float.
    Past the range it raises ``ArithmeticError`` naming the caller's
    bandwidths and the branches' separation, rather than return NaN, or 0
    for an information that tends to a finite value."""

    @pytest.mark.parametrize("strategy", [Strategy.TWO_SINGLE_PHOTONS,
                                          Strategy.QUANTUM_ILLUMINATION])
    @pytest.mark.parametrize("kwargs, offset", [
        ({"sigma1": 1.0, "t_minus": 1e155}, "center offset (-1e+155, 0.0)"),
        ({"sigma1": 1.0, "omega_minus": 1e300}, "carrier offset (-1e+300, 0.0)"),
        # u overflows before the kernel's D(w, Sigma c)^2 does, which would read H = 0
        ({"sigma1": 0.316, "t_minus": 5e154}, "center offset (-5e+154, 0.0)"),
        ({"sigma1": 1.0, "sigma2": 1.5, "t_minus": 1e160}, "center offset (-1e+160, 0.0)"),
    ], ids=["t_minus", "omega_minus", "u-overflow", "unequal-forms"])
    def test_huge_separation_raises(self, strategy, kwargs, offset):
        model = model_for(strategy, **kwargs)
        for pair in (PAIR_A, PAIR_B):
            with pytest.raises(ArithmeticError, match="out of float range") as info:
                qfi_numeric(model, pair)
            assert offset in str(info.value)
            # the caller's bandwidth, not the unit one the engine works at
            assert f"sigma1 = {kwargs['sigma1']!r}" in str(info.value) or (
                f"sigma = {kwargs['sigma1']!r}" in str(info.value))

    @pytest.mark.parametrize("sigma", [1e-160, 1e-150, 1e-3, 1e3, 1e148, 1e155])
    @pytest.mark.parametrize("kappa", [0.0, -0.5, 0.9])
    def test_extreme_bandwidths_exact_or_raise(self, sigma, kappa):
        # at t_minus = 50/sigma against exact rational arithmetic: the entangled
        # H (unequal bandwidths too) and both mixtures' separated-branch H.
        # pair_terms' determinant once scaled as sigma^4 and quantum
        # illumination's kernel squared D(w, Sigma c), so the entangled probe
        # answered only to about 1e+-76 and quantum illumination at kappa != 0
        # to 1e+-51; now every strategy answers from 1e-150 to 1e148, and past
        # that D H D leaves the normal floats and the error names sigma
        for strategy, ratio in ((Strategy.ENTANGLED_BIPHOTON, 1.0),
                                (Strategy.ENTANGLED_BIPHOTON, 1.7),
                                (Strategy.TWO_SINGLE_PHOTONS, 1.0),
                                (Strategy.QUANTUM_ILLUMINATION, 1.0)):
            model = model_for(strategy, sigma1=sigma, sigma2=ratio * sigma, kappa=kappa,
                              t_minus=50.0 / sigma)
            for pair in (PAIR_A, PAIR_B):
                if sigma in (1e-160, 1e155):
                    with pytest.raises(ArithmeticError, match="out of float range") as info:
                        qfi_numeric(model, pair)
                    assert repr(sigma) in str(info.value) and "= 1.0" not in str(info.value)
                    continue
                want = exact_H(strategy, pair, sigma, ratio * sigma, kappa)
                got = np.array(qfi_numeric(model, pair).H)
                assert rel_error(got, want) <= 1e-13, (strategy, ratio, pair, got, want)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_bandwidth_of_the_range_answers(self, strategy):
        # one bandwidth per decade from 1e-150 to 1e148, t_minus = 50/sigma
        for e in range(-150, 149):
            sigma = float(f"1e{e}")
            model = model_for(strategy, sigma1=sigma, kappa=-0.5, t_minus=50.0 / sigma)
            for pair in (PAIR_A, PAIR_B):
                want = exact_H(strategy, pair, sigma, sigma, -0.5)
                assert rel_error(np.array(qfi_numeric(model, pair).H), want) <= 1e-13, sigma

    @pytest.mark.parametrize("sigma1", [1.0, 1e-3])
    def test_extreme_bandwidth_ratio_raises(self, sigma1):
        # the unit model's second bandwidth is sigma2/sigma1, and pair_terms'
        # determinant check is what refuses it; the error names the caller's sigma1
        model = model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=sigma1, sigma2=1e-160 * sigma1)
        for pair in (PAIR_A, PAIR_B):
            with pytest.raises(ArithmeticError, match="out of float range") as info:
                qfi_numeric(model, pair)
            assert f"bandwidths sigma1 = {sigma1!r}, sigma2 = " in str(info.value)
            assert info.value.__cause__ is not None

    @pytest.mark.parametrize("sigma", [1e-76, 1e-50, 1e50, 1e76])
    def test_bandwidths_inside_the_range_answer(self, sigma):
        # a kappa = 0 probe keeps every digit
        for strategy in Strategy:
            model = model_for(strategy, sigma1=sigma, t_minus=50.0 / sigma)
            for pair in (PAIR_A, PAIR_B):
                want = np.diag(asymptotic_H(strategy, pair, 0.0, sigma))
                assert rel_error(np.array(qfi_numeric(model, pair).H), want) <= 1e-15

    @pytest.mark.parametrize("strategy, want", [(Strategy.TWO_SINGLE_PHOTONS, 2.0),
                                                (Strategy.QUANTUM_ILLUMINATION, 1.0)])
    def test_separation_inside_the_range(self, strategy, want):
        # the separated-branch asymptote, 2 sigma^2 or sigma^2, at sigma = 1
        res = qfi_numeric(model_for(strategy, sigma1=1.0, t_minus=1e154), PAIR_B)
        assert res.H[0][0] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("strategy", [Strategy.TWO_SINGLE_PHOTONS,
                                          Strategy.QUANTUM_ILLUMINATION])
    @pytest.mark.parametrize("sigma", [1.0, 0.316])
    @pytest.mark.parametrize("t_sigma", [1e-155, 1e-160, 1e-162])
    def test_branches_below_the_float_range_raise(self, strategy, sigma, t_sigma):
        # log|<psi_1|psi_2>| = -(t_minus sigma)^2/2 is subnormal from t_minus
        # sigma near 1e-154 and 0 from 1e-162; the engine read H(t_minus) =
        # 2.0000223 for 2 sigma^2 at 1e-160 and took the coincident rank-1
        # model at 1e-162, where the branches are still distinct
        model = model_for(strategy, sigma1=sigma, kappa=0.5, t_minus=t_sigma / sigma)
        for pair in (PAIR_A, PAIR_B):
            with pytest.raises(ArithmeticError, match="out of float range") as info:
                qfi_numeric(model, pair)
            assert "branch center offset (" in str(info.value)
            assert f"sigma = {sigma!r}" in str(info.value) or (
                f"sigma1 = {sigma!r}" in str(info.value))

    @pytest.mark.parametrize("strategy, kappa", [(Strategy.TWO_SINGLE_PHOTONS, 0.0),
                                                 (Strategy.QUANTUM_ILLUMINATION, 0.0),
                                                 (Strategy.QUANTUM_ILLUMINATION, 0.5)])
    def test_near_coincident_limit_at_the_range_edge(self, strategy, kappa):
        # at t_minus sigma = 1e-150, l = -5e-301 is a normal float and each
        # entry with a finite near-coincident limit reads as at 1e-8 (two
        # single photons: 2 sigma^2 and 1/(2 sigma^2), Tsang, Nair & Lu, PRX
        # 6, 031033 (2016)); quantum illumination at kappa = 0.5 raised here
        for pair in (PAIR_A, PAIR_B):
            edge, near = (qfi_numeric(model_for(strategy, sigma1=1.0, kappa=kappa,
                                                t_minus=t), pair).H for t in (1e-150, 1e-8))
            if pair is PAIR_B:
                assert rel_error(np.array(edge), np.array(near)) <= 1e-12, (edge, near)
            else:
                # the omega_minus entry vanishes as t_minus^2
                assert edge[0][0] == pytest.approx(near[0][0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("strategy", [Strategy.TWO_SINGLE_PHOTONS,
                                          Strategy.QUANTUM_ILLUMINATION])
    @pytest.mark.parametrize("kwargs", [
        {"sigma1": 1.0, "t_plus": 1.0, "t_minus": 1e-20},
        {"sigma1": 1.0, "omega_minus": 1e-300},
        {"sigma1": 1e-100, "t_minus": 1e-300},
    ], ids=["beside-t_plus", "beside-omega_plus", "underflow"])
    def test_separation_lost_to_rounding_raises(self, strategy, kwargs):
        # the photons' times or carriers round to one value, so both branches
        # would be one ket and H(t_minus) would read 0 where it is 2 sigma^2
        with pytest.raises(ArithmeticError, match="^branch separation .* rounds away at"):
            model_for(strategy, **kwargs)
        # the entangled probe is one branch at any separation
        model_for(Strategy.ENTANGLED_BIPHOTON, **kwargs)


def exact_H(strategy, pair, sigma1, sigma2, kappa):
    """H at t_minus = 50/sigma1 in exact rational arithmetic of the float
    inputs, rounded once: the entangled H at any separation, and the
    mixtures' separated-branch H (at equal bandwidths), whose branches
    overlap by e^-1250 there.  A diagonal 2x2 array."""
    s1, s2, k = Fraction(sigma1), Fraction(sigma2), Fraction(kappa)
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        c = k if pair is PAIR_A else -k
        h11 = s1 * s1 - 2 * c * s1 * s2 + s2 * s2
        h22 = (1 / (s2 * s2) - 2 * c / (s1 * s2) + 1 / (s1 * s1)) / (4 * (1 - k * k))
    elif strategy is Strategy.TWO_SINGLE_PHOTONS:
        h11, h22 = 2 * s1 * s1, 1 / (2 * s1 * s1)
    else:
        h11, h22 = s1 * s1, 1 / (4 * (1 - k * k) * s1 * s1)
    return np.diag([float(h11), float(h22)])
