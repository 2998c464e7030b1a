"""Closed-form information matrices, bounds, and adjudication tests.

Mixed-state expected values are frozen from the numerical engine (the
independent referee), not from the transcribed published formulas — several
of those are refuted below, deliberately.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qfi_radar import analytic
from qfi_radar.analytic import (
    adjudicate,
    asymptotic_H,
    bound_product,
    scenario_qcrb_covariance,
    asymptotic_bound,
    published_mixed_qfi,
    qfi_entangled,
)
from qfi_radar.kinematics import (
    ParameterPair,
    ProbeConfig,
    Strategy,
    Target,
    returned_state,
)
from qfi_radar.oracle import build_subspace, model_for, project, qfi_numeric, sld_solve
from qfi_radar.states import ROWS, GaussianBiphoton, Stack, time_covariance

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF
PAIR_B = ParameterPair.TIME_DIFF_FREQ_SUM
ROOT3_2 = math.sqrt(3.0) / 2.0
SUM_DIFF = ("t_plus", "t_minus", "omega_plus", "omega_minus")
# the sum/difference image (t_plus, t_minus, omega_plus, omega_minus) of the
# photons' (t1, t2, omega1, omega2)
J = np.kron(np.eye(2), [[1.0, 1.0], [-1.0, 1.0]])


def engine_H(model, params):
    """The engine's information matrix over ``params``, from its public stages."""
    rows = [ROWS.index(param) for param in params]
    basis = build_subspace([Stack(s.base, tuple(s.p[i] for i in rows)) for s in model.stacks])
    lam, r, kernel = project(model, basis)
    L = np.array(sld_solve(lam, r))
    X = np.einsum("i,aij,bji->ab", lam, L, L) + np.array(kernel)
    return np.real(X + X.T) / 2.0


class TestEntangled:
    def test_uncorrelated(self):
        res = qfi_entangled(1.0, 1.0, 0.0, PAIR_A)
        assert np.allclose(res, [2.0, 0.5])
        assert bound_product(*res) == pytest.approx(1.0)

    def test_correlated_pair_b(self):
        res = qfi_entangled(1.0, 1.0, 0.5, PAIR_B)
        assert np.allclose(res, [3.0, 1.0])

    @pytest.mark.parametrize("kappa", [-0.9, -0.4, 0.0, 0.4, 0.9])
    def test_equal_bandwidth_forms(self, kappa):
        sigma = 1.3
        resA = qfi_entangled(sigma, sigma, kappa, PAIR_A)
        assert resA[0] == pytest.approx(2.0 * (1.0 - kappa) * sigma**2)
        assert resA[1] == pytest.approx(1.0 / (2.0 * (1.0 + kappa) * sigma**2))
        assert bound_product(*resA) == pytest.approx(
            math.sqrt((1.0 + kappa) / (1.0 - kappa)), abs=1e-12
        )
        resB = qfi_entangled(sigma, sigma, kappa, PAIR_B)
        assert bound_product(*resB) == pytest.approx(
            math.sqrt((1.0 - kappa) / (1.0 + kappa)), abs=1e-12
        )

    def test_unequal_bandwidths(self):
        s1, s2, k = 1.0, 2.0, 0.5
        res = qfi_entangled(s1, s2, k, PAIR_A)
        h11 = s1**2 - 2 * k * s1 * s2 + s2**2
        assert res[0] == pytest.approx(h11)
        assert res[1] == pytest.approx(h11 / (4 * (1 - k**2) * s1**2 * s2**2))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_unit_bandwidth_bits_unchanged(self, sigma):
        # at power-of-two bandwidths H22 written term by term is H11 over
        # 4 (1 - kappa^2) sigma1^2 sigma2^2 bit for bit, so the qfi, curves
        # and oracle-check outputs at the default bandwidth keep their bytes
        for kappa in [k / 20.0 for k in range(-19, 20)] + [-0.999, 0.999]:
            for pair in ParameterPair:
                h11, h22 = qfi_entangled(sigma, sigma, kappa, pair)
                assert h22 == h11 / (4.0 * (1.0 - kappa**2) * sigma**2 * sigma**2)

    @pytest.mark.parametrize("sigma", [1e-150, 1e-100, 1e-80, 1.0, 1e78, 1e100, 1e150])
    def test_extreme_bandwidths_keep_their_digits(self, sigma):
        # H11 over 4 (1 - kappa^2) sigma1^2 sigma2^2 formed the fourth power
        # of the bandwidths, which leaves the normal floats near sigma = 1e-77
        # and 1e77: at 1e-80 H22 read 0.49% off and from 1e78 it read 0.0.
        # Exact rational arithmetic on the same floats is the reference; the
        # worst case seen over 41 kappa to +-0.99 and sigma from 1e-150 to
        # 1e150 was 2.3e-15, as at sigma = 1
        s1, s2 = sigma, 1.7 * sigma
        for kappa in (-0.9, -0.5, 0.0, 0.3, 0.9):
            for pair in ParameterPair:
                f1, f2, fk = Fraction(s1), Fraction(s2), Fraction(kappa)
                k = fk if pair is PAIR_A else -fk
                h11 = f1 * f1 - 2 * k * f1 * f2 + f2 * f2
                h22 = h11 / (4 * (1 - fk * fk) * f1 * f1 * f2 * f2)
                got = qfi_entangled(s1, s2, kappa, pair)
                assert got[0] == pytest.approx(float(h11), rel=4e-15, abs=0.0)
                assert got[1] == pytest.approx(float(h22), rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("s1, s2", [(1e-155, 1e-155), (1e155, 1e155), (1.0, 1e-160),
                                        (1e160, 1.0)])
    def test_out_of_range_bandwidths_raise(self, s1, s2):
        # a square outside the normal floats would lose its digits or raise
        # a bare OverflowError from sigma**2
        message = re.escape(f"closed-form information is out of float range at bandwidths "
                            f"sigma1 = {s1!r}, sigma2 = {s2!r}")
        for pair in ParameterPair:
            with pytest.raises(ArithmeticError, match=message):
                qfi_entangled(s1, s2, 0.5, pair)
            if s1 == s2:
                for strategy in Strategy:
                    with pytest.raises(ArithmeticError, match=message):
                        asymptotic_H(strategy, pair, 0.5, s1)
                    if strategy is not Strategy.ENTANGLED_BIPHOTON:
                        with pytest.raises(ArithmeticError, match=message):
                            published_mixed_qfi(strategy, pair, s1, 1.0, 0.8, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            qfi_entangled(0.0, 1.0, 0.0, PAIR_A)
        with pytest.raises(ValueError):
            qfi_entangled(1.0, 1.0, 1.0, PAIR_A)
        for sigmas in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="bandwidths must be positive"):
                qfi_entangled(*sigmas, 0.0, PAIR_A)


class TestBounds:
    def test_reference_values(self):
        assert asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, 0.0) == 1.0
        assert asymptotic_bound(Strategy.TWO_SINGLE_PHOTONS, PAIR_A, 0.0) == 1.0
        assert asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_A, 0.0) == 2.0
        assert asymptotic_bound(
            Strategy.ENTANGLED_BIPHOTON, PAIR_A, -0.6
        ) == pytest.approx(0.5, abs=1e-15)

    def test_qi_crossover(self):
        for k in (ROOT3_2, -ROOT3_2):
            b = asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_A, k)
            assert abs(b - 1.0) <= 1e-12

    @pytest.mark.parametrize("kappa", [-0.9, -0.3, 0.2, 0.8])
    def test_pair_b_mirror(self, kappa):
        a = asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, -kappa)
        b = asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_B, kappa)
        assert a == pytest.approx(b, abs=1e-15)
        # QI and single-photon floors are kappa-symmetric
        assert asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_A, kappa) == (
            pytest.approx(asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, PAIR_B, kappa))
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, 1.0)
        # the floor's kappa range is checked once, in asymptotic_H, for every strategy
        with pytest.raises(ValueError, match=r"kappa must lie in \(-1, 1\), got 1.0"):
            asymptotic_bound(Strategy.TWO_SINGLE_PHOTONS, PAIR_A, 1.0)

    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B])
    def test_asymptotic_H_validation(self, pair):
        # unchecked, QI at kappa = 2 gives H22 < 0 and sigma = -1 a finite pair
        with pytest.raises(ValueError, match="kappa must lie in"):
            asymptotic_H(Strategy.QUANTUM_ILLUMINATION, pair, 2.0, 1.0)
        with pytest.raises(ValueError, match="kappa must lie in"):
            asymptotic_H(Strategy.TWO_SINGLE_PHOTONS, pair, math.nan, 1.0)
        for strategy in Strategy:
            for sigma in (-1.0, 0.0, math.nan):
                with pytest.raises(ValueError, match="bandwidths must be positive"):
                    asymptotic_H(strategy, pair, 0.0, sigma)

    def test_asymptotic_H_is_engine_far_limit(self):
        model_sigma = 1.3
        for strategy in Strategy:
            model = model_for(strategy, sigma1=model_sigma, kappa=0.6, t_minus=50.0)
            for pair in (PAIR_A, PAIR_B):
                want = np.diag(qfi_numeric(model, pair).H)
                got = asymptotic_H(strategy, pair, 0.6, model_sigma)
                assert got == pytest.approx(want, rel=1e-9), (strategy, pair)

    def test_scenario_qcrb_covariance(self):
        # single photons: per photon, (4B)^-1 and B are diagonal at kappa = 0
        per_photon = scenario_qcrb_covariance(Strategy.TWO_SINGLE_PHOTONS, 0.0, 1.0, 2.0)
        assert np.array_equal(per_photon, np.diag([0.25, 1.0 / 16.0, 1.0, 4.0]))
        # and their sum/difference image
        cov = J @ per_photon @ J.T
        a, b = 0.25, 1.0 / 16.0
        assert cov[:2, :2] == pytest.approx(np.array([[a + b, b - a], [b - a, a + b]]))
        assert cov[2:, 2:] == pytest.approx(np.array([[5.0, 3.0], [3.0, 5.0]]))
        assert not cov[:2, 2:].any() and not cov[2:, :2].any()
        # entangled at equal bandwidths: the sum/difference time and frequency
        # blocks are diagonal, reciprocal to asymptotic_H at each pair's entries
        for pair, cols in ((PAIR_A, [0, 3]), (PAIR_B, [1, 2])):
            cov = J @ scenario_qcrb_covariance(Strategy.ENTANGLED_BIPHOTON, -0.9, 1.3, 1.3) @ J.T
            h = asymptotic_H(Strategy.ENTANGLED_BIPHOTON, pair, -0.9, 1.3)
            assert np.diag(cov)[cols] == pytest.approx(1.0 / np.array(h), rel=1e-14)
            assert np.count_nonzero(cov) == 4
        with pytest.raises(ValueError):
            scenario_qcrb_covariance(Strategy.QUANTUM_ILLUMINATION, 0.0, 1.0, 1.0)

    def test_scenario_time_block_is_time_covariance(self):
        # (4B)^-1 has one home: the time block is the state's own covariance
        state = GaussianBiphoton(0.0, 0.0, 0.0, 0.0, 1.0, 0.55, 0.6)
        cov = scenario_qcrb_covariance(Strategy.ENTANGLED_BIPHOTON, 0.6, 1.0, 0.55)
        assert np.array(cov)[:2, :2].tobytes() == np.array(time_covariance(state)).tobytes()

    def test_scenario_qcrb_covariance_validation(self):
        # unchecked, kappa = 1 gives an infinite time block
        for kappa in (1.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="kappa must lie in"):
                scenario_qcrb_covariance(Strategy.ENTANGLED_BIPHOTON, kappa, 1.0, 1.0)
        for strategy in (Strategy.ENTANGLED_BIPHOTON, Strategy.TWO_SINGLE_PHOTONS):
            for sigmas in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)):
                with pytest.raises(ValueError, match="bandwidths must be positive"):
                    scenario_qcrb_covariance(strategy, 0.0, *sigmas)
        # two single photons carry no correlation: their kappa is not read
        assert np.array_equal(
            scenario_qcrb_covariance(Strategy.TWO_SINGLE_PHOTONS, 1.0, 1.0, 2.0),
            scenario_qcrb_covariance(Strategy.TWO_SINGLE_PHOTONS, 0.0, 1.0, 2.0))

    @pytest.mark.parametrize("strategy, kappa", [(Strategy.ENTANGLED_BIPHOTON, -0.9),
                                                 (Strategy.ENTANGLED_BIPHOTON, 0.6),
                                                 (Strategy.TWO_SINGLE_PHOTONS, 0.0)])
    def test_scenario_qcrb_is_inverse_engine_qfi(self, strategy, kappa):
        # unequal returned bandwidths, v = (0, 0.3c): the bound holds every
        # other parameter unknown, so it is the inverse of the engine's
        # four-parameter H (single photons far apart, where the photon-counted
        # engine and the labelled photons agree)
        probe = ProbeConfig(omega0=10.0, sigma0=1.0, kappa=kappa, strategy=strategy)
        state = returned_state(Target(300.0, 0.0), Target(340.0, 0.3), probe)
        assert state.sigma2 < 0.6 * state.sigma1
        (t1, t2), (w1, w2) = state.centers(), state.carriers()
        model = model_for(strategy, sigma1=state.sigma1, sigma2=state.sigma2, kappa=kappa,
                          t_plus=t1 + t2, t_minus=t2 - t1, omega_plus=w1 + w2,
                          omega_minus=w2 - w1)
        want = np.linalg.inv(engine_H(model, SUM_DIFF))
        cov = J @ scenario_qcrb_covariance(strategy, kappa, state.sigma1, state.sigma2) @ J.T
        d = np.sqrt(np.diag(want))
        assert np.max(np.abs(cov - want) / np.outer(d, d)) <= 1e-9


class TestPublishedForms:
    def test_single_photon_pair_a_zero_frequency_offset(self):
        # transcribed form at sigma=1, t-=1, w-=0: H11 = 2 - 2 e^{-1}
        H = published_mixed_qfi(Strategy.TWO_SINGLE_PHOTONS, PAIR_A, 1.0, 1.0, 0.0)
        assert H[0] == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-12)

    def test_qi_pair_b_prints_negative_entry(self):
        # the transcribed frequency-sum entry has a growing exponential and
        # goes negative at moderate separation: kept verbatim so the
        # adjudicator can refute it
        H = published_mixed_qfi(
            Strategy.QUANTUM_ILLUMINATION, PAIR_B, 1.0, 1.0, 0.8, kappa=0.6
        )
        assert H[1] < 0.0

    def test_near_coincident_limit_without_cancellation(self):
        # the printed 1/(2 sigma^2) - (t^2/2)/(e^x - 1), x = t^2 sigma^2, tends
        # to t^2/4 at sigma = 1
        t_minus = 1e-7
        recs = adjudicate(Strategy.TWO_SINGLE_PHOTONS, PAIR_A, sigma=1.0, t_minus=t_minus)
        assert recs[1]["paper_value"] == pytest.approx(t_minus**2 / 4.0, abs=2e-16)

    @pytest.mark.parametrize("pair, t_minus, omega_minus, idx", [
        (PAIR_A, 1e-9, 0.0, 1),  # printed 1/(2 sigma^2) - (t^2/2)/(e^x - 1)
        (PAIR_B, 0.0, 1e-9, 0),  # printed 2 sigma^2 - (omega^2/2)/(e^x - 1)
    ])
    def test_near_coincident_single_photon_entries_confirmed(self, pair, t_minus,
                                                             omega_minus, idx):
        # each printed entry is 1e-9^2/4 there, not its asymptote minus itself;
        # the engine reads the pair-B entry as 2.5000004e-19, its carriers
        # 1 -+ 5e-10 formed around omega_plus = 2
        recs = adjudicate(Strategy.TWO_SINGLE_PHOTONS, pair, sigma=1.0, t_minus=t_minus,
                          omega_minus=omega_minus)
        assert recs[idx]["paper_value"] == pytest.approx(2.5e-19, rel=1e-12, abs=0.0)
        assert [r["verdict"] for r in recs] == ["confirmed", "confirmed"]

    def test_near_coincident_qi_entry_not_cancelled(self):
        # at kappa = 0 the printed 1/(2 sigma^2) - (t^2/2)/(e^x - 1) is 1e-9^2/4
        H = published_mixed_qfi(Strategy.QUANTUM_ILLUMINATION, PAIR_A, 1.0, 1e-9, 0.0, 0.0)
        assert H[1] == pytest.approx(2.5e-19, rel=1e-12, abs=0.0)

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
            assert analytic._h(u) == pytest.approx(want, rel=4e-15, abs=0.0), u

    def test_unsupported_strategy(self):
        with pytest.raises(ValueError, match="no published mixed-state form"):
            published_mixed_qfi(Strategy.ENTANGLED_BIPHOTON, PAIR_A, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("strategy", [Strategy.TWO_SINGLE_PHOTONS,
                                          Strategy.QUANTUM_ILLUMINATION])
    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B])
    def test_validation(self, strategy, pair):
        # unchecked, sigma = -1 gives finite entries and sigma = 0 divides by zero
        for sigma in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="bandwidths must be positive"):
                published_mixed_qfi(strategy, pair, sigma, 1.0, 0.8)

    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B])
    def test_qi_kappa_validation(self, pair):
        # unchecked, kappa = 1 divides by zero; two single photons do not read kappa
        for kappa in (1.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="kappa must lie in"):
                published_mixed_qfi(Strategy.QUANTUM_ILLUMINATION, pair, 1.0, 1.0, 0.8, kappa)
        assert published_mixed_qfi(Strategy.TWO_SINGLE_PHOTONS, pair, 1.0, 1.0, 0.8, 1.0) == (
            published_mixed_qfi(Strategy.TWO_SINGLE_PHOTONS, pair, 1.0, 1.0, 0.8))

    @pytest.mark.parametrize("strategy", [Strategy.TWO_SINGLE_PHOTONS,
                                          Strategy.QUANTUM_ILLUMINATION])
    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B])
    def test_coincident_branches(self, strategy, pair):
        # the printed entries divide by e^0 - 1 there
        with pytest.raises(ValueError, match="the two branches coincide"):
            published_mixed_qfi(strategy, pair, 1.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="the two branches coincide"):
            adjudicate(strategy, pair, sigma=1.0, kappa=0.5)
        # the entangled strategy has one branch; its verdicts do not read t_minus
        recs = adjudicate(Strategy.ENTANGLED_BIPHOTON, pair, sigma=1.0, kappa=0.5)
        assert [r["verdict"] for r in recs] == ["confirmed", "confirmed"]


class TestDualEvaluation:
    def test_single_photon_pair_a_confirmed(self):
        # engine-frozen values at sigma=1, t-=1, w-=0.8; the published forms agree
        recs = adjudicate(
            Strategy.TWO_SINGLE_PHOTONS, PAIR_A, sigma=1.0, t_minus=1.0, omega_minus=0.8
        )
        assert recs[0]["oracle_value"] == pytest.approx(1.373027638235, abs=1e-9)
        assert recs[1]["oracle_value"] == pytest.approx(0.271682541449, abs=1e-9)
        for rec in recs:
            assert rec["paper_value"] == pytest.approx(rec["oracle_value"], rel=1e-8)
            assert rec["verdict"] == "confirmed"


class TestAdjudication:
    def test_entangled_rows_confirmed(self):
        for pair in (PAIR_A, PAIR_B):
            for rec in adjudicate(Strategy.ENTANGLED_BIPHOTON, pair, sigma=1.0, kappa=0.5):
                assert rec["verdict"] == "confirmed"
                assert rec["rel_diff"] <= 1e-8
                assert set(rec["params"]) == {"sigma", "kappa", "t_minus", "omega_minus", "entry"}

    def test_entangled_rows_confirmed_at_large_carrier_separation(self):
        # the engine model is built at the requested separation; the
        # entangled QFI does not depend on it, and in the carrier gauge the
        # engine keeps the time direction at omega_minus = 1000 too
        recs = adjudicate(Strategy.ENTANGLED_BIPHOTON, PAIR_B, sigma=1.0, kappa=-0.9,
                          t_minus=1.0, omega_minus=1000.0)
        assert [r["verdict"] for r in recs] == ["confirmed", "confirmed"]
        assert recs[0]["oracle_value"] == pytest.approx(0.2, rel=1e-9)
        assert recs[0]["params"]["omega_minus"] == 1000.0

    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B])
    def test_entangled_model_built_at_requested_separation(self, pair, monkeypatch):
        built = []
        real = analytic.model_for

        def recording(strategy, **kwargs):
            built.append(kwargs)
            return real(strategy, **kwargs)

        monkeypatch.setattr(analytic, "model_for", recording)
        recs = adjudicate(Strategy.ENTANGLED_BIPHOTON, pair, sigma=1.0, kappa=-0.9,
                          t_minus=1.0, omega_minus=1e3)
        assert [r["verdict"] for r in recs] == ["confirmed", "confirmed"]
        assert built == [{"sigma1": 1.0, "kappa": -0.9, "t_minus": 1.0, "omega_minus": 1e3}]

    def test_verdict_schema(self):
        recs = adjudicate(
            Strategy.QUANTUM_ILLUMINATION, PAIR_B,
            sigma=1.0, kappa=0.6, t_minus=1.0, omega_minus=0.8,
        )
        assert len(recs) == 2
        for rec in recs:
            assert set(rec) == {
                "strategy", "pair", "params", "paper_value", "oracle_value",
                "rel_diff", "verdict",
            }

    def test_known_refutations(self):
        recs = adjudicate(
            Strategy.QUANTUM_ILLUMINATION, PAIR_B,
            sigma=1.0, kappa=0.6, t_minus=1.0, omega_minus=0.8,
        )
        omega_rec = next(r for r in recs if r["params"]["entry"] == "omega_plus")
        assert omega_rec["verdict"] == "refuted"
        assert omega_rec["paper_value"] < 0.0
        assert omega_rec["oracle_value"] == pytest.approx(0.362646015932, abs=1e-9)

    def test_single_photon_pair_a_all_confirmed(self):
        recs = adjudicate(
            Strategy.TWO_SINGLE_PHOTONS, PAIR_A, sigma=1.0, t_minus=1.0, omega_minus=0.8
        )
        assert [r["verdict"] for r in recs] == ["confirmed", "confirmed"]

    def test_single_photon_pair_b_refuted(self):
        # the transcribed frequency-sum entry disagrees (engine 0.474921...,
        # transcription 0.399684...): the sigma-power typo in the exponent
        recs = adjudicate(
            Strategy.TWO_SINGLE_PHOTONS, PAIR_B, sigma=1.0, t_minus=1.0, omega_minus=0.8
        )
        assert recs[0]["oracle_value"] == pytest.approx(1.853876826527, abs=1e-9)
        assert recs[0]["verdict"] == "confirmed"
        assert recs[1]["oracle_value"] == pytest.approx(0.474921105529, abs=1e-9)
        assert recs[1]["paper_value"] == pytest.approx(0.399684422118, abs=1e-9)
        assert recs[1]["verdict"] == "refuted"

    def test_quantum_illumination_finite_separation_refuted(self):
        recs = adjudicate(
            Strategy.QUANTUM_ILLUMINATION, PAIR_A,
            sigma=1.0, kappa=0.6, t_minus=1.0, omega_minus=0.8,
        )
        assert recs[0]["oracle_value"] == pytest.approx(0.713495203140, abs=1e-9)
        assert recs[1]["oracle_value"] == pytest.approx(0.290237220377, abs=1e-9)
        assert [r["verdict"] for r in recs] == ["refuted", "refuted"]

    def test_far_limit_confirms_published(self):
        # with separated branches both routes agree and the verdict flips
        recs = adjudicate(
            Strategy.TWO_SINGLE_PHOTONS, PAIR_A, sigma=1.0, t_minus=50.0, omega_minus=0.0
        )
        assert [r["verdict"] for r in recs] == ["confirmed", "confirmed"]
        assert recs[0]["oracle_value"] == pytest.approx(2.0, rel=1e-9)
