"""Metamorphic referees: identities of the physics that need no closed form.

Each test computes the engine's H at a grid case and at a transformed
case, and checks the relation the physics fixes between them (metamorphic
testing; Segura et al., IEEE TSE 42, 805 (2016)):

- carrier shift: a common carrier omega_plus is a phase on each branch, so
  omega_plus -> 2 + 3e3 sigma leaves H unchanged;
- translation: t_plus -> 7/sigma moves both photons alike and leaves H
  unchanged;
- branch swap: (t_minus, omega_minus) -> (-t_minus, -omega_minus) exchanges
  the photons' roles and flips only the sign of the t_minus and omega_minus
  rows and columns;
- scale covariance: under x -> x/sigma, H(sigma; t, omega, carriers) =
  D H(1; t sigma, omega/sigma, carriers/sigma) D, with D = sigma on time
  rows and 1/sigma on frequency rows.  Quantum illumination is left out
  here: ``model_for`` fixes its idler carrier at 1, which does not scale.

The grid has all three strategies, both pairs, sigma in {1e-3, 1, 1e3},
kappa in {-0.9, 0, 0.999}, t_minus sigma in {1e-4, 1, 1e2} and
omega_minus/sigma in {0, 0.8}: 324 cases.  A case fails at more than
TOL of sqrt(H_ii H_jj).  The worst case passes at 7e-12, translation at
t_minus sigma = 1e-4, where forming t1, t2 = (t_plus -+ t_minus)/2 at
t_plus = 7/sigma rounds t_minus by 1e-16 t_plus/t_minus.
"""

import itertools

import numpy as np
import pytest

from qfi_radar.kinematics import ParameterPair, Strategy
from qfi_radar.oracle import model_for, qfi_numeric

TOL = 1e-9
GRID = list(itertools.product(
    Strategy, ParameterPair, (1e-3, 1.0, 1e3), (-0.9, 0.0, 0.999), (1e-4, 1.0, 1e2), (0.0, 0.8)))
SCALABLE = [case for case in GRID if case[0] is not Strategy.QUANTUM_ILLUMINATION]


def case_id(case):
    strategy, pair, sigma, kappa, t_sigma, w_over_sigma = case
    return f"{strategy.value}-{pair.value}-s{sigma:g}-k{kappa:g}-t{t_sigma:g}-w{w_over_sigma:g}"


def engine_H(strategy, pair, sigma, kappa, **kwargs):
    return np.array(qfi_numeric(model_for(strategy, sigma1=sigma, kappa=kappa, **kwargs), pair).H)


def at_case(case, **changes):
    """H at a grid case, with ``model_for`` keywords overridden by ``changes``."""
    strategy, pair, sigma, kappa, t_sigma, w_over_sigma = case
    kwargs = {"t_minus": t_sigma / sigma, "omega_minus": w_over_sigma * sigma, **changes}
    return engine_H(strategy, pair, sigma, kappa, **kwargs)


def assert_close(got, want):
    d = np.sqrt(np.abs(np.diag(want)))
    gap = float(np.max(np.abs(got - want) / np.outer(d, d)))
    assert gap <= TOL, f"gap {gap:.2e} of sqrt(H_ii H_jj)"


@pytest.mark.parametrize("case", GRID, ids=case_id)
def test_carrier_shift(case):
    assert_close(at_case(case, omega_plus=2.0 + 3e3 * case[2]), at_case(case))


@pytest.mark.parametrize("case", GRID, ids=case_id)
def test_translation(case):
    assert_close(at_case(case, t_plus=7.0 / case[2]), at_case(case))


@pytest.mark.parametrize("case", GRID, ids=case_id)
def test_branch_swap(case):
    strategy, pair, sigma, kappa, t_sigma, w_over_sigma = case
    signs = np.array([-1.0 if name.endswith("minus") else 1.0 for name in pair.param_names])
    swapped = at_case(case, t_minus=-t_sigma / sigma, omega_minus=-w_over_sigma * sigma)
    assert_close(swapped, np.outer(signs, signs) * at_case(case))


@pytest.mark.parametrize("case", SCALABLE, ids=case_id)
def test_scale_covariance(case):
    strategy, pair, sigma, kappa, t_sigma, w_over_sigma = case
    D = np.array([sigma if name.startswith("t") else 1.0 / sigma for name in pair.param_names])
    unit = engine_H(strategy, pair, 1.0, kappa, t_minus=t_sigma, omega_minus=w_over_sigma,
                    omega_plus=2.0 / sigma)
    assert_close(at_case(case), np.outer(D, D) * unit)
