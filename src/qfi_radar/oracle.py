"""Independent numerical Fisher-information engine.

Builds an orthonormal subspace spanning the ensemble branches and their
parameter derivatives from exact Gaussian overlaps, projects rho and
d(rho) into it, solves the symmetric-logarithmic-derivative equation in
the eigenbasis of rho, and assembles the information matrix as
H_ab = Tr{rho (L_a L_b + L_b L_a)}/2.  No closed-form information
expression enters anywhere, which is what makes this module a usable
referee for the analytic formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .kinematics import ParameterPair, Strategy
from .states import (
    AffineState,
    GaussianBiphoton,
    GaussianSinglePhoton,
    _PAIR_CHAIN,
    _d_biphoton,
    derivative,
    derivative_single,
    overlap,
)

__all__ = [
    "SubspaceBasis",
    "ProjectedState",
    "MixedModel",
    "OracleResult",
    "build_subspace",
    "coords",
    "project",
    "sld_solve",
    "qfi_numeric",
    "entangled_model",
    "single_photon_model",
    "quantum_illumination_model",
    "model_for",
    "pair_param_names",
    "grid_crosscheck",
]

DEFAULT_DROP_TOL = 1e-12
SUPPORT_TOL = 1e-12


def pair_param_names(pair: ParameterPair) -> tuple[str, str]:
    if pair is ParameterPair.TIME_SUM_FREQ_DIFF:
        return ("t_plus", "omega_minus")
    return ("t_minus", "omega_plus")


@dataclass
class SubspaceBasis:
    """Orthonormal basis spanning a list of generator states.

    ``transform`` has one column per retained basis vector; column k holds
    the generator-expansion coefficients of |e_k>, so the transformed Gram
    matrix T^H G T is the identity.
    """

    generators: list
    gram: np.ndarray
    transform: np.ndarray
    dim: int
    drop_tol: float


@dataclass
class ProjectedState:
    """Density matrix and its parameter derivatives in the subspace basis."""

    rho: np.ndarray
    drho_a: np.ndarray
    drho_b: np.ndarray
    residual_a: float
    residual_b: float


@dataclass(frozen=True)
class MixedModel:
    """A strategy instance: weighted branches plus their parameter dependence.

    ``deriv(i, param)`` returns the analytic derivative of branch ``i``'s
    ket with respect to a sum/difference parameter; ``shifted(param, eps)``
    returns the same model with that parameter displaced, for
    finite-difference cross-checks.
    """

    strategy: Strategy
    weights: tuple[float, ...]
    states: tuple
    deriv: Callable[[int, str], AffineState]
    shifted: Callable[[str, float], "MixedModel"]
    trace: float = 1.0


@dataclass
class OracleResult:
    """Numerical QFI output for one configuration."""

    H: np.ndarray
    compat_residual: float
    dim: int
    rho_eigenvalues: np.ndarray
    basis: SubspaceBasis
    sld_a: np.ndarray
    sld_b: np.ndarray
    projection_residuals: tuple[float, float]
    pure_H: np.ndarray | None = None

    @property
    def bound_product(self) -> float:
        return 1.0 / np.sqrt(self.H[0, 0] * self.H[1, 1])


def build_subspace(generators: list, drop_tol: float = DEFAULT_DROP_TOL) -> SubspaceBasis:
    """Orthonormalize a generator list via the eigenbasis of its Gram matrix.

    Deterministic for a fixed generator order: eigenpairs are sorted by
    descending eigenvalue and each eigenvector's phase is fixed so that its
    first significantly nonzero component is real and positive.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = len(generators)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            g = overlap(generators[i], generators[j])
            gram[i, j], gram[j, i] = g, g.conjugate()

    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 0:
        raise ArithmeticError("Gram matrix is numerically non-positive")
    if evals[-1] < -10.0 * drop_tol * evals[0]:
        raise ArithmeticError("Gram matrix conditioning failure: negative eigenvalue")
    keep = evals > drop_tol * evals[0]
    evals, evecs = evals[keep], evecs[:, keep]

    first = evecs[np.argmax(np.abs(evecs) > 1e-8, axis=0), np.arange(evecs.shape[1])]
    evecs = evecs / (first / np.abs(first))

    transform = evecs / np.sqrt(evals)
    return SubspaceBasis(list(generators), gram, transform, transform.shape[1], drop_tol)


def coords(basis: SubspaceBasis, state) -> np.ndarray:
    """Coefficient vector <e_k|state> for a state expressible in the subspace.

    A generator's overlaps with the basis are a column of the Gram matrix;
    only a state outside the generator list needs fresh overlaps.
    """
    try:
        g = basis.gram[:, basis.generators.index(state)]
    except ValueError:
        g = np.array([overlap(gen, state) for gen in basis.generators])
    return basis.transform.conj().T @ g


def _rho_matrix(basis: SubspaceBasis, weights, states) -> np.ndarray:
    R = np.zeros((basis.dim, basis.dim), dtype=complex)
    for w, st in zip(weights, states):
        v = coords(basis, st)
        R += w * np.outer(v, v.conj())
    return R


def project(
    model: MixedModel,
    basis: SubspaceBasis,
    param_a: str,
    param_b: str,
    fd_step: float | None = None,
) -> ProjectedState:
    """Project rho and its two parameter derivatives onto the subspace.

    With ``fd_step`` set, derivatives come from central differences of the
    branch parameters instead of the analytic derivative states; the
    projection residual ||(1-P) d(rho)||_HS is then reported exactly from
    pairwise Gaussian overlaps.
    """
    rho = _rho_matrix(basis, model.weights, model.states)
    drhos = []
    residuals = []
    for param in (param_a, param_b):
        if fd_step is None:
            dR = np.zeros_like(rho)
            for i, (w, st) in enumerate(zip(model.weights, model.states)):
                v = coords(basis, st)
                dv = coords(basis, model.deriv(i, param))
                dR += w * (np.outer(dv, v.conj()) + np.outer(v, dv.conj()))
            drhos.append(dR)
            residuals.append(0.0)
        else:
            h = fd_step
            plus = model.shifted(param, +h)
            minus = model.shifted(param, -h)
            Rp = _rho_matrix(basis, plus.weights, plus.states)
            Rm = _rho_matrix(basis, minus.weights, minus.states)
            dR = (Rp - Rm) / (2.0 * h)
            drhos.append(dR)
            residuals.append(_fd_projection_residual(model, plus, minus, h, dR))
    return ProjectedState(rho, drhos[0], drhos[1], residuals[0], residuals[1])


def _fd_projection_residual(model, plus, minus, h, dR_projected) -> float:
    """||(1-P) d(rho)_fd||_HS via exact overlaps of the shifted branch kets.

    The estimate subtracts two nearly equal norms assembled from O(1/h)
    coefficients, so it carries a cancellation noise floor of roughly
    sqrt(machine epsilon)/h even when the true leakage is zero.
    """
    # Tr(X^2) for X = sum_k c_k |a_k><b_k| expands into <b_k|a_l><b_l|a_k>.
    kets, bras, cs = [], [], []
    for w, st in zip(plus.weights, plus.states):
        kets.append(st), bras.append(st), cs.append(w / (2.0 * h))
    for w, st in zip(minus.weights, minus.states):
        kets.append(st), bras.append(st), cs.append(-w / (2.0 * h))
    total = 0.0 + 0.0j
    for k in range(len(cs)):
        for l in range(len(cs)):
            total += cs[k] * cs[l] * overlap(bras[k], kets[l]) * overlap(bras[l], kets[k])
    full_norm2 = float(np.real(total))
    proj_norm2 = float(np.real(np.trace(dR_projected @ dR_projected)))
    return float(np.sqrt(max(full_norm2 - proj_norm2, 0.0)))


def sld_solve(projected: ProjectedState) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve d(rho) = (rho L + L rho)/2 for both parameters.

    Returns (L_a, L_b, eigenvalues, eigenvectors) with the SLDs expressed in
    the subspace basis.  Eigenvalue pairs below the support threshold are
    excluded, consistent with the finite-support form of the SLD.
    """
    lam, U = np.linalg.eigh(projected.rho)
    order = np.argsort(lam)[::-1]
    lam, U = lam[order], U[:, order]
    denom = lam[:, None] + lam[None, :]
    support = denom > SUPPORT_TOL * float(np.sum(lam))
    denom = np.where(support, denom, 1.0)
    slds = []
    for dR in (projected.drho_a, projected.drho_b):
        M = U.conj().T @ dR @ U
        L = np.where(support, 2.0 * M / denom, 0.0)
        slds.append(U @ L @ U.conj().T)
    return slds[0], slds[1], lam, U


def _pure_fast_path(
    model: MixedModel, basis: SubspaceBasis, param_a: str, param_b: str
) -> np.ndarray:
    """H_ab = 4 Re(<da|db> - <da|psi><psi|db>) for a single pure branch.

    Every overlap is an entry of the Gram matrix.
    """
    index = basis.generators.index
    psi = index(model.states[0])
    ds = [index(model.deriv(0, param_a)), index(model.deriv(0, param_b))]
    G = basis.gram
    v = G[ds, psi]
    return model.trace * 4.0 * np.real(G[np.ix_(ds, ds)] - np.outer(v, v.conj()))


def qfi_numeric(
    model: MixedModel,
    pair: ParameterPair,
    *,
    derivative_mode: str = "analytic",
    fd_step: float = 1e-5,
    drop_tol: float = DEFAULT_DROP_TOL,
    reverse_generators: bool = False,
) -> OracleResult:
    """Full numerical QFI for a strategy instance and estimator pair.

    ``reverse_generators`` feeds the subspace builder the generator list in
    reverse; the result must be invariant, which makes it a cheap
    orthonormalization self-check.
    """
    param_a, param_b = pair_param_names(pair)
    generators = list(model.states)
    for param in (param_a, param_b):
        for i in range(len(model.states)):
            generators.append(model.deriv(i, param))
    if reverse_generators:
        generators.reverse()
    basis = build_subspace(generators, drop_tol)

    step = fd_step if derivative_mode == "fd" else None
    projected = project(model, basis, param_a, param_b, fd_step=step)
    L_a, L_b, lam, _U = sld_solve(projected)

    rho = projected.rho
    Ls = np.stack((L_a, L_b))
    LL = Ls[:, None] @ Ls[None, :]  # LL[i, j] = L_i L_j
    H = np.real(np.trace(rho @ (LL + LL.swapaxes(0, 1)), axis1=-2, axis2=-1)) / 2.0
    compat = float(abs(np.trace(rho @ (LL[0, 1] - LL[1, 0]))))

    pure_H = None
    if len(model.states) == 1 and derivative_mode == "analytic":
        pure_H = _pure_fast_path(model, basis, param_a, param_b)

    return OracleResult(
        H=H,
        compat_residual=compat,
        dim=basis.dim,
        rho_eigenvalues=lam,
        basis=basis,
        sld_a=L_a,
        sld_b=L_b,
        projection_residuals=(projected.residual_a, projected.residual_b),
        pure_H=pure_H,
    )


# ---------------------------------------------------------------------------
# Strategy model factories


def entangled_model(
    sigma1: float,
    sigma2: float,
    kappa: float,
    *,
    t_plus: float = 0.0,
    t_minus: float = 0.0,
    omega_plus: float = 2.0,
    omega_minus: float = 0.0,
) -> MixedModel:
    """Pure returned biphoton probe."""

    def make(tp, tm, wp, wm):
        state = GaussianBiphoton(
            t1_bar=(tp - tm) / 2.0,
            t2_bar=(tp + tm) / 2.0,
            omega1_bar=(wp - wm) / 2.0,
            omega2_bar=(wp + wm) / 2.0,
            sigma1=sigma1,
            sigma2=sigma2,
            kappa=kappa,
        )

        def shifted(param, eps):
            args = {"t_plus": tp, "t_minus": tm, "omega_plus": wp, "omega_minus": wm}
            args[param] += eps
            return make(args["t_plus"], args["t_minus"], args["omega_plus"], args["omega_minus"])

        return MixedModel(
            strategy=Strategy.ENTANGLED_BIPHOTON,
            weights=(1.0,),
            states=(state,),
            deriv=lambda i, param: derivative(state, param),
            shifted=shifted,
            trace=1.0,
        )

    return make(t_plus, t_minus, omega_plus, omega_minus)


def single_photon_model(
    sigma1: float,
    sigma2: float,
    *,
    t_minus: float,
    omega_minus: float,
    t_plus: float = 0.0,
    omega_plus: float = 2.0,
    trace_convention: str = "photon_counted",
) -> MixedModel:
    """Incoherent mixture of two returned single photons.

    The photon-counted convention (trace 2, one unit per photon) is the one
    whose information matrix has the 2 sigma^2 asymptote; the normalized
    convention halves everything.
    """
    trace = 2.0 if trace_convention == "photon_counted" else 1.0

    def make(tp, tm, wp, wm):
        psi1 = GaussianSinglePhoton((tp - tm) / 2.0, (wp - wm) / 2.0, sigma1)
        psi2 = GaussianSinglePhoton((tp + tm) / 2.0, (wp + wm) / 2.0, sigma2)
        w = trace / 2.0

        def shifted(param, eps):
            args = {"t_plus": tp, "t_minus": tm, "omega_plus": wp, "omega_minus": wm}
            args[param] += eps
            return make(args["t_plus"], args["t_minus"], args["omega_plus"], args["omega_minus"])

        return MixedModel(
            strategy=Strategy.TWO_SINGLE_PHOTONS,
            weights=(w, w),
            states=(psi1, psi2),
            deriv=lambda i, param: derivative_single((psi1, psi2)[i], param, i + 1),
            shifted=shifted,
            trace=trace,
        )

    return make(t_plus, t_minus, omega_plus, omega_minus)


def quantum_illumination_model(
    sigma: float,
    kappa: float,
    *,
    t_minus: float,
    omega_minus: float,
    t_plus: float = 0.0,
    omega_plus: float = 2.0,
    idler_t: float = 0.0,
    idler_omega: float = 1.0,
    idler_sigma: float | None = None,
    trace_convention: str = "normalized",
) -> MixedModel:
    """Two signal-idler pairs; each branch keeps its idler untouched.

    Branch i is a biphoton whose signal coordinate carries the returned
    (t_bar_i, omega_bar_i) while the idler coordinate stays at the emission
    parameters, so only the signal half responds to the estimated pair.
    """
    s_idler = sigma if idler_sigma is None else idler_sigma
    trace = 1.0 if trace_convention == "normalized" else 2.0

    def make(tp, tm, wp, wm):
        def branch(tbar, wbar):
            return GaussianBiphoton(
                t1_bar=tbar,
                t2_bar=idler_t,
                omega1_bar=wbar,
                omega2_bar=idler_omega,
                sigma1=sigma,
                sigma2=s_idler,
                kappa=kappa,
            )

        states = (
            branch((tp - tm) / 2.0, (wp - wm) / 2.0),
            branch((tp + tm) / 2.0, (wp + wm) / 2.0),
        )
        def deriv(i, param):
            # branch i is photon i + 1 of the pair parameters' chain rule;
            # they act on its signal center and carrier only
            kind, *factors = _PAIR_CHAIN[param]
            return _d_biphoton(states[i], kind, factors[i], 0.0)

        def shifted(param, eps):
            args = {"t_plus": tp, "t_minus": tm, "omega_plus": wp, "omega_minus": wm}
            args[param] += eps
            return make(args["t_plus"], args["t_minus"], args["omega_plus"], args["omega_minus"])

        w = trace / 2.0
        return MixedModel(
            strategy=Strategy.QUANTUM_ILLUMINATION,
            weights=(w, w),
            states=states,
            deriv=deriv,
            shifted=shifted,
            trace=trace,
        )

    return make(t_plus, t_minus, omega_plus, omega_minus)


def model_for(
    strategy: Strategy,
    *,
    sigma1: float,
    sigma2: float | None = None,
    kappa: float = 0.0,
    t_minus: float = 0.0,
    omega_minus: float = 0.0,
    t_plus: float = 0.0,
    omega_plus: float = 2.0,
    trace_convention: str | None = None,
) -> MixedModel:
    """Build the strategy's MixedModel with its default trace convention."""
    s2 = sigma1 if sigma2 is None else sigma2
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        return entangled_model(
            sigma1, s2, kappa, t_plus=t_plus, t_minus=t_minus,
            omega_plus=omega_plus, omega_minus=omega_minus,
        )
    if strategy is Strategy.TWO_SINGLE_PHOTONS:
        return single_photon_model(
            sigma1, s2, t_minus=t_minus, omega_minus=omega_minus,
            t_plus=t_plus, omega_plus=omega_plus,
            trace_convention=trace_convention or "photon_counted",
        )
    if strategy is Strategy.QUANTUM_ILLUMINATION:
        return quantum_illumination_model(
            sigma1, kappa, t_minus=t_minus, omega_minus=omega_minus,
            t_plus=t_plus, omega_plus=omega_plus,
            trace_convention=trace_convention or "normalized",
        )
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Quadrature cross-check


def grid_crosscheck(state, points: int = 512, half_width_sigmas: float = 8.0) -> dict:
    """Compare analytic normalization/overlap values against grid quadrature."""
    from .states import biphoton_amplitude, single_amplitude

    report: dict = {"points": points, "half_width_sigmas": half_width_sigmas}
    if isinstance(state, GaussianSinglePhoton):
        hw = half_width_sigmas / state.sigma
        t = np.linspace(state.t_bar - hw, state.t_bar + hw, points)
        amp = single_amplitude(state, t)
        norm = float(np.trapezoid(np.abs(amp) ** 2, t))
        report["norm_error"] = abs(norm - 1.0)
    elif isinstance(state, GaussianBiphoton):
        # widen the grid as the correlated Gaussian spreads along t1 +/- t2
        spread = 1.0 / np.sqrt(1.0 - abs(state.kappa))
        hw1 = half_width_sigmas * spread / state.sigma1
        hw2 = half_width_sigmas * spread / state.sigma2
        t1 = np.linspace(state.t1_bar - hw1, state.t1_bar + hw1, points)
        t2 = np.linspace(state.t2_bar - hw2, state.t2_bar + hw2, points)
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        amp = biphoton_amplitude(state, T1, T2)
        norm = float(np.trapezoid(np.trapezoid(np.abs(amp) ** 2, t2, axis=1), t1))
        report["norm_error"] = abs(norm - 1.0)
    else:
        raise TypeError(f"not a Gaussian state: {state!r}")
    return report
