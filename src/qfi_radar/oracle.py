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

from dataclasses import dataclass

import numpy as np

from .kinematics import ParameterPair, Strategy
from .states import (
    ROWS,
    GaussianBiphoton,
    GaussianSinglePhoton,
    Stack,
    branch_stack,
    overlap,
)

__all__ = [
    "SubspaceBasis",
    "MixedModel",
    "OracleResult",
    "build_subspace",
    "project",
    "sld_solve",
    "qfi_numeric",
    "model_for",
]

# relative to the largest Gram eigenvalue: smaller eigenpairs leave the basis
DEFAULT_DROP_TOL = 1e-12
SUPPORT_TOL = 1e-12


@dataclass
class SubspaceBasis:
    """Orthonormal basis spanning the generator states of one stack per branch.

    Generator r K + k is row r of stack k, K stacks in all.  ``transform``
    has one column per retained basis vector; column k holds the
    generator-expansion coefficients of |e_k>, so the transformed Gram
    matrix T^H G T is the identity.
    """

    generators: list[Stack]
    gram: np.ndarray
    transform: np.ndarray
    dim: int


@dataclass(frozen=True)
class MixedModel:
    """A returned state: weighted branches plus their parameter dependence.

    ``weights[i]`` is branch ``i``'s weight in rho = sum_i w_i |psi_i><psi_i|,
    and ``stacks[i]`` holds its ket and analytic derivatives, one row each,
    in the order of ``states.ROWS``.
    """

    weights: tuple[float, ...]
    stacks: tuple[Stack, ...]


@dataclass
class OracleResult:
    """Numerical QFI output for one configuration."""

    H: np.ndarray
    compat_residual: float
    dim: int
    rho_eigenvalues: np.ndarray
    basis: SubspaceBasis
    pure_H: np.ndarray | None = None


def build_subspace(stacks: list[Stack]) -> SubspaceBasis:
    """Orthonormalize the rows of one stack per branch via the eigenbasis of
    their Gram matrix.

    Every stack has the same rows; generator r K + k is row r of stack k.
    The Gram matrix takes one ``overlap`` call per pair of stacks, each
    block landing with its conjugate transpose in the mirrored position.

    Deterministic for a fixed generator order: eigenpairs are sorted by
    descending eigenvalue and each eigenvector's phase is fixed so that its
    first significantly nonzero component is real and positive.
    """
    if not stacks:
        raise ValueError("need at least one generator")
    K, R = len(stacks), len(stacks[0].p)
    blocks = np.empty((K, R, K, R), dtype=complex)
    for k, stack in enumerate(stacks):
        for l in range(k, K):
            block = overlap(stack, stacks[l])
            blocks[k, :, l] = block
            blocks[l, :, k] = block.conj().T
    gram = blocks.transpose(1, 0, 3, 2).reshape(R * K, R * K)
    # a diagonal block is Hermitian only to round-off; averaging it with its
    # conjugate transpose makes the whole matrix exactly Hermitian
    gram = (gram + gram.conj().T) / 2.0

    # eigh returns ascending eigenvalues; reversed, they descend
    evals, evecs = np.linalg.eigh(gram)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if evals[0] <= 0:
        raise ArithmeticError("Gram matrix is numerically non-positive")
    if evals[-1] < -10.0 * DEFAULT_DROP_TOL * evals[0]:
        raise ArithmeticError("Gram matrix conditioning failure: negative eigenvalue")
    # descending, so the retained eigenpairs are a leading slice
    keep = int(np.count_nonzero(evals > DEFAULT_DROP_TOL * evals[0]))
    evals, evecs = evals[:keep], evecs[:, :keep]

    first = evecs[np.argmax(np.abs(evecs) > 1e-8, axis=0), np.arange(evecs.shape[1])]
    evecs = evecs / (first / np.abs(first))

    transform = evecs / np.sqrt(evals)
    return SubspaceBasis(list(stacks), gram, transform, transform.shape[1])


def project(
    model: MixedModel, basis: SubspaceBasis, params: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Project rho and its derivative along each of ``params`` onto the subspace.

    ``basis`` spans each branch's ket and its derivatives along ``params``,
    in that row order.  The coordinates of every generator are the columns
    of T^H G, and rho and every d(rho) come from one batched product.
    Returns (rho, drho) in the subspace basis, ``drho[i]`` the derivative
    along ``params[i]``: the arguments of ``sld_solve``.
    """
    K = len(model.weights)
    # C[0] holds the branch coordinates, C[1 + i] their derivatives along params[i]
    C = basis.transform.conj().T @ basis.gram
    C = C.reshape(basis.dim, 1 + len(params), K).transpose(1, 0, 2)
    M = (C * model.weights) @ C[0].conj().T
    # rho = V W V^H and d(rho) = dV W V^H + h.c., each exactly Hermitian
    S = M + M.conj().swapaxes(1, 2)
    return S[0] / 2.0, S[1:]


def sld_solve(rho: np.ndarray, drho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve drho[i] = (rho L + L rho)/2 for (rho, drho) as ``project`` returns them.

    Returns (L, eigenvalues, eigenvectors) with ``L[i]``, the SLD of the i-th
    parameter, expressed in the eigenbasis of rho: L_jk = 2 M_jk /
    (lam_j + lam_k) with M = U^H d(rho) U, eigenvalues descending, so
    ``U @ L[i] @ U^H`` is the SLD in the subspace basis.  Eigenvalue pairs
    below the support threshold are excluded, consistent with the
    finite-support form of the SLD.
    """
    # eigh returns ascending eigenvalues; reversed, they descend
    lam, U = np.linalg.eigh(rho)
    lam, U = lam[::-1], U[:, ::-1]
    denom = lam[:, None] + lam
    support = denom > SUPPORT_TOL * lam.sum()
    factor = np.divide(2.0, denom, out=np.zeros_like(denom), where=support)
    M = U.conj().T @ drho @ U
    return M * factor, lam, U


def _pure_fast_path(model: MixedModel, basis: SubspaceBasis) -> np.ndarray:
    """H_ab = 4 Re(<da|db> - <da|psi><psi|db>) for a single pure branch.

    Every overlap is an entry of the Gram matrix: generator 0 is the ket,
    the rest its derivatives.
    """
    G = basis.gram
    v = G[1:, 0]
    return model.weights[0] * 4.0 * np.real(G[1:, 1:] - np.outer(v, v.conj()))


def qfi_numeric(
    model: MixedModel,
    pair: ParameterPair,
    *,
    reverse_generators: bool = False,
) -> OracleResult:
    """Full numerical QFI for a strategy instance and estimator pair.

    ``reverse_generators`` feeds the subspace builder the stacks and their
    rows in reverse, which reverses the whole generator order; the result
    must be invariant, which makes it a cheap orthonormalization self-check.
    """
    params = pair.param_names
    rows = [0, *map(ROWS.index, params)]
    stacks = [Stack(s.base, s.p[rows]) for s in model.stacks]
    if reverse_generators:
        rev = build_subspace([Stack(s.base, s.p[::-1]) for s in reversed(stacks)])
        # the same basis vectors, read back in the forward generator order
        basis = SubspaceBasis(stacks, rev.gram[::-1, ::-1], rev.transform[::-1], rev.dim)
    else:
        basis = build_subspace(stacks)

    L, lam, _U = sld_solve(*project(model, basis, params))

    # X_ab = Tr(rho L_a L_b), rho = diag(lam) in the SLDs' basis: H is its
    # symmetric real part, |Tr(rho [L_a, L_b])| its antisymmetric part
    X = np.einsum("i,aij,bji->ab", lam, L, L)
    H = np.real(X + X.T) / 2.0
    compat = float(abs(X[0, 1] - X[1, 0]))

    pure_H = _pure_fast_path(model, basis) if len(model.stacks) == 1 else None
    return OracleResult(H=H, compat_residual=compat, dim=basis.dim, rho_eigenvalues=lam,
                        basis=basis, pure_H=pure_H)


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
) -> MixedModel:
    """The returned state of a strategy's probe, as equally weighted branches.

    The photons return at t1 = (t_plus - t_minus)/2, t2 = (t_plus + t_minus)/2
    with carriers likewise.  The entangled biphoton is one pure branch
    (trace 1).  Two single photons are an incoherent mixture, photon-counted
    (trace 2, one unit per photon): the convention whose information matrix
    has the 2 sigma^2 asymptote.  Quantum illumination is two signal-idler
    pairs, normalized (trace 1): branch i's signal carries photon i's
    return while its idler stays at center 0, carrier 1 and bandwidth
    sigma1, so only the signal half responds to the estimated pair.
    ``sigma2`` defaults to ``sigma1``; quantum illumination does not read it.

    Every branch's ket and derivative rows are built here, once per model.
    """
    s2 = sigma1 if sigma2 is None else sigma2
    t1, t2 = (t_plus - t_minus) / 2.0, (t_plus + t_minus) / 2.0
    w1, w2 = (omega_plus - omega_minus) / 2.0, (omega_plus + omega_minus) / 2.0
    # each branch's ket, with the photon of the pair each of its coordinates carries
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        trace = 1.0
        branches = ((GaussianBiphoton(t1, t2, w1, w2, sigma1, s2, kappa), (1, 2)),)
    elif strategy is Strategy.TWO_SINGLE_PHOTONS:
        trace = 2.0
        branches = ((GaussianSinglePhoton(t1, w1, sigma1), (1,)),
                    (GaussianSinglePhoton(t2, w2, s2), (2,)))
    elif strategy is Strategy.QUANTUM_ILLUMINATION:
        trace = 1.0
        # branch i's signal is photon i of the pair; its idler does not move
        branches = tuple((GaussianBiphoton(t, 0.0, w, 1.0, sigma1, sigma1, kappa), (i, 0))
                         for i, (t, w) in enumerate(((t1, w1), (t2, w2)), 1))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    stacks = tuple(branch_stack(base, photons) for base, photons in branches)
    w = trace / len(stacks)
    return MixedModel((w,) * len(stacks), stacks)
