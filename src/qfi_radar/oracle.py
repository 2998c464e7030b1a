"""Independent numerical Fisher-information engine.

The returned state is rho = w sum_k |psi_k><psi_k| over one or two equally
weighted branches.  The engine writes rho's support frame in closed form
from exact Gaussian overlaps, expresses each d(rho) in it, solves the
symmetric-logarithmic-derivative (SLD) equation on the support, and adds
the part of each SLD that maps the support into rho's kernel:

    X_ab = sum_ij lam_i L^a_ij L^b_ji + 4 w sum_k <d_a psi_k| P_ker |d_b psi_k>,

H = Re(X + X^T)/2 and the compatibility residual is |X_01 - X_10|
(Genoni & Tufarelli, J. Phys. A 52, 434002 (2019); Fiderer, Tufarelli,
Piano & Adesso, PRX Quantum 2, 020308 (2021)).  For one branch this is the
pure-state formula.  Nothing is diagonalized, every quantity is a complex
scalar, and no closed-form information expression enters anywhere, which
is what makes this module a usable referee for the analytic formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kinematics import ParameterPair, Strategy
from .states import (
    ROWS,
    GaussianBiphoton,
    GaussianSinglePhoton,
    Stack,
    _exponent,
    branch_stack,
    overlap,
    pair_terms,
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


@dataclass
class SubspaceBasis:
    """The support frame of sum_k |psi_k><psi_k|, one stack per branch psi_k.

    ``eigenvalues[i]`` belongs to the frame vector e_i, and
    ``derivatives[a]`` is the frame matrix
    t^a_ij = <e_i| sum_k |d_a psi_k><psi_k| |e_j> of the stacks' derivative
    row 1 + a.  ``kernel[a][b]`` is sum_k <d_a psi_k|P_ker|d_b psi_k> with
    P_ker the projector on the kernel.  ``dim`` is the rank.
    """

    generators: list[Stack]
    eigenvalues: list[float]
    derivatives: list[list[list[complex]]]
    kernel: list[list[complex]]

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class MixedModel:
    """A returned state: equally weighted branches plus their parameter dependence.

    ``weight`` is every branch's weight w in rho = w sum_i |psi_i><psi_i|,
    and ``stacks[i]`` holds branch i's ket and analytic derivatives, one row
    each, in the order of ``states.ROWS``.
    """

    weight: float
    stacks: tuple[Stack, ...]


@dataclass
class OracleResult:
    """Numerical QFI output for one configuration; ``H`` is a 2x2 tuple of row tuples."""

    H: tuple[tuple[float, float], tuple[float, float]]
    compat_residual: float
    dim: int
    rho_eigenvalues: list[float]
    basis: SubspaceBasis


def _h(u: float) -> float:
    """1/u - 1/expm1(u), with no cancellation at small u and no overflow at large u."""
    if u < 1e-3:
        return 0.5 - u / 12.0 + u**3 / 720.0
    return 1.0 / u + math.exp(-u) / math.expm1(-u)


def build_subspace(stacks: list[Stack]) -> SubspaceBasis:
    """The support frame of one or two branches, from their stacks.

    Every stack has the same rows: the ket, then derivative rows c . x |base>
    (``branch_stack``'s carrier gauge, so <psi_k|d psi_k> = 0 and one branch's
    kernel block is its own derivative block).  One ``overlap`` call per
    stack gives its own block, and ``pair_terms`` the two bases' overlap g
    in difference form.  Branch 2 is taken with the
    phase that makes g = e^l real, so the frame and each derivative row's
    frame matrix t are

        e_+- = (psi_1 +- psi_2)/n_+-,  n_+-^2 = 2 (1 +- e^l),
        eigenvalues 1 + e^l and -expm1(l),
        t = (e^l/2) [[s, d n_-/n_+], [-d n_+/n_-, -s]],

    with s = a21 + a12, d = a21 - a12 and a_kl = <psi_k|d psi_l>/<psi_k|psi_l>
    = c_l . (mu_kl - t_l).  Each branch's kernel block is
    <d_a|d_b> - conj(a_a) a_b/expm1(u), u = -2l.
    For equal quadratic forms, where the two terms cancel as the branches
    meet, it is instead

        conj(D(w, Sigma c_a)) D(w, Sigma c_b)/(det Sigma u) + conj(c_a . v)(c_b . v) h(u),

    with v the branch's mean offset, w = conj(v), D(x, y) = x1 y2 - x2 y1,
    and h(u) = 1/u - 1/expm1(u).  Coincident branches (l = 0) are one ket
    of rank 1 whose derivative is the mean of the branches'.  At rank 1 every
    t is [[0]]: the derivatives lie in the kernel.
    """
    if not 1 <= len(stacks) <= 2:
        raise ValueError(f"need one or two branch stacks, got {len(stacks)}")
    blocks = [overlap(s, s) for s in stacks]
    # each derivative row's c
    coeffs = [[row[1:] for row in s.p[1:]] for s in stacks]
    n_rows = len(coeffs[0])
    if len(stacks) == 1:
        kernel = [line[1:] for line in blocks[0][1:]]
        return SubspaceBasis(list(stacks), [1.0], [[[0j]] for _ in range(n_rows)], kernel)

    log_g, ma, mb, (s11, s22, s12) = pair_terms(stacks[0].base, stacks[1].base)
    # |<psi_1|psi_2>| <= 1: round-off must not push l above 0
    ell = min(log_g.real, 0.0)
    # a21 = c_1 . conj(mu - t_1) and a12 = c_2 . (mu - t_2): each branch's offset
    offsets = ((ma[0].conjugate(), ma[1].conjugate()), mb)
    alpha = [[c[0] * v[0] + c[1] * v[1] for c in cs] for cs, v in zip(coeffs, offsets)]

    if ell == 0.0:
        # identical bases, every offset 0: rho = 2 |psi_1><psi_1| is one ket,
        # whose derivative is the branches' mean (c_1 + c_2)/2 . x |psi_1>
        mean = [((c1[0] + c2[0]) / 2.0, (c1[1] + c2[1]) / 2.0) for c1, c2 in zip(*coeffs)]
        kernel = [[2.0 * (x[0].conjugate() * (s11 * y[0] + s12 * y[1])
                          + x[1].conjugate() * (s12 * y[0] + s22 * y[1]))
                   for y in mean] for x in mean]
        return SubspaceBasis(list(stacks), [2.0], [[[0j]] for _ in range(n_rows)], kernel)

    E = math.exp(ell)
    eigenvalues = [1.0 + E, -math.expm1(ell)]
    # n_-/n_+
    ratio, half = math.sqrt(eigenvalues[1] / eigenvalues[0]), 0.5 * E
    derivatives = [[[half * (a1 + a2), half * (a1 - a2) * ratio],
                    [-half * (a1 - a2) / ratio, -half * (a1 + a2)]]
                   for a1, a2 in zip(*alpha)]

    u = -2.0 * ell
    kernel = [[0j] * n_rows for _ in range(n_rows)]
    # equal quadratic forms (p, q, r), single photons lifted
    if _exponent(stacks[0].base)[:3] == _exponent(stacks[1].base)[:3]:
        h, det_u = _h(u), (s11 * s22 - s12 * s12) * u
        for cs, v, al in zip(coeffs, offsets, alpha):
            # D(conj(v), Sigma c) for each row
            D = [v[0].conjugate() * (s12 * c[0] + s22 * c[1])
                 - v[1].conjugate() * (s11 * c[0] + s12 * c[1]) for c in cs]
            for a in range(n_rows):
                for b in range(n_rows):
                    kernel[a][b] += (D[a].conjugate() * D[b] / det_u
                                     + al[a].conjugate() * al[b] * h)
    else:
        # 1/expm1(u), written so that it cannot overflow
        inv = -math.exp(-u) / math.expm1(-u)
        for block, al in zip(blocks, alpha):
            for a in range(n_rows):
                for b in range(n_rows):
                    kernel[a][b] += block[1 + a][1 + b] - al[a].conjugate() * al[b] * inv
    return SubspaceBasis(list(stacks), eigenvalues, derivatives, kernel)


def project(model: MixedModel, basis: SubspaceBasis) -> tuple[list, list, list]:
    """rho's eigenvalues, each d(rho) in its support frame, and the kernel block.

    With the branches' common weight w, lam_i = w ``eigenvalues[i]``,

        r^a_ij = <e_i|d_a rho|e_j> = w (t^a + t^a^H)_ij,  t^a = ``basis.derivatives[a]``,

    and the kernel block is 4 w ``basis.kernel``, the part of X that the
    kernel of rho carries.  Returns (lam, r, kernel): ``r[a]`` is the
    Hermitian matrix of the derivative along the stacks' row 1 + a, as
    nested lists.  The first two are ``sld_solve``'s arguments.
    """
    w = model.weight
    lam = [w * x for x in basis.eigenvalues]
    dim = len(lam)
    r = [[[w * (t[i][j] + t[j][i].conjugate()) for j in range(dim)] for i in range(dim)]
         for t in basis.derivatives]
    kernel = [[4.0 * w * x for x in line] for line in basis.kernel]
    return lam, r, kernel


def sld_solve(lam: list[float], r: list) -> list:
    """Solve d(rho) = (rho L + L rho)/2 on rho's support, rho = diag(``lam``).

    ``r[a]`` is the derivative along parameter a in rho's eigenbasis, as
    ``project`` returns it; the SLD there is L^a_ij = 2 r^a_ij/(lam_i + lam_j).
    Every lam_i is positive: the frame holds the support only.
    """
    n = len(lam)
    return [[[2.0 * ra[i][j] / (lam[i] + lam[j]) for j in range(n)] for i in range(n)]
            for ra in r]


def qfi_numeric(model: MixedModel, pair: ParameterPair) -> OracleResult:
    """Full numerical QFI for a strategy instance and estimator pair.

    X_ab = Tr(rho L_a L_b) is the support part sum_ij lam_i L^a_ij L^b_ji
    plus ``project``'s kernel block; H is its symmetric real part and
    |X_01 - X_10| = |Tr(rho [L_a, L_b])| the compatibility residual.
    """
    rows = [0, *map(ROWS.index, pair.param_names)]
    basis = build_subspace([Stack(s.base, tuple(s.p[i] for i in rows)) for s in model.stacks])
    lam, r, kernel = project(model, basis)
    L = sld_solve(lam, r)
    n, P = len(lam), len(L)
    X = [[0j] * P for _ in range(P)]
    for a in range(P):
        for b in range(P):
            x = kernel[a][b]
            for i in range(n):
                La, Lb = L[a][i], L[b]
                for j in range(n):
                    x += lam[i] * La[j] * Lb[j][i]
            X[a][b] = x
    H = tuple(tuple((X[a][b] + X[b][a]).real / 2.0 for b in range(P)) for a in range(P))
    compat = abs(X[0][1] - X[1][0])
    return OracleResult(H=H, compat_residual=compat, dim=basis.dim, rho_eigenvalues=lam,
                        basis=basis)


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
        branches = ((GaussianSinglePhoton(t1, w1, sigma1), (1, 0)),
                    (GaussianSinglePhoton(t2, w2, s2), (2, 0)))
    elif strategy is Strategy.QUANTUM_ILLUMINATION:
        trace = 1.0
        # branch i's signal is photon i of the pair; its idler does not move
        branches = tuple((GaussianBiphoton(t, 0.0, w, 1.0, sigma1, sigma1, kappa), (i, 0))
                         for i, (t, w) in enumerate(((t1, w1), (t2, w2)), 1))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return MixedModel(trace / len(branches),
                      tuple(branch_stack(base, photons) for base, photons in branches))
