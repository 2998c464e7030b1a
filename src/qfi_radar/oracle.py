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
from typing import NamedTuple

from .kinematics import ParameterPair, Strategy
from .states import (
    _TINY,
    ROWS,
    GaussianBiphoton,
    GaussianSinglePhoton,
    Stack,
    _bandwidths,
    _check_range,
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


class SubspaceBasis(NamedTuple):
    """The support frame of sum_k |psi_k><psi_k|, one stack per branch psi_k.

    ``eigenvalues[i]`` belongs to the frame vector e_i, and
    ``derivatives[a]`` is the frame matrix
    t^a_ij = <e_i| sum_k |d_a psi_k><psi_k| |e_j> of the stacks' row a.
    ``kernel[a][b]`` is sum_k <d_a psi_k|P_ker|d_b psi_k> with
    P_ker the projector on the kernel.  ``dim`` is the rank.
    """

    generators: list[Stack]
    eigenvalues: list[float]
    derivatives: list[list[list[complex]]]
    kernel: list[list[complex]]

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


class MixedModel(NamedTuple):
    """A returned state: equally weighted branches plus their parameter dependence.

    ``weight`` is every branch's weight w in rho = w sum_i |psi_i><psi_i|,
    and ``stacks[i]`` holds branch i's analytic derivatives, one row each,
    in the order of ``states.ROWS``; its ket is the stack's base, at unit
    bandwidth: ``sigma1`` is the caller's photon-1 bandwidth (``model_for``).
    """

    weight: float
    stacks: tuple[Stack, ...]
    sigma1: float


class OracleResult(NamedTuple):
    """Numerical QFI output for one configuration; ``H`` is a 2x2 tuple of row tuples."""

    H: tuple[tuple[float, float], tuple[float, float]]
    compat_residual: float
    dim: int
    rho_eigenvalues: list[float]
    basis: SubspaceBasis


def _h(u: float) -> float:
    """1/u - 1/expm1(u), with no cancellation at small u and no overflow at large u.

    Below u = 0.25 it is the Bernoulli series 1/2 - sum_k B_2k u^(2k-1)/(2k)!
    through u^11, whose next term is under 1e-18 there; above, the closed
    form loses at most a few bits to cancellation.
    """
    if u < 0.25:
        v = u * u
        return 0.5 - u * (1.0 / 12.0 - v * (1.0 / 720.0 - v * (1.0 / 30240.0 - v * (
            1.0 / 1209600.0 - v * (1.0 / 47900160.0 - v * (691.0 / 1307674368000.0))))))
    return 1.0 / u + math.exp(-u) / math.expm1(-u)


def build_subspace(stacks: list[Stack]) -> SubspaceBasis:
    """The support frame of one or two branches, from their stacks.

    Every stack has the same rows, each the coefficients c = (c1, c2) of a
    derivative c . x |psi_k> of its branch's ket, the stack's base, read as
    they are: a row holds no multiple of the ket, so <psi_k|d psi_k> = 0 and
    one branch's kernel block is its own block.  One
    ``overlap`` call per stack gives that block, and ``pair_terms`` gives the
    two bases' overlap g in difference form.  Branch 2 is taken with the
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

        D_a^* D_b + conj(c_a . v)(c_b . v) h(u),  D = D(w, Sigma c)/sqrt(det Sigma u),

    with v the branch's mean offset, w = conj(v), D(x, y) = x1 y2 - x2 y1,
    and h(u) = 1/u - 1/expm1(u).  Identical bases are one ket of rank 1
    whose derivative is the mean of the branches'.  At rank 1 every t is
    [[0]]: the derivatives lie in the kernel.  A stack of no rows gets an
    empty block.

    Distinct bases whose l is not a normal float (below it l has lost its
    digits, and the eigenvalue -expm1(l) with it) and equal forms whose u
    overflows raise ``ArithmeticError`` naming the bandwidths and the
    branches' separation.
    """
    if not 1 <= len(stacks) <= 2:
        raise ValueError(f"need one or two branch stacks, got {len(stacks)}")
    blocks = [overlap(s, s) for s in stacks]
    n_rows = len(stacks[0].p)
    if len(stacks) == 1:
        return SubspaceBasis(list(stacks), [1.0], [[[0j]] for _ in range(n_rows)],
                             list(blocks[0]))

    log_g, ma, mb, (s11, s22, s12) = pair_terms(stacks[0].base, stacks[1].base)
    # |<psi_1|psi_2>| <= 1: round-off must not push l above 0
    ell = min(log_g.real, 0.0)
    if ell > -_TINY:
        if stacks[0].base != stacks[1].base:
            raise _out_of_range(stacks)
        # identical bases, every offset 0: rho = 2 |psi_1><psi_1| is one ket,
        # whose derivative is the branches' mean (c_1 + c_2)/2 . x |psi_1>
        mean = [((c1[0] + c2[0]) / 2.0, (c1[1] + c2[1]) / 2.0)
                for c1, c2 in zip(stacks[0].p, stacks[1].p)]
        kernel = [[2.0 * (x[0].conjugate() * (s11 * y[0] + s12 * y[1])
                          + x[1].conjugate() * (s12 * y[0] + s22 * y[1]))
                   for y in mean] for x in mean]
        return SubspaceBasis(list(stacks), [2.0], [[[0j]] for _ in range(n_rows)], kernel)
    # a21 = c_1 . conj(mu - t_1) and a12 = c_2 . (mu - t_2): each branch's offset
    offsets = ((ma[0].conjugate(), ma[1].conjugate()), mb)
    alpha = [[c1 * v1 + c2 * v2 for c1, c2 in s.p] for s, (v1, v2) in zip(stacks, offsets)]

    E = math.exp(ell)
    eigenvalues = [1.0 + E, -math.expm1(ell)]
    # n_-/n_+
    ratio, half = math.sqrt(eigenvalues[1] / eigenvalues[0]), 0.5 * E
    derivatives = [[[half * (a1 + a2), half * (a1 - a2) * ratio],
                    [-half * (a1 - a2) / ratio, -half * (a1 + a2)]]
                   for a1, a2 in zip(*alpha)]

    u = -2.0 * ell
    rows = range(n_rows)
    kernel = [[0j] * n_rows for _ in rows]
    # equal quadratic forms (p, q, r), single photons lifted
    if _exponent(stacks[0].base)[:3] == _exponent(stacks[1].base)[:3]:
        # D(w, Sigma c) and sqrt(u) grow as the separation: their quotient is finite while u is
        if u == math.inf:
            raise _out_of_range(stacks)
        h, norm = _h(u), math.sqrt(s11 * s22 - s12 * s12) * math.sqrt(u)
        for s, (v1, v2), al in zip(stacks, offsets, alpha):
            w1, w2 = v1.conjugate(), v2.conjugate()
            # D(conj(v), Sigma c)/sqrt(det Sigma u) for each row
            D = [(w1 * (s12 * c1 + s22 * c2) - w2 * (s11 * c1 + s12 * c2)) / norm
                 for c1, c2 in s.p]
            for line, Da, aa in zip(kernel, D, al):
                Da, aa = Da.conjugate(), aa.conjugate()
                for b in rows:
                    line[b] += Da * D[b] + aa * al[b] * h
    else:
        # 1/expm1(u), written so that it cannot overflow
        inv = -math.exp(-u) / math.expm1(-u)
        for block, al in zip(blocks, alpha):
            for line, bline, aa in zip(kernel, block, al):
                aa = aa.conjugate()
                for b in rows:
                    line[b] += bline[b] - aa * al[b] * inv
    return SubspaceBasis(list(stacks), eigenvalues, derivatives, kernel)


def _out_of_range(stacks: list[Stack], sigma1: float = 1.0) -> ArithmeticError:
    """The error for a model whose information leaves the float range, naming its
    bandwidths and its branches' center and carrier offsets, scaled by ``sigma1``."""
    where = " and ".join(dict.fromkeys(_bandwidths(s.base, sigma1) for s in stacks))
    if len(stacks) == 2:
        (*_, t1, t2, w1, w2), (*_, u1, u2, v1, v2) = (_exponent(s.base) for s in stacks)
        where += (f", branch center offset ({(t1 - u1) / sigma1!r}, {(t2 - u2) / sigma1!r})"
                  f" and carrier offset ({(w1 - v1) * sigma1!r}, {(w2 - v2) * sigma1!r})")
    return ArithmeticError(
        f"quantum Fisher information is out of float range at bandwidths {where}")


def project(model: MixedModel, basis: SubspaceBasis) -> tuple[list, list, list]:
    """rho's eigenvalues, each d(rho) in its support frame, and the kernel block.

    With the branches' common weight w, lam_i = w ``eigenvalues[i]``,

        r^a_ij = <e_i|d_a rho|e_j> = w (t^a + t^a^H)_ij,  t^a = ``basis.derivatives[a]``,

    and the kernel block is 4 w ``basis.kernel``, the part of X that the
    kernel of rho carries.  Returns (lam, r, kernel): ``r[a]`` is the
    Hermitian matrix of the derivative along the stacks' row a, as
    nested lists.  The first two are ``sld_solve``'s arguments.
    """
    w = model.weight
    lam = [w * x for x in basis.eigenvalues]
    # the frame has rank 1 or 2
    if len(lam) == 1:
        r = [[[w * (t00 + t00.conjugate())]] for ((t00,),) in basis.derivatives]
    else:
        r = [[[w * (t00 + t00.conjugate()), w * (t01 + t10.conjugate())],
              [w * (t10 + t01.conjugate()), w * (t11 + t11.conjugate())]]
             for (t00, t01), (t10, t11) in basis.derivatives]
    w4 = 4.0 * w
    kernel = [[w4 * x for x in line] for line in basis.kernel]
    return lam, r, kernel


def sld_solve(lam: list[float], r: list) -> list:
    """Solve d(rho) = (rho L + L rho)/2 on rho's support, rho = diag(``lam``).

    ``r[a]`` is the derivative along parameter a in rho's eigenbasis, as
    ``project`` returns it; the SLD there is L^a_ij = 2 r^a_ij/(lam_i + lam_j).
    Every lam_i is positive: the frame holds the support only.
    """
    # the frame has rank 1 or 2
    if len(lam) == 1:
        s00 = lam[0] + lam[0]
        return [[[2.0 * x / s00]] for ((x,),) in r]
    l0, l1 = lam
    s00, s01, s11 = l0 + l0, l0 + l1, l1 + l1
    return [[[2.0 * x00 / s00, 2.0 * x01 / s01], [2.0 * x10 / s01, 2.0 * x11 / s11]]
            for (x00, x01), (x10, x11) in r]


def qfi_numeric(model: MixedModel, pair: ParameterPair) -> OracleResult:
    """Full numerical QFI for a strategy instance and estimator pair.

    X_ab = Tr(rho L_a L_b) is the support part sum_ij lam_i L^a_ij L^b_ji
    plus ``project``'s kernel block; H is its symmetric real part and
    |X_01 - X_10| = |Tr(rho [L_a, L_b])| the compatibility residual, taken
    from unit bandwidth to sigma1 by X -> D X D, D = sigma1 on a time row and
    1/sigma1 on a frequency row.  A nonzero diagonal entry that leaves the
    normal floats raises ``ArithmeticError`` naming the caller's inputs.
    """
    ia, ib = map(ROWS.index, pair.param_names)
    stacks = [Stack(s.base, (s.p[ia], s.p[ib])) for s in model.stacks]
    try:
        basis = build_subspace(stacks)
    except ArithmeticError as exc:
        raise _out_of_range(stacks, model.sigma1) from exc
    lam, r, (kernel_a, kernel_b) = project(model, basis)
    La, Lb = sld_solve(lam, r)
    # X_ab = kernel_ab + sum_ij lam_i La_ij Lb_ji, summed in (i, j) order; at
    # rank 1 every t^a is [[0]], so X is the kernel block
    if len(lam) == 1:
        (x_aa, x_ab), (x_ba, x_bb) = kernel_a, kernel_b
    else:
        (l0, l1), ((a00, a01), (a10, a11)), ((b00, b01), (b10, b11)) = lam, La, Lb
        la00, la01, la10, la11 = l0 * a00, l0 * a01, l1 * a10, l1 * a11
        lb00, lb01, lb10, lb11 = l0 * b00, l0 * b01, l1 * b10, l1 * b11
        x_aa = kernel_a[0] + la00 * a00 + la01 * a10 + la10 * a01 + la11 * a11
        x_ab = kernel_a[1] + la00 * b00 + la01 * b10 + la10 * b01 + la11 * b11
        x_ba = kernel_b[0] + lb00 * a00 + lb01 * a10 + lb10 * a01 + lb11 * a11
        x_bb = kernel_b[1] + lb00 * b00 + lb01 * b10 + lb10 * b01 + lb11 * b11
    # a pair is (time, frequency): D = (sigma1, 1/sigma1) leaves X_ab as it is
    s, u_aa, u_bb = model.sigma1, (x_aa + x_aa).real / 2.0, (x_bb + x_bb).real / 2.0
    h_aa, h_bb, h_ab = u_aa * s * s, u_bb / s / s, (x_ab + x_ba).real / 2.0
    if not ((_TINY <= abs(h_aa) < math.inf or u_aa == 0.0)
            and (_TINY <= abs(h_bb) < math.inf or u_bb == 0.0)):
        raise _out_of_range(stacks, s)
    return OracleResult(H=((h_aa, h_ab), (h_ab, h_bb)), compat_residual=abs(x_ab - x_ba),
                        dim=basis.dim, rho_eigenvalues=lam, basis=basis)


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

    Every branch's derivative rows are built here, once per model, at unit
    bandwidth: times times sigma1 and carriers over it (the idler's carrier, a
    common phase, stays 1).  A separation that rounds away raises
    ``ArithmeticError``: the two branches would read as one.
    """
    s2 = sigma1 if sigma2 is None else sigma2
    _check_range(kappa, sigma1, s2)
    t1, t2 = (t_plus - t_minus) / 2.0 * sigma1, (t_plus + t_minus) / 2.0 * sigma1
    w1, w2 = (omega_plus - omega_minus) / 2.0 / sigma1, (omega_plus + omega_minus) / 2.0 / sigma1
    # each branch's ket, with the photon of the pair each of its coordinates carries
    if strategy is Strategy.ENTANGLED_BIPHOTON:
        trace = 1.0
        branches = ((GaussianBiphoton(t1, t2, w1, w2, 1.0, s2 / sigma1, kappa), (1, 2)),)
    elif strategy is Strategy.TWO_SINGLE_PHOTONS:
        trace = 2.0
        branches = ((GaussianSinglePhoton(t1, w1, 1.0), (1, 0)),
                    (GaussianSinglePhoton(t2, w2, s2 / sigma1), (2, 0)))
    elif strategy is Strategy.QUANTUM_ILLUMINATION:
        trace = 1.0
        # branch i's signal is photon i of the pair; its idler does not move
        branches = tuple((GaussianBiphoton(t, 0.0, w, 1.0, 1.0, 1.0, kappa), (i, 0))
                         for i, (t, w) in enumerate(((t1, w1), (t2, w2)), 1))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    lost = (t_minus or omega_minus) and (t1, w1) == (t2, w2)
    if lost and len(branches) == 2 and branches[0][0] == branches[1][0]:
        raise ArithmeticError(f"branch separation t_minus = {t_minus!r}, omega_minus = "
                              f"{omega_minus!r} rounds away at sigma1 = {sigma1!r}")
    return MixedModel(trace / len(branches),
                      tuple(branch_stack(base, photons) for base, photons in branches), sigma1)
