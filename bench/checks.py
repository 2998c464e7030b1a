"""Output checks for the qfi-radar benchmark, made apart from the program.

Every reference value here comes from closed forms written out in this file,
never from a call into qfi_radar, so a fault in the package cannot pass by
agreeing with itself.  No check compares bytes: later fixes may change output
bytes legitimately.

Each check returns a list of ``Problem``s; an empty list means the output
passed.  A problem carries the key of the known program fault it is evidence
of (one of ``FAULTS``), or ``None`` when no known fault explains it.  The
benchmark counts an operation as failed when it has any problem, and reports
``correct: false`` when any problem has no known fault behind it.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from typing import NamedTuple

import numpy as np

ENT, TSP, QI = "entangled_biphoton", "two_single_photons", "quantum_illumination"
STRATEGIES = (ENT, TSP, QI)
PAIR_A, PAIR_B = "time_sum_freq_diff", "time_diff_freq_sum"
PAIRS = (PAIR_A, PAIR_B)
PAIR_PARAMS = {PAIR_A: ("t_plus", "omega_minus"), PAIR_B: ("t_minus", "omega_plus")}

# The faults in the program that make operations fail today.  README.md says
# how to see each one.
FAULTS = {
    "near_coincident": "engine drops the (d lambda)^2/lambda term of a near-zero "
    "support eigenvalue: two single photons, omega_minus=0, t_minus*sigma <= 1e-6",
    "bandwidth_drop": "oracle.build_subspace drops a derivative generator at "
    "extreme bandwidths (DEFAULT_DROP_TOL is relative to the largest Gram eigenvalue)",
    "single_photon_marginals": "montecarlo._sampling_moments gives single photons "
    "the biphoton's kappa-broadened time marginals",
    "simulate_exit": "simulate exits 1: the single-photon sampler fault plus a "
    "per-row 99% gate with no family-wise control",
    "delta_v_hypot": "run_scenario combines the delta_v standard error with hypot, "
    "ignoring the w1-w2 covariance",
}

# Statistical checks use a z-score bound.  For a Gaussian statistic a
# two-sided 6-sigma excursion has probability 2.0e-9, a 5-sigma one 5.7e-7.
Z_SAMPLE = 6.0
Z_SCENARIO = 5.0
# Reported standard errors are sample-based; with 5e4 shots their relative
# sampling spread is 1/sqrt(2n) = 0.3%, so 5% is a 15-sigma band.
SE_RTOL = 0.05
VERDICT_RTOL = 1e-6  # the adjudication threshold documented by the package
RTOL_EXACT = 1e-12  # values the program and this file compute the same way
COMPAT_TOL = 1e-8  # SLD commutator residual: joint estimation compatible

CLI_SIGMA = 1.0
CLI_N = 100_000
CLI_OMEGA0 = 10.0
CLI_KAPPA = -0.9
CLI_R = (300.0, 500.0)
CLI_T_MINUS, CLI_OMEGA_MINUS = 1.0, 0.8


class Problem(NamedTuple):
    fault: str | None
    message: str


def kappa_grid() -> list[float]:
    """The CLI's default correlation grid: -0.95 to 0.95 in steps of 0.05."""
    return [-0.95 + i * 0.05 for i in range(39)]


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0 else abs(got)


# ---------------------------------------------------------------------------
# closed forms


def entangled_H(s1: float, s2: float, kappa: float, pair: str) -> tuple[float, float]:
    """Pure biphoton: H11 = s1^2 - 2k's1s2 + s2^2, H22 = H11/(4(1-k^2)s1^2s2^2)."""
    k = kappa if pair == PAIR_A else -kappa
    h11 = s1 * s1 - 2.0 * k * s1 * s2 + s2 * s2
    return h11, h11 / (4.0 * (1.0 - kappa * kappa) * s1 * s1 * s2 * s2)


def convexity_bound(strategy: str, sigma: float, kappa: float) -> tuple[float, float]:
    """Weighted sum of the branches' pure-state QFIs, met at orthogonal branches.

    Two single photons (photon-counted, trace 2): (2 sigma^2, 1/(2 sigma^2)).
    Quantum illumination (normalized, trace 1): (sigma^2, 1/(4(1-k^2) sigma^2)).
    """
    s2 = sigma * sigma
    if strategy == TSP:
        return 2.0 * s2, 1.0 / (2.0 * s2)
    return s2, 1.0 / (4.0 * (1.0 - kappa * kappa) * s2)


def strategy_H(strategy: str, pair: str, kappa: float, sigma: float) -> tuple[float, float]:
    """Strategy-level table entry: exact for the biphoton, orthogonal limit otherwise."""
    if strategy == ENT:
        return entangled_H(sigma, sigma, kappa, pair)
    return convexity_bound(strategy, sigma, kappa)


def floor(strategy: str, pair: str, kappa: float) -> float:
    """Uncertainty-product floor 1/sqrt(H11 H22) in the orthogonal-branch limit."""
    if strategy == ENT:
        k = kappa if pair == PAIR_A else -kappa
        return math.sqrt((1.0 + k) / (1.0 - k))
    if strategy == TSP:
        return 1.0
    return 2.0 * math.sqrt(1.0 - kappa * kappa)


def sampling_moments(strategy: str, domain: str, centers, carriers, s1, s2, kappa):
    """Exact mean and covariance of the measured (x1, x2) pair.

    Biphoton amplitude exp(-x^T B x), B = [[s1^2, -k s1 s2], [-k s1 s2, s2^2]]:
    times have covariance (4B)^-1 and frequencies covariance B.  Independent
    single photons of bandwidth s_i have var(t_i) = 1/(4 s_i^2), var(w_i) = s_i^2.
    """
    if strategy == ENT:
        if domain == "time":
            d = 4.0 * (1.0 - kappa * kappa)
            cov = np.array(
                [[1.0 / (d * s1 * s1), kappa / (d * s1 * s2)],
                 [kappa / (d * s1 * s2), 1.0 / (d * s2 * s2)]]
            )
        else:
            cov = np.array([[s1 * s1, -kappa * s1 * s2], [-kappa * s1 * s2, s2 * s2]])
    elif domain == "time":
        cov = np.diag([1.0 / (4.0 * s1 * s1), 1.0 / (4.0 * s2 * s2)])
    else:
        cov = np.diag([s1 * s1, s2 * s2])
    mean = np.asarray(centers if domain == "time" else carriers, dtype=float)
    return mean, cov


def combination(pair: str, domain: str) -> np.ndarray:
    """Coefficients of the per-shot estimator: t1+t2, w2-w1 (A); t2-t1, w1+w2 (B)."""
    if pair == PAIR_A:
        return np.array([1.0, 1.0]) if domain == "time" else np.array([-1.0, 1.0])
    return np.array([-1.0, 1.0]) if domain == "time" else np.array([1.0, 1.0])


def combined_moments(strategy, pair, domain, centers, carriers, s1, s2, kappa):
    mean, cov = sampling_moments(strategy, domain, centers, carriers, s1, s2, kappa)
    c = combination(pair, domain)
    return float(c @ mean), float(c @ cov @ c)


# ---------------------------------------------------------------------------
# engine_map


def engine_tol(sigma: float) -> float:
    """Relative tolerance of an engine entry at bandwidth sigma.

    Generator norms differ by up to max(sigma, 1/sigma)^4, so the Gram matrix
    carries that condition number and round-off grows with it: 2e-8 at
    sigma = 1, 4e-4 at sigma = 1e3 or 1e-3.
    """
    return 2e-8 + 4e-16 * max(sigma, 1.0 / sigma) ** 4


def check_engine_point(point: dict, results: dict) -> list[Problem]:
    """Check the six information matrices computed at one grid point.

    ``point`` holds sigma, kappa, t_minus, omega_minus; ``results`` maps
    (strategy, pair) to the 2x2 H the engine returned.
    """
    sigma, kappa = point["sigma"], point["kappa"]
    t_minus, omega_minus = point["t_minus"], point["omega_minus"]
    tol = engine_tol(sigma)
    separated = t_minus * sigma >= 10.0
    problems: list[Problem] = []

    def flag(value: float, ref: float, near_coincident: bool, text: str) -> None:
        value, ref = float(value), float(ref)
        if near_coincident:
            fault = "near_coincident"
        elif sigma != 1.0 and value < 0.5 * ref:
            fault = "bandwidth_drop"  # information lost, not round-off
        else:
            fault = None
        problems.append(Problem(fault, f"{text} at {point}"))

    for (strategy, pair), H in results.items():
        H = np.asarray(H, dtype=float)
        where = f"{strategy}/{pair}"
        if H.shape != (2, 2) or not np.all(np.isfinite(H)):
            problems.append(Problem(None, f"{where}: H not a finite 2x2 matrix at {point}"))
            continue
        scale = max(abs(H[0, 0]), abs(H[1, 1]))
        if abs(H[0, 1] - H[1, 0]) > tol * scale:
            problems.append(Problem(None, f"{where}: H not symmetric at {point}"))
        if strategy == ENT:
            ref = entangled_H(sigma, sigma, kappa, pair)
            for i in range(2):
                if _rel(H[i, i], ref[i]) > tol:
                    flag(H[i, i], ref[i], False,
                         f"{where}: H[{i},{i}] = {float(H[i, i])!r}, closed form {ref[i]!r}")
            if abs(H[0, 1]) > tol * math.sqrt(ref[0] * ref[1]):
                problems.append(Problem(None, f"{where}: off-diagonal {float(H[0, 1])!r} at {point}"))
            continue
        eig = np.linalg.eigvalsh(0.5 * (H + H.T))
        if eig[0] < -tol * max(eig[1], 0.0):
            problems.append(Problem(None, f"{where}: H not PSD (eigenvalues {eig}) at {point}"))
        bound = convexity_bound(strategy, sigma, kappa)
        for i in range(2):
            if H[i, i] > bound[i] * (1.0 + tol):
                problems.append(Problem(
                    None, f"{where}: H[{i},{i}] = {float(H[i, i])!r} above convexity bound "
                    f"{bound[i]!r} at {point}"))
            elif separated and H[i, i] < bound[i] * (1.0 - tol):
                flag(H[i, i], bound[i], False,
                     f"{where}: H[{i},{i}] = {float(H[i, i])!r} misses the separated-branch "
                     f"value {bound[i]!r}")
        if strategy == TSP and pair == PAIR_B and omega_minus == 0.0 and t_minus > 0.0:
            want = 2.0 * sigma * sigma
            if _rel(H[0, 0], want) > tol:
                # the small support eigenvalue ~ (t_minus sigma)^2/2 loses all
                # precision at t_minus sigma <= 1e-6 and part of it at 1e-4
                flag(H[0, 0], want, t_minus * sigma < 1e-3,
                     f"{where}: H(t_minus) = {float(H[0, 0])!r}, want 2 sigma^2 = {want!r}")
    return problems


# ---------------------------------------------------------------------------
# mc_campaign


def check_mc_domain(cell: dict, domain: str, samples: np.ndarray, report,
                    qfi_entry: float) -> list[Problem]:
    """Check one sampled domain of an mc_campaign cell and its McReport."""
    strategy, pair, kappa, sigma = cell["strategy"], cell["pair"], cell["kappa"], cell["sigma"]
    where = f"{strategy}/{pair}/{domain} kappa={kappa}"
    problems: list[Problem] = []
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if samples.shape != (cell["n"], 2) or not np.all(np.isfinite(samples)):
        return [Problem(None, f"{where}: samples have shape {samples.shape} or are not finite")]
    values = samples @ combination(pair, domain)
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1))

    if report.n_samples != n:
        problems.append(Problem(None, f"{where}: report n_samples {report.n_samples} != {n}"))
    if _rel(report.variance, var) > RTOL_EXACT:
        problems.append(Problem(None, f"{where}: reported variance {report.variance!r}, "
                                      f"np.var of the samples {var!r}"))
    if abs(report.estimate - mean) > RTOL_EXACT * (abs(mean) + math.sqrt(var)):
        problems.append(Problem(None, f"{where}: reported mean {report.estimate!r}, "
                                      f"np.mean of the samples {mean!r}"))
    if _rel(report.qcrb_variance, 1.0 / qfi_entry) > RTOL_EXACT:
        problems.append(Problem(None, f"{where}: QCRB variance {report.qcrb_variance!r}, "
                                      f"want 1/H = {1.0 / qfi_entry!r}"))
    if _rel(report.ratio, report.variance / report.qcrb_variance) > RTOL_EXACT:
        problems.append(Problem(None, f"{where}: ratio {report.ratio!r} inconsistent"))
    lo, hi = report.variance_interval_99
    if not lo <= report.variance <= hi:
        problems.append(Problem(None, f"{where}: variance outside its own interval"))

    exact_mean, exact_var = combined_moments(
        strategy, pair, domain, cell["centers"], cell["carriers"], sigma, sigma, kappa)
    # the mean's z-score uses the sample's own variance, so a wrong variance
    # (flagged by the next test) does not also fail the mean
    if abs(mean - exact_mean) > Z_SAMPLE * math.sqrt(var / n):
        problems.append(Problem(None, f"{where}: sample mean {mean!r}, exact {exact_mean!r}"))
    if abs(var / exact_var - 1.0) > Z_SAMPLE * math.sqrt(2.0 / (n - 1)):
        fault = (
            "single_photon_marginals"
            if strategy == TSP and domain == "time" and kappa != 0.0 else None
        )
        problems.append(Problem(fault, f"{where}: sample variance {var!r}, exact {exact_var!r}"))
    return problems


# ---------------------------------------------------------------------------
# the default CLI calls (traced run)


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _kappa_index(value: float, grid: list[float]) -> int | None:
    for i, k in enumerate(grid):
        if abs(value - k) <= 1e-12:
            return i
    return None


def check_qfi_csv(text: str) -> list[Problem]:
    """qfi.csv: one row per (strategy, pair, kappa), each recomputed."""
    header, rows = _read_csv(text)
    want_header = ["strategy", "pair", "kappa", "sigma", "H11", "H22", "bound", "residual"]
    if header != want_header:
        return [Problem(None, f"qfi.csv header {header}")]
    grid = kappa_grid()
    problems: list[Problem] = []
    seen = set()
    for row in rows:
        if len(row) != len(want_header) or row[0] not in STRATEGIES or row[1] not in PAIRS:
            problems.append(Problem(None, f"qfi.csv malformed row {row}"))
            continue
        strategy, pair = row[0], row[1]
        kappa, sigma, h11, h22, bound, residual = map(float, row[2:])
        idx = _kappa_index(kappa, grid)
        if idx is None or sigma != CLI_SIGMA:
            problems.append(Problem(None, f"qfi.csv unexpected kappa/sigma in {row}"))
            continue
        seen.add((strategy, pair, idx))
        ref = strategy_H(strategy, pair, grid[idx], CLI_SIGMA)
        ref_bound = 1.0 / math.sqrt(ref[0] * ref[1])
        for name, got, want in (("H11", h11, ref[0]), ("H22", h22, ref[1]),
                                ("bound", bound, ref_bound)):
            if _rel(got, want) > 1e-12:
                problems.append(Problem(None, f"qfi.csv {name} {got!r} != {want!r} in {row}"))
        if not 0.0 <= residual <= COMPAT_TOL:
            problems.append(Problem(None, f"qfi.csv residual {residual!r} in {row}"))
    want_rows = len(STRATEGIES) * len(PAIRS) * len(grid)
    if len(rows) != want_rows or len(seen) != want_rows:
        problems.append(Problem(None, f"qfi.csv has {len(rows)} rows covering {len(seen)} "
                                      f"cells, want {want_rows}"))
    return problems


def check_curves_csv(text: str, pair: str) -> list[Problem]:
    """curves_<pair>.csv: kappa and the three floors, each recomputed."""
    header, rows = _read_csv(text)
    if header != ["kappa", *STRATEGIES]:
        return [Problem(None, f"curves {pair} header {header}")]
    grid = kappa_grid()
    problems: list[Problem] = []
    if len(rows) != len(grid):
        problems.append(Problem(None, f"curves {pair}: {len(rows)} rows, want {len(grid)}"))
    for i, row in enumerate(rows[: len(grid)]):
        values = [float(x) for x in row]
        if abs(values[0] - grid[i]) > 1e-12:
            problems.append(Problem(None, f"curves {pair}: row {i} kappa {values[0]!r}"))
            continue
        for strategy, got in zip(STRATEGIES, values[1:]):
            want = floor(strategy, pair, grid[i])
            if _rel(got, want) > 1e-12:
                problems.append(Problem(None, f"curves {pair}: {strategy} at kappa "
                                              f"{grid[i]!r} is {got!r}, want {want!r}"))
    return problems


def check_svg(text: str) -> list[Problem]:
    """curves_<pair>.svg parses as XML and holds one polyline per strategy."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [Problem(None, f"SVG does not parse: {exc}")]
    if not root.tag.endswith("svg"):
        return [Problem(None, f"SVG root element is {root.tag}")]
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != len(STRATEGIES):
        return [Problem(None, f"SVG has {len(lines)} polylines, want {len(STRATEGIES)}")]
    return []


def check_verdicts(text: str) -> list[Problem]:
    """verdicts.jsonl: complete, self-consistent, entangled records confirmed."""
    grid = kappa_grid()
    problems: list[Problem] = []
    seen = set()
    lines = text.splitlines()
    for line in lines:
        rec = json.loads(line)
        keys = {"strategy", "pair", "params", "paper_value", "oracle_value", "rel_diff", "verdict"}
        if set(rec) != keys or rec["strategy"] not in STRATEGIES or rec["pair"] not in PAIRS:
            problems.append(Problem(None, f"verdict record malformed: {line}"))
            continue
        strategy, pair, params = rec["strategy"], rec["pair"], rec["params"]
        paper, oracle = rec["paper_value"], rec["oracle_value"]
        idx = _kappa_index(params["kappa"], grid)
        entry = params["entry"]
        if (idx is None or entry not in PAIR_PARAMS[pair] or params["sigma"] != CLI_SIGMA
                or params["t_minus"] != CLI_T_MINUS or params["omega_minus"] != CLI_OMEGA_MINUS):
            problems.append(Problem(None, f"verdict params unexpected: {line}"))
            continue
        seen.add((strategy, pair, idx, entry))
        i = PAIR_PARAMS[pair].index(entry)
        if not (math.isfinite(oracle) and oracle > 0.0):
            problems.append(Problem(None, f"verdict oracle value {oracle!r}: {line}"))
            continue
        rel = abs(paper - oracle) / abs(oracle)
        if _rel(rec["rel_diff"], rel) > 1e-9:
            problems.append(Problem(None, f"verdict rel_diff {rec['rel_diff']!r} != {rel!r}"))
        if rec["verdict"] != ("confirmed" if rel <= VERDICT_RTOL else "refuted"):
            problems.append(Problem(None, f"verdict {rec['verdict']!r} at rel {rel!r}: {line}"))
        if strategy == ENT:
            ref = entangled_H(CLI_SIGMA, CLI_SIGMA, grid[idx], pair)[i]
            if rec["verdict"] != "confirmed":
                problems.append(Problem(None, f"entangled verdict not confirmed: {line}"))
            if _rel(paper, ref) > 1e-12 or _rel(oracle, ref) > engine_tol(CLI_SIGMA):
                problems.append(Problem(None, f"entangled values off closed form {ref!r}: {line}"))
        else:
            bound = convexity_bound(strategy, CLI_SIGMA, grid[idx])[i]
            if oracle > bound * (1.0 + engine_tol(CLI_SIGMA)):
                problems.append(Problem(None, f"oracle value above convexity bound "
                                              f"{bound!r}: {line}"))
    # two single photons carry no correlation: one record set per pair
    want = {(s, p, i, e) for s in (ENT, QI) for p in PAIRS for i in range(len(grid))
            for e in PAIR_PARAMS[p]}
    want |= {(TSP, p, 0, e) for p in PAIRS for e in PAIR_PARAMS[p]}
    if len(lines) != len(want) or seen != want:
        problems.append(Problem(None, f"verdicts.jsonl has {len(lines)} records covering "
                                      f"{len(seen & want)} of {len(want)} expected"))
    return problems


def check_simulate_csv(text: str, returncode: int, seed: int) -> list[Problem]:
    """simulate.csv: every row's moments against the exact sampling moments."""
    header, rows = _read_csv(text)
    want_header = ["strategy", "pair", "domain", "kappa", "sigma", "n", "seed", "estimate",
                   "variance", "qcrb", "ratio", "ci_lo", "ci_hi", "ok"]
    problems: list[Problem] = []
    if returncode != 0:
        problems.append(Problem("simulate_exit", f"simulate exited {returncode}"))
    if header != want_header:
        return problems + [Problem(None, f"simulate.csv header {header}")]
    grid = kappa_grid()
    seen = set()
    for row in rows:
        if len(row) != len(want_header) or row[0] not in (ENT, TSP) or row[1] not in PAIRS \
                or row[2] not in ("time", "frequency"):
            problems.append(Problem(None, f"simulate.csv malformed row {row}"))
            continue
        strategy, pair, domain = row[:3]
        kappa, sigma = float(row[3]), float(row[4])
        n, row_seed = int(row[5]), int(row[6])
        estimate, variance, qcrb, ratio, lo, hi = map(float, row[7:13])
        idx = _kappa_index(kappa, grid)
        if idx is None or sigma != CLI_SIGMA or n != CLI_N:
            problems.append(Problem(None, f"simulate.csv unexpected config in {row}"))
            continue
        seen.add((strategy, pair, domain, idx, row_seed))
        entry = strategy_H(strategy, pair, grid[idx], sigma)[0 if domain == "time" else 1]
        if _rel(qcrb, 1.0 / entry) > 1e-12 or _rel(ratio, variance / qcrb) > 1e-12:
            problems.append(Problem(None, f"simulate.csv QCRB or ratio off in {row}"))
        if not lo <= variance <= hi or row[13] != ("true" if lo <= qcrb <= hi else "false"):
            problems.append(Problem(None, f"simulate.csv interval or ok flag off in {row}"))
        exact_mean, exact_var = combined_moments(
            strategy, pair, domain, (0.0, 0.0), (1.0, 1.0), sigma, sigma, grid[idx])
        if abs(estimate - exact_mean) > Z_SAMPLE * math.sqrt(variance / n):
            problems.append(Problem(None, f"simulate.csv mean {estimate!r} vs {exact_mean!r}"))
        if abs(variance / exact_var - 1.0) > Z_SAMPLE * math.sqrt(2.0 / (n - 1)):
            single = strategy == TSP and domain == "time" and abs(grid[idx]) > 1e-9
            fault = "simulate_exit" if single else None
            problems.append(Problem(fault, f"simulate.csv variance {variance!r} vs exact "
                                           f"{exact_var!r} in {row}"))
    want_rows = 2 * len(PAIRS) * len(grid) * 2
    seeds = {key[-1] for key in seen}
    if len(rows) != want_rows or len(seen) != want_rows or seeds != set(range(seed, seed + want_rows)):
        problems.append(Problem(None, f"simulate.csv has {len(rows)} rows, want {want_rows} "
                                      f"with seeds {seed}..{seed + want_rows - 1}"))
    return problems


def scenario_reference(scenario: str) -> dict:
    """Truth, exact standard errors and QCRB standard errors at the CLI defaults.

    Both targets are at rest (v = 0), so the returned photons keep the probe's
    carrier and bandwidth; natural units, c = 1.  Half the shots go to each
    domain.
    """
    c, w0, s, k = 1.0, CLI_OMEGA0, CLI_SIGMA, CLI_KAPPA
    n_t = n_f = CLI_N // 2
    t1, t2 = 2.0 * CLI_R[0] / c, 2.0 * CLI_R[1] / c
    time_mean, time_cov = sampling_moments(ENT, "time", (t1, t2), (w0, w0), s, s, k)
    _, freq_cov = sampling_moments(ENT, "frequency", (t1, t2), (w0, w0), s, s, k)
    if scenario == "multibody":
        # midpoint = c (t1 + t2)/4; delta_v = v2 - v1 with dv/dw = -c/(2 w0) at rest
        d = -c / (2.0 * w0)
        grad = np.array([-d, d])  # d(delta_v)/d(w1, w2)
        ones = np.array([1.0, 1.0])
        h11, h22 = entangled_H(s, s, k, PAIR_A)
        return {
            "truth": {"midpoint": (CLI_R[0] + CLI_R[1]) / 2.0, "delta_v": 0.0},
            "exact_se": {
                "midpoint": c / 4.0 * math.sqrt(ones @ time_cov @ ones / n_t),
                "delta_v": math.sqrt(grad @ freq_cov @ grad / n_f),
            },
            "qcrb_se": {
                "midpoint": c / 4.0 * math.sqrt(1.0 / (n_t * h11)),
                "delta_v": c / (2.0 * w0) * math.sqrt(1.0 / (n_f * h22)),
            },
        }
    # moving_object: size = t_minus (c - v)/2, v from the frequency sum with
    # dv/dw_plus = -4 c w0/(2 w0 + w_plus)^2 = -c/(4 w0) at rest
    t_minus = t2 - t1
    dv = c / (4.0 * w0)
    diff, plus = np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    var_t = diff @ time_cov @ diff / n_t
    var_v = dv * dv * (plus @ freq_cov @ plus) / n_f
    h11, h22 = entangled_H(s, s, k, PAIR_B)
    q_t, q_v = 1.0 / (n_t * h11), dv * dv / (n_f * h22)
    return {
        "truth": {"size": (CLI_R[1] - CLI_R[0]), "velocity": 0.0},
        "exact_se": {
            "size": math.sqrt((c / 2.0) ** 2 * var_t + (t_minus / 2.0) ** 2 * var_v),
            "velocity": math.sqrt(var_v),
        },
        "qcrb_se": {
            "size": math.sqrt((c / 2.0) ** 2 * q_t + (t_minus / 2.0) ** 2 * q_v),
            "velocity": math.sqrt(q_v),
        },
    }


def check_scenario(text: str, scenario: str, seed: int) -> list[Problem]:
    """scenario.json: estimates near the truth, error bars against exact ones."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [Problem(None, f"scenario {scenario}: not JSON ({exc})")]
    ref = scenario_reference(scenario)
    problems: list[Problem] = []
    want = {"scenario": scenario, "strategy": ENT, "n_shots": CLI_N, "seed": seed,
            "n_time_shots": CLI_N // 2, "n_frequency_shots": CLI_N // 2}
    for key, value in want.items():
        if report.get(key) != value:
            problems.append(Problem(None, f"scenario {scenario}: {key} = {report.get(key)!r}"))
    for section in ("estimates", "std_errors", "predicted_qcrb_std_errors", "truth"):
        if set(report.get(section, {})) != set(ref["truth"]):
            return problems + [Problem(None, f"scenario {scenario}: {section} keys")]
    for key, truth in ref["truth"].items():
        where = f"scenario {scenario} {key}"
        exact_se = ref["exact_se"][key]
        if abs(report["truth"][key] - truth) > 1e-12 * max(abs(truth), 1.0):
            problems.append(Problem(None, f"{where}: truth {report['truth'][key]!r}"))
        if _rel(report["predicted_qcrb_std_errors"][key], ref["qcrb_se"][key]) > 1e-9:
            problems.append(Problem(None, f"{where}: QCRB s.e. "
                                          f"{report['predicted_qcrb_std_errors'][key]!r}, "
                                          f"want {ref['qcrb_se'][key]!r}"))
        if _rel(report["std_errors"][key], exact_se) > SE_RTOL:
            fault = "delta_v_hypot" if scenario == "multibody" and key == "delta_v" else None
            problems.append(Problem(fault, f"{where}: reported s.e. "
                                           f"{report['std_errors'][key]!r}, exact {exact_se!r}"))
        if abs(report["estimates"][key] - truth) > Z_SCENARIO * exact_se:
            problems.append(Problem(None, f"{where}: estimate {report['estimates'][key]!r} "
                                          f"more than {Z_SCENARIO} s.e. from {truth!r}"))
    return problems


def check_selftest(text: str, returncode: int) -> list[Problem]:
    """selftest --json: nine criteria, all passed, exit 0."""
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        return [Problem(None, f"selftest output is not JSON ({exc})")]
    problems: list[Problem] = []
    if returncode != 0:
        problems.append(Problem(None, f"selftest exited {returncode}"))
    if [r.get("criterion") for r in records] != list(range(1, 10)):
        problems.append(Problem(None, "selftest did not report criteria 1..9"))
    for r in records:
        if r.get("passed") is not True:
            problems.append(Problem(None, f"selftest criterion {r.get('criterion')} failed: "
                                          f"{r.get('detail')}"))
    return problems
