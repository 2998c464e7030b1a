"""The benchmark workloads, engine_map and mc_campaign, and the CLI calls.

A workload is a fixed list of operations, its round.  The seed sets the order
of the round and the random streams the program is given, never which
operations run, so every run attempts whole rounds of the same operations and
the share of failed operations is the same whatever the seed.

Each operation times only the call into the program.  Its outputs are checked
afterwards, outside the timed span, by the functions in checks.py.

The seven default CLI calls (``CliRunner``) run in the traced run only: as a
timed workload they were not steady on a shared machine (see README.md).
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import checks
from checks import Problem


class Outcome(NamedTuple):
    seconds: float  # wall time of the call into the program
    stolen: float  # hypervisor steal per CPU during that call
    problems: list


Op = Callable[[], Outcome]

# engine_map grid, after ROADMAP item 4's regression grid.  t_minus is given
# in units of 1/sigma and omega_minus in units of sigma.
ENGINE_SIGMAS = (1e-3, 1.0, 1e3)
ENGINE_KAPPAS = (-0.999, -0.9, 0.0, 0.9, 0.999)
ENGINE_T_SIGMA = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2)
ENGINE_W_OVER_SIGMA = (0.0, 0.8)

# mc_campaign cells: about 1e6 pairs per domain, fixed centers and carriers.
MC_N = 1_000_000
MC_KAPPAS = (-0.9, -0.5, 0.0, 0.5, 0.9)
MC_SIGMA = 1.0
MC_CENTERS = (0.3, -0.2)
MC_CARRIERS = (1.0, 1.5)

CLI_TIMEOUT_S = 150


def stolen_seconds() -> float:
    """Hypervisor steal time so far, per CPU, from /proc/stat (0 where absent).

    On a shared VM the host takes both vCPUs away for minutes at a time; that
    time is not the program's, so the end-to-end metrics leave it out.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") / (os.cpu_count() or 1)


def engine_points() -> list[dict]:
    return [
        {"sigma": s, "kappa": k, "t_minus": ts / s, "omega_minus": wf * s}
        for s, k, ts, wf in itertools.product(
            ENGINE_SIGMAS, ENGINE_KAPPAS, ENGINE_T_SIGMA, ENGINE_W_OVER_SIGMA)
    ]


def engine_op(qr, point: dict) -> Op:
    """qfi_numeric for all three strategies and both pairs at one grid point."""
    from qfi_radar.oracle import model_for, qfi_numeric

    def op() -> Outcome:
        stolen = stolen_seconds()
        start = time.perf_counter()
        results = {}
        for strategy in qr.Strategy:
            model = model_for(strategy, sigma1=point["sigma"], kappa=point["kappa"],
                              t_minus=point["t_minus"], omega_minus=point["omega_minus"])
            for pair in qr.ParameterPair:
                results[(strategy.value, pair.value)] = qfi_numeric(model, pair).H
        elapsed = time.perf_counter() - start
        stolen = stolen_seconds() - stolen
        return Outcome(elapsed, stolen, checks.check_engine_point(point, results))

    return op


def mc_cells(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cells = []
    for strategy, pair, kappa in itertools.product(
            (checks.ENT, checks.TSP), checks.PAIRS, MC_KAPPAS):
        cells.append({
            "strategy": strategy, "pair": pair, "kappa": kappa, "sigma": MC_SIGMA,
            "n": MC_N, "centers": MC_CENTERS, "carriers": MC_CARRIERS,
            "seeds": (rng.randrange(2**31), rng.randrange(2**31)),
        })
    return cells


def mc_op(qr, cell: dict) -> Op:
    """Sample both domains of one cell at n = 1e6 and estimate each."""
    strategy = qr.Strategy(cell["strategy"])
    pair = qr.ParameterPair(cell["pair"])
    entries = checks.strategy_H(cell["strategy"], cell["pair"], cell["kappa"], cell["sigma"])
    seed_t, seed_f = cell["seeds"]

    def op() -> Outcome:
        stolen = stolen_seconds()
        start = time.perf_counter()
        state = qr.GaussianBiphoton(*cell["centers"], *cell["carriers"],
                                    cell["sigma"], cell["sigma"], cell["kappa"])
        times = qr.sample_times(state, qr.McConfig(cell["n"], seed_t, "time", strategy))
        freqs = qr.sample_frequencies(
            state, qr.McConfig(cell["n"], seed_f, "frequency", strategy))
        rep_t = qr.estimate_pair(times, pair, "time", entries[0])
        rep_f = qr.estimate_pair(freqs, pair, "frequency", entries[1])
        elapsed = time.perf_counter() - start
        stolen = stolen_seconds() - stolen
        problems = checks.check_mc_domain(cell, "time", times, rep_t, entries[0])
        problems += checks.check_mc_domain(cell, "frequency", freqs, rep_f, entries[1])
        return Outcome(elapsed, stolen, problems)

    return op


def cli_argvs(seed: int) -> dict:
    """Each kind's argument list at default config; only the seeds vary."""
    rng = random.Random(seed)
    sim_seed, mb_seed, mo_seed = (rng.randrange(2**30) for _ in range(3))
    return {
        "qfi": (["qfi"], None),
        "curves": (["curves", "--format", "svg"], None),
        "oracle_check": (["oracle-check"], None),
        "simulate": (["simulate", "--seed", str(sim_seed)], sim_seed),
        "scenario_multibody": (["scenario", "--seed", str(mb_seed)], mb_seed),
        "scenario_moving_object": (
            ["scenario", "--scenario", "moving_object", "--seed", str(mo_seed)], mo_seed),
        "selftest": (["selftest", "--json"], None),
    }


def check_cli_output(kind: str, out: str, stdout: str, returncode: int,
                     seed: int | None) -> list[Problem]:
    """Check what one CLI call wrote into ``out`` and printed."""
    def read(name: str) -> str:
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            return fh.read()

    try:
        if kind == "simulate":
            return checks.check_simulate_csv(read("simulate.csv"), returncode, seed)
        if kind == "selftest":
            return checks.check_selftest(stdout, returncode)
        if returncode != 0:
            return [Problem(None, f"{kind} exited {returncode}")]
        if kind == "qfi":
            return checks.check_qfi_csv(read("qfi.csv"))
        if kind == "curves":
            problems = []
            for pair in checks.PAIRS:
                problems += checks.check_curves_csv(read(f"curves_{pair}.csv"), pair)
                problems += checks.check_svg(read(f"curves_{pair}.svg"))
            return problems
        if kind == "oracle_check":
            return checks.check_verdicts(read("verdicts.jsonl"))
        scenario = kind.removeprefix("scenario_")
        return checks.check_scenario(read("scenario.json"), scenario, seed)
    except OSError as exc:
        return [Problem(None, f"{kind}: output missing ({exc})")]


class CliRunner:
    """Runs ``python -m qfi_radar.cli`` in fresh interpreters, one output dir each."""

    def __init__(self, src: str, out_root: str):
        self.out_root = out_root
        self.env = dict(os.environ, PYTHONPATH=src)

    def out_dir(self, kind: str) -> str:
        path = os.path.join(self.out_root, kind)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def op(self, kind: str, argv: list[str], seed: int | None) -> Op:
        def op() -> Outcome:
            out = self.out_dir(kind)
            full = list(argv) if kind == "selftest" else [*argv, "--out", out]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "qfi_radar.cli", *full], env=self.env,
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                elapsed = time.perf_counter() - start
                return Outcome(elapsed, 0.0, [Problem(None, f"{kind} timed out")])
            elapsed = time.perf_counter() - start
            problems = check_cli_output(kind, out, proc.stdout, proc.returncode, seed)
            return Outcome(elapsed, 0.0, problems)

        return op


def build_round(workload: str, qr, seed: int) -> Callable[[], list[Op]]:
    """Return a function giving the ops of the workload's next whole round."""
    if workload == "engine_map":
        ops = [engine_op(qr, p) for p in engine_points()]
    else:
        ops = [mc_op(qr, c) for c in mc_cells(seed)]
    rng = random.Random(seed)

    def round_ops() -> list[Op]:
        order = list(ops)
        rng.shuffle(order)
        return order

    return round_ops
