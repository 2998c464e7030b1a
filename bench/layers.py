"""The traced run: per-layer metrics, timed and counted from outside the program.

Layers are the modules of qfi_radar: states, oracle, analytic, montecarlo,
cli and selftest (kinematics is closed forms of microseconds each and is
measured only inside montecarlo.run_scenario).  Spans are recorded by
replacing a module attribute with a timing wrapper for the length of one
section, then putting the original back; nothing in the package changes.

Every input here is fixed, so the counts (overlaps per evaluation, subspace
dimensions) repeat exactly from run to run.
"""

from __future__ import annotations

import collections
import contextlib
import io
import os
import re
import statistics
import subprocess
import sys
import time

import checks
import workloads

# reference engine point: distinct, partly overlapping branches
REF_POINT = {"sigma": 1.0, "kappa": -0.5, "t_minus": 1.0, "omega_minus": 0.8}
ENGINE_REPS = 10
ADJUDICATE_REPS = 5
SAMPLE_REPS = {10_000: 30, 100_000: 15, 2_000_000: 5}
SCENARIO_REPS = 5
IMPORT_SAMPLES = 3
IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


class Spans:
    """Durations of wrapped calls by name, and a count of each name."""

    def __init__(self):
        self.seconds = collections.defaultdict(list)
        self._patched = []

    def wrap(self, module, attr: str, name=None) -> None:
        """Time every call of ``module.attr``; ``name(*args)`` picks the span name."""
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                key = name(*args) if name else attr
                self.seconds[key].append(time.perf_counter() - start)

        setattr(module, attr, timed)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def median(self, key: str, scale: float) -> float:
        return statistics.median(self.seconds[key]) * scale

    def count(self, key: str) -> int:
        return len(self.seconds[key])


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def engine_layers(qr) -> dict:
    """states and oracle: overlap kernel, subspace, projection, SLD, QFI."""
    from qfi_radar import oracle
    from qfi_radar.states import GaussianSinglePhoton

    def overlap_kind(a, b):
        base = getattr(a, "base", a)
        return "overlap_1d" if isinstance(base, GaussianSinglePhoton) else "overlap_2d"

    metrics = {}
    overlap_spans = Spans()
    for strategy in qr.Strategy:
        s = strategy.value
        model = oracle.model_for(strategy, sigma1=REF_POINT["sigma"], kappa=REF_POINT["kappa"],
                                 t_minus=REF_POINT["t_minus"],
                                 omega_minus=REF_POINT["omega_minus"])
        calls = [lambda p=pair: oracle.qfi_numeric(model, p) for pair in qr.ParameterPair]
        metrics[f"oracle.qfi_numeric_ms.{s}"] = (
            statistics.median(_median_time(c, ENGINE_REPS) for c in calls) * 1e3, "ms")
        with Spans() as spans:
            spans.wrap(oracle, "overlap", overlap_kind)
            spans.wrap(oracle, "build_subspace")
            spans.wrap(oracle, "project")
            spans.wrap(oracle, "sld_solve")
            results = [c() for c in calls for _ in range(ENGINE_REPS)]
        n_overlaps = spans.count("overlap_1d") + spans.count("overlap_2d")
        per_eval = n_overlaps / len(results)
        generators = len(results[0].basis.generators)
        for key in ("build_subspace", "project", "sld_solve"):
            metrics[f"oracle.{key}_ms.{s}"] = (spans.median(key, 1e3), "ms")
        metrics[f"oracle.subspace_dim.{s}"] = (float(results[0].dim), "count")
        metrics[f"states.overlaps_per_eval.{s}"] = (per_eval, "count")
        metrics[f"states.useful_overlap_ratio.{s}"] = (
            generators * (generators + 1) / 2 / per_eval, "ratio")
        for key, values in spans.seconds.items():
            if key.startswith("overlap"):
                overlap_spans.seconds[key].extend(values)
    metrics["states.overlap_1d_us"] = (overlap_spans.median("overlap_1d", 1e6), "us")
    metrics["states.overlap_2d_us"] = (overlap_spans.median("overlap_2d", 1e6), "us")
    return metrics


def trace_overhead(qr) -> dict:
    """engine_map operations per second with and without the engine spans.

    Each operation runs once each way, back to back and in alternating
    order, so drift in machine speed falls on both sides alike.
    """
    from qfi_radar import oracle

    ops = [workloads.engine_op(qr, p) for p in workloads.engine_points() if p["sigma"] == 1.0]
    busy = {"untraced": 0.0, "traced": 0.0}

    def traced(op) -> float:
        with Spans() as spans:
            for attr in ("overlap", "build_subspace", "project", "sld_solve"):
                spans.wrap(oracle, attr)
            return op().seconds

    for i, op in enumerate(ops * 2):
        sides = ("untraced", "traced") if i % 2 else ("traced", "untraced")
        for side in sides:
            busy[side] += op().seconds if side == "untraced" else traced(op)
    rate = {k: 2 * len(ops) / v for k, v in busy.items()}
    return {
        "trace.engine_map_ops_per_s.untraced": (rate["untraced"], "1/s"),
        "trace.engine_map_ops_per_s.traced": (rate["traced"], "1/s"),
        "trace.overhead_pct": ((rate["untraced"] / rate["traced"] - 1.0) * 100.0, "%"),
    }


def analytic_layer(qr) -> dict:
    """analytic.adjudicate per strategy at the oracle-check default point."""
    metrics = {}
    for strategy in qr.Strategy:
        times = [
            _median_time(lambda p=pair: qr.adjudicate(
                strategy, p, sigma=REF_POINT["sigma"], kappa=REF_POINT["kappa"],
                t_minus=REF_POINT["t_minus"], omega_minus=REF_POINT["omega_minus"]),
                ADJUDICATE_REPS)
            for pair in qr.ParameterPair
        ]
        metrics[f"analytic.adjudicate_ms.{strategy.value}"] = (
            statistics.median(times) * 1e3, "ms")
    return metrics


@contextlib.contextmanager
def _one_thread():
    old = os.environ.get("QFI_RADAR_THREADS")
    os.environ["QFI_RADAR_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("QFI_RADAR_THREADS")
        if old is not None:
            os.environ["QFI_RADAR_THREADS"] = old


def montecarlo_layer(qr) -> dict:
    """Sampling at three sizes and two thread counts, estimation, scenarios."""
    state = qr.GaussianBiphoton(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, -0.5)
    pair = qr.ParameterPair.TIME_SUM_FREQ_DIFF
    label = {10_000: "n1e4", 100_000: "n1e5", 2_000_000: "n2e6"}
    metrics = {}
    samples = {}
    for n, reps in SAMPLE_REPS.items():
        config = qr.McConfig(n, 7, "time")
        metrics[f"montecarlo.sample_ms.{label[n]}"] = (
            _median_time(lambda: qr.sample_times(state, config), reps) * 1e3, "ms")
        samples[n] = qr.sample_times(state, config)
        if n != 100_000:
            with _one_thread():
                metrics[f"montecarlo.sample_ms.{label[n]}.t1"] = (
                    _median_time(lambda: qr.sample_times(state, config), reps) * 1e3, "ms")
    for n in (100_000, 2_000_000):
        metrics[f"montecarlo.estimate_pair_ms.{label[n]}"] = (
            _median_time(lambda: qr.estimate_pair(samples[n], pair, "time", 3.0),
                         SAMPLE_REPS[n]) * 1e3, "ms")
    probe = qr.ProbeConfig(omega0=checks.CLI_OMEGA0, sigma0=checks.CLI_SIGMA,
                           kappa=checks.CLI_KAPPA)
    targets = (qr.Target(checks.CLI_R[0], 0.0), qr.Target(checks.CLI_R[1], 0.0))
    for scenario in ("multibody", "moving_object"):
        metrics[f"montecarlo.run_scenario_ms.{scenario}"] = (
            _median_time(lambda: qr.run_scenario(scenario, targets, probe, checks.CLI_N, 3),
                         SCENARIO_REPS) * 1e3, "ms")
    return metrics


def import_layer(env: dict) -> dict:
    """Cold import from ``-X importtime``: the package and scipy.stats within it."""
    totals = collections.defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qfi_radar.cli"],
                              env=env, capture_output=True, text=True, timeout=120)
        entries = [(len(m.group(3)), m.group(4), int(m.group(2)))
                   for m in IMPORTTIME.finditer(proc.stderr)]
        totals["package"].append(sum(
            us for depth, name, us in entries if depth == 0 and name.startswith("qfi_radar")))
        # scipy's lazy loader may leave scipy.stats without a line of its own;
        # then its shallowest submodules stand for it
        stats = [(d, us) for d, name, us in entries if name.startswith("scipy.stats")]
        top = min((d for d, _ in stats), default=0)
        totals["scipy.stats"].append(sum(us for d, us in stats if d == top))
    return {
        "cli.import_s": (statistics.median(totals["package"]) * 1e-6, "s"),
        "cli.import_scipy_stats_s": (statistics.median(totals["scipy.stats"]) * 1e-6, "s"),
    }


def cli_layer(runner: workloads.CliRunner, seed: int) -> tuple[dict, list]:
    """Each default CLI call as a fresh process and in-process, plus the writers.

    Also returns the checked outcomes of the seven fresh-process calls.
    """
    import qfi_radar.cli as cli

    metrics = {}
    outcomes = []
    argvs = workloads.cli_argvs(seed)
    for kind, (argv, s) in argvs.items():
        outcomes.append(runner.op(kind, argv, s)())
        metrics[f"cli.wall_s.{kind}"] = (outcomes[-1].seconds, "s")
    writes = {}
    for kind, (argv, _s) in argvs.items():
        out = runner.out_dir(kind + "_inproc")
        full = list(argv) if kind == "selftest" else [*argv, "--out", out]
        with Spans() as spans, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            spans.wrap(cli, "write_csv")
            spans.wrap(cli, "write_jsonl")
            spans.wrap(cli, "render_svg")
            start = time.perf_counter()
            cli.main(full)
            metrics[f"cli.main_s.{kind}"] = (time.perf_counter() - start, "s")
        writes[kind] = spans
    metrics["cli.write_ms.qfi_csv"] = (writes["qfi"].median("write_csv", 1e3), "ms")
    metrics["cli.write_ms.verdicts_jsonl"] = (
        writes["oracle_check"].median("write_jsonl", 1e3), "ms")
    metrics["cli.write_ms.curves_svg"] = (writes["curves"].median("render_svg", 1e3), "ms")
    return metrics, outcomes


def selftest_layer() -> dict:
    """Criteria 3, 4, 5, 7 and 8, each called once from outside the runner."""
    from qfi_radar import selftest

    metrics = {}
    for number in (3, 4, 5, 7, 8):
        _name, func = selftest.CRITERIA[number - 1]
        start = time.perf_counter()
        func()
        metrics[f"selftest.criterion{number}_s"] = (time.perf_counter() - start, "s")
    return metrics


def collect(qr, runner: workloads.CliRunner, seed: int) -> tuple[dict, list]:
    """Every per-layer metric, as name -> (value, unit), and the CLI outcomes."""
    metrics = {}
    metrics.update(engine_layers(qr))
    metrics.update(trace_overhead(qr))
    metrics.update(analytic_layer(qr))
    metrics.update(montecarlo_layer(qr))
    metrics.update(import_layer(runner.env))
    cli_metrics, cli_outcomes = cli_layer(runner, seed)
    metrics.update(cli_metrics)
    metrics.update(selftest_layer())
    return metrics, cli_outcomes
