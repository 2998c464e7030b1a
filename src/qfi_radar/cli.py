"""Command-line front end.

Subcommands: ``qfi`` (information-matrix tables), ``curves``
(uncertainty-product floors vs correlation, CSV/JSON/SVG), ``oracle-check``
(adjudication of the closed forms against the numerical engine),
``simulate`` (Monte Carlo QCRB saturation), ``scenario`` (end-to-end radar
estimation), and ``selftest`` (the built-in acceptance suite).

Exit codes: 0 success, 1 check failure, 2 usage error (a sampling
subcommand run without numpy is one), 3 I/O error.
Config precedence: flags > ``--config`` JSON file > defaults.

``simulate`` and ``scenario`` import ``montecarlo`` and ``selftest`` imports
``selftest`` when they run, so the other subcommands never load either.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .analytic import adjudicate, asymptotic_H, asymptotic_bound, bound_product
from .kinematics import MC_STRATEGIES, SCENARIOS, ParameterPair, ProbeConfig, Strategy, Target
from .oracle import model_for, qfi_numeric

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3

# chance that every simulate row's interval holds at once for a correct sampler
SIMULATE_FAMILY_LEVEL = 0.99

# the largest kappa grid a subcommand accepts
MAX_KAPPA_POINTS = 100_000

# setting -> (default, choices or None, help or None): each flag and config key
# takes its type, choices and help from here, unless COMMANDS narrows its choices
SETTINGS = {
    "kappa_min": (-0.95, None, None),
    "kappa_max": (0.95, None, None),
    "kappa_step": (0.05, None, None),
    "sigma": (1.0, None, None),
    "strategy": ("all", [s.value for s in Strategy] + ["all"], None),
    "pair": ("both", [p.value for p in ParameterPair] + ["both"], None),
    "n": (100_000, None, "draws per domain (simulate) or shots over both domains (scenario)"),
    "seed": (0, None, None),
    "out": (".", None, "output directory (default: current directory)"),
    "format": ("csv", ["csv", "json"], None),
    "t_minus": (1.0, None, "branch time separation for mixed-state verdicts"),
    "omega_minus": (0.8, None, "branch frequency separation for mixed-state verdicts"),
    "omega0": (10.0, None, None),
    "scenario": ("multibody", list(SCENARIOS), None),
    "kappa": (-0.9, None, "probe time correlation"),
    "r1": (300.0, None, None),
    "r2": (500.0, None, None),
    "v1": (0.0, None, None),
    "v2": (0.0, None, None),
}


def fmt(x) -> str:
    """Shortest round-trip decimal representation, locale-independent."""
    return repr(float(x))


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag values over config-file values over defaults.

    Only the settings the subcommand reads are merged.  Each value must have
    its default's type (an int counts as a float; a bool counts as neither),
    a float must be finite, and a value with choices must be one of them.
    """
    settings = _settings(args.command)
    merged = {key: default for key, (default, _choices, _help) in settings.items()}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read config file: {exc}") from exc
        try:
            loaded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            merged[key] = value
    for key in settings:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    for key, value in merged.items():
        default, choices, _help = settings[key]
        kind = type(default)
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
        if kind is float:
            value = merged[key] = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if choices is not None and value not in choices:
            raise ValueError(f"{key} must be one of {choices}, got {value!r}")
    return merged


def kappa_grid(cfg: dict) -> list[float]:
    lo, hi, step = cfg["kappa_min"], cfg["kappa_max"], cfg["kappa_step"]
    if step <= 0:
        raise ValueError(f"--kappa-step must be positive, got {step}")
    if not (-1.0 < lo < 1.0 and -1.0 < hi < 1.0):
        raise ValueError("kappa grid must lie inside (-1, 1)")
    if lo > hi:
        raise ValueError(f"empty kappa grid: min {lo} > max {hi}")
    # each value is the decimal it names (-0.9, not -0.95 + 0.05 = -0.8999999999999999),
    # and the grid holds every such value from min up to max, none past it
    lo_exact, step_exact = Fraction(repr(lo)), Fraction(repr(step))
    count = (Fraction(repr(hi)) - lo_exact) // step_exact + 1
    # counted before any point is built: a tiny step would otherwise run unbounded
    if count > MAX_KAPPA_POINTS:
        raise ValueError(f"--kappa-step {step} gives more than {MAX_KAPPA_POINTS} kappa points")
    return [float(lo_exact + i * step_exact) for i in range(count)]


def selected_strategies(cfg: dict) -> list[Strategy]:
    name = cfg["strategy"]
    return list(Strategy) if name == "all" else [Strategy(name)]


def selected_pairs(cfg: dict) -> list[ParameterPair]:
    name = cfg["pair"]
    return list(ParameterPair) if name == "both" else [ParameterPair(name)]


def _outdir(cfg: dict) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else fmt(cell) for cell in row))
            fh.write("\n")


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_table(cfg: dict, name: str, header: list[str], rows: list[list]) -> None:
    """Write ``rows`` to <name>.jsonl under ``--format json``, else <name>.csv."""
    out = _outdir(cfg)
    if cfg["format"] == "json":
        path = os.path.join(out, name + ".jsonl")
        write_jsonl(path, [dict(zip(header, row)) for row in rows])
    else:
        path = os.path.join(out, name + ".csv")
        write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows to {path}")


# ---------------------------------------------------------------------------
# minimal SVG emitter


def render_svg(title: str, xlabel: str, ylabel: str, series: list[tuple]) -> str:
    """Render labeled polyline curves as a standalone SVG 1.1 document."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 160, 40, 55
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    xmin, xmax = min(xs_all), max(xs_all)
    ymin, ymax = min(ys_all), max(ys_all)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def sx(x: float) -> float:
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb)

    def ticks(lo: float, hi: float) -> list[float]:
        # five evenly spaced ticks, the last exactly hi
        return [lo + i * ((hi - lo) / 4) for i in range(4)] + [hi]

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.1f})">{ylabel}</text>',
    ]
    for xt in ticks(xmin, xmax):
        px = sx(xt)
        parts.append(
            f'<line x1="{px:.2f}" y1="{height - mb}" x2="{px:.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt:.3g}</text>'
        )
    for yt in ticks(ymin, ymax):
        py = sy(yt)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yt:.3g}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>'
        )
        ly = mt + 18 * (idx + 1)
        lx = width - mr + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_qfi(cfg: dict) -> int:
    header = ["strategy", "pair", "kappa", "sigma", "H11", "H22", "bound", "residual"]
    rows = []
    kappas, sigma = kappa_grid(cfg), cfg["sigma"]
    for strategy in selected_strategies(cfg):
        for pair in selected_pairs(cfg):
            for kappa in kappas:
                h11, h22 = asymptotic_H(strategy, pair, kappa, sigma)
                bound = bound_product(h11, h22)
                # at t_minus = 50/sigma two branches are orthogonal to float precision,
                # and one branch does not depend on where its photons sit
                model = model_for(strategy, sigma1=sigma, kappa=kappa, t_minus=50.0 / sigma)
                residual = qfi_numeric(model, pair).compat_residual
                rows.append(
                    [strategy.value, pair.value, kappa, sigma, h11, h22, bound, residual]
                )
    write_table(cfg, "qfi", header, rows)
    return EXIT_OK


def cmd_curves(cfg: dict) -> int:
    kappas = kappa_grid(cfg)
    header = ["kappa"] + [s.value for s in Strategy]
    for pair in selected_pairs(cfg):
        columns = [[asymptotic_bound(s, pair, k) for k in kappas] for s in Strategy]
        name = f"curves_{pair.value}"
        write_table(cfg, name, header, list(zip(kappas, *columns)))
        if cfg["format"] == "svg":
            series = [(s.value, kappas, col) for s, col in zip(Strategy, columns)]
            svg = render_svg(f"uncertainty-product floor, {pair.value}", "kappa",
                             "Min[da db]", series)
            path = os.path.join(cfg["out"], name + ".svg")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(svg)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle_check(cfg: dict) -> int:
    records = []
    sigma, t_minus, omega_minus = cfg["sigma"], cfg["t_minus"], cfg["omega_minus"]
    strategies = selected_strategies(cfg)
    kappas = kappa_grid(cfg)
    for pair in selected_pairs(cfg):
        for kappa in kappas:
            for strategy in strategies:
                if strategy is Strategy.TWO_SINGLE_PHOTONS and kappa != kappas[0]:
                    continue  # no correlation parameter; one row per pair suffices
                records.extend(
                    adjudicate(
                        strategy,
                        pair,
                        sigma=sigma,
                        kappa=kappa,
                        t_minus=t_minus,
                        omega_minus=omega_minus,
                    )
                )
    out = _outdir(cfg)
    path = os.path.join(out, "verdicts.jsonl")
    write_jsonl(path, records)
    confirmed = sum(1 for r in records if r["verdict"] == "confirmed")
    refuted = len(records) - confirmed
    print(f"wrote {len(records)} verdicts to {path}: {confirmed} confirmed, {refuted} refuted")
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    from .montecarlo import measure_pair, variance_interval

    sigma, n, seed = cfg["sigma"], cfg["n"], cfg["seed"]
    # measure_pair's first McConfig refuses an n below 2 or a strategy Monte
    # Carlo cannot sample; row i draws time at seed + 2i and frequency at seed + 2i + 1
    strategies = MC_STRATEGIES if cfg["strategy"] == "all" else selected_strategies(cfg)
    pairs, kappas = selected_pairs(cfg), kappa_grid(cfg)
    # Sidak: each of the run's rows gets confidence level**(1/rows), so a
    # correct sampler fails the whole run with probability 1 - level
    level = SIMULATE_FAMILY_LEVEL ** (1.0 / (len(strategies) * len(pairs) * len(kappas) * 2))
    header = [
        "strategy", "pair", "domain", "kappa", "sigma", "n", "seed",
        "estimate", "variance", "qcrb", "ratio", "ci_lo", "ci_hi", "ok",
    ]
    rows = []
    failures = []
    row_seed = seed
    for strategy in strategies:
        for pair in pairs:
            for kappa in kappas:
                reports = measure_pair(strategy, pair, kappa, sigma, n, row_seed)
                for domain, rep in zip(("time", "frequency"), reports):
                    lo, hi = variance_interval(rep.variance, n, 1.0 - level)
                    ok = lo <= rep.qcrb_variance <= hi
                    rows.append(
                        [
                            strategy.value, pair.value, domain, kappa, sigma,
                            str(n), str(row_seed), rep.estimate, rep.variance,
                            rep.qcrb_variance, rep.ratio, lo, hi,
                            "true" if ok else "false",
                        ]
                    )
                    if not ok:
                        failures.append(
                            f"{strategy.value}/{pair.value}/{domain} kappa={fmt(kappa)}: "
                            f"QCRB {fmt(rep.qcrb_variance)} outside {fmt(level)} interval "
                            f"[{fmt(lo)}, {fmt(hi)}]"
                        )
                    row_seed += 1
    write_table(cfg, "simulate", header, rows)
    if failures:
        for line in failures:
            print(f"saturation check failed: {line}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_scenario(cfg: dict) -> int:
    from .montecarlo import run_scenario

    probe = ProbeConfig(
        omega0=cfg["omega0"], sigma0=cfg["sigma"], kappa=cfg["kappa"],
        strategy=Strategy(cfg["strategy"]),
    )
    report = run_scenario(
        cfg["scenario"],
        (Target(cfg["r1"], cfg["v1"]), Target(cfg["r2"], cfg["v2"])),
        probe,
        cfg["n"],
        cfg["seed"],
    )
    out = _outdir(cfg)
    path = os.path.join(out, "scenario.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key, value in report["estimates"].items():
        print(
            f"{key}: {value!r} +/- {report['std_errors'][key]!r} "
            f"(truth {report['truth'][key]!r}, "
            f"predicted QCRB s.e. {report['predicted_qcrb_std_errors'][key]!r})"
        )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_selftest(as_json: bool) -> int:
    from .selftest import run_selftest

    code, records = run_selftest()
    if as_json:
        print(json.dumps(records, indent=2))
        return code
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"criterion {rec['criterion']} [{status}] {rec['name']} "
              f"({rec['seconds']:.2f}s): {rec['detail']}")
    return code


# ---------------------------------------------------------------------------
# argument parsing


_GRID = ("kappa_min", "kappa_max", "kappa_step")

# subcommand -> (runner, help, the settings it reads, the choices it narrows):
# it registers a flag and accepts a config key for these settings only, and a
# narrowed setting defaults to its first choice
COMMANDS = {
    "qfi": (cmd_qfi, "information-matrix table over a kappa grid",
            (*_GRID, "sigma", "strategy", "pair", "out", "format"), {}),
    "curves": (cmd_curves, "uncertainty-product floors vs kappa",
               (*_GRID, "pair", "out", "format"), {"format": ["csv", "json", "svg"]}),
    "oracle-check": (cmd_oracle_check, "adjudicate closed forms against the engine",
                     (*_GRID, "sigma", "strategy", "pair", "t_minus", "omega_minus", "out"), {}),
    "simulate": (cmd_simulate, "Monte Carlo QCRB saturation campaign",
                 (*_GRID, "sigma", "strategy", "pair", "n", "seed", "out", "format"), {}),
    # scenario samples one probe: a strategy run_scenario runs
    "scenario": (cmd_scenario, "end-to-end radar estimation",
                 ("scenario", "r1", "r2", "v1", "v2", "omega0", "sigma", "kappa", "strategy",
                  "n", "seed", "out"), {"strategy": [s.value for s in MC_STRATEGIES]}),
}


def _settings(command: str) -> dict:
    """Each setting ``command`` reads -> its (default, choices, help), as narrowed."""
    _run, _help, keys, narrowed = COMMANDS[command]
    return {key: (narrowed[key][0], narrowed[key], SETTINGS[key][2]) if key in narrowed
            else SETTINGS[key] for key in keys}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfi-radar",
        description="Quantum Fisher information toolkit for two-photon Doppler radar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_run, help_text, _keys, _narrowed) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="flat JSON config file; flags take precedence")
        for key, (default, choices, setting_help) in _settings(command).items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                            choices=choices, help=setting_help)

    sp = sub.add_parser("selftest", help="run the built-in acceptance suite")
    sp.add_argument("--json", action="store_true", help="emit machine-readable results")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest(args.json)
        return COMMANDS[args.command][0](_resolve(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # an input so extreme that a formula under- or overflows, e.g. --sigma 1e-200
        print(f"error: input out of numerical range ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return EXIT_USAGE
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        # simulate, scenario and selftest sample; the other subcommands need no numpy
        print(f"error: {args.command} needs numpy, which is not installed", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a draw too large to allocate, e.g. scenario --n 100000000000
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
