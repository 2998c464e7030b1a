"""Mutation canary for the benchmark's output checks.

Run from the root of a source checkout:

    python3 bench/canary.py

It produces genuine outputs from the program (engine results, samples and
estimates, the default CLI files), shows that each check accepts them apart
from the known faults, then feeds each check a slightly corrupted copy and
shows that the check flags it with a problem no known fault explains.  Exits
0 when every check accepts its genuine output and flags every corruption.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys

import numpy as np

import checks

def unexpected(problems) -> int:
    return sum(1 for p in problems if p.fault is None)


def set_csv_cell(text: str, row: int, column: int, value) -> str:
    """Replace one cell; ``value(old)`` gives the new number."""
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(value(float(cells[column])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_line(text: str, index: int) -> str:
    lines = text.splitlines()
    del lines[index]
    return "\n".join(lines) + "\n"


def edit_jsonl(text: str, index: int, edit) -> str:
    records = [json.loads(line) for line in text.splitlines()]
    edit(records[index])
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def edit_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def engine_cases(qr) -> list:
    from qfi_radar.oracle import model_for, qfi_numeric

    def results_at(point):
        out = {}
        for strategy in qr.Strategy:
            model = model_for(strategy, sigma1=point["sigma"], kappa=point["kappa"],
                              t_minus=point["t_minus"], omega_minus=point["omega_minus"])
            for pair in qr.ParameterPair:
                out[(strategy.value, pair.value)] = qfi_numeric(model, pair).H
        return out

    near = {"sigma": 1.0, "kappa": -0.5, "t_minus": 1.0, "omega_minus": 0.0}
    far = {"sigma": 1.0, "kappa": 0.6, "t_minus": 100.0, "omega_minus": 0.8}
    genuine = {"near": results_at(near), "far": results_at(far)}
    points = {"near": near, "far": far}

    def corrupt(which, key, edit):
        def make():
            res = {k: np.array(v, dtype=float) for k, v in genuine[which].items()}
            edit(res[key])
            return points[which], res
        return make

    def scale(factor):
        def edit(H):
            H *= factor
        return edit

    def skew(H):
        H[0, 1] += 1e-3 * H[0, 0]

    def not_psd(H):
        H[0, 1] = H[1, 0] = 2.0 * np.sqrt(H[0, 0] * H[1, 1])

    ent, tsp, qi = checks.ENT, checks.TSP, checks.QI
    a, b = checks.PAIR_A, checks.PAIR_B
    return [
        ("engine: entangled H x (1+1e-6)", checks.check_engine_point,
         (near, genuine["near"]), corrupt("near", (ent, a), scale(1 + 1e-6))),
        ("engine: single photons H x (1+1e-6) above convexity bound", checks.check_engine_point,
         (far, genuine["far"]), corrupt("far", (tsp, b), scale(1 + 1e-6))),
        ("engine: QI H x (1-1e-6) misses separated-branch value", checks.check_engine_point,
         (far, genuine["far"]), corrupt("far", (qi, a), scale(1 - 1e-6))),
        ("engine: single photons H(t_minus) x (1-1e-6) at omega_minus=0",
         checks.check_engine_point, (near, genuine["near"]),
         corrupt("near", (tsp, b), scale(1 - 1e-6))),
        ("engine: asymmetric H", checks.check_engine_point,
         (far, genuine["far"]), corrupt("far", (qi, b), skew)),
        ("engine: H not PSD", checks.check_engine_point,
         (far, genuine["far"]), corrupt("far", (tsp, a), not_psd)),
    ]


def mc_cases(qr) -> list:
    n = 100_000
    cell = {"strategy": checks.ENT, "pair": checks.PAIR_A, "kappa": -0.5, "sigma": 1.0,
            "n": n, "centers": (0.3, -0.2), "carriers": (1.0, 1.5)}
    entries = checks.strategy_H(cell["strategy"], cell["pair"], cell["kappa"], cell["sigma"])
    state = qr.GaussianBiphoton(*cell["centers"], *cell["carriers"], 1.0, 1.0, cell["kappa"])
    pair = qr.ParameterPair(cell["pair"])
    samples = qr.sample_times(state, qr.McConfig(n, 11, "time"))
    report = qr.estimate_pair(samples, pair, "time", entries[0])
    args = (cell, "time", samples, report, entries[0])
    center = samples.mean(axis=0)

    def with_report(**changes):
        return lambda: (cell, "time", samples,
                        dataclasses.replace(report, **changes), entries[0])

    def with_samples(new):
        def make():
            new_samples = new()
            return (cell, "time", new_samples,
                    qr.estimate_pair(new_samples, pair, "time", entries[0]), entries[0])
        return make

    shift = 10.0 * np.sqrt(report.variance / n) / 2.0
    return [
        ("mc: reported variance x 1.05", checks.check_mc_domain, args,
         with_report(variance=report.variance * 1.05)),
        ("mc: reported mean off np.mean", checks.check_mc_domain, args,
         with_report(estimate=report.estimate + 1e-6)),
        ("mc: QCRB variance x (1+1e-6)", checks.check_mc_domain, args,
         with_report(qcrb_variance=report.qcrb_variance * (1 + 1e-6))),
        ("mc: sample variance x 1.05", checks.check_mc_domain, args,
         with_samples(lambda: center + (samples - center) * np.sqrt(1.05))),
        ("mc: sample mean moved by 10 standard errors", checks.check_mc_domain, args,
         with_samples(lambda: samples + shift)),
        ("mc: one sample row dropped", checks.check_mc_domain, args,
         with_samples(lambda: samples[1:])),
    ]


def cli_outputs(out: str) -> dict:
    """Run the default CLI calls in-process and collect what they wrote."""
    import qfi_radar.cli as cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()

    def read(name):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            return fh.read()

    files = {}
    for argv in (["qfi"], ["curves", "--format", "svg"], ["oracle-check"]):
        run([*argv, "--out", out])
    files["simulate_rc"], _ = run(["simulate", "--seed", "5", "--out", out])
    files["simulate.csv"] = read("simulate.csv")
    for scenario in ("multibody", "moving_object"):
        run(["scenario", "--scenario", scenario, "--seed", "9", "--out", out])
        files[scenario] = read("scenario.json")
    files["selftest_rc"], files["selftest"] = run(["selftest", "--json"])
    for name in ("qfi.csv", "verdicts.jsonl", *(f"curves_{p}.{ext}" for p in checks.PAIRS
                                                for ext in ("csv", "svg"))):
        files[name] = read(name)
    return files


def cli_cases(files: dict) -> list:
    pa = checks.PAIR_A
    curves, svg = files[f"curves_{pa}.csv"], files[f"curves_{pa}.svg"]
    qfi, verdicts, sim = files["qfi.csv"], files["verdicts.jsonl"], files["simulate.csv"]
    mb, mo = files["multibody"], files["moving_object"]
    selftest = (files["selftest"], files["selftest_rc"])
    ref_mb = checks.scenario_reference("multibody")["exact_se"]
    ref_mo = checks.scenario_reference("moving_object")["exact_se"]
    first_polyline = next(i for i, line in enumerate(svg.splitlines())
                          if line.startswith("<polyline"))

    def flip(rec):
        rec["verdict"] = "refuted" if rec["verdict"] == "confirmed" else "confirmed"

    def bump_paper(rec):
        rec["paper_value"] *= 1 + 1e-6

    def move(key, se):
        def edit(report):
            report["estimates"][key] += 10.0 * se
        return edit

    def widen(key):
        def edit(report):
            report["std_errors"][key] *= 1.1
        return edit

    def fail_one(records):
        records[2]["passed"] = False

    return [
        ("qfi.csv: a row dropped", checks.check_qfi_csv, (qfi,), lambda: (drop_line(qfi, 5),)),
        ("qfi.csv: H11 x (1+1e-6)", checks.check_qfi_csv, (qfi,),
         lambda: (set_csv_cell(qfi, 100, 4, lambda x: x * (1 + 1e-6)),)),
        ("qfi.csv: residual 1e-6", checks.check_qfi_csv, (qfi,),
         lambda: (set_csv_cell(qfi, 200, 7, lambda x: 1e-6),)),
        ("curves csv: a row dropped", checks.check_curves_csv, (curves, pa),
         lambda: (drop_line(curves, 10), pa)),
        ("curves csv: QI floor x (1+1e-6)", checks.check_curves_csv, (curves, pa),
         lambda: (set_csv_cell(curves, 7, 3, lambda x: x * (1 + 1e-6)), pa)),
        ("curves svg: truncated", checks.check_svg, (svg,), lambda: (svg[:-8],)),
        ("curves svg: a polyline removed", checks.check_svg, (svg,),
         lambda: (drop_line(svg, first_polyline),)),
        ("verdicts: a record dropped", checks.check_verdicts, (verdicts,),
         lambda: (drop_line(verdicts, 40),)),
        ("verdicts: a verdict flipped", checks.check_verdicts, (verdicts,),
         lambda: (edit_jsonl(verdicts, 200, flip),)),
        ("verdicts: entangled paper value x (1+1e-6)", checks.check_verdicts, (verdicts,),
         lambda: (edit_jsonl(verdicts, 0, bump_paper),)),
        ("simulate.csv: a variance x 1.05", checks.check_simulate_csv,
         (sim, files["simulate_rc"], 5), lambda: (set_csv_cell(sim, 3, 8, lambda x: x * 1.05),
                                                  files["simulate_rc"], 5)),
        ("simulate.csv: a row dropped", checks.check_simulate_csv,
         (sim, files["simulate_rc"], 5), lambda: (drop_line(sim, 30), files["simulate_rc"], 5)),
        ("scenario multibody: midpoint moved by 10 s.e.", checks.check_scenario,
         (mb, "multibody", 9),
         lambda: (edit_json(mb, move("midpoint", ref_mb["midpoint"])), "multibody", 9)),
        ("scenario moving_object: size moved by 10 s.e.", checks.check_scenario,
         (mo, "moving_object", 9),
         lambda: (edit_json(mo, move("size", ref_mo["size"])), "moving_object", 9)),
        ("scenario moving_object: velocity s.e. x 1.1", checks.check_scenario,
         (mo, "moving_object", 9),
         lambda: (edit_json(mo, widen("velocity")), "moving_object", 9)),
        ("selftest: one criterion failed", checks.check_selftest, selftest,
         lambda: (edit_json(selftest[0], fail_one), 1)),
    ]


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qfi_radar", "__init__.py")):
        print(f"error: no qfi_radar package under {src}", file=sys.stderr)
        return 2
    os.environ.pop("QFI_RADAR_SELFTEST_MUTATE", None)
    sys.path.insert(0, src)
    import qfi_radar

    out = os.path.join(root, ".bench_out", f"canary-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    try:
        cases = engine_cases(qfi_radar) + mc_cases(qfi_radar) + cli_cases(cli_outputs(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(out))

    ok = True
    for name, check, genuine, corrupt in cases:
        base = unexpected(check(*genuine))
        bad = unexpected(check(*corrupt()))
        good = base == 0 and bad > 0
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  {name}: genuine {base}, corrupted {bad} "
              f"unexplained problem(s)")
    print("canary: every check flags its corruption" if ok else "canary: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
