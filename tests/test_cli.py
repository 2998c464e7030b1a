"""Command-line interface contract tests: formats, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

import qfi_radar
from qfi_radar import cli, montecarlo, selftest
from qfi_radar.analytic import asymptotic_H
from qfi_radar.cli import kappa_grid, main
from qfi_radar.kinematics import ParameterPair, Strategy
from qfi_radar.oracle import model_for, qfi_numeric

ROOT3_2 = math.sqrt(3.0) / 2.0
SVG = "{http://www.w3.org/2000/svg}"
# every setting's default
DEFAULTS = {key: default for key, (default, _choices, _help) in cli.SETTINGS.items()}


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def csv_rows(path):
    lines = read(path).splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def broaden_single_photon_marginals(monkeypatch):
    """Put back a sampler fault simulate must catch: two single photons drawn
    from the biphoton's kappa-broadened marginals, not the kappa = 0 state."""
    real = montecarlo._sampling_moments

    def broadened(state, config):
        mean, cov = real(state, dataclasses.replace(config, strategy=Strategy.ENTANGLED_BIPHOTON))
        if config.strategy is Strategy.TWO_SINGLE_PHOTONS:
            cov = np.diag(np.diag(cov))
        return mean, cov

    monkeypatch.setattr(montecarlo, "_sampling_moments", broadened)


class TestQfi:
    def test_header_and_reference_row(self, tmp_path):
        code = main([
            "qfi", "--strategy", "entangled_biphoton", "--pair", "time_sum_freq_diff",
            "--kappa-min", "0", "--kappa-max", "0", "--kappa-step", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = csv_rows(tmp_path / "qfi.csv")
        assert header == ["strategy", "pair", "kappa", "sigma", "H11", "H22", "bound", "residual"]
        assert len(rows) == 1
        row = rows[0]
        assert float(row["H11"]) == 2.0
        assert float(row["H22"]) == 0.5
        assert float(row["bound"]) == 1.0
        assert float(row["residual"]) <= 1e-8

    def test_residual_is_the_engine_at_separated_branches(self, tmp_path):
        # every strategy's residual comes from one model: t_minus = 50/sigma
        sigma, kappa = 0.5, -0.6
        code = main([
            "qfi", "--sigma", str(sigma), "--kappa-min", str(kappa), "--kappa-max", str(kappa),
            "--kappa-step", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = csv_rows(tmp_path / "qfi.csv")
        assert len(rows) == 6
        for row in rows:
            model = model_for(Strategy(row["strategy"]), sigma1=sigma, kappa=kappa,
                              t_minus=50.0 / sigma)
            res = qfi_numeric(model, ParameterPair(row["pair"]))
            assert row["residual"] == repr(res.compat_residual)

    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kappa", [-0.95, 0.0, 0.6])
    def test_entangled_engine_ignores_the_separation(self, sigma, kappa):
        # one branch: where its photons sit changes neither H nor the residual
        for pair in ParameterPair:
            at_zero = qfi_numeric(model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=sigma,
                                            kappa=kappa), pair)
            apart = qfi_numeric(model_for(Strategy.ENTANGLED_BIPHOTON, sigma1=sigma,
                                          kappa=kappa, t_minus=50.0 / sigma), pair)
            assert np.array_equal(at_zero.H, apart.H)
            assert at_zero.compat_residual == apart.compat_residual

    def test_json_format(self, tmp_path):
        code = main([
            "qfi", "--strategy", "two_single_photons", "--pair", "time_sum_freq_diff",
            "--kappa-min", "0", "--kappa-max", "0", "--kappa-step", "1",
            "--format", "json", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "qfi.jsonl").splitlines()
        rec = json.loads(lines[0])
        assert rec["bound"] == 1.0

    def test_empty_grid_usage_error(self, tmp_path):
        code = main([
            "qfi", "--kappa-min", "0.5", "--kappa-max", "-0.5", "--kappa-step", "0.1",
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_min_just_above_max_usage_error(self, tmp_path, capsys):
        # no point of the grid may pass max, however small the excess
        code = main([
            "qfi", "--kappa-min", "0.5000000000001", "--kappa-max", "0.5",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: empty kappa grid: min 0.5000000000001 > max 0.5\n")
        assert not (tmp_path / "qfi.csv").exists()

    def test_grid_stops_at_max(self):
        # 0.3 lies past a max of 0.2999999999999, so the grid ends at 0.2
        assert kappa_grid(dict(DEFAULTS, kappa_min=0.0, kappa_max=0.2999999999999,
                               kappa_step=0.1)) == [0.0, 0.1, 0.2]
        assert kappa_grid(dict(DEFAULTS, kappa_min=0.0, kappa_max=0.3,
                               kappa_step=0.1)) == [0.0, 0.1, 0.2, 0.3]

    def test_bad_step_usage_error(self, tmp_path):
        code = main([
            "qfi", "--kappa-min", "0", "--kappa-max", "0.5", "--kappa-step", "-0.1",
            "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_step_usage_error(self, step, tmp_path):
        code = main([
            "qfi", "--kappa-min", "0", "--kappa-max", "0.5", "--kappa-step", step,
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_oversized_grid_usage_error(self):
        # -0.95..0.95 at 1e-5 is 190 001 points; the limit is 100 000
        with pytest.raises(ValueError, match="more than 100000 kappa points"):
            kappa_grid(dict(DEFAULTS, kappa_step=1e-5))
        assert len(kappa_grid(dict(DEFAULTS, kappa_min=0.0, kappa_max=0.99999,
                                   kappa_step=1e-5))) == cli.MAX_KAPPA_POINTS

    def test_tiny_step_exits_2_without_building_the_grid(self, tmp_path):
        src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "qfi_radar.cli", "curves", "--kappa-step", "1e-300",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert len(out.stderr.splitlines()) == 1

    def test_default_kappa_grid_holds_the_decimals_it_names(self):
        grid = kappa_grid(DEFAULTS)
        assert grid == [float(Fraction(i - 19, 20)) for i in range(39)]
        assert repr(grid[1]) == "-0.9"

    def test_kappa_bound_outside_open_interval(self, tmp_path, capsys):
        assert main(["qfi", "--kappa-min", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: kappa grid must lie inside (-1, 1)\n"

    def test_kappa_grid_built_once(self, tmp_path, monkeypatch):
        # one grid serves every (strategy, pair); a 100 000-point grid takes
        # about 0.4 s to build
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return kappa_grid(cfg)

        monkeypatch.setattr(cli, "kappa_grid", counted)
        assert main(["qfi", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_svg_rejected_for_tables(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["qfi", "--format", "svg", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestCurves:
    def test_reference_values(self, tmp_path):
        code = main([
            "curves", "--pair", "time_sum_freq_diff",
            "--kappa-min", "-0.6", "--kappa-max", "0.6", "--kappa-step", "0.6",
            "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = csv_rows(tmp_path / "curves_time_sum_freq_diff.csv")
        assert header == [
            "kappa", "entangled_biphoton", "two_single_photons", "quantum_illumination",
        ]
        by_kappa = {float(r["kappa"]): r for r in rows}
        assert float(by_kappa[0.0]["entangled_biphoton"]) == 1.0
        assert float(by_kappa[0.0]["two_single_photons"]) == 1.0
        assert float(by_kappa[0.0]["quantum_illumination"]) == 2.0
        assert float(by_kappa[-0.6]["entangled_biphoton"]) == pytest.approx(0.5, abs=1e-15)

    def test_qi_crossover_row(self, tmp_path):
        code = main([
            "curves", "--pair", "time_sum_freq_diff",
            "--kappa-min", str(ROOT3_2), "--kappa-max", str(ROOT3_2), "--kappa-step", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = csv_rows(tmp_path / "curves_time_sum_freq_diff.csv")
        assert float(rows[0]["quantum_illumination"]) == pytest.approx(1.0, abs=1e-12)

    def test_svg_output(self, tmp_path):
        code = main([
            "curves", "--kappa-min", "-0.9", "--kappa-max", "0.9", "--kappa-step", "0.1",
            "--format", "svg", "--out", str(tmp_path),
        ])
        assert code == 0
        svg = read(tmp_path / "curves_time_sum_freq_diff.svg")
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3
        assert "entangled_biphoton" in svg  # legend labels present

    def test_svg_one_point_grid(self, tmp_path):
        # a one-point kappa grid has a degenerate x axis; the plot still parses
        code = main([
            "curves", "--kappa-min", "0.5", "--kappa-max", "0.5", "--kappa-step", "1",
            "--format", "svg", "--out", str(tmp_path),
        ])
        assert code == 0
        svg = read(tmp_path / "curves_time_sum_freq_diff.svg")
        root = ET.fromstring(svg)
        assert len(root.findall(SVG + "polyline")) == 3
        assert "nan" not in svg

    def test_svg_flat_series(self):
        # a flat series has a degenerate y axis; the plot still parses
        svg = cli.render_svg("t", "x", "y", [("flat", [-0.5, 0.0, 0.5], [1.0, 1.0, 1.0])])
        (line,) = ET.fromstring(svg).findall(SVG + "polyline")
        ys = {y for _, y in (p.split(",") for p in line.get("points").split())}
        assert len(ys) == 1
        assert "nan" not in svg

    def test_floors_match_qfi_bounds(self, tmp_path):
        # one closed form for the floor: every default qfi bound (sigma = 1)
        # is the curves value of its strategy, pair and kappa, to the bit
        assert main(["qfi", "--out", str(tmp_path)]) == 0
        assert main(["curves", "--out", str(tmp_path)]) == 0
        _, qfi_rows = csv_rows(tmp_path / "qfi.csv")
        floors = {}
        for pair in ("time_sum_freq_diff", "time_diff_freq_sum"):
            header, rows = csv_rows(tmp_path / f"curves_{pair}.csv")
            for row in rows:
                for strategy in header[1:]:
                    floors[strategy, pair, row["kappa"]] = row[strategy]
        assert len(qfi_rows) == len(floors) == 234
        mismatched = [r for r in qfi_rows
                      if r["bound"] != floors[r["strategy"], r["pair"], r["kappa"]]]
        assert not mismatched

    def test_json_matches_csv(self, tmp_path):
        # --format json writes the CSV's rows, one object per row keyed by its header
        assert main(["curves", "--out", str(tmp_path / "csv")]) == 0
        assert main(["curves", "--format", "json", "--out", str(tmp_path / "json")]) == 0
        for pair in ("time_sum_freq_diff", "time_diff_freq_sum"):
            _, rows = csv_rows(tmp_path / "csv" / f"curves_{pair}.csv")
            lines = read(tmp_path / "json" / f"curves_{pair}.jsonl").splitlines()
            records = [json.loads(line) for line in lines]
            assert len(records) == len(rows)
            for row, record in zip(rows, records):
                assert {key: float(value) for key, value in row.items()} == record

    def test_deterministic_output(self, tmp_path):
        args = [
            "curves", "--kappa-min", "-0.5", "--kappa-max", "0.5", "--kappa-step", "0.25",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        assert read(d1 / "curves_time_sum_freq_diff.csv") == read(
            d2 / "curves_time_sum_freq_diff.csv"
        )

    def test_unwritable_out_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main([
            "curves", "--kappa-min", "0", "--kappa-max", "0", "--kappa-step", "1",
            "--out", str(blocker / "sub"),
        ])
        assert code == 3


class TestOracleCheck:
    def test_verdict_schema_and_summary(self, tmp_path, capsys):
        code = main([
            "oracle-check", "--kappa-min", "0.6", "--kappa-max", "0.6", "--kappa-step", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "verdicts.jsonl").splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {
                "strategy", "pair", "params", "paper_value", "oracle_value",
                "rel_diff", "verdict",
            }
        out = capsys.readouterr().out
        assert "confirmed" in out and "refuted" in out

    def test_entangled_rows_confirmed(self, tmp_path):
        code = main([
            "oracle-check", "--strategy", "entangled_biphoton",
            "--kappa-min", "-0.5", "--kappa-max", "0.5", "--kappa-step", "0.5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        records = [json.loads(l) for l in read(tmp_path / "verdicts.jsonl").splitlines()]
        assert records
        for rec in records:
            assert rec["verdict"] == "confirmed"
            assert rec["rel_diff"] <= 1e-8
            assert set(rec["params"]) == {"sigma", "kappa", "t_minus", "omega_minus", "entry"}

    def test_near_coincident_branches_adjudicated(self, tmp_path):
        # the published forms divide by e^x - 1 with x ~ t_minus^2 sigma^2
        code = main([
            "oracle-check", "--t-minus", "1e-9", "--omega-minus", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        records = [json.loads(l) for l in read(tmp_path / "verdicts.jsonl").splitlines()]
        assert records
        assert all(math.isfinite(rec["paper_value"]) for rec in records)

    def test_overflowed_printed_form_is_strict_json(self, tmp_path):
        # at t_minus = 30 the printed quantum-illumination frequency-sum entry's
        # growing exponential overflows: strict JSON has no Infinity, so that
        # record reads null and is refuted, and says why under params
        assert main(["oracle-check", "--t-minus", "30", "--out", str(tmp_path)]) == 0

        def no_constant(token):
            raise ValueError(f"non-standard JSON token {token}")

        records = [json.loads(line, parse_constant=no_constant)
                   for line in read(tmp_path / "verdicts.jsonl").splitlines()]
        overflowed = [rec for rec in records if rec["paper_value"] is None]
        assert len(records) == 316 and len(overflowed) == 39
        for rec in records:
            assert len(rec) == 7
            assert rec["params"].get("printed_form_overflowed", False) is (rec in overflowed)
        for rec in overflowed:
            assert rec["rel_diff"] is None and rec["verdict"] == "refuted"
            assert math.isfinite(rec["oracle_value"])

    def test_non_finite_output_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_jsonl(str(tmp_path / "x.jsonl"), [{"x": math.inf}])

    def test_coincident_branches_usage_error(self, tmp_path, capsys):
        # published_mixed_qfi rejects the point; main maps its ValueError to exit 2
        argv = ["oracle-check", "--t-minus", "0", "--omega-minus", "0", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_minus and omega_minus are both 0: ")
        assert "coincide" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "verdicts.jsonl").exists()
        # one branch, nothing to coincide
        assert main(argv + ["--strategy", "entangled_biphoton"]) == 0
        assert (tmp_path / "verdicts.jsonl").exists()


class TestSimulate:
    def test_saturation_pass(self, tmp_path):
        code = main([
            "simulate", "--strategy", "entangled_biphoton", "--pair", "time_sum_freq_diff",
            "--kappa-min", "-0.8", "--kappa-max", "-0.8", "--kappa-step", "1",
            "--n", "20000", "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = csv_rows(tmp_path / "simulate.csv")
        assert len(rows) == 2  # time and frequency domains
        for row in rows:
            assert 0.9 <= float(row["ratio"]) <= 1.1
            assert row["ok"] == "true"

    def test_small_n_still_exits_zero(self, tmp_path):
        code = main([
            "simulate", "--strategy", "entangled_biphoton", "--pair", "time_sum_freq_diff",
            "--kappa-min", "0", "--kappa-max", "0", "--kappa-step", "1",
            "--n", "10", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0

    @pytest.mark.parametrize("sigma", ["1e-16", "1e-15", "1e-14"])
    def test_narrow_bandwidth_passes(self, tmp_path, sigma):
        # the sampler's law is right at any bandwidth, so no row may fail: the
        # frequencies are drawn as offsets from carrier 1, where the float
        # spacing of 2.2e-16 would inflate a spread of sigma by percents
        code = main([
            "simulate", "--sigma", sigma, "--kappa-min", "0", "--kappa-max", "0",
            "--out", str(tmp_path),
        ])
        assert code == 0

    def test_n_below_two_usage_error(self, tmp_path, capsys):
        # McConfig refuses the count before any draw or write
        assert main(["simulate", "--n", "1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: n_samples, the draws per domain, must be an integer from 2 to 10**9, "
            "got 1\n")
        assert not any(tmp_path.iterdir())

    def test_fixed_seed_reproduces_csv(self, tmp_path):
        args = [
            "simulate", "--strategy", "entangled_biphoton", "--pair", "time_sum_freq_diff",
            "--kappa-min", "0", "--kappa-max", "0", "--kappa-step", "1",
            "--n", "5000", "--seed", "3",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        assert read(d1 / "simulate.csv") == read(d2 / "simulate.csv")

    def test_default_run_exits_zero(self, tmp_path):
        # 312 rows at the Sidak per-row level keep a correct sampler's
        # chance of failing the run at 1%
        assert main(["simulate", "--out", str(tmp_path)]) == 0
        header, rows = csv_rows(tmp_path / "simulate.csv")
        assert len(rows) == 312 and all(row["ok"] == "true" for row in rows)

    def test_default_run_flags_broadened_marginals(self, tmp_path, monkeypatch):
        broaden_single_photon_marginals(monkeypatch)
        assert main(["simulate", "--out", str(tmp_path)]) == 1
        header, rows = csv_rows(tmp_path / "simulate.csv")
        failed = {(r["strategy"], r["domain"]) for r in rows if r["ok"] == "false"}
        assert failed == {("two_single_photons", "time")}

    def test_failure_lines_print_plain_floats(self, tmp_path, capsys, monkeypatch):
        # broadened single-photon time marginals put the time row's QCRB
        # outside its interval
        broaden_single_photon_marginals(monkeypatch)
        code = main([
            "simulate", "--strategy", "two_single_photons", "--pair", "time_sum_freq_diff",
            "--kappa-min", "-0.9", "--kappa-max", "-0.9", "--kappa-step", "1",
            "--n", "100", "--seed", "123", "--out", str(tmp_path),
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(line.startswith("saturation check failed") for line in lines)
        assert not any("np.float64" in line for line in lines)

    def test_qi_rejected(self, tmp_path, capsys):
        code = main([
            "simulate", "--strategy", "quantum_illumination", "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: Monte Carlo supports ['entangled_biphoton', 'two_single_photons'], "
            "got quantum_illumination\n")
        assert not any(tmp_path.iterdir())


class TestScenario:
    def test_multibody(self, tmp_path):
        code = main([
            "scenario", "--scenario", "multibody", "--r1", "300", "--r2", "500",
            "--v1", "0", "--v2", "0", "--kappa", "-0.9",
            "--n", "10000", "--seed", "42", "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads(read(tmp_path / "scenario.json"))
        est = report["estimates"]["midpoint"]
        pred = report["predicted_qcrb_std_errors"]["midpoint"]
        assert abs(est - 400.0) <= 3.0 * pred

    def test_moving_object_velocity_mismatch(self, tmp_path, capsys):
        code = main([
            "scenario", "--scenario", "moving_object", "--v1", "0.1", "--v2", "0.2",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: moving_object assumes a rigid body: both targets need one velocity, "
            "got 0.1 and 0.2\n"
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--v1", "1.5", "error: |v| must be below c, got v=1.5\n"),
        ("--r1", "-3", "error: target range must be non-negative, got -3.0\n"),
        ("--omega0", "-1", "error: carrier frequency must be positive\n"),
        ("--sigma", "0", "error: bandwidths must be positive\n"),
    ])
    def test_target_out_of_range(self, flag, value, message, tmp_path, capsys):
        assert main(["scenario", flag, value, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == message

    def test_n_below_four_usage_error(self, tmp_path, capsys):
        # run_scenario refuses the count before any draw or write
        assert main(["scenario", "--n", "3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: n_shots, the shots over both domains, must be an integer of at least 4 "
            "(2 per domain), got 3\n")
        assert not any(tmp_path.iterdir())

    def test_strategy_choice(self, tmp_path):
        # the default is the entangled probe; single photons write their own report
        runs = {
            name: ["scenario", "--n", "1000", "--seed", "7", "--out", str(tmp_path / name)]
            for name in ("default", "entangled_biphoton", "two_single_photons")
        }
        runs["entangled_biphoton"] += ["--strategy", "entangled_biphoton"]
        runs["two_single_photons"] += ["--strategy", "two_single_photons"]
        for argv in runs.values():
            assert main(argv) == 0
        text = {name: read(tmp_path / name / "scenario.json") for name in runs}
        assert text["default"] == text["entangled_biphoton"]
        assert json.loads(text["two_single_photons"])["strategy"] == "two_single_photons"

    @pytest.mark.parametrize("argv", [
        ["--omega0", "1e16"],
        ["--omega0", "1e17"],
        ["--omega0", "1e20"],
        ["--omega0", "1e150"],
        ["--r1", "1e200", "--r2", "1e200"],
        ["--scenario", "moving_object", "--omega0", "1e16"],
    ])
    def test_large_coordinates_keep_error_bars(self, argv, tmp_path):
        # the draws are offsets from the photons' own centers and carriers,
        # so a large carrier or range loses no bandwidth to its float spacing
        assert main(["scenario", *argv, "--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "scenario.json"))
        for key, se in report["std_errors"].items():
            predicted = report["predicted_qcrb_std_errors"][key]
            assert se > 0.0 and abs(se / predicted - 1.0) <= 0.05, (key, se, predicted)
        if "--omega0" in argv:
            # target_estimates takes the mean carrier offset apart from the
            # carrier, so the velocity estimate moves by its own error bar
            key = "velocity" if "moving_object" in argv else "delta_v"
            est, se = report["estimates"][key], report["std_errors"][key]
            assert est != 0.0 and abs(est - report["truth"][key]) <= 5.0 * se, (est, se)

    @pytest.mark.parametrize("argv", [["simulate", "--n", "10000000000"],
                                      ["scenario", "--n", "3000000000"]])
    def test_count_above_bound_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        # McConfig refuses more than 10**9 draws per domain before any draw or
        # write: a chi-square quantile's cost grows as the root of the count
        monkeypatch.setattr(montecarlo, "_draw_statistics", None)
        assert main([*argv, "--out", str(tmp_path)]) == 2
        per_domain = int(argv[2]) // (2 if argv[0] == "scenario" else 1)
        assert capsys.readouterr().err == (
            f"error: n_samples, the draws per domain, must be an integer from 2 to 10**9, "
            f"got {per_domain}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("n", ["4", "5"])
    def test_smallest_counts_run(self, n, tmp_path):
        # at n = 4 the time domain has 2 shots, and its chi-square(n - 2) draw is exactly 0
        assert main(["scenario", "--n", n, "--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "scenario.json"))
        assert report["n_time_shots"] == 2
        assert all(se > 0.0 for se in report["std_errors"].values())


class TestArithmeticErrors:
    @pytest.mark.parametrize("argv", [
        ["qfi", "--sigma", "1e-200"],  # ArithmeticError from the closed form
        ["oracle-check", "--sigma", "1e-200"],  # ArithmeticError from the closed forms
        ["scenario", "--sigma", "1e300"],  # ArithmeticError from the time covariance
        # error bars 1e296 times below the bound's: the linearization fails
        ["scenario", "--sigma", "1e153"],
        # the Doppler slope's square overflows and a delta_v standard error
        # underflows to 0
        ["scenario", "--omega0", "1e200"],
        # the Doppler slope's square underflows to 0
        ["scenario", "--scenario", "moving_object", "--omega0", "1e-300"],
        ["scenario", "--strategy", "two_single_photons", "--sigma", "1e153"],
    ])
    def test_usage_error_without_traceback(self, argv, tmp_path, capsys):
        code = main([*argv, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "scenario.json").exists()

    @pytest.mark.parametrize("omega0, message", [
        # the Doppler slope's square overflows to inf and the slope to 0,
        # which the report's own check refuses
        ("1e200", "scenario std_errors are 0 or more than 1e6 times off the predicted "
                  "QCRB std_errors: "),
        # the square underflows to 0, which the inversion names with its carrier
        ("1e-300", "Doppler inversion is out of float range at carrier omega0 = 1e-300: "
                   "omega0 + omega = 2e-300 squares to 0)\n"),
    ], ids=["overflow", "underflow"])
    def test_doppler_slope_range_names_itself(self, omega0, message, tmp_path, capsys):
        argv = ["scenario", "--scenario", "moving_object", "--omega0", omega0]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert f"ArithmeticError: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["entangled_biphoton", "two_single_photons"])
    def test_linearization_gap_names_itself(self, strategy, tmp_path, capsys):
        # at sigma = 1e153 the frequency spread dwarfs the carrier 10: the
        # Doppler slope at the estimate is some 1e296 times below the slope at
        # the truth, and so are the error bars against the bound's
        assert main(["scenario", "--sigma", "1e153", "--strategy", strategy,
                     "--out", str(tmp_path)]) == 2
        assert ("ArithmeticError: scenario std_errors are 0 or more than 1e6 times off the "
                "predicted QCRB std_errors: " in capsys.readouterr().err)

    @pytest.mark.parametrize("strategy", ["entangled_biphoton", "two_single_photons"])
    def test_narrowest_bandwidth_answers(self, strategy, tmp_path):
        # at sigma = 1e-153 the time covariance is still in float range; the
        # sample-level path overflowed summing squared arrival times near
        # 1e153 and exited 2, while the exact law draws each statistic
        # directly and the error bars match the bound's
        assert main(["scenario", "--sigma", "1e-153", "--strategy", strategy,
                     "--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "scenario.json"))
        for key, se in report["std_errors"].items():
            predicted = report["predicted_qcrb_std_errors"][key]
            assert abs(se / predicted - 1.0) <= 0.05, (key, se, predicted)
            assert abs(report["estimates"][key] - report["truth"][key]) <= 5.0 * se, key

    @pytest.mark.parametrize("strategy", ["entangled_biphoton", "two_single_photons"])
    def test_underflowing_covariance_names_its_range(self, strategy, tmp_path, capsys):
        # each entry of the time covariance divides by 4 (1 - kappa^2) times
        # a product of two bandwidths, which underflows at sigma = 1e-200: the
        # covariance refuses it before any draw, naming itself and the
        # bandwidths, so no NaN covariance reaches the Cholesky factorization
        code = main(["scenario", "--sigma", "1e-200", "--strategy", strategy,
                     "--out", str(tmp_path)])
        kappa = -0.9 if strategy == "entangled_biphoton" else 0.0
        assert code == 2
        assert capsys.readouterr().err == (
            "error: input out of numerical range (ArithmeticError: arrival-time covariance is"
            " out of float range at bandwidths sigma1 = 1e-200, sigma2 = 1e-200"
            f" (kappa = {kappa}))\n"
        )


    @pytest.mark.parametrize("argv", [
        ["qfi", "--sigma", "1e160"],
        ["oracle-check", "--sigma", "1e160"],
        ["qfi", "--strategy", "two_single_photons", "--sigma", "1e160"],
        ["oracle-check", "--strategy", "quantum_illumination", "--sigma", "1e160"],
    ])
    def test_out_of_range_bandwidth_names_itself(self, argv, tmp_path, capsys):
        # sigma**2 in the closed forms and in the engine's exponents raised a
        # bare OverflowError (34, 'Numerical result out of range')
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: input out of numerical range (ArithmeticError: closed-form information is"
            " out of float range at bandwidths sigma1 = 1e+160, sigma2 = 1e+160)\n")

    @pytest.mark.parametrize("sigma", ["1e-100", "1e-80", "1e-78", "1e77", "1e78", "1e100"])
    @pytest.mark.parametrize("command", ["qfi", "oracle-check"])
    def test_extreme_bandwidths_write_no_wrong_number(self, command, sigma, tmp_path):
        # at 1e-80 qfi once wrote a bound of 0.99999443 where the floor is
        # exactly 1, and at 1e78 an entangled H22 of 0.0; later these runs
        # refused the bandwidth.  The engine now works at unit bandwidth, so
        # they answer: qfi's rows are the sigma = 1 rows scaled by sigma^2
        # and 1/sigma^2, with the same bound and residual, and oracle-check's
        # engine values are the closed forms (the default t_minus = 1,
        # omega_minus = 0.8 separate the branches at these bandwidths)
        s = float(sigma)
        assert main([command, "--sigma", sigma, "--out", str(tmp_path / "s")]) == 0
        if command == "qfi":
            assert main(["qfi", "--out", str(tmp_path / "unit")]) == 0
            _, rows = csv_rows(tmp_path / "s" / "qfi.csv")
            _, unit = csv_rows(tmp_path / "unit" / "qfi.csv")
            for row, one in zip(rows, unit, strict=True):
                assert float(row["H11"]) == pytest.approx(float(one["H11"]) * s * s, rel=4e-15)
                assert float(row["H22"]) == pytest.approx(float(one["H22"]) / s / s, rel=4e-15)
                assert float(row["bound"]) == pytest.approx(float(one["bound"]), rel=4e-15)
                assert float(row["residual"]) <= 1e-14
            return
        lines = read(tmp_path / "s" / "verdicts.jsonl").splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 316
        for rec in records:
            params = rec["params"]
            pair = ParameterPair(rec["pair"])
            entry = pair.param_names.index(params["entry"])
            want = asymptotic_H(Strategy(rec["strategy"]), pair, params["kappa"], s)[entry]
            assert rec["oracle_value"] == pytest.approx(want, rel=1e-12, abs=0.0), rec

    @pytest.mark.parametrize("argv, message", [
        # t_minus^2 in the printed forms raised a bare OverflowError
        (["--t-minus", "1e155"], "published mixed-state form is out of float range at sigma ="
                                 " 1.0, t_minus = 1e+155, omega_minus = 0.8"),
        # omega_minus rounds away beside the carrier: the engine read the
        # coincident model, and adjudicate divided by its zero entry
        (["--omega-minus", "1e-20", "--t-minus", "0"],
         "branch separation t_minus = 0.0, omega_minus = 1e-20 rounds away at sigma1 = 1.0"),
    ])
    def test_out_of_range_separation_names_itself(self, argv, message, tmp_path, capsys):
        assert main(["oracle-check", *argv, "--strategy", "two_single_photons",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: input out of numerical range (ArithmeticError: {message})\n")

    def test_no_bare_arithmetic_error(self, tmp_path, capsys):
        # every finite input either answers or names the range it leaves
        grid = [("1e-300", "0", "1e-300"), ("1e-150", "0", "1e-300"), ("1e-150", "1e-300", "0"),
                ("1e100", "1e-162", "0"), ("1e148", "1e-300", "0"), ("1e148", "1", "1e-300"),
                ("1", "1e-162", "0"), ("1", "1e300", "1e300"), ("1e155", "1", "0.8"),
                ("0.316", "1e-160", "0"), ("1e-154", "1", "0.8")]
        for sigma, t_minus, omega_minus in grid:
            code = main(["oracle-check", "--sigma", sigma, "--t-minus", t_minus,
                         "--omega-minus", omega_minus, "--kappa-min", "-0.5", "--kappa-max",
                         "0.5", "--kappa-step", "0.5", "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 0 or err.startswith("error: input out of numerical range "
                                               "(ArithmeticError: "), (sigma, t_minus, err)

    def test_narrow_bandwidth_qcrb_keeps_its_digits(self, tmp_path):
        # the entangled pair-A QCRBs are 1/(3 sigma^2) and sigma^2 at kappa = -0.5; H22
        # over sigma1^2 sigma2^2 made it 9.99988867e-161 at sigma = 1e-80
        code = main([
            "simulate", "--strategy", "entangled_biphoton", "--pair", "time_sum_freq_diff",
            "--kappa-min", "-0.5", "--kappa-max", "-0.5", "--sigma", "1e-80",
            "--n", "1000", "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = csv_rows(tmp_path / "simulate.csv")
        qcrb = {row["domain"]: float(row["qcrb"]) for row in rows}
        assert qcrb["frequency"] == pytest.approx(1e-160, rel=4e-16, abs=0.0)
        assert qcrb["time"] == pytest.approx(1e160 / 3.0, rel=4e-16, abs=0.0)


class TestEngineExceptions:
    """Every exception the engine can raise maps to exit 2 and one error line."""

    @pytest.mark.parametrize("exc", [
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        OverflowError("math range error"),
        ZeroDivisionError("float division by zero"),
        FloatingPointError("overflow encountered in multiply"),
        ValueError("negative eigenvalue"),
    ])
    def test_exit_2_without_traceback(self, exc, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "qfi_numeric", fail)
        code = main([
            "qfi", "--kappa-min", "0", "--kappa-max", "0", "--kappa-step", "1",
            "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


# Runs every subcommand at its defaults in a fresh interpreter and prints the
# top-level modules they loaded beyond those already loaded at interpreter
# start.  test_montecarlo.py checks the Monte Carlo intervals.
IMPORT_GUARD = """
import sys
before = set(sys.modules)
from qfi_radar.cli import main
for argv in (["qfi"], ["curves"], ["oracle-check"], ["simulate"], ["scenario"]):
    if main([*argv, "--out", sys.argv[1]]) != 0:
        sys.exit(f"{argv[0]} failed")
if main(["selftest"]) != 0:
    sys.exit("selftest failed")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"qfi_radar"}))
"""


def test_cli_loads_only_stdlib_and_package(tmp_path):
    src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


class TestConfigFile:
    def test_precedence(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kappa_min": 0.0, "kappa_max": 0.0,
                                   "kappa_step": 1.0, "sigma": 2.0}))
        out = tmp_path / "out"
        code = main([
            "qfi", "--config", str(cfg), "--strategy", "entangled_biphoton",
            "--pair", "time_sum_freq_diff", "--sigma", "1.0", "--out", str(out),
        ])
        assert code == 0
        _, rows = csv_rows(out / "qfi.csv")
        # flag --sigma 1.0 overrides config sigma 2.0; config supplies the grid
        assert float(rows[0]["sigma"]) == 1.0
        assert float(rows[0]["H11"]) == 2.0

    def test_config_without_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kappa_min": 0.0, "kappa_max": 0.0,
                                   "kappa_step": 1.0, "sigma": 2.0}))
        out = tmp_path / "out"
        code = main([
            "qfi", "--config", str(cfg), "--strategy", "entangled_biphoton",
            "--pair", "time_sum_freq_diff", "--out", str(out),
        ])
        assert code == 0
        _, rows = csv_rows(out / "qfi.csv")
        assert float(rows[0]["sigma"]) == 2.0
        assert float(rows[0]["H11"]) == 8.0

    def test_missing_config_io_error(self, tmp_path):
        code = main(["qfi", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)])
        assert code == 3

    def test_invalid_json_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(["qfi", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_non_object_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1]")
        code = main(["qfi", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: config file must hold a flat JSON object\n"

    def test_unknown_key_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sigmah": 2.0}))
        code = main(["qfi", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2


class TestSettingChecks:
    @pytest.mark.parametrize("config", [
        {"kappa_min": "0"},
        {"sigma": True},
        {"format": "svg"},  # qfi writes no svg
        {"n": 5},  # qfi reads no sample count
    ])
    def test_bad_config_value_usage_error(self, config, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code = main(["qfi", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(config)) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--kappa-min", "0", "--kappa-max", "0", "--kappa-step", "1", "--n", "100"],
        ["scenario", "--n", "100"],
    ])
    def test_negative_seed_usage_error(self, argv, tmp_path, capsys):
        code = main([*argv, "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["scenario", "--sigma", "nan"],
        ["scenario", "--omega0", "nan"],
        ["qfi", "--sigma", "inf"],
        ["oracle-check", "--t-minus", "nan"],
    ])
    def test_non_finite_float_usage_error(self, argv, tmp_path, capsys):
        code = main([*argv, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert argv[1][2:].replace("-", "_") in err and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["qfi", "--n", "5"],
        ["qfi", "--seed", "1"],
        ["curves", "--sigma", "-5"],
        ["curves", "--strategy", "quantum_illumination"],
        ["curves", "--n", "5"],
        ["oracle-check", "--format", "csv"],
        ["oracle-check", "--n", "5"],
        ["scenario", "--kappa-min", "0"],
        ["scenario", "--pair", "both"],
        ["scenario", "--format", "json"],
        ["scenario", "--strategy", "all"],  # scenario samples one probe
        ["scenario", "--strategy", "quantum_illumination"],
        ["simulate", "--format", "svg"],
        ["selftest", "--config", "run.json"],
    ])
    def test_flag_without_reader_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def subparser(command):
    """The parser ``build_parser`` registers for ``command``."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


STRATEGIES = ["entangled_biphoton", "two_single_photons", "quantum_illumination"]


class TestSettingsTable:
    """What ``SETTINGS`` and the choices ``COMMANDS`` narrows decide, read
    through the parser and ``_resolve``."""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_defaults_when_no_flag_is_given(self, command):
        cfg = cli._resolve(cli.build_parser().parse_args([command]))
        expected = {key: cli.SETTINGS[key][0] for key in cli.COMMANDS[command][2]}
        if command == "scenario":
            # scenario samples one probe: the first strategy Monte Carlo runs
            expected["strategy"] = "entangled_biphoton"
        assert cfg == expected
        assert [type(v) for v in cfg.values()] == [type(v) for v in expected.values()]

    @pytest.mark.parametrize("command, dest, choices", [
        ("curves", "format", ["csv", "json", "svg"]),
        ("qfi", "format", ["csv", "json"]),
        ("simulate", "format", ["csv", "json"]),
        ("scenario", "strategy", ["entangled_biphoton", "two_single_photons"]),
        ("qfi", "strategy", [*STRATEGIES, "all"]),
        ("oracle-check", "strategy", [*STRATEGIES, "all"]),
        ("simulate", "strategy", [*STRATEGIES, "all"]),
        ("curves", "pair", ["time_sum_freq_diff", "time_diff_freq_sum", "both"]),
        ("scenario", "scenario", ["multibody", "moving_object"]),
    ])
    def test_flag_choices(self, command, dest, choices, tmp_path):
        action = next(a for a in subparser(command)._actions if a.dest == dest)
        assert action.choices == choices
        parser = cli.build_parser()
        for choice in choices:
            args = parser.parse_args([command, "--" + dest, choice])
            assert cli._resolve(args)[dest] == choice
        # a config value meets the same choices
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({dest: "nope"}))
        args = parser.parse_args([command, "--config", str(cfg)])
        message = f"{dest} must be one of {choices}, got 'nope'"
        with pytest.raises(ValueError, match=re.escape(message)):
            cli._resolve(args)

    def test_help_strings(self):
        helps = {
            (action.dest, action.help)
            for command in cli.COMMANDS
            for action in subparser(command)._actions
            if action.dest in cli.SETTINGS and action.help is not None
        }
        assert helps == {
            ("out", "output directory (default: current directory)"),
            ("t_minus", "branch time separation for mixed-state verdicts"),
            ("omega_minus", "branch frequency separation for mixed-state verdicts"),
            ("kappa", "probe time correlation"),
            ("n", "draws per domain (simulate) or shots over both domains (scenario)"),
        }


def mutate_floors(monkeypatch, ppb):
    """Scale every floor the selftest reads by 1 + ppb * 1e-9."""
    real = selftest.asymptotic_bound
    monkeypatch.setattr(selftest, "asymptotic_bound",
                        lambda *args: (1.0 + ppb * 1e-9) * real(*args))


class TestSelftestCommand:
    def test_json_output_parses(self, capsys):
        code = main(["selftest", "--json"])
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 9
        assert all(r["passed"] for r in records)
        assert {"criterion", "name", "passed", "seconds", "detail"} <= set(records[0])

    def test_mutation_hook_fails(self, capsys, monkeypatch):
        # floors off by 1e-9: criteria 1 and 2 compare them to 1e-12, 7 to 3%
        mutate_floors(monkeypatch, 1)
        code = main(["selftest", "--json"])
        assert code == 1
        records = json.loads(capsys.readouterr().out)
        assert [r["passed"] for r in records] == [False, False] + [True] * 7

    @pytest.mark.parametrize("mutate, status, code", [(None, "PASS", 0), (1, "FAIL", 1)])
    def test_text_mode(self, mutate, status, code, capsys, monkeypatch):
        # one line per criterion; floors mutated by ``mutate`` ppb fail criteria 1 and 2 only
        if mutate is not None:
            mutate_floors(monkeypatch, mutate)
        assert main(["selftest"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert lines[0].startswith(f"criterion 1 [{status}] bound-product curves")
        assert lines[1].startswith(f"criterion 2 [{status}] strategy crossovers")
        assert all(f"criterion {i} [PASS] " in line for i, line in enumerate(lines[2:], 3))
