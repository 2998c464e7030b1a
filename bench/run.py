"""Benchmark for qfi-radar.

Run from the root of a source checkout:

    python3 bench/run.py --workload engine_map --seed 1 --seconds 40 --trace 0

Workloads (see README.md): engine_map and mc_campaign.  With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` it measures the
per-layer metrics instead (layers.py), which include the seven default CLI
calls, and runs one round of the workload; the operation counts then cover
that round and the CLI calls.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The package is imported from ``src/`` of the current directory and nowhere
else; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from checks import FAULTS, Problem
from workloads import Outcome

WORKLOADS = ("engine_map", "mc_campaign")
SETUP_SAMPLES = 3
# A fresh interpreter times its own import of the package, then names the
# file it imported so the caller can check it came from this checkout.
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import qfi_radar.cli\n"
    "print(time.perf_counter() - start)\n"
    "print(qfi_radar.cli.__file__)\n"
)


class BenchError(Exception):
    pass


def inside(path: str, directory: str) -> bool:
    return os.path.abspath(path).startswith(os.path.abspath(directory) + os.sep)


def setup_seconds(src: str, env: dict) -> float:
    """Median cold import over fresh interpreters, after one untimed warm-up.

    The warm-up writes the bytecode, so every timed sample pays what a CLI
    call pays on an installed package.  Hypervisor steal is left out, as in
    the timed operations.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        stolen = workloads.stolen_seconds()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        stolen = workloads.stolen_seconds() - stolen
        lines = proc.stdout.split("\n")
        if proc.returncode != 0 or len(lines) < 2 or not inside(lines[1], src):
            raise BenchError(f"cannot import qfi_radar from {src}: {proc.stderr.strip()}")
        if i:
            samples.append(max(float(lines[0]) - stolen, 0.0))
    return statistics.median(samples)


def call(op) -> Outcome:
    start = time.perf_counter()
    try:
        return op()
    except Exception as exc:  # a crashed operation is a failed operation
        return Outcome(time.perf_counter() - start, 0.0,
                       [Problem(None, f"raised {type(exc).__name__}: {exc}")])


def run_rounds(round_ops, seconds: float) -> list[list[Outcome]]:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append([call(op) for op in round_ops()])
        if time.perf_counter() - start >= seconds:
            return rounds


def own_share(outcomes: list[Outcome]) -> float:
    """Share of the calls' wall time that the host did not steal."""
    busy = sum(o.seconds for o in outcomes)
    return (busy - sum(o.stolen for o in outcomes)) / busy


def end_to_end(rounds: list[list[Outcome]], setup: float) -> dict:
    outcomes = [o for r in rounds for o in r]
    busy = sum(o.seconds for o in outcomes) * own_share(outcomes)
    # the shared machine switches between a fast and a slow state for seconds
    # at a time, which splits per-operation times into two modes; one median
    # per round, averaged over the rounds, stays between them.  Steal is read
    # in clock ticks, too coarse for one operation, so it scales whole rounds.
    p50 = statistics.fmean(
        statistics.median(o.seconds for o in r) * own_share(r) for r in rounds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(outcomes) / busy, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def report(workload: str, seed: int, outcomes: list, metrics: dict) -> dict:
    failed = [o for o in outcomes if o.problems]
    tally = collections.Counter()
    examples = {}
    for o in failed:
        key = "+".join(sorted({p.fault or "UNEXPECTED" for p in o.problems}))
        tally[key] += 1
        for p in o.problems:
            examples.setdefault(p.fault or "UNEXPECTED", p.message)
    correct = all(p.fault is not None for o in failed for p in o.problems)
    print(f"{workload} seed {seed}: {len(outcomes)} operations attempted, "
          f"{len(failed)} failed")
    for key, count in sorted(tally.items()):
        print(f"  failed by {key}: {count}")
    for fault, message in sorted(examples.items()):
        cause = FAULTS.get(fault, "not explained by a known fault")
        print(f"  [{fault}] {cause}\n    e.g. {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qfi_radar", "__init__.py")):
        print(f"error: no qfi_radar package under {src}", file=sys.stderr)
        return 2
    # the default thread count and an unmutated selftest are what users get
    os.environ.pop("QFI_RADAR_THREADS", None)
    os.environ.pop("QFI_RADAR_SELFTEST_MUTATE", None)
    env = dict(os.environ, PYTHONPATH=src)
    out_root = os.path.join(root, ".bench_out", str(os.getpid()))

    try:
        # fresh-interpreter imports first, while this process holds no package
        setup = 0.0 if args.trace else setup_seconds(src, env)
        sys.path.insert(0, src)
        import qfi_radar

        if not inside(qfi_radar.__file__, src):
            raise BenchError(f"qfi_radar imported from {qfi_radar.__file__}")
        start = time.perf_counter()
        round_ops = workloads.build_round(args.workload, qfi_radar, args.seed)
        setup += time.perf_counter() - start

        if args.trace:
            import layers

            runner = workloads.CliRunner(src, out_root)
            metrics, cli_outcomes = layers.collect(qfi_radar, runner, args.seed)
            rounds = run_rounds(round_ops, 0.0) + [cli_outcomes]
        else:
            rounds = run_rounds(round_ops, args.seconds)
            metrics = end_to_end(rounds, setup)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_root))
        except OSError:
            pass

    result = report(args.workload, args.seed, [o for r in rounds for o in r], metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
