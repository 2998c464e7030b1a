"""Uncertainty-product floors vs probe time correlation, for both estimator pairs.

Sweeps the correlation kappa and prints (and optionally plots) the minimal
achievable product of the two estimator uncertainties for each strategy:

  entangled biphoton:     sqrt((1 +/- kappa)/(1 -/+ kappa))
  two single photons:     1 (correlation-free)
  quantum illumination:   2 sqrt(1 - kappa^2)

Anticorrelated probes (kappa < 0) help the (time-sum, frequency-difference)
pair; positively correlated probes help (time-difference, frequency-sum);
quantum illumination only beats independent photons once |kappa| exceeds
sqrt(3)/2.

Run:  python3 demos/bound_curves.py [--svg out.svg]
"""

import argparse
import math

from qfi_radar import ParameterPair, Strategy, asymptotic_bound
from qfi_radar.cli import render_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--svg", help="write an SVG plot of the first pair's panel")
    args = parser.parse_args()

    # 23 evenly spaced points, the last exactly 0.99, as numpy's linspace places them
    kappas = [i * (1.98 / 22) - 0.99 for i in range(22)] + [0.99]
    for pair in ParameterPair:
        print(f"\n=== {pair.value} ===")
        print(f"{'kappa':>8}  {'entangled':>10}  {'single':>8}  {'QI':>8}")
        for k in kappas:
            row = [asymptotic_bound(s, pair, k) for s in Strategy]
            print(f"{k:8.3f}  {row[0]:10.4f}  {row[1]:8.4f}  {row[2]:8.4f}")

    crossover = math.sqrt(3.0) / 2.0
    print(f"\nQI floor equals the single-photon floor at |kappa| = sqrt(3)/2 "
          f"= {crossover:.6f}: "
          f"{asymptotic_bound(Strategy.QUANTUM_ILLUMINATION, ParameterPair.TIME_SUM_FREQ_DIFF, crossover):.12f}")

    if args.svg:
        pair = ParameterPair.TIME_SUM_FREQ_DIFF
        series = [
            (s.value, kappas, [asymptotic_bound(s, pair, k) for k in kappas])
            for s in Strategy
        ]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(f"uncertainty-product floor, {pair.value}",
                                "kappa", "Min[da db]", series))
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
