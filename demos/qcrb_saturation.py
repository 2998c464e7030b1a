"""Monte Carlo check that Gaussian time/frequency detection saturates the QCRB.

Draws arrival-time pairs and frequency pairs from the exact returned-biphoton
densities, forms the sum/difference estimators, and compares the empirical
per-shot variances with the quantum Cramer-Rao floor 1/H.  For Gaussian
states these simple measurements are optimal, so every ratio should sit at
1 within sampling noise, and the empirical uncertainty product should hug
the sqrt((1+kappa)/(1-kappa)) floor.

Run:  python3 demos/qcrb_saturation.py [--n 100000] [--seed 7]
"""

import argparse
import math

from qfi_radar import ParameterPair, Strategy, asymptotic_bound, measure_pair

PAIR_A = ParameterPair.TIME_SUM_FREQ_DIFF


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'kappa':>7}  {'Var(t+)*H':>10}  {'Var(w-)*H':>10}  "
          f"{'dt+ dw-':>9}  {'floor':>8}")
    for kappa in (-0.9, -0.5, 0.0, 0.5):
        rep_t, rep_w = measure_pair(Strategy.ENTANGLED_BIPHOTON, PAIR_A, kappa, 1.0,
                                    args.n, args.seed)
        product = math.sqrt(rep_t.variance * rep_w.variance)
        floor = asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, kappa)
        print(f"{kappa:7.2f}  {rep_t.ratio:10.4f}  {rep_w.ratio:10.4f}  "
              f"{product:9.4f}  {floor:8.4f}")


if __name__ == "__main__":
    main()
