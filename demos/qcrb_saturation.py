"""Monte Carlo check that Gaussian time/frequency detection saturates the QCRB.

Measures arrival-time pairs and frequency pairs on the exact returned-biphoton
densities through the sum/difference estimators: ``measure_pair`` draws each
estimator's sample mean and variance from their exact law, a normal and an
independent chi-square, and compares the per-shot variance with the quantum
Cramer-Rao floor 1/H.  For Gaussian states these simple measurements are
optimal, so every ratio should sit at 1 within sampling noise, and the
uncertainty product should hug the sqrt((1+kappa)/(1-kappa)) floor.  The
ratio tests the identity Var(estimator) H = 1 plus that noise.

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
    # row i draws at seed + 2i and seed + 2i + 1, as simulate does, so no two
    # rows share a draw
    for i, kappa in enumerate((-0.9, -0.5, 0.0, 0.5)):
        rep_t, rep_w = measure_pair(Strategy.ENTANGLED_BIPHOTON, PAIR_A, kappa, 1.0,
                                    args.n, args.seed + 2 * i)
        product = math.sqrt(rep_t.variance * rep_w.variance)
        floor = asymptotic_bound(Strategy.ENTANGLED_BIPHOTON, PAIR_A, kappa)
        print(f"{kappa:7.2f}  {rep_t.ratio:10.4f}  {rep_w.ratio:10.4f}  "
              f"{product:9.4f}  {floor:8.4f}")


if __name__ == "__main__":
    main()
