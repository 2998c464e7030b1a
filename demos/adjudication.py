"""Adjudicate the mixed-state closed forms against the numerical engine.

The two-single-photon and quantum-illumination information matrices depend
on the true branch separations (t-, w-).  The transcribed closed forms for
them contain suspected typos (a sigma-power slip in one exponent, a
growing exponential in another), so this demo evaluates each entry both
ways at a finite separation and prints a verdict per entry.  The engine —
the closed-form support frame of rho and the SLD block formula, fed only by
exact Gaussian overlaps — is the referee; entangled-biphoton rows are included as a control and are
always confirmed.

Run:  python3 demos/adjudication.py
"""

from qfi_radar import ParameterPair, Strategy, adjudicate


def main() -> None:
    sigma, kappa, t_minus, omega_minus = 1.0, 0.6, 1.0, 0.8
    print(f"evaluation point: sigma={sigma}, kappa={kappa}, "
          f"t-={t_minus}, w-={omega_minus}\n")
    print(f"{'strategy':<22} {'pair':<20} {'entry':<12} "
          f"{'published':>12} {'engine':>12} {'verdict':>10}")
    confirmed = refuted = 0
    for strategy in Strategy:
        for pair in ParameterPair:
            records = adjudicate(
                strategy, pair, sigma=sigma, kappa=kappa,
                t_minus=t_minus, omega_minus=omega_minus,
            )
            for rec in records:
                print(f"{rec['strategy']:<22} {rec['pair']:<20} "
                      f"{rec['params']['entry']:<12} "
                      f"{rec['paper_value']:12.6f} {rec['oracle_value']:12.6f} "
                      f"{rec['verdict']:>10}")
                if rec["verdict"] == "confirmed":
                    confirmed += 1
                else:
                    refuted += 1
    print(f"\n{confirmed} confirmed, {refuted} refuted")
    print("the engine is cross-checked without closed forms by the branch swap "
          "of selftest criterion 5, tests/test_metamorphic.py and the finite-"
          "difference reference fd_qfi")


if __name__ == "__main__":
    main()
