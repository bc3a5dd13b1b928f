"""Grid-refinement study: NRMSE of one target as the knot count grows.

Usage: python3 scripts/sweep_knots.py [--function sigmoid] [--seed 42]
                                      [--knots 4 8 16 32]

The square system interpolates the samples, so the classical column sits
at machine precision for every size.  The quantum column tracks the
solver's floor.  The solver sees the equilibrated system R S D, whose
condition number grows only linearly with K, so that floor does not follow
cond(S); it rises with the decades that R y spans (about 1e-13 at K = 16,
1e-9 at K = 32).  A knot count whose fit fails (K = 64: cond(S) marks the
system numerically singular) prints one ``failed:`` row, the sweep goes
on, and the script exits 2.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qspline.functions import TARGETS
from qspline.pipeline import FitConfig, fit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--function", default="sigmoid", choices=sorted(TARGETS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--knots", type=int, nargs="*", default=[4, 8, 16, 32])
    args = ap.parse_args()

    print(f"{'knots':>6} {'qubits':>7} {'nrmse':>12} {'classical':>12} "
          f"{'cost':>10} {'time':>8}")
    failed = False
    for k in args.knots:
        try:
            rep = fit(FitConfig(function=args.function, knots=k, seed=args.seed))
        except (ValueError, ArithmeticError) as exc:
            print(f"{k:>6} {k.bit_length() - 1:>7} failed: {exc}")
            failed = True
            continue
        print(f"{k:>6} {k.bit_length() - 1:>7} {rep.nrmse:>12.3e} "
              f"{rep.classical_nrmse:>12.2e} {rep.final_cost:>10.2e} "
              f"{rep.wall_seconds:>7.1f}s")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
