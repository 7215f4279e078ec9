"""Print the section-norm growth of the modulus of the half-circle kernel.

The operator with kernel i_{[0,pi]} acts as a contraction, but taking
the entrywise modulus of its matrix destroys that: finite sections of
|i_{[0,pi]}| have norms growing like log r.  The table below shows the
norm with its certified bracket, the smallest row sum s_r sandwiching it
from below, and the divergent harmonic bound u_r, next to the fixed norm
of the observable truncation itself.
"""

import argparse
import sys

import covnoise as cn


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--r", type=int, nargs="+",
                        default=[5, 15, 55, 155, 555, 1555, 5555])
    parser.add_argument("--window", type=int, default=128,
                        help="truncation side for the contraction reference")
    args = parser.parse_args(argv)

    w = cn.IndexWindow(0, args.window - 1)
    half = cn.IntervalSet.from_pairs([(0.0, 3.141592653589793)])
    ref = cn.operator_norm(
        cn.observable_operator(cn.constant_one(cn.IndexDomain.NATURALS),
                               half, w).entries)
    print(f"observable truncation at side {args.window}: "
          f"norm {ref.value:.12f} (stays <= 1)")
    print(f"{'r':>6} {'u_r':>14} {'s_r':>14} {'norm':>14}  method, certified bracket")
    for rec in cn.modulus_growth_table(args.r):
        est = rec.estimate
        print(f"{rec.r:>6} {rec.harmonic_bound:>14.9f} "
              f"{rec.min_row_sum:>14.9f} {rec.norm:>14.9f}  "
              f"{est.method.value} [{est.lower!r}, {est.upper!r}]")
    print("u_r tracks (log r)/(2 pi): unbounded, so the modulus map is not "
          "a bounded multiplier here")
    return 0


if __name__ == "__main__":
    sys.exit(main())
