#!/usr/bin/env python3
"""Reproduce the generic signature-degree table on random dense curves.

For each group and degree the predicted signature degree of a random dense
curve is compared with the closed forms 6d^2-6d, 24d^2-48d, 96d^2-216d.
"""

import argparse
import random
import time
import warnings

from sigcurve.degree import generic_degree, predict_degree
from sigcurve.errors import InvalidCurveError
from sigcurve.jets import CurveInput, GroupId
from sigcurve.poly import SparsePoly

R = ("x", "y")


def rand_curve(rng, d):
    while True:
        F = SparsePoly.from_terms(
            R,
            [((i, j), rng.randint(-9, 9)) for i in range(d + 1) for j in range(d + 1 - i)],
        )
        try:
            cv = CurveInput.from_poly(F)
        except InvalidCurveError:
            continue  # not squarefree
        if cv.d == d and not cv.fy().is_zero():
            return cv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--degrees", type=int, nargs="+", default=[4, 5])
    ap.add_argument("--curves", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    warnings.simplefilter("ignore")
    rng = random.Random(args.seed)
    print(f"{'d':>3} {'group':>6} {'predicted':>10} {'closed form':>12} {'time':>8}")
    for d in args.degrees:
        for k in range(args.curves):
            cv = rand_curve(rng, d)
            for g in (GroupId.SE2, GroupId.SA2, GroupId.A2, GroupId.PGL3):
                t0 = time.time()
                rep = predict_degree(cv, g, n=1, seed=args.seed + k)
                want = generic_degree(g, d)
                mark = "" if rep.deg_S_predicted == want else "  <-- MISMATCH"
                print(
                    f"{d:>3} {g.value:>6} {rep.deg_S_predicted:>10} {want:>12} "
                    f"{time.time()-t0:>7.1f}s{mark}"
                )


if __name__ == "__main__":
    main()
