#!/usr/bin/env python3
"""Walk the Fermat family x^d + y^d + 1: signatures, symmetry, degrees.

Each row reports the closed-form signature degree, whether the Bezout-count
certificate proves the closed form is the signature polynomial, and the
symmetry order recovered through the degree-ratio route.
"""

import argparse
import time
import warnings

from sigcurve.equivalence import symmetry_order
from sigcurve.fermat import (
    fermat_curve,
    fermat_signature,
    fermat_symmetry_order,
)
from sigcurve.jets import GroupId
from sigcurve.signature import FiberTable, certify_signature


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dmax", type=int, default=5)
    args = ap.parse_args()
    warnings.simplefilter("ignore")
    for d in range(3, args.dmax + 1):
        for g in (GroupId.A2, GroupId.PGL3):
            t0 = time.time()
            closed = fermat_signature(d, g)
            cert = certify_signature(FiberTable(fermat_curve(d), g), closed.S)
            res = symmetry_order(
                fermat_curve(d), g, known_signature_degree=closed.degree()
            )
            want_n = fermat_symmetry_order(d, g)
            print(
                f"d={d} {g.value:>5}: deg(S)={closed.degree()} verified={cert is not None}"
                + (f" (bezout-count, {cert.fibers} fibers)" if cert else "")
                + f", n={res.n} (closed form {want_n}) [{time.time()-t0:.1f}s]"
            )


if __name__ == "__main__":
    main()
