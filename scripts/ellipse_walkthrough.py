#!/usr/bin/env python3
"""End-to-end walkthrough on the worked ellipse x^2 + xy + y^2 - 1.

Prints the classifying invariants, the certified signature polynomial with
its Bezout-count certificate, the degree-formula cross-check, and a CSV
block of numeric signature samples suitable for plotting.
"""

import warnings

from sigcurve.degree import predict_degree
from sigcurve.equivalence import symmetry_order
from sigcurve.jets import CurveInput, GroupId, classifying_pair
from sigcurve.parser import parse, serialize
from sigcurve.signature import signature_polynomial, signature_samples


def main():
    warnings.simplefilter("ignore")
    curve = CurveInput.from_poly(parse("x^2 + x*y + y^2 - 1"))
    pair = classifying_pair(curve, GroupId.SE2)
    print("K1 =", serialize(pair.K1.num), "/", serialize(pair.K1.den))
    print("K2 =", serialize(pair.K2.num), "/", serialize(pair.K2.den))
    sig = signature_polynomial(curve, GroupId.SE2)
    print("\nS =", serialize(sig.S))
    cert = sig.certificate
    print(
        f"certified: S(K1, K2) = 0 on {cert.fibers} fibers, deg N <= {cert.deg_N} "
        f"({cert.kind}, curve {cert.curve})"
    )
    rep = predict_degree(curve, GroupId.SE2, n=2)
    print(
        f"degree formula: n*deg(S) = d*deg(sigma) - mult = "
        f"{curve.d}*{rep.deg_sigma} - {rep.mult_sum} = {rep.n_times_deg_S}"
        f"  ->  deg(S) = {rep.deg_S_predicted} (computed {sig.degree()})"
    )
    res = symmetry_order(curve, GroupId.SE2)
    print(f"symmetry order: {res.n}")
    print("\nx,y,k1,k2")
    for s in signature_samples(curve, GroupId.SE2, 12, seed=1, real_only=True):
        print(f"{s.x.real!r},{s.y.real!r},{s.k1.real!r},{s.k2.real!r}")


if __name__ == "__main__":
    main()
