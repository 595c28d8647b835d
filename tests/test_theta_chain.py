"""Certify the jet-space differential-function table against an independent
derivation through the classical curvature chain.

The chain kappa -> kappa_s -> mu -> mu_alpha -> mu_alpha_alpha -> eta ->
eta_rho is rebuilt from scratch as exact power series along a quartic whose
8-jet at a chosen point is engineered so that every fractional power that
appears (sqrt(1 + u1^2), kappa^(1/3), mu_alpha^(1/3)) has a rational value.
Each table entry must then agree with its chain counterpart up to a nonzero
constant, uniformly over ~20 series orders: any coefficient typo in the
table would break the constancy of the ratio.
"""

from fractions import Fraction

from sigcurve.jets import CurveInput, theta_table
from sigcurve.poly import SparsePoly
from sigcurve.series import (
    SeriesRing,
    TruncatedSeries,
    evaluate_polys_at_series,
    newton_branch,
)

M = 30
R = ("x", "y")


def _engineered_jet_values(rng_seed=7):
    import random

    rng = random.Random(rng_seed)
    u1 = Fraction(3, 4)  # sqrt(1 + u1^2) = 5/4
    kappa0 = Fraction(8, 27)  # kappa = (2/3)^3
    u2 = kappa0 * Fraction(5, 4) ** 3
    u3 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    u4 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    target_mu_alpha = Fraction(27, 8)  # later rescaled by the chain constant
    th5_target = target_mu_alpha * u2**4
    u5 = (th5_target + 45 * u4 * u3 * u2 - 40 * u3**3) / (9 * u2**2)
    u6 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    u7 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    u8 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    y0 = Fraction(rng.randint(1, 5), 2)
    return [u1, u2, u3, u4, u5, u6, u7, u8], y0


def _quartic_through_jet(uvals, y0, rng_seed=7):
    """Quartic curve whose branch at (0, y0) has the prescribed 8-jet; the
    constraints are linear in the 15 coefficients."""
    import random

    rng = random.Random(rng_seed + 1)
    coeffs_pos = [(i, j) for i in range(5) for j in range(5 - i)]
    cs = [y0]
    fact = 1
    for k, u in enumerate(uvals, start=1):
        fact *= k
        cs.append(u / fact)
    ring1 = SeriesRing([0, 1])
    yser = TruncatedSeries.zero(ring1, 10)
    for k, c in enumerate(cs):
        if c:
            yser = yser + TruncatedSeries(ring1, {(k, 0): c.numerator}, c.denominator, 10)
    hser = TruncatedSeries.variable(ring1).with_trunc(10)
    rows = [[Fraction(0)] * len(coeffs_pos) for _ in range(10)]
    for idx, (i, j) in enumerate(coeffs_pos):
        mono = (hser**i) * (yser**j)
        for m in range(10):
            rows[m][idx] = mono.coeff_fractions(m)[0]
    A = [r[:] for r in rows]
    n = len(coeffs_pos)
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, 10) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][col]
        A[r] = [x / pv for x in A[r]]
        for i in range(10):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(col)
        r += 1
        if r == 10:
            break
    free = [c for c in range(n) if c not in piv_cols]
    sol = [Fraction(0)] * n
    for fcol in free:
        sol[fcol] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    for row_i, pc in enumerate(piv_cols):
        sol[pc] = -sum(A[row_i][fc] * sol[fc] for fc in free)
    F = SparsePoly(
        R, {(i, j): sol[idx] for idx, (i, j) in enumerate(coeffs_pos) if sol[idx]}
    )
    return CurveInput.from_poly(F)


def _root_k(ring, s, k, root0):
    z = TruncatedSeries.constant(ring, root0).with_trunc(1)
    p = 1
    while p < M:
        p = min(2 * p, M)
        zt = TruncatedSeries(ring, z.terms, z.den, p)
        corr = (zt**k - s.with_trunc(p)) * (zt ** (k - 1)).invert(p).with_trunc(p)
        z = (zt - corr.scale(Fraction(1, k))).with_trunc(p).normalized()
    return z


def _assert_constant_ratio(lhs, rhs, orders, label):
    ratio = lhs * rhs.invert(M)
    c0 = ratio.coeff_fractions(0)[0]
    assert c0 != 0, f"{label}: zero ratio"
    for j in range(1, orders):
        assert ratio.coeff_fractions(j)[0] == 0, f"{label}: ratio not constant at order {j}"
    return c0


def test_theta_table_matches_classical_chain():
    uvals, y0 = _engineered_jet_values()
    curve = _quartic_through_jet(uvals, y0)
    ring = SeriesRing([-y0.numerator, y0.denominator])
    ring2 = ("h", "u")
    h = SparsePoly.var(ring2, "h")
    uu = SparsePoly.var(ring2, "u")
    H = curve.F.compose_linear([h, uu])
    branch = newton_branch(H, "h", "u", ring, ring.generator(), M + 10)
    useries = {}
    cur = branch
    for k in range(1, 9):
        cur = cur.derivative()
        useries[f"u{k}"] = cur
    for k in range(1, 9):
        assert useries[f"u{k}"].coeff_fractions(0)[0] == uvals[k - 1]
    table = theta_table()
    values = evaluate_polys_at_series([table[i] for i in range(1, 9)], useries, ring)
    TH = dict(zip(range(1, 9), values))

    def inv(s):
        return s.invert(M)

    D = lambda s: s.derivative()
    sqth1 = _root_k(ring, TH[1], 2, Fraction(5, 4))
    kappa = useries["u2"] * inv(sqth1**3)
    assert kappa.coeff_fractions(0)[0] == Fraction(8, 27)
    kappa_s = D(kappa) * inv(sqth1)
    kappa_ss = D(kappa_s) * inv(sqth1)
    kcbrt = _root_k(ring, kappa, 3, Fraction(2, 3))
    c2 = _assert_constant_ratio(kappa * kappa, TH[2] ** 2 * inv(TH[1] ** 3), M - 4, "kappa^2")
    c3 = _assert_constant_ratio(kappa_s, TH[3] * inv(TH[1] ** 3), M - 4, "kappa_s")
    mu = (
        kappa.scale(3) * (kappa_ss + (kappa**3).scale(3)) - (kappa_s * kappa_s).scale(5)
    ) * inv(kcbrt**8).scale(Fraction(1, 9))
    c4 = _assert_constant_ratio(mu**3, TH[4] ** 3 * inv(TH[2] ** 8), M - 6, "mu^3")
    mu_a = D(mu) * inv(sqth1) * inv(kcbrt)
    c5 = _assert_constant_ratio(mu_a, TH[5] * inv(TH[2] ** 4), M - 6, "mu_alpha")
    macbrt = _root_k(ring, mu_a, 3, Fraction(1, 2))
    mu_aa = D(mu_a) * inv(sqth1) * inv(kcbrt)
    c6 = _assert_constant_ratio(
        mu_aa * inv(mu**2), TH[6] * inv(TH[4] ** 2), M - 8, "mu_aa/mu^2"
    )
    mu_aaa = D(mu_aa) * inv(sqth1) * inv(kcbrt)
    eta = (
        (mu_aaa * mu_a).scale(6) - (mu_aa**2).scale(7) - (mu_a**2 * mu).scale(9)
    ) * inv(macbrt**8).scale(Fraction(1, 6))
    c7 = _assert_constant_ratio(eta**3, TH[7] ** 3 * inv(TH[5] ** 8), M - 12, "eta^3")
    eta_rho = D(eta) * inv(sqth1) * inv(kcbrt) * inv(macbrt)
    c8 = _assert_constant_ratio(eta_rho, TH[8] * inv(TH[5] ** 4), M - 12, "eta_rho")
    # the classifying pairs built from the table differ from the classical
    # quantities only by these constants, which cancel inside each group pair
    assert (c2, c3) == (1, 1)
    assert (c7, c8) == (1, 1)
    assert c5**2 / c4 == 1  # A2 K1 = mu_alpha^2/mu^3 has no constant offset
