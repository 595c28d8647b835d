"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import relative_residual, transform_point
from sigcurve.degree import (
    generic_degree,
    mult_min,
    mult_sum_line,
    predict_degree,
    series_valuations,
)
from sigcurve.equivalence import equivalent, symmetry_order
from sigcurve.errors import InvalidCurveError
from sigcurve.fermat import (
    fermat_curve,
    fermat_signature_a2,
    fermat_signature_pgl3,
    fermat_symmetry_order,
)
from sigcurve.jets import (
    CurveInput,
    GroupId,
    apply_group_element,
    invariants_at_point,
    projective_extension,
)
from sigcurve.parser import parse, serialize
from sigcurve.poly import SparsePoly
from sigcurve.signature import (
    PointSignature,
    SignaturePolynomial,
    FiberTable,
    certify_signature,
    is_constant_signature,
    signature_polynomial,
    signature_samples,
)

R = ("x", "y")
ALL_GROUPS = (GroupId.SE2, GroupId.SA2, GroupId.A2, GroupId.PGL3)

ELLIPSE_S_REFERENCE = (
    "2916*k1^6 + 972*k1^4*k2^2 + 108*k1^2*k2^4 + 4*k2^6"
    " - 13608*k1^5 + 1944*k1^3*k2^2 + 2187*k1^4"
)

SAMPLE_TOL = 1e-8  # criterion 8 relative residual


def _announce(num, elapsed, budget, detail):
    print(f"CRITERION {num}: PASS ({elapsed:.1f}s <= {budget:.0f}s) - {detail}")


def _rand_dense_curve(rng, d, height=9):
    while True:
        F = SparsePoly.from_terms(
            R,
            [((i, j), rng.randint(-height, height)) for i in range(d + 1) for j in range(d + 1 - i)],
        )
        try:
            cv = CurveInput.from_poly(F)
        except InvalidCurveError:
            continue
        if cv.d == d and not cv.fy().is_zero():
            return cv


def test_criterion_1_ellipse_signature():
    t0 = time.time()
    ellipse = CurveInput.from_poly(parse("x^2 + x*y + y^2 - 1"))
    sig = signature_polynomial(ellipse, GroupId.SE2)
    assert isinstance(sig, SignaturePolynomial)
    assert serialize(sig.S) == ELLIPSE_S_REFERENCE
    elapsed = time.time() - t0
    assert elapsed <= 30
    _announce(1, elapsed, 30, "ellipse SE2 signature byte-exact")


def test_criterion_2_cubic_affine_fixture():
    t0 = time.time()
    cubic = CurveInput.from_poly(parse("x^2*y + y^2 + y + 64/121"))
    tri = projective_extension(cubic, GroupId.A2, cancel=True)
    assert tri.deg == 26
    assert mult_sum_line(cubic, tri, (5, 1, 1)) == 30
    # the known non-generic line pairs its -6 with the T4*T6 component
    # (in our component order [T4^3 : T5^2 : T4*T6] that is a = (1, 1, -6))
    assert mult_sum_line(cubic, tri, (1, 1, -6)) == 32
    rep = mult_min(cubic, tri, trials=3, seed=0)
    assert rep.min_sum == 30
    assert (3 * tri.deg - rep.min_sum) // 2 == 24
    pred = predict_degree(cubic, GroupId.A2, n=2)
    assert pred.deg_S_predicted == 24
    elapsed = time.time() - t0
    assert elapsed <= 300
    _announce(2, elapsed, 300, "deg sigma 26, mult 30/32, min 30, deg S 24")


def test_criterion_3_generic_degree_tightness():
    t0 = time.time()
    rng = random.Random(20260808)
    forms = {
        GroupId.SE2: lambda d: 6 * d * d - 6 * d,
        GroupId.SA2: lambda d: 24 * d * d - 48 * d,
        GroupId.A2: lambda d: 24 * d * d - 48 * d,
        GroupId.PGL3: lambda d: 96 * d * d - 216 * d,
    }
    checked = 0
    for d in (4, 5):
        for k in range(5):
            cv = _rand_dense_curve(rng, d)
            for g in ALL_GROUPS:
                rep = predict_degree(cv, g, n=1, seed=17 + k)
                assert rep.deg_S_predicted == forms[g](d) == generic_degree(g, d), (
                    d,
                    g,
                    rep.deg_S_predicted,
                )
                checked += 1
    elapsed = time.time() - t0
    assert elapsed <= 600
    _announce(3, elapsed, 600, f"{checked} curve/group degree predictions exact")


def test_criterion_4_valuation_tables():
    t0 = time.time()
    rng = random.Random(99)
    for k in range(3):
        w0 = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        while True:
            terms = {
                (i, j): Fraction(rng.randint(-9, 9))
                for i in range(5)
                for j in range(5 - i)
            }
            top = sum(
                c * w0**j for (i, j), c in terms.items() if i + j == 4 and (i, j) != (4, 0)
            )
            terms[(4, 0)] = -top
            F = SparsePoly(R, {kk: v for kk, v in terms.items() if v})
            cv = CurveInput.from_poly(F)
            if cv.d == 4:
                break
        vt = series_valuations(cv, w0)
        assert vt.val_theta == (0, 3, 4, 8, 15, 19, 40, 60)
        assert vt.v_i == (0, 2, 2, 4, 9, 11, 24, 36)
    elapsed = time.time() - t0
    assert elapsed <= 120
    _announce(4, elapsed, 120, "val(Theta_i) and v_i tables exact on 3 quartics")


def test_criterion_5_fermat_family():
    t0 = time.time()
    # A2: the certified route reproduces the closed form byte-exactly
    for d, want_deg in ((3, 2), (4, 3), (5, 3)):
        closed = fermat_signature_a2(d)
        assert closed.degree() == want_deg
        computed = signature_polynomial(fermat_curve(d), GroupId.A2)
        assert isinstance(computed, SignaturePolynomial)
        assert computed.S == closed.S
    # PGL3: the certificate proves each closed form is the signature
    # polynomial, and at d = 3 the certified route reproduces it
    # byte-exactly; numeric samples additionally vanish on it.
    assert signature_polynomial(fermat_curve(3), GroupId.PGL3).S == fermat_signature_pgl3(3).S
    for d in (3, 4, 5):
        closed = fermat_signature_pgl3(d)
        assert closed.degree() == 4
        cv = fermat_curve(d)
        samples = signature_samples(cv, GroupId.PGL3, 25, seed=7)
        assert len(samples) >= 20
        bad = sum(
            1 for s in samples if relative_residual(closed.S, s.k1, s.k2) > SAMPLE_TOL
        )
        assert bad <= 2
        cert = certify_signature(FiberTable(cv, GroupId.PGL3), closed.S)
        assert cert is not None and cert.kind == "bezout-count"
    # symmetry orders via the degree-ratio route
    for d in (3, 4):
        for g, want in ((GroupId.PGL3, 6 * d * d), (GroupId.A2, 2 * d * d)):
            res = symmetry_order(
                fermat_curve(d), g, known_signature_degree=(
                    fermat_signature_pgl3(d) if g is GroupId.PGL3 else fermat_signature_a2(d)
                ).degree(),
            )
            assert res.n == want == fermat_symmetry_order(d, g)
    elapsed = time.time() - t0
    assert elapsed <= 900
    _announce(5, elapsed, 900, "closed forms verified (A2 byte-exact, PGL3 certified), orders 6d^2/2d^2")


def _curve_through_points(rng, d, points):
    coeffs_pos = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    rows = []
    for (px, py) in points:
        rows.append([px**i * py**j for (i, j) in coeffs_pos])
    n = len(coeffs_pos)
    A = [[Fraction(x) for x in row] for row in rows]
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(A)) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][col]
        A[r] = [x / pv for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(col)
        r += 1
        if r == len(A):
            break
    free = [c for c in range(n) if c not in piv_cols]
    sol = [Fraction(0)] * n
    for fc in free:
        sol[fc] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    for row_i, pc in enumerate(piv_cols):
        sol[pc] = -sum(A[row_i][fc] * sol[fc] for fc in free)
    F = SparsePoly(R, {e: sol[i] for i, e in enumerate(coeffs_pos) if sol[i]})
    if F.is_zero() or F.total_degree() < d:
        return None
    return CurveInput.from_poly(F)


def _random_group_element(rng, g):
    if g is GroupId.SE2:
        m = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        c = (1 - m * m) / (1 + m * m)
        s = 2 * m / (1 + m * m)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return [[1, 0, 0], [a, c, s], [b, -s, c]]
    if g is GroupId.SA2:
        while True:
            p = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            r_ = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if p == 0:
                continue
            s = (1 + q * r_) / p
            a = Fraction(rng.randint(-3, 3))
            b = Fraction(rng.randint(-3, 3))
            return [[1, 0, 0], [a, p, q], [b, r_, s]]
    if g is GroupId.A2:
        while True:
            mat = [
                [Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(rng.randint(-4, 4))] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)],
                [Fraction(rng.randint(-4, 4))] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)],
            ]
            if mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1] != 0:
                return mat
    while True:
        mat = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)]
            for _ in range(3)
        ]
        det = (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
        if det != 0:
            return mat


def test_criterion_6_invariance_suite():
    t0 = time.time()
    rng = random.Random(606)
    points = [
        (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(5)
    ]
    curve = None
    while curve is None:
        curve = _curve_through_points(rng, 3, points)
    matched = 0
    for g in ALL_GROUPS:
        elements = 0
        guard = 0
        while elements < 20 and guard < 200:
            guard += 1
            mat = _random_group_element(rng, g)
            try:
                moved = apply_group_element(curve, mat, g)
            except ValueError:
                continue
            ok_points = 0
            for p in points:
                try:
                    k = invariants_at_point(curve, g, p)
                    q = transform_point(mat, p)
                    k2 = invariants_at_point(moved, g, q)
                except (ZeroDivisionError, ValueError):
                    continue
                assert k == k2, (g, mat, p)
                ok_points += 1
                matched += 1
            if ok_points:
                elements += 1
        assert elements == 20, f"not enough usable elements for {g}"
    # signature-polynomial equality under random transformations
    fermat3 = fermat_curve(3)
    sig_a2 = signature_polynomial(fermat3, GroupId.A2)
    moved = apply_group_element(fermat3, _random_group_element(rng, GroupId.A2), GroupId.A2)
    assert signature_polynomial(moved, GroupId.A2).S == sig_a2.S
    cusp = CurveInput.from_poly(parse("y^2 - x^3"))
    sig_se2 = signature_polynomial(cusp, GroupId.SE2)
    moved2 = apply_group_element(cusp, _random_group_element(rng, GroupId.SE2), GroupId.SE2)
    assert signature_polynomial(moved2, GroupId.SE2).S == sig_se2.S
    elapsed = time.time() - t0
    assert elapsed <= 300
    _announce(
        6, elapsed, 300, f"{matched} exact K-matches across 80 group elements; signature equality A2+SE2"
    )


def test_criterion_7_constant_signature():
    t0 = time.time()
    circle = CurveInput.from_poly(parse("x^2 + y^2 - 1"))
    assert is_constant_signature(circle, GroupId.SE2) == 1
    out = signature_polynomial(circle, GroupId.SE2)
    assert isinstance(out, PointSignature) and out.value == 1
    res = symmetry_order(circle, GroupId.SE2)
    assert res.infinite and res.constant_value == 1
    elapsed = time.time() - t0
    assert elapsed <= 5
    _announce(7, elapsed, 5, "unit circle: constant K1 = 1, infinite symmetry")


def test_criterion_8_oracle_consistency():
    t0 = time.time()
    fixtures = [
        (CurveInput.from_poly(parse("x^2 + x*y + y^2 - 1")), GroupId.SE2, 2),
        (CurveInput.from_poly(parse("3x^2 + x*y + 5y^2 - 2x - 1")), GroupId.SE2, 2),
        (CurveInput.from_poly(parse("y^2 - x^3")), GroupId.SE2, 1),
        (fermat_curve(3), GroupId.A2, 18),
        (fermat_curve(4), GroupId.A2, 32),
        (fermat_curve(5), GroupId.A2, 50),
    ]
    for cv, g, n in fixtures:
        sig = signature_polynomial(cv, g)
        assert isinstance(sig, SignaturePolynomial)
        pred = predict_degree(cv, g, n=n)
        assert sig.degree() == pred.deg_S_predicted, (serialize(cv.F), g)
        samples = signature_samples(cv, g, 25, seed=4)
        assert len(samples) == 25
        worst = max(relative_residual(sig.S, s.k1, s.k2) for s in samples)
        assert worst < SAMPLE_TOL, (serialize(cv.F), g, worst)
    elapsed = time.time() - t0
    _announce(
        8, elapsed, 600, "certified degree == predicted degree and 25 samples vanish at 1e-8 on 6 fixtures"
    )
