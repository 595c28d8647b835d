import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sigcurve.signature as signature_module
from oracles import SampleCheckError, relative_residual, verify_signature_samples
from sigcurve.equivalence import equivalent
from sigcurve.errors import SigcurveError
from sigcurve.fermat import fermat_curve, fermat_signature
from sigcurve.jets import (
    CLASSIFYING_RECIPES,
    CurveInput,
    GroupId,
    apply_group_element,
    classifying_pair,
    fiber_evaluator,
    fiber_invariants,
    theta,
)
from sigcurve.parser import parse, serialize
from sigcurve.poly import RatFunc, SparsePoly, divides, exact_div, gcd, resultant
from sigcurve.series import SeriesRing, intpoly_from_poly, intpoly_squarefree
from sigcurve.signature import (
    SIG_RING,
    FiberTable,
    PointSignature,
    certify_signature,
    is_constant_signature,
    line_degree,
    signature_polynomial,
    signature_samples,
)
from test_jets import rand_curve

ELLIPSE_S_REFERENCE = (
    "2916*k1^6 + 972*k1^4*k2^2 + 108*k1^2*k2^4 + 4*k2^6"
    " - 13608*k1^5 + 1944*k1^3*k2^2 + 2187*k1^4"
)


class TestEllipse:
    def test_reference_polynomial_byte_exact(self, ellipse):
        sig = signature_polynomial(ellipse, GroupId.SE2)
        assert serialize(sig.S) == ELLIPSE_S_REFERENCE

    def test_degree_matches_prediction(self, ellipse):
        from sigcurve.degree import predict_degree

        sig = signature_polynomial(ellipse, GroupId.SE2)
        rep = predict_degree(ellipse, GroupId.SE2, n=2)
        assert sig.degree() == rep.deg_S_predicted == 6

    def test_samples_vanish(self, ellipse):
        sig = signature_polynomial(ellipse, GroupId.SE2)
        samples = signature_samples(ellipse, GroupId.SE2, 25, seed=3)
        assert len(samples) == 25
        assert all(relative_residual(sig.S, s.k1, s.k2) < 1e-8 for s in samples)

    def test_samples_deterministic(self, ellipse):
        a = signature_samples(ellipse, GroupId.SE2, 10, seed=5)
        b = signature_samples(ellipse, GroupId.SE2, 10, seed=5)
        assert [(s.x, s.y) for s in a] == [(s.x, s.y) for s in b]
        c = signature_samples(ellipse, GroupId.SE2, 10, seed=6)
        assert [(s.x, s.y) for s in a] != [(s.x, s.y) for s in c]

    def test_count_zero(self, ellipse):
        assert signature_samples(ellipse, GroupId.SE2, 0, seed=1) == []

    def test_check_needs_samples(self, ellipse, monkeypatch):
        """A sample check that finds no samples is not evidence for S."""
        sig = signature_polynomial(ellipse, GroupId.SE2)
        monkeypatch.setattr(oracles, "signature_samples", lambda *a, **k: [])
        with pytest.raises(SampleCheckError):
            verify_signature_samples(sig)


class TestConstantSignature:
    def test_unit_circle(self, circle):
        assert is_constant_signature(circle, GroupId.SE2) == 1
        out = signature_polynomial(circle, GroupId.SE2)
        assert isinstance(out, PointSignature) and out.value == 1

    def test_fiber_table_answers_a_zero_invariant(self, circle):
        """K2 = 0 on the circle: the table proves the constant, and refuses
        to bound a line's pullback, since there is no S to certify."""
        table = FiberTable(circle, GroupId.SE2)
        assert table.constant() == 1
        with pytest.raises(SigcurveError, match="K2 is 0 on the curve"):
            table.deg_line

    @pytest.mark.parametrize(
        "curve, group, value",
        [
            ("y^2 - x^3", GroupId.A2, Fraction(25)),
            ("y^2 - x^3", GroupId.PGL3, Fraction(250047, 12800)),
            ("y^3 - x^5", GroupId.A2, Fraction(256, 7)),
            ("y^3 - x^5", GroupId.PGL3, Fraction(5000211, 100352)),
            ("x*y^2 - 1", GroupId.PGL3, Fraction(250047, 12800)),
            ("y^2 - x^3", GroupId.SA2, None),  # the first fibers give 16 and -16
            ("y - x^3", GroupId.SE2, None),  # deg_y F = 1: every fiber value is rational
        ],
    )
    def test_constant_values(self, curve, group, value):
        cv = CurveInput.from_poly(parse(curve))
        assert is_constant_signature(cv, group) == value

    def test_pgl3_image_not_constant(self):
        """Two fibers answer "no" on a dense PGL3 image of the Fermat cubic."""
        G = apply_group_element(fermat_curve(3), [[1, 1, 0], [0, 1, 1], [2, 0, 1]], GroupId.PGL3)
        assert is_constant_signature(G, GroupId.PGL3) is None

    def test_pgl3_image_not_constant_without_the_pair(self):
        """The two fibers of "not constant" are the table's own, read from
        the T_i, so the table never builds the image's classifying pair."""
        G = apply_group_element(fermat_curve(3), [[1, 1, 0], [0, 1, 1], [2, 0, 1]], GroupId.PGL3)
        table = FiberTable(G, GroupId.PGL3)
        assert table.constant() is None
        assert "pair" not in table.__dict__

    def test_ellipse_not_constant(self, ellipse):
        assert is_constant_signature(ellipse, GroupId.SE2) is None

    def test_fermat4_a2_not_constant(self):
        cv = CurveInput.from_poly(parse("x^4 + y^4 + 1"))
        assert is_constant_signature(cv, GroupId.A2) is None

    def test_shifted_circle_constant(self):
        cv = CurveInput.from_poly(parse("x^2 + y^2 - 2x - 4y + 1"))
        assert is_constant_signature(cv, GroupId.SE2) == Fraction(1, 4)


class TestEquivariance:
    def test_cusp_cubic_se2(self, cusp_cubic):
        sig = signature_polynomial(cusp_cubic, GroupId.SE2)
        assert sig.degree() == 9
        m = [
            [1, 0, 0],
            [Fraction(1, 3), Fraction(3, 5), Fraction(4, 5)],
            [Fraction(-2, 7), Fraction(-4, 5), Fraction(3, 5)],
        ]
        moved = apply_group_element(cusp_cubic, m, GroupId.SE2)
        assert signature_polynomial(moved, GroupId.SE2).S == sig.S

    def test_fermat3_a2(self):
        cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
        sig = signature_polynomial(cv, GroupId.A2)
        m = [[1, 0, 0], [2, 3, Fraction(1, 2)], [-1, 1, 1]]
        moved = apply_group_element(cv, m, GroupId.A2)
        assert signature_polynomial(moved, GroupId.A2).S == sig.S


class TestResultantCrossCheck:
    def test_s_divides_iterated_resultant(self, ellipse):
        """S divides Res_x(Res_y(F, B k1 - A), Res_y(F, D k2 - C))."""
        sig = signature_polynomial(ellipse, GroupId.SE2)
        pair = classifying_pair(ellipse, GroupId.SE2)
        R5 = ("x", "y", "k1", "k2")
        up = lambda p: p.map_variables(R5)
        k1 = SparsePoly.var(R5, "k1")
        k2 = SparsePoly.var(R5, "k2")
        F = up(ellipse.F)
        r1 = resultant(F, up(pair.K1.den) * k1 - up(pair.K1.num), "y")
        r2 = resultant(F, up(pair.K2.den) * k2 - up(pair.K2.num), "y")
        iterated = resultant(r1, r2, "x")
        assert not iterated.is_zero()
        assert divides(up(sig.S), iterated)


def _usable_abscissas(curve, count):
    """The first ``count`` abscissas, in table order, whose fiber is
    squarefree of full y-degree, each with its ring."""
    dy = int(curve.F.degree_in("y"))
    out = []
    for x0 in signature_module._abscissas():
        q = intpoly_from_poly(curve.F.evaluate_partial({"x": x0}), "y")
        if len(q) - 1 == dy and intpoly_squarefree(q):
            out.append((x0, SeriesRing(q)))
            if len(out) == count:
                return out


class TestPairRoute:
    """(K1, K2) on a fiber comes from the T_i (``jets.fiber_invariants``);
    the reduced classifying pair A/B, C/E evaluated on the fiber is the
    reference."""

    @pytest.mark.parametrize(
        "spec, group",
        [
            ("x^2 + x*y + y^2 - 1", GroupId.SE2),
            ("y^2 - x^3", GroupId.SE2),
            ("x^3 + y^3 + 1", GroupId.A2),
            ("x^4 + y^4 + 1", GroupId.A2),
            ("x^3 + y^3 + 1", GroupId.PGL3),
            ("x^4 + y^4 + 1", GroupId.PGL3),
            ("y^2 - x^3 - x - 1", GroupId.SE2),
            ("x^2*y + y^2 + y + 64/121", GroupId.SA2),
            *[((3, 4, 9), g) for g in (GroupId.SE2, GroupId.SA2, GroupId.A2)],
            ((3, 2, 2), GroupId.PGL3),
            *[((4, 4, 9), g) for g in (GroupId.SE2, GroupId.SA2, GroupId.A2)],
        ],
    )
    def test_equals_the_jets_route(self, spec, group):
        """``jets.fiber_invariants`` gives A B^-1 and C E^-1 on every fiber
        where T_b is a unit (B and E, which divide powers of T_b, are units
        there too), and the table's fibers are those fibers in abscissa
        order.  ``spec`` is a curve or the (degree, seed, height) of a dense
        one; a dense quartic under PGL3 is left out, its classifying pair
        alone takes 20-50 s."""
        if isinstance(spec, str):
            cv = CurveInput.from_poly(parse(spec))
        else:
            d, seed, height = spec
            cv = rand_curve(random.Random(seed), d, height)
        pair = classifying_pair(cv, group)
        A, B, C, E = (fiber_evaluator(p) for p in (pair.K1.num, pair.K1.den, pair.K2.num, pair.K2.den))
        values = []
        for x0, ring in _usable_abscissas(cv, 12):
            try:
                got = fiber_invariants(cv, group, x0, ring)
            except ZeroDivisionError:
                continue
            inv_b, inv_e = (
                ring.element(ring.invert_vec(den(x0, ring).coeff_fractions(0))) for den in (B, E)
            )
            want = A(x0, ring) * inv_b, C(x0, ring) * inv_e
            for a, b in zip(got, want):
                assert a.coeff_fractions(0) == b.coeff_fractions(0)
            values.append(got)
        assert len(values) >= 8
        table = FiberTable(cv, group)
        for i, (k1, k2) in enumerate(values):
            fiber = table.fiber(i)
            assert (fiber.k1.coeff_fractions(0), fiber.k2.coeff_fractions(0)) == (
                k1.coeff_fractions(0), k2.coeff_fractions(0)
            )

    def test_skips_a_fiber_where_t_b_is_a_zero_divisor(self):
        """On x^4 + y^4 + 1 under A2, T_4 is a zero divisor on the fiber
        x = 0, the only one of the first 49 that the table skips, though the
        reduced B and E are units there.  The signature and its certificate
        do not depend on which fibers the table holds."""
        cv = CurveInput.from_poly(parse("x^4 + y^4 + 1"))
        skipped = []
        for x0, ring in _usable_abscissas(cv, 49):
            try:
                fiber_invariants(cv, GroupId.A2, x0, ring)
            except ZeroDivisionError:
                skipped.append((x0, ring))
        [(x0, ring)] = skipped
        assert x0 == 0
        with pytest.raises(ZeroDivisionError):
            ring.invert_vec(fiber_evaluator(theta(cv, 4).T)(x0, ring).coeff_fractions(0))
        pair = classifying_pair(cv, GroupId.A2)
        for den in (pair.K1.den, pair.K2.den):
            ring.invert_vec(fiber_evaluator(den)(x0, ring).coeff_fractions(0))
        table = FiberTable(cv, GroupId.A2)
        [(x1, ring1)] = _usable_abscissas(cv, 2)[1:]
        first = fiber_invariants(cv, GroupId.A2, x1, ring1)[0]
        assert table.fiber(0).k1.coeff_fractions(0) == first.coeff_fractions(0)
        sig = signature_polynomial(cv, GroupId.A2)
        assert serialize(sig.S) == (
            "13720*k2^3 + 49*k1^2 - 13230*k1*k2 + 176400*k2^2 + 76300*k1 + 231000*k2 + 80000"
        )
        assert (sig.certificate.deg_N, sig.certificate.fibers) == (72, 73)


class TestNoPairOnAGenericCurve:
    """Where T_b is prime to T_a and T_c the table reads everything from the
    T_i: fibers, the constant test and ``deg_line``."""

    @staticmethod
    def refuse_pair(monkeypatch, allowed=()):
        real = signature_module.classifying_pair

        def guarded(curve, group):
            if curve not in allowed:
                raise AssertionError(f"classifying_pair built for {serialize(curve.F)}")
            return real(curve, group)

        monkeypatch.setattr(signature_module, "classifying_pair", guarded)

    def test_table_certificate_and_signature(self, ellipse, monkeypatch):
        self.refuse_pair(monkeypatch)
        cv = CurveInput.from_poly(parse("y^2 - x^3 - x - 1"))
        table = FiberTable(cv, GroupId.SE2)
        assert table.constant() is None
        assert table.deg_line == 12
        assert certify_signature(table, parse("k1^2 - k2^2 + 1", SIG_RING)) is None
        sig = signature_polynomial(ellipse, GroupId.SE2)
        assert serialize(sig.S) == ELLIPSE_S_REFERENCE
        assert (sig.certificate.deg_N, sig.certificate.fibers) == (36, 37)

    def test_equivalent_on_the_pgl3_image(self, monkeypatch):
        """The Fermat cubic's T_i share factors, so its own table builds the
        pair for ``deg_line``; its dense image G never does."""
        F = fermat_curve(3)
        self.refuse_pair(monkeypatch, allowed=(F,))
        G = apply_group_element(F, [[1, 1, 0], [0, 1, 1], [2, 0, 1]], GroupId.PGL3)
        verdict = equivalent(F, G, GroupId.PGL3)
        assert verdict.equivalent is True
        cert = verdict.right.certificate
        assert (cert.deg_N, cert.fibers) == (432, 433)

    @pytest.mark.parametrize(
        "curve, group, reduced, from_thetas",
        [
            ("x^3 + y^3 + 1", GroupId.A2, 12, 36),
            ("x^2*y + y^2 + y + 64/121", GroupId.SA2, 34, 40),
        ],
    )
    def test_shared_factors_fall_back_to_the_pair(self, curve, group, reduced, from_thetas):
        """T_b shares a factor with T_a or T_c: ``deg_line`` reads the reduced
        pair, whose bound is smaller than the T_i's degrees give."""
        cv = CurveInput.from_poly(parse(curve))
        table = FiberTable(cv, group)
        assert table.deg_line == reduced
        assert "pair" in table.__dict__
        ((na, p), (nb, q)), ((nc, r), (_, s)) = CLASSIFYING_RECIPES[group]
        a, b, c = (int(theta(cv, i).T.total_degree()) for i in (na, nb, nc))
        assert line_degree(p * a, q * b, r * c, s * b, max(q, s) * b) == from_thetas


def _reduced_reference(P, x0, q):
    """P(x0, W) modulo q, ascending, by ``evaluate_partial`` and long
    division over Q."""
    rem = [Fraction(0)] * (int(P.degree_in("y")) + 1 if P.terms else 1)
    for (_, j), c in P.evaluate_partial({"x": x0}).terms.items():
        rem[j] += c
    while len(rem) >= len(q):
        t = rem[-1] / q[-1]
        for k, c in enumerate(q):
            rem[len(rem) - len(q) + k] -= t * c
        rem.pop()
    return rem + [Fraction(0)] * (len(q) - 1 - len(rem))


@settings(max_examples=150, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 7)),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        max_size=12,
    ),
    x0=st.fractions(min_value=-6, max_value=6, max_denominator=7),
    q=st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(lambda c: c[-1] != 0),
)
@example(terms={(2, 6): Fraction(3, 4), (0, 1): Fraction(-1)}, x0=Fraction(0), q=[1, 0, 3])
@example(terms={(3, 7): Fraction(5), (1, 2): Fraction(2, 3)}, x0=Fraction(-5, 3), q=[2, -1, 0, 6])
@example(terms={(4, 1): Fraction(7, 2), (0, 0): Fraction(1)}, x0=Fraction(-2), q=[-3, 1, 1, 4])
@example(terms={(0, 0): Fraction(-9, 5)}, x0=Fraction(1, 2), q=[5, 0, 2])
@example(terms={}, x0=Fraction(3), q=[1, 1])
def test_fiber_evaluator_matches_exact_reduction(terms, x0, q):
    """P(x0, W) in Q[W]/(q): x0 = 0, negative and non-integer, lc(q) != 1,
    deg_y P < deg q and a constant P among the examples."""
    P = SparsePoly.from_terms(("x", "y"), terms.items())
    ring = SeriesRing(q)
    got = fiber_evaluator(P)(Fraction(x0), ring)
    assert got.coeff_fractions(0) == _reduced_reference(P, Fraction(x0), ring.q)


def _pullback_numerator(S, K1, K2):
    """N = L^D S(A/B, C/E) with L = lcm(B, E), term by term:
    the sum of c_ij (A L/B)^i (C L/E)^j L^(D - i - j)."""
    L = exact_div(K1.den * K2.den, gcd(K1.den, K2.den))
    pa, pc = K1.num * exact_div(L, K1.den), K2.num * exact_div(L, K2.den)
    D = int(S.total_degree())
    N = SparsePoly.zero(L.ring)
    for (i, j), c in S.terms.items():
        N = N + (pa**i * pc**j * L ** (D - i - j)).scale(c)
    return N


class TestCertificate:
    def test_records_the_bezout_count(self, ellipse):
        cert = signature_polynomial(ellipse, GroupId.SE2).certificate
        # K1, K2: degree 4 over one degree-6 denominator, so deg L = 6 and
        # deg_line = 6; deg N <= 6 * 6, fibers > 2 * 36 / 2
        assert (cert.kind, cert.deg_N, cert.fibers, cert.curve) == (
            "bezout-count", 36, 37, "irreducible-asserted"
        )

    @pytest.mark.parametrize(
        "curve, group",
        [
            ("x^2 + x*y + y^2 - 1", GroupId.SE2),
            ("y^2 - x^3", GroupId.SE2),
            ("x^3 + y^3 + 1", GroupId.A2),
        ],
    )
    def test_deg_N_bounds_the_pulled_back_signature(self, curve, group):
        """N = L^D S(A/B, C/E), built exactly, has degree at most deg_N, which
        is never above the separate bound D (alpha + gamma); and the
        certificate checks more than d deg_N / deg_y F fibers.  (On the
        Fermat cubic N is the zero polynomial: S(K1, K2) = 0 holds on the
        whole plane there.)"""
        cv = CurveInput.from_poly(parse(curve))
        sig = signature_polynomial(cv, group)
        cert, D = sig.certificate, sig.degree()
        pair = classifying_pair(cv, group)
        N = _pullback_numerator(sig.S, pair.K1, pair.K2)
        alpha_gamma = sum(
            max(k.num.total_degree(), k.den.total_degree()) for k in (pair.K1, pair.K2)
        )
        assert N.total_degree() <= cert.deg_N <= D * alpha_gamma
        assert cert.fibers * cv.F.degree_in("y") > cv.d * cert.deg_N

    @pytest.mark.parametrize(
        "A, B, C, E",
        [
            ("x^5 + y", "x^2 + 1", "y", "x*y + 2"),  # deg A + deg L - deg B binds
            ("y", "x*y + 2", "x^5 + y", "x^2 + 1"),  # deg C + deg L - deg E binds
            ("x", "(x + 1)^2*(x - y)", "y", "(x + 1)^2*(y + 2)"),  # deg L binds
        ],
    )
    def test_deg_line_is_the_degree_of_a_pulled_back_line(self, A, B, C, E):
        """On synthetic pairs, each of the three terms of ``line_degree`` in
        turn the largest: a generic line a k1 + b k2 + c pulls back to a
        curve of degree deg_line, and N = L^D S(A/B, C/E) of a dense S of
        degree 2 has degree 2 deg_line."""
        K1, K2 = RatFunc.build(parse(A), parse(B)), RatFunc.build(parse(C), parse(E))
        lcm = exact_div(K1.den * K2.den, gcd(K1.den, K2.den))
        deg_line = line_degree(
            *(int(p.total_degree()) for p in (K1.num, K1.den, K2.num, K2.den, lcm))
        )
        line = parse("3*k1 - 5*k2 + 7", SIG_RING)
        dense = parse("2*k1^2 + 3*k1*k2 - k2^2 + 5*k1 - 7*k2 + 11", SIG_RING)
        assert _pullback_numerator(line, K1, K2).total_degree() == deg_line
        assert _pullback_numerator(dense, K1, K2).total_degree() == 2 * deg_line

    def test_rejects_another_curves_signature(self):
        """The quartic's PGL3 closed form has the cubic's degree but does
        not vanish on the cubic's signature curve."""
        wrong = fermat_signature(4, GroupId.PGL3).S
        assert certify_signature(FiberTable(fermat_curve(3), GroupId.PGL3), wrong) is None

    def test_rejects_a_multiple(self, ellipse):
        """k1 * S vanishes on the signature curve, but S has lower degree."""
        sig = signature_polynomial(ellipse, GroupId.SE2)
        table = FiberTable(ellipse, GroupId.SE2)
        assert certify_signature(table, sig.S) is not None
        k1 = SparsePoly.var(SIG_RING, "k1")
        assert certify_signature(table, sig.S * k1) is None

    def test_rejected_fits_are_refitted(self, monkeypatch):
        """A kernel trusted after one more fiber proposes polynomials of
        degree 1 and 2 on this curve; the certificate rejects them and the
        route still ends at the signature polynomial of degree 3."""
        seen = []

        def recording(table, S):
            cert = certify_signature(table, S)
            seen.append((int(S.total_degree()), cert is not None))
            return cert

        monkeypatch.setattr(signature_module, "STABLE_BATCH", 1)
        monkeypatch.setattr(signature_module, "certify_signature", recording)
        cv = CurveInput.from_poly(parse("x^4 + y^4 + 1"))
        sig = signature_polynomial(cv, GroupId.A2)
        assert seen == [(1, False), (2, False), (3, True)]
        assert sig.S == fermat_signature(4, GroupId.A2).S
