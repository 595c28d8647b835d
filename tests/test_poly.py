import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    add_fraction_terms,
    evaluate_fraction_terms,
    exact_div_grevlex,
    mat_inverse_gauss_jordan,
    modp_sylvester_resultant,
    mul_tuple_keys,
    sylvester_resultant,
)
from sigcurve.errors import PoleError, RingMismatchError
from sigcurve.parser import parse, serialize
from sigcurve.modp import (
    IMAGE_PRIME,
    _modp_gcd,
    _modp_resultant,
    _modp_ylists,
    pseudo_remainder_image,
    resultant_coprime_image,
)
from sigcurve import poly
from sigcurve.poly import (
    RatFunc,
    SparsePoly,
    _degrees,
    _gcd_cofactors,
    _int_form,
    _mul_kronecker,
    _mul_loop,
    divides,
    exact_div,
    gcd,
    mat_inverse,
    pseudo_remainder,
    resultant,
    square_free_part,
)

R = ("x", "y")
X = SparsePoly.var(R, "x")
Y = SparsePoly.var(R, "y")


def rand_poly(draw, max_deg=3, max_coeff=9):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(0, max_deg),
                st.integers(0, max_deg),
                st.integers(-max_coeff, max_coeff),
            ),
            min_size=0,
            max_size=6,
        )
    )
    return SparsePoly.from_terms(R, [((i, j), c) for i, j, c in terms])


@st.composite
def sparse_polys(draw, max_deg=3):
    return rand_poly(draw, max_deg)


RINGS = {n: tuple(f"v{i}" for i in range(n)) for n in (1, 2, 3, 5)}


@st.composite
def ring_triples(draw, max_deg=3):
    """Three polynomials with rational coefficients over one ring of 1, 2, 3
    or 5 variables; the second is nonzero."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    exps = st.tuples(*[st.integers(0, max_deg)] * len(ring))
    coeffs = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 4))

    def poly(min_size):
        terms = st.lists(
            st.tuples(exps, coeffs), min_size=min_size, max_size=6, unique_by=lambda t: t[0]
        )
        return SparsePoly(ring, dict(draw(terms)))

    a, b, c = poly(0), poly(1), poly(0)
    return a, b, c


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_absorbing_zero(self):
        p = parse("3x^2*y - 7y + 1/2")
        assert (p * SparsePoly.zero(R)).is_zero()

    def test_binomial_cube(self):
        assert (X + 1) ** 3 == parse("x^3 + 3x^2 + 3x + 1")

    def test_powers_by_squaring(self):
        p = parse("2x - 3/2*y + 1")
        assert p**0 == SparsePoly.const(R, 1) == SparsePoly.zero(R) ** 0
        assert p**1 == p
        assert SparsePoly.zero(R) ** 3 == SparsePoly.zero(R)
        for n in (2, 5, 6, 13):
            want = SparsePoly.const(R, 1)
            for _ in range(n):
                want = want * p
            assert p**n == want

    def test_ring_mismatch(self):
        other = SparsePoly.var(("u", "v"), "u")
        with pytest.raises(RingMismatchError):
            X + other
        with pytest.raises(RingMismatchError):
            X * other

    @settings(max_examples=60, deadline=None)
    @given(sparse_polys(), sparse_polys(), sparse_polys())
    def test_ring_laws(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, deadline=None)
    @given(sparse_polys(), sparse_polys())
    def test_derivation_rule(self, p, q):
        for v in R:
            lhs = (p * q).partial_derivative(v)
            rhs = p * q.partial_derivative(v) + q * p.partial_derivative(v)
            assert lhs == rhs


class TestDerivatives:
    def test_power_rule(self):
        assert parse("x^2*y + y^2").partial_derivative("y") == parse("x^2 + 2y")

    def test_constant_in_x(self):
        assert parse("y^3").partial_derivative("x").is_zero()

    def test_fermat_partial(self):
        d = 5
        assert parse(f"x^{d}+y^{d}+1").partial_derivative("y") == parse(f"{d}y^{d-1}")


class TestGcdContent:
    def test_gcd_example(self):
        assert gcd(X**2 - 1, X**2 + 2 * X + 1) == X + 1

    def test_content_primitive(self):
        c, prim = parse("6x + 9y").primitive()
        assert c == 3 and prim == parse("2x + 3y")

    def test_square_free_part(self):
        p = (X + Y) ** 2 * (X - Y)
        assert square_free_part(p) == (X + Y) * (X - Y)

    def test_gcd_zero_conventions(self):
        z = SparsePoly.zero(R)
        assert gcd(z, z).is_zero()
        assert gcd(z, X + 1) == X + 1

    @settings(max_examples=25, deadline=None)
    @given(sparse_polys(2), sparse_polys(2), sparse_polys(2))
    def test_gcd_divides_both(self, p, q, h):
        a = p * h
        b = q * h
        if a.is_zero() or b.is_zero():
            return
        g = gcd(a, b)
        assert divides(g, a) and divides(g, b)
        if not h.is_zero():
            assert divides(h.primitive_part(), g) or h.is_constant()
        assert gcd(exact_div(a, g), exact_div(b, g)) == SparsePoly.const(R, 1)

    def test_gcd_fermat_type_powers(self):
        a = parse("(x^3+y^3)^4*(x+2y+1)")
        b = parse("(x^3+y^3)^3*(x-y)^2")
        assert gcd(a, b) == parse("(x^3+y^3)^3")

    def test_gcd_with_content_in_one_variable(self):
        a = parse("(y^2+1)*(x+y)*(x-3)")
        b = parse("(y^2+1)*(x+y)^2*(x+5)")
        assert gcd(a, b) == parse("(y^2+1)*(x+y)")

    def test_gcd_unlucky_evaluation_point(self):
        # at y = 1 both primitive parts in x are multiples of 8x + 5, over Q
        # and so modulo every prime
        a = parse("x*(8*y+5)*(x*(y^2-9) - 5*y^2)")
        b = parse("x*y^2*(8*y+5)*(8*x+5)")
        assert gcd(a, b) == parse("x*(8*y+5)")

    def test_gcd_three_variables_homogeneous(self):
        R3 = ("x", "y", "z")
        a = parse("(x^2+y*z)^2*(x+y+z)", R3)
        b = parse("(x^2+y*z)*(x-2*y+3*z)^2", R3)
        assert gcd(a, b) == parse("x^2+y*z", R3)

    def test_gcd_univariate_huge_coefficients(self):
        f = parse(f"x^2 + {2**201 + 1}*x + 3")
        a = f * parse(f"x - {2**210}")
        b = f * parse(f"3*x + {2**205 + 7}")
        assert gcd(a, b) == f

    def test_classifying_pair_fermat_cubic_pgl3_is_reduced(self):
        # the gcd of T7^3 and T5^8 here is (x^3+y^3)^24, a dense bivariate
        # gcd of degree 72
        from sigcurve.jets import CurveInput, GroupId, classifying_pair, theta

        cv = CurveInput.from_poly(parse("x^3+y^3+1"))
        pair = classifying_pair(cv, GroupId.PGL3)
        K1, K2 = pair.K1, pair.K2
        T5, T7, T8 = (theta(cv, i).T for i in (5, 7, 8))
        assert K1.num * T5**8 == K1.den * T7**3
        assert K2.num * T5**4 == K2.den * T8
        one = SparsePoly.const(R, 1)
        assert gcd(K1.num, K1.den) == one and gcd(K2.num, K2.den) == one

    def test_exact_div_round_trip(self):
        p = parse("x^3*y - 2x*y^2 + 5")
        q = parse("x^2 + y")
        assert exact_div(p * q, q) == p
        with pytest.raises(ValueError):
            exact_div(parse("x^2 + 1"), parse("x + 1"))

    @settings(max_examples=40, deadline=None)
    @given(sparse_polys(2), sparse_polys(2), sparse_polys(2))
    def test_cofactors_certify_gcd(self, p, q, h):
        # the cofactors come back through the deflation, monomial and sign
        # normalisations of gcd
        a, b = p * h * X**2, q * h * parse("x^3 - 2*y^3")
        if a.is_zero() or b.is_zero():
            return
        g, ca, cb = _gcd_cofactors(a, b)
        assert g == gcd(a, b)
        assert g * ca == a and g * cb == b

    def test_cofactors_through_deflation(self):
        # monomial split, x -> x^3 and y -> y^3 deflation, negative content
        a = parse("-(x^3+y^3)^2*(x^3-2)*x^2")
        b = parse("(x^3+y^3)*(y^6+3)*x^5")
        g, ca, cb = _gcd_cofactors(a, b)
        assert g == parse("x^2*(x^3+y^3)")
        assert g * ca == a and g * cb == b


class TestPackedKernels:
    """``SparsePoly.__mul__`` and ``exact_div`` on packed exponent keys
    against the tuple-keyed product and the grevlex ``Fraction`` division."""

    @settings(max_examples=150, deadline=None)
    @given(ring_triples())
    def test_product_matches_oracle(self, abc):
        a, b, _ = abc
        got, want = a * b, mul_tuple_keys(a, b)
        assert got == want
        assert list(got.terms) == list(want.terms)

    @settings(max_examples=150, deadline=None)
    @given(ring_triples())
    def test_quotient_of_product(self, abc):
        a, b, _ = abc
        assert exact_div(a * b, b) == a

    @settings(max_examples=150, deadline=None)
    @given(ring_triples())
    def test_divides_matches_oracle(self, abc):
        a, b, c = abc
        p = a * b + c
        try:
            want = exact_div_grevlex(p, b)
        except ValueError:
            want = None
        assert divides(b, p) == (want is not None)
        if want is not None:
            assert exact_div(p, b) == want

    @pytest.mark.parametrize(
        "q, p",
        [
            ("x + y", "2*x*y^2 - 2*y"),
            ("-x + y", "-x^3*y + x"),
            ("-2*x + 2*y", "-3*x^3 + x^2*y + 2*x"),
        ],
    )
    def test_non_multiples_refused(self, q, p):
        # each quotient step stays inside p's degrees only if the degree
        # guard holds; without it the packed keys alias and a wrong
        # quotient "divides"
        assert not divides(parse(q), parse(p))
        with pytest.raises(ValueError):
            exact_div(parse(p), parse(q))
        with pytest.raises(ValueError):
            exact_div_grevlex(parse(p), parse(q))

    def test_rational_operands_and_divisor_content(self):
        a = parse("3/4*x^2*y - 5/6*y^3 + 7/2")
        b = parse("6*x^2 + 10/3*x*y - 4*y + 8")  # content 2/3
        assert exact_div(a * b, b) == a
        assert exact_div(a * b, a) == b
        assert exact_div(a * b, b.scale(Fraction(-9, 14))) == a.scale(Fraction(-14, 9))
        assert not divides(b, a * b + parse("1/3*x"))

    def test_non_integral_quotient_coefficient_refused(self):
        # 2x + 1 is primitive, so by Gauss's lemma an exact quotient of an
        # integer polynomial by it is integral; x^2 + x stops at x^2 / 2x
        with pytest.raises(ValueError):
            exact_div(parse("x^2 + x"), parse("2*x + 1"))
        assert exact_div(parse("4*x^2 + 2*x"), parse("2*x + 1")) == parse("2*x")


BIG = 2**300
# small and huge magnitudes, and the extremes of a byte slot
MAGNITUDES = st.integers(1, 9) | st.integers(BIG, 2**520) | st.sampled_from(
    [2**k + a for k in (7, 8, 15, 300, 512) for a in (-1, 0)]
)


@st.composite
def kernel_pairs(draw):
    """(p, q) with rational coefficients over a ring of 1, 2 or 3 variables,
    in one of four shapes: any terms; q a monomial; q is p (a square); and a
    telescoping pair c * prod_i (1 + v_i + ... + v_i^k) * r times
    prod_i (1 - v_i), in which with r = 1 every coefficient that two term
    pairs reach cancels, and with a random r some of them do."""
    ring = RINGS[draw(st.sampled_from((1, 2, 3)))]
    n = len(ring)
    max_deg = {1: 12, 2: 6, 3: 3}[n]
    coeffs = st.builds(
        lambda sign, m, den: Fraction(sign * m, den),
        st.sampled_from((1, -1)), MAGNITUDES, st.integers(1, 12),
    )
    exps = st.tuples(*[st.integers(0, max_deg)] * n)

    def draw_poly(min_size, max_size):
        terms = st.lists(
            st.tuples(exps, coeffs), min_size=min_size, max_size=max_size,
            unique_by=lambda t: t[0],
        )
        return SparsePoly(ring, dict(draw(terms)))

    shape = draw(st.sampled_from(("any", "monomial", "square", "telescoping")))
    if shape == "telescoping":
        p = SparsePoly.const(ring, draw(coeffs))
        q = SparsePoly.const(ring, draw(coeffs))
        for v in ring:
            k = draw(st.integers(1, max_deg))
            p = p * SparsePoly.from_terms(ring, [(_unit(ring, v, i), 1) for i in range(k + 1)])
            q = q * (1 - SparsePoly.var(ring, v))
        if draw(st.booleans()):
            p = p * draw_poly(1, 4)
        return p, q
    p = draw_poly(1, 40)
    if shape == "square":
        return p, p
    return p, draw_poly(1, 1 if shape == "monomial" else 40)


def _unit(ring, v, i):
    return tuple(i if w == v else 0 for w in ring)


def product_by(kernel, p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """p * q with the given kernel, on the integer numerators and box that
    ``SparsePoly.__mul__`` hands it."""
    pn, pd = _int_form(p)
    qn, qd = (pn, pd) if q is p else _int_form(q)
    if len(pn) > len(qn):
        pn, qn = qn, pn
    bases = [a + b + 1 for a, b in zip(_degrees(pn), _degrees(qn))]
    return SparsePoly(p.ring, {e: Fraction(c, pd * qd) for e, c in kernel(pn, qn, bases)})


class TestKroneckerProduct:
    """The Kronecker kernel of ``SparsePoly.__mul__`` against its term loop,
    each called directly whatever the size rule would pick."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_pairs())
    def test_matches_the_term_loop(self, pq):
        p, q = pq
        packed = product_by(_mul_kronecker, p, q)
        assert packed == product_by(_mul_loop, p, q) == mul_tuple_keys(p, q)
        assert list(packed.terms) == sorted(packed.terms)  # lex order of the packed keys

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_telescoping_product_keeps_only_the_corners(self, n):
        ring = RINGS[n]
        p = SparsePoly.const(ring, -(BIG + 1))
        q = SparsePoly.const(ring, Fraction(BIG - 1, 7))
        want = SparsePoly.const(ring, Fraction(-(BIG + 1) * (BIG - 1), 7))
        for v in ring:
            x = SparsePoly.var(ring, v)
            p = p * SparsePoly.from_terms(ring, [(_unit(ring, v, i), 1) for i in range(9)])
            q = q * (1 - x)
            want = want * (1 - x**9)
        assert product_by(_mul_kronecker, p, q) == product_by(_mul_loop, p, q) == want

    @pytest.mark.parametrize("a, b, m", [(6, 6, 15), (100, 152, 15), (300, 301, 127)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_width_holds_the_largest_coefficient(self, a, b, m, sign):
        # a + b + bits(m) is a multiple of 8, so the sign bit takes a byte of
        # its own; the middle coefficient m (2^a - 1)(2^b - 1) needs all of it
        p = SparsePoly(("x",), {(i,): Fraction(2**a - 1) for i in range(m)})
        q = SparsePoly(("x",), {(j,): Fraction(sign * (2**b - 1)) for j in range(m)})
        got = product_by(_mul_kronecker, p, q)
        assert got.terms[(m - 1,)] == sign * m * (2**a - 1) * (2**b - 1)
        assert got == product_by(_mul_loop, p, q)

    @staticmethod
    def routes_of(product):
        """The kernels that ``product()`` runs, in call order."""
        calls = []

        def spy(name, kernel):
            def run(*args):
                calls.append(name)
                return kernel(*args)
            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_mul_kronecker", spy("kronecker", _mul_kronecker))
            mp.setattr(poly, "_mul_loop", spy("loop", _mul_loop))
            result = product()
        return calls, result

    def test_dense_quartic_powers_take_the_packed_route(self):
        rng = random.Random(15)
        F = SparsePoly.from_terms(R, [
            ((i, j), rng.choice((-1, 1)) * rng.randint(1, 9))
            for i in range(5) for j in range(5 - i)
        ])
        p, q = F**2, F**3
        assert len(p.terms) * len(q.terms) >= poly.KRONECKER_MIN_PAIRS
        calls, pq = self.routes_of(lambda: p * q)
        assert calls == ["kronecker"]
        assert pq == mul_tuple_keys(p, q)

    @pytest.mark.parametrize("bits, route", [(64, "kronecker"), (512, "loop")])
    def test_wide_coefficients_take_the_loop(self, bits, route):
        # a dense square of degree 16 fills 21.5 pairs per slot of its box:
        # enough at 18 bytes per slot, not at 130, where the packed product
        # is as slow as the loop
        rng = random.Random(1)
        p = SparsePoly.from_terms(R, [
            ((i, j), rng.getrandbits(bits) | 1) for i in range(17) for j in range(17 - i)
        ])
        calls, square = self.routes_of(lambda: p * p)
        assert calls == [route]
        assert square == mul_tuple_keys(p, p)

    def test_benchmark_products_keep_the_density_rule(self, monkeypatch):
        # the slot width changes no kernel of the projective extensions and
        # degree predictions of the benchmark (seed 1, rounds 0 and 1): each
        # product takes the kernel of the density rule without it
        from sigcurve import jets

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        kernels = []

        def spy(name, kernel):
            def run(pn, qn, bases):
                kernels.append((name, len(pn) * len(qn), math.prod(bases)))
                return kernel(pn, qn, bases)
            return run

        monkeypatch.setattr(poly, "_mul_kronecker", spy("kronecker", _mul_kronecker))
        monkeypatch.setattr(poly, "_mul_loop", spy("loop", _mul_loop))
        for name in ("sigma-extension", "degree-generic"):
            for r in (0, 1):
                jets.theta.cache_clear()
                jets.implicit_jet.cache_clear()
                for op in workloads.IN_PROCESS[name](workloads.round_rng(name, 1, r)):
                    assert op.check(op.call()) is None, op.label
        assert sum(name == "kronecker" for name, _, _ in kernels) >= 50
        for name, pairs, box in kernels:
            dense = poly.KRONECKER_PAIRS_PER_SLOT * box <= pairs >= poly.KRONECKER_MIN_PAIRS
            assert (name == "kronecker") == dense, (pairs, box)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_an_operand_of_at_most_eight_terms_takes_the_loop(self, data):
        ring = RINGS[data.draw(st.sampled_from((1, 2, 3)))]
        n = len(ring)
        # q fills its whole box, the densest operand there is
        box = data.draw(st.tuples(*[st.integers(0, {1: 200, 2: 20, 3: 7}[n])] * n))
        q = SparsePoly(ring, {
            e: Fraction(1 + 7 * sum(e) % 9)
            for e in itertools.product(*[range(k + 1) for k in box])
        })
        small = st.lists(
            st.tuples(st.tuples(*[st.integers(0, 8)] * n), st.integers(1, 9)),
            min_size=1, max_size=8, unique_by=lambda t: t[0],
        )
        p = SparsePoly(ring, {e: Fraction(c) for e, c in data.draw(small)})
        for product in (lambda: p * q, lambda: q * p):
            calls, pq = self.routes_of(product)
            assert calls == ["loop"]
            assert pq == mul_tuple_keys(p, q)


@st.composite
def resultant_pairs(draw):
    """(p, q, name) over a ring of 1, 2 or 3 variables, both of positive
    degree in ``name`` (the last variable).  Three shapes: any degrees;
    odd degrees on both sides, so every sign flip of the PRS fires; and
    p = a*q + r with deg r <= deg q - 2, so the PRS drops at least two
    degrees in one step."""
    ring = RINGS[draw(st.sampled_from((1, 2, 3)))]
    name = ring[-1]
    coeffs = st.integers(1, 9) | st.integers(-9, -1)

    def poly(deg):
        others = st.tuples(*[st.integers(0, 2)] * (len(ring) - 1))
        terms = draw(st.lists(st.tuples(others, st.integers(0, deg), coeffs), max_size=4))
        out = {(*o, k): Fraction(c) for o, k, c in terms}
        out[(*draw(others), deg)] = Fraction(draw(coeffs))
        return SparsePoly(ring, out)

    shape = draw(st.sampled_from(("any", "odd", "gap")))
    if shape == "any":
        return poly(draw(st.integers(1, 4))), poly(draw(st.integers(1, 4))), name
    if shape == "odd":
        odd = st.sampled_from((1, 3, 5))
        return poly(draw(odd)), poly(draw(odd)), name
    q = poly(draw(st.integers(3, 4)))
    a = poly(draw(st.integers(0, 2)))
    r = poly(draw(st.integers(0, int(q.degree_in(name)) - 2)))
    p, q = a * q + r, q
    if draw(st.booleans()):
        p, q = q, p
    return p, q, name


def coefficient_list(p: SparsePoly, name: str) -> list[Fraction]:
    """Ascending coefficients of a polynomial that uses only ``name``."""
    i = p.ring.index(name)
    out = [Fraction(0)] * (int(p.degree_in(name)) + 1)
    for e, c in p.terms.items():
        out[e[i]] += c
    return out


class TestResultants:
    def test_substitution_case(self):
        assert resultant(Y**2 - X, Y - 1, "y") == parse("1 - x")

    def test_common_factor_gives_zero(self):
        F = Y**2 - X
        assert resultant(F, F, "y").is_zero()

    def test_hand_sylvester(self):
        # Res_w(v*w - 1, w^2 - v) via the Sylvester determinant oracle
        R2 = ("v", "w")
        v = SparsePoly.var(R2, "v")
        w = SparsePoly.var(R2, "w")
        r = resultant(v * w - 1, w * w - v, "w")
        # oracle at sample points
        for a in (Fraction(2), Fraction(-3), Fraction(5, 7)):
            pc = [Fraction(-1), a]  # v*w - 1 at v=a, ascending in w
            qc = [-a, Fraction(0), Fraction(1)]
            assert r.evaluate({"v": a, "w": Fraction(0)}) == sylvester_resultant(pc, qc)
        assert r == parse("1 - v^3", R2)

    def test_two_degree_drop(self):
        # p = y^k*q + x*y + 1 with q = y^3 + 1: prem(p, q) has degree 1, two
        # below q.  Res(p, q) = (-1)^(3k+3) prod_{b^3 = -1} (x*b + 1)
        # = (-1)^(k+1) (1 - x^3).  For k = 1 the PRS pairs the degrees (4, 3),
        # (3, 1): one odd pair.  For k = 2 it pairs (5, 3), (3, 1): two.
        q = Y**3 + 1
        for k, expected in ((1, parse("1 - x^3")), (2, parse("x^3 - 1"))):
            p = Y**k * q + X * Y + 1
            assert resultant(p, q, "y") == expected
            assert resultant(q, p, "y") == expected.scale((-1) ** (3 * (k + 3)))
            for a in (Fraction(2), Fraction(-1, 3)):
                pc = coefficient_list(p.evaluate_partial({"x": a}), "y")
                qc = coefficient_list(q.evaluate_partial({"x": a}), "y")
                assert sylvester_resultant(pc, qc) == expected.evaluate({"x": a, "y": 0})

    def test_both_constant_in_var_errors(self):
        with pytest.raises(ValueError):
            resultant(X + 1, X - 1, "y")

    @settings(max_examples=60, deadline=None)
    @given(resultant_pairs(), st.lists(st.integers(-8, 8), min_size=2, max_size=2))
    def test_specialization(self, pair, values):
        # Res(p, q) at a point of the other variables == det S(p(pt), q(pt))
        # when both leading coefficients survive the specialization
        p, q, name = pair
        r = resultant(p, q, name)
        point = {v: Fraction(a) for v, a in zip(p.ring[:-1], values)}
        pa, qa = p.evaluate_partial(point), q.evaluate_partial(point)
        if pa.degree_in(name) != p.degree_in(name) or qa.degree_in(name) != q.degree_in(name):
            return  # leading coefficient collapsed: documented exclusion
        expected = sylvester_resultant(coefficient_list(pa, name), coefficient_list(qa, name))
        assert r.evaluate({**point, name: Fraction(0)}) == expected

    @settings(max_examples=40, deadline=None)
    @given(resultant_pairs())
    def test_swap_sign(self, pair):
        p, q, name = pair
        sign = (-1) ** int(p.degree_in(name) * q.degree_in(name))
        assert resultant(p, q, name) == resultant(q, p, name).scale(sign)


class TestHomogenize:
    def test_example(self):
        p = parse("x^2 + y + 1")
        h = p.homogenize("x0", 2)
        assert h == SparsePoly.from_terms(
            ("x0", "x", "y"), [((0, 2, 0), 1), ((1, 0, 1), 1), ((2, 0, 0), 1)]
        )

    def test_fermat(self):
        d = 4
        h = parse(f"x^{d}+y^{d}+1").homogenize("x0", d)
        assert h == SparsePoly.from_terms(
            ("x0", "x", "y"), [((0, d, 0), 1), ((0, 0, d), 1), ((d, 0, 0), 1)]
        )

    def test_round_trip(self):
        p = parse("x^3 - 2x*y + 7")
        assert p.homogenize("x0", 3).dehomogenize("x0") == p

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            parse("x^3").homogenize("x0", 2)


class TestEvaluate:
    def test_circle_point(self):
        assert parse("x^2+y^2-1").evaluate({"x": 1, "y": 0}) == 0

    def test_fermat_point(self):
        assert parse("x^3+y^3+1").evaluate({"x": 0, "y": -1}) == 0

    def test_float_path_flagged_by_type(self):
        v = parse("x^2+y^2-1").evaluate({"x": 0.5, "y": 0.5})
        assert isinstance(v, float)

    def test_pole_error(self):
        f = RatFunc.build(SparsePoly.const(R, 1), X)
        with pytest.raises(PoleError):
            f.evaluate({"x": 0, "y": 0})


# -- the two forms of a polynomial --------------------------------------------

FORM_RINGS = (("x",), ("x", "y"), ("x", "y", "z"))
SMALL_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
POINT_VALUES = st.one_of(
    st.just(0),
    st.integers(-4, -1),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda f: f.denominator > 1),
)


@st.composite
def ring_polys(draw, ring):
    """A constant, a monomial or a polynomial of up to 5 terms, with rational
    and zero coefficients, in one of its two forms or in both."""
    exps = st.tuples(*[st.integers(0, 3) for _ in ring])
    shape = draw(st.sampled_from(("constant", "monomial", "general")))
    if shape == "constant":
        items = [((0,) * len(ring), draw(SMALL_FRACTIONS))]
    elif shape == "monomial":
        items = [(draw(exps), draw(SMALL_FRACTIONS))]
    else:
        items = draw(st.lists(st.tuples(exps, SMALL_FRACTIONS), max_size=5))
    p = SparsePoly.from_terms(ring, items)
    form = draw(st.sampled_from(("terms", "ints", "both")))
    if form == "ints":
        nums, den = _int_form(SparsePoly(ring, dict(p.terms)))
        return SparsePoly._from_ints(ring, dict(nums), den)
    if form == "both":
        _int_form(p)
    return p


def forms(p: SparsePoly) -> tuple:
    """The cached forms that exist, items in order."""
    ints = None if p._ints is None else (list(p._ints[0].items()), p._ints[1])
    terms = None if p._terms is None else list(p._terms.items())
    return ints, terms


def assert_forms_agree(p: SparsePoly) -> None:
    """Fraction terms, and the reduced integer form of the same terms in the
    same order."""
    assert all(type(c) is Fraction and c for c in p.terms.values())
    nums, den = _int_form(p)
    assert (nums, den) == _int_form(SparsePoly(p.ring, dict(p.terms)))
    assert list(nums) == list(p.terms)


def assert_same(got: SparsePoly, want: SparsePoly) -> None:
    assert got.ring == want.ring
    assert list(got.terms.items()) == list(want.terms.items())
    assert_forms_agree(got)


def fraction_terms(p: SparsePoly, f) -> SparsePoly:
    return SparsePoly(p.ring, {e: f(c) for e, c in p.terms.items()})


def derivative_terms(p: SparsePoly, v: str) -> SparsePoly:
    i = p.ring.index(v)
    terms = {}
    for e, c in p.terms.items():
        if e[i]:
            terms[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return SparsePoly(p.ring, terms)


def power_by_squaring(p: SparsePoly, n: int) -> SparsePoly:
    if n == 0:
        return SparsePoly.const(p.ring, 1)
    result, base = None, p
    while True:
        if n & 1:
            result = base if result is None else mul_tuple_keys(result, base)
        n >>= 1
        if not n:
            return result
        base = mul_tuple_keys(base, base)


class TestIntegerForm:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_operations_match_the_fraction_terms(self, data):
        # the integer form gives the same terms in the same order as the
        # Fraction loops, and leaves its operands' cached forms as they were
        ring = data.draw(st.sampled_from(FORM_RINGS))
        p, q = data.draw(ring_polys(ring)), data.draw(ring_polys(ring))
        before = forms(p), forms(q)
        c = data.draw(SMALL_FRACTIONS)
        n = data.draw(st.integers(0, 3))
        v = data.draw(st.sampled_from(ring))
        neg_q = fraction_terms(q, lambda a: -a)

        assert_same(p + q, add_fraction_terms(p, q))
        assert_same(p - q, add_fraction_terms(p, neg_q))
        assert_same(-q, neg_q)
        assert_same(p + c, add_fraction_terms(p, SparsePoly.const(ring, c)))
        want = SparsePoly.zero(ring) if c == 0 else fraction_terms(p, lambda a: a * c)
        assert_same(p.scale(c), want)
        assert_same(p * q, mul_tuple_keys(p, q))
        assert_same(p**n, power_by_squaring(p, n))
        assert_same(p.partial_derivative(v), derivative_terms(p, v))
        if q:
            quotient = exact_div(p * q, q)
            assert quotient == exact_div_grevlex(p * q, q) == p
            if q.is_constant():
                assert list(quotient.terms.items()) == list(p.terms.items())
            else:  # the quotient comes off the heap in descending lex order
                assert list(quotient.terms) == sorted(p.terms, reverse=True)
            assert_forms_agree(quotient)
        for _ in range(3):
            point = {w: data.draw(POINT_VALUES) for w in ring}
            value = p.evaluate(point)
            assert type(value) is Fraction
            assert value == evaluate_fraction_terms(p, point)

        for operand, (ints, terms) in zip((p, q), before):
            now_ints, now_terms = forms(operand)
            assert ints is None or now_ints == ints
            assert terms is None or now_terms == terms
            assert_forms_agree(operand)

    def test_products_and_sums_keep_only_the_integer_form(self):
        p = parse("x^2/2 + y/3 - 1")
        q = (p * p - p).partial_derivative("x").scale(6) + 1
        assert q._terms is None and q.total_degree() == 3 and q.degree_in("y") == 1
        assert q.variables_used() == ("x", "y") and q and not q.is_constant()
        assert q._terms is None  # exponent questions leave the Fraction dict unbuilt
        assert q.evaluate({"x": Fraction(-1, 2), "y": 3}) == Fraction(13, 4)
        assert serialize(q) == "6*x^3 + 4*x*y - 18*x + 1"
        assert q.terms is q.terms  # built once, then cached

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_polynomials_hash_equal_in_either_form(self, data):
        # equality and the hash read the reduced integer form, so a
        # polynomial built from Fraction terms and one built from integers
        # hash alike, and the integer-only one never builds its Fraction dict
        ring = data.draw(st.sampled_from(FORM_RINGS))
        p = data.draw(ring_polys(ring))
        from_terms = SparsePoly(ring, dict(p.terms))
        nums, den = _int_form(SparsePoly(ring, dict(p.terms)))
        k = data.draw(st.integers(1, 6))  # an unreduced form reduces on construction
        from_ints = SparsePoly._from_ints(ring, {e: c * k for e, c in nums.items()}, den * k)
        assert from_terms == from_ints
        assert hash(from_terms) == hash(from_ints) == hash(p)
        assert from_ints._terms is None
        assert len({from_terms, from_ints, p}) == 1


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-5, 5), SMALL_FRACTIONS)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # a singular one: a row repeats another, scaled
        rows[-1] = [x * draw(st.integers(-2, 2)) for x in rows[0]]
    return rows


class TestMatInverse:
    @given(rational_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_gauss_jordan_on_fractions(self, m):
        try:
            want = mat_inverse_gauss_jordan(m)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                mat_inverse(m)
            return
        got = mat_inverse(m)
        assert got == want
        assert all(type(x) is Fraction for row in got for x in row)

    def test_pivot_swap(self):
        assert mat_inverse([[0, 2], [3, 0]]) == [[0, Fraction(1, 3)], [Fraction(1, 2), 0]]


class TestPseudoRemainder:
    def test_monic_case_is_plain_remainder(self):
        p = parse("x^5*y^3 + x + 1")
        f = parse("y^2 + x^2*y + 1")  # monic in y
        r = pseudo_remainder(p, f, "y")
        assert r.degree_in("y") < f.degree_in("y")
        assert divides(f, p - r)

    def test_full_prem_power(self):
        p = parse("y^4 + x*y + 2")
        f = parse("x^2*y^2 + y + 1")
        r = pseudo_remainder(p, f, "y")
        lc = parse("x^2")
        k = int(p.degree_in("y")) - int(f.degree_in("y")) + 1
        assert divides(f, p * lc**k - r)


def test_modp_gcd_of_zeros_is_zero():
    # gcd(0, 0) = 0, as for ``gcd``; a zero operand leaves the other, monic
    p = 101
    assert _modp_gcd([], [], p) == []
    assert _modp_gcd([0, 0], [0], p) == []
    assert _modp_gcd([], [4, 2], p) == [2, 1]
    assert _modp_gcd([3], [], p) == [1]


@st.composite
def two_variable_pairs(draw):
    """(p, q) in x, y with small rational coefficients (denominators 1-3)
    and deg_y q >= 1."""
    coeffs = st.fractions(-9, 9, max_denominator=3)

    def poly(dy):
        below = st.integers(0, max(dy - 1, 0))
        terms = draw(st.lists(st.tuples(st.integers(0, 3), below, coeffs), max_size=8))
        terms.append((draw(st.integers(0, 2)), dy, draw(coeffs) or 1))
        return SparsePoly.from_terms(R, [((i, j), c) for i, j, c in terms])

    return poly(draw(st.integers(0, 6))), poly(draw(st.integers(1, 3)))


def reduced(p: SparsePoly, prime: int, length: int) -> list[list[int]]:
    """The exact reduction of p in the layout of ``_modp_ylists``, padded
    with zero positions to ``length``."""
    lists = _modp_ylists(p, "y", prime)
    return lists + [[]] * (length - len(lists))


class TestImages:
    @settings(max_examples=120, deadline=None)
    @given(two_variable_pairs(), st.sampled_from((3, 7, 101, IMAGE_PRIME)))
    def test_remainder_image_is_the_reduced_remainder(self, pair, prime):
        p, q = pair
        image = pseudo_remainder_image(p, q, "y", prime)
        lists = _modp_ylists(q, "y", prime)
        if image is None:
            # refused only for a denominator or a leading coefficient the
            # prime divides
            assert lists is None or _modp_ylists(p, "y", prime) is None or not lists[-1]
            return
        exact = pseudo_remainder(p, q, "y")
        length = max(len(image), len(_modp_ylists(exact, "y", prime)))
        assert image + [[]] * (length - len(image)) == reduced(exact, prime, length)
        if any(image):
            assert not exact.is_zero()

    @settings(max_examples=80, deadline=None)
    @given(two_variable_pairs(), st.sampled_from((101, IMAGE_PRIME)))
    def test_resultant_image_is_the_reduced_resultant(self, pair, prime):
        # formal degrees are the degrees over Q, so the image is exact even
        # where a leading coefficient vanishes mod the prime; one more formal
        # degree of q multiplies the resultant by lc_y(p)
        p, q = pair
        if p.degree_in("y") < 1:
            return
        fp, gp = _modp_ylists(p, "y", prime), _modp_ylists(q, "y", prime)
        if fp is None or gp is None:
            return
        res = resultant(p, q, "y")
        image = _modp_resultant(fp, gp, prime)
        assert image == reduced(res, prime, 1)[0]
        lc = SparsePoly(R, {(e[0], 0): c for e, c in p.terms.items() if e[1] == p.degree_in("y")})
        assert _modp_resultant(fp, gp + [[]], prime) == reduced(lc * res, prime, 1)[0]

    def test_resultant_image_refuses_a_prime_below_its_degree_bound(self):
        f, g = parse("y^3 - x^5"), parse("y - x^3")
        images = {p: (_modp_ylists(f, "y", p), _modp_ylists(g, "y", p)) for p in (7, 13)}
        assert _modp_resultant(*images[7], 7) is None  # degree bound 1*5 + 3*3 - 3*1 = 11
        assert _modp_resultant(*images[13], 13) == reduced(resultant(f, g, "y"), 13, 1)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from((101, IMAGE_PRIME)))
    def test_euclid_image_is_the_sylvester_image(self, data, prime):
        # y-lists with random formal degrees whose leading (and other)
        # coefficients are often zero lists: Euclid at each point keeps the
        # Sylvester determinant's formal-degree semantics
        coeff = st.one_of(st.just(0), st.integers(0, prime - 1))

        def ylists(m):
            lists = data.draw(st.lists(st.lists(coeff, max_size=4), min_size=m + 1, max_size=m + 1))
            for v in lists:
                while v and not v[-1]:
                    v.pop()
            return lists

        m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        if m + n == 0:
            return
        f, g = ylists(m), ylists(n)
        assert _modp_resultant(f, g, prime) == modp_sylvester_resultant(f, g, prime)

    def test_coprime_resultants_need_the_exact_degree(self):
        F = parse("y^2 - x")
        Ta, Tb = parse("y - x - 1"), parse("y")  # Res: x^2 + x + 1 and -x
        assert resultant_coprime_image(Ta, F, Tb, "y", degree=2)
        assert not resultant_coprime_image(Ta, F, Tb, "y", degree=3)
        # a common factor x^2 + x + 1
        assert not resultant_coprime_image(Ta, F, parse("(y - x - 1)*(y + 5)"), "y", degree=2)
        # lc_y F is not a constant: lc^e would change the image's degree
        assert not resultant_coprime_image(Ta, parse("x*y^2 - 1"), Tb, "y", degree=3)

    def test_coprime_resultants_refuse_a_prime_dividing_lc_a(self):
        # A = (7x + 1)(x + 2) and B = (7x + 1)(x + 3) share 7x + 1; mod 7 the
        # images x + 2 and x + 3 are coprime, but A's image has lost a degree
        F = parse("y - x")
        Ta, Tb = parse("(7*y + 1)*(y + 2)"), parse("(7*y + 1)*(y + 3)")
        assert gcd(resultant(F, Ta, "y"), resultant(F, Tb, "y")).total_degree() == 1
        for prime in (7, 101, IMAGE_PRIME):
            assert not resultant_coprime_image(Ta, F, Tb, "y", prime, degree=2)

    def test_coprime_certificate(self):
        F, T = parse("y^2 - x"), parse("y - x - 1")  # Res = x^2 + x + 1
        assert resultant_coprime_image(parse("x"), F, T, "y")
        assert not resultant_coprime_image(parse("x^3 - 1"), F, T, "y")
        assert resultant_coprime_image(parse("5"), F, T, "y")
        # a cut polynomial of larger y-degree goes through its remainder
        assert resultant_coprime_image(parse("x - 2"), F, parse("y^5 + x*y^2 + 3"), "y")

    def test_coprime_certificate_refuses_a_prime_dividing_lc_a(self):
        # A and B share 7x + 1; mod 7 that factor drops to the constant 1 and
        # the images are coprime, so only the leading-coefficient guard
        # stops a false certificate
        F, T = parse("y - x"), parse("(7*x + 1)*(x + 3) + (y - x)*y")
        A = parse("(7*x + 1)*(x + 2)")
        B = resultant(F, T, "y")
        assert gcd(A, B) == parse("7*x + 1")
        assert _modp_gcd(reduced(A, 7, 1)[0], reduced(B, 7, 1)[0], 7) == [1]
        for prime in (7, 101, IMAGE_PRIME):
            assert not resultant_coprime_image(A, F, T, "y", prime)

    @pytest.mark.parametrize(
        "F, T, refused",
        [
            ("y^2 - x", "y/7 - 1", "a denominator of T"),
            ("y^2 - x/7", "y - 1", "a denominator of F"),
            ("7*y^2 + y - x", "y - 1", "lc_y(F)"),
        ],
    )
    def test_coprime_certificate_refuses_a_prime_dividing(self, F, T, refused):
        F, T, A = parse(F), parse(T), parse("x + 5")
        assert gcd(A, resultant(F, T, "y")).is_constant()
        assert resultant_coprime_image(A, F, T, "y", 101)
        assert not resultant_coprime_image(A, F, T, "y", 7), refused

    def test_coprime_certificate_inconclusive_cases(self):
        F = parse("y^2 - x")
        # a zero B (Res(F, y*F) = 0) and a zero a
        assert not resultant_coprime_image(parse("x + 1"), F, parse("y^3 - x*y"), "y")
        assert not resultant_coprime_image(SparsePoly.zero(R), F, parse("y - 1"), "y")
        # an unlucky prime: Res(F, y - 7) = 49 - x is prime to x, but not mod 7
        assert not resultant_coprime_image(parse("x"), F, parse("y - 7"), "y", 7)
        # the primitive part of 7x is x, whose image keeps its degree
        assert resultant_coprime_image(parse("7*x"), F, parse("y - 1"), "y", 7)
