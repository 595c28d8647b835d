import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sigcurve.series as series_module
from oracles import evaluate_polys_at_series_reference, newton_branch_reference
from sigcurve.degree import infinity_pieces
from sigcurve.errors import TruncationError
from sigcurve.jets import CurveInput
from sigcurve.modp import IMAGE_PRIME
from sigcurve.parser import parse
from sigcurve.poly import SparsePoly
from sigcurve.series import (
    INF,
    SeriesRing,
    TruncatedSeries,
    evaluate_polys_at_series,
    fiber_min_valuation_sum,
    fiber_valuation_sum,
    intpoly_from_poly,
    intpoly_gcd,
    intpoly_squarefree,
    newton_branch,
)

R2 = ("v", "w")


def test_rational_branch_sqrt():
    # w^2 = 4 + v around w = 2: classic binomial series
    ring = SeriesRing([-2, 1])
    H = parse("w^2 - 4 - v", R2)
    br = newton_branch(H, "v", "w", ring, ring.generator(), 12)
    expected = [
        Fraction(2),
        Fraction(1, 4),
        Fraction(-1, 64),
        Fraction(1, 512),
        Fraction(-5, 16384),
    ]
    assert [br.coeff_fractions(j)[0] for j in range(5)] == expected


def test_quotient_ring_branch_and_fiber_sum():
    # both branches of w^2 = 2 + v^3 split from one quotient-ring series
    ring = SeriesRing([-2, 0, 1])
    H = parse("w^2 - 2 - v^3", R2)
    br = newton_branch(H, "v", "w", ring, ring.generator(), 12)
    s = br - ring.generator().with_trunc(12)
    assert s.valuation() == 3
    assert fiber_valuation_sum(s, ring.q) == 6  # two conjugate branches


def test_fiber_split_mixed_moduli():
    # q = (W - 1)(W^2 - 2): the rational branch resolves earlier
    ring = SeriesRing([2, -2, -1, 1])  # (w-1)(w^2-2) = w^3 - w^2 - 2w + 2
    v = TruncatedSeries.variable(ring)
    gen = ring.generator()
    one = TruncatedSeries.constant(ring, Fraction(1))
    # series (W - 1)*v + v^2: vanishes to order 2 on the rational branch,
    # order 1 on the conjugate pair
    s = (gen - one) * v + v * v
    assert fiber_valuation_sum(s.with_trunc(9), ring.q) == 1 + 1 + 2


def test_min_valuation_sum():
    ring = SeriesRing([-2, 0, 1])
    v = TruncatedSeries.variable(ring)
    comps = [v**3, v**2, (v**5).with_trunc(9)]
    assert fiber_min_valuation_sum([c.with_trunc(9) for c in comps], ring.q) == 2 * 2


def test_valuation_needs_certification():
    ring = SeriesRing([0, 1])
    z = TruncatedSeries.zero(ring, trunc=5)
    with pytest.raises(TruncationError):
        z.valuation()
    with pytest.raises(TruncationError):
        fiber_valuation_sum(z, ring.q)


def test_inverse_round_trip():
    ring = SeriesRing([-3, 0, 0, 1])  # W^3 = 3
    H = parse("w^3 - 3 - v", R2)
    br = newton_branch(H, "v", "w", ring, ring.generator(), 10)
    inv = br.invert(8)
    prod = br * inv
    assert prod.coeff_fractions(0)[0] == 1
    assert all(
        all(c == 0 for c in prod.coeff_fractions(j)) for j in range(1, prod.trunc - 1)
    )


def test_derivative_and_shift_laurent():
    ring = SeriesRing([0, 1])
    v = TruncatedSeries.variable(ring)
    s = v.invert(6)  # 1/v
    ds = s.derivative()  # -1/v^2
    assert ds.coeff_fractions(-2)[0] == -1
    assert s.shift(3).coeff_fractions(2)[0] == 1


def test_mul_trunc_tracking():
    ring = SeriesRing([0, 1])
    v = TruncatedSeries.variable(ring)
    a = (v**2).with_trunc(5)  # v^2 + O(v^5)
    b = (v**3).with_trunc(7)  # v^3 + O(v^7)
    p = a * b
    # worst case: O(v^5)*v^3 dominates
    assert p.trunc == 8
    assert p.valuation() == 5


def test_intpoly_helpers():
    assert intpoly_gcd([2, 4, 2], [1, 2, 1]) == (1, 2, 1)
    assert intpoly_gcd([6], [4]) == (2,) or intpoly_gcd([6], [4]) == (1,)


def _intpoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _exact_squarefree(q):
    return len(q) < 2 or len(intpoly_gcd(q, [i * q[i] for i in range(1, len(q))])) == 1


@pytest.fixture
def exact_gcd_calls(monkeypatch):
    """The polynomials that ``intpoly_squarefree`` hands to the exact gcd."""
    calls = []

    def recording(a, b):
        calls.append(tuple(a))
        return intpoly_gcd(a, b)

    monkeypatch.setattr(series_module, "intpoly_gcd", recording)
    return calls


@st.composite
def _moduli_and_elements(draw):
    """A squarefree integer modulus q of degree 1-6, a product of small
    factors so that zero divisors are common, and a nonzero element of
    Q[W]/(q): random, or a multiple of the first factor."""
    small = st.integers(-5, 5)
    factors = [
        draw(st.lists(small, min_size=d, max_size=d)) + [draw(small.filter(bool))]
        for d in draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    ]
    q = (1,)
    for f in factors:
        q = _intpoly_mul(q, f)
    assume(_exact_squarefree(q))
    ring = SeriesRing(q)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    vec = draw(st.lists(coeff, min_size=ring.deg, max_size=ring.deg))
    if len(factors) > 1 and draw(st.booleans()):
        prod = ring.element(factors[0]) * ring.element(vec)
        vec = prod.coeff_fractions(0) if prod.terms else vec
    assume(any(vec))
    return q, vec


@settings(max_examples=300, deadline=None)
@given(_moduli_and_elements())
@example(((2, -3, 1), [Fraction(-1), Fraction(1)]))  # q = (w-1)(w-2), a = w-1
def test_invert_vec_inverts_or_names_the_zero_divisor_gcd(case):
    """Either a a^-1 = 1 in Q[W]/(q), or a is a zero divisor and the error
    carries gcd(q, a), the factor of the fiber it vanishes on."""
    q, vec = case
    ring = SeriesRing(q)
    g = intpoly_gcd(q, vec)
    try:
        inv = ring.invert_vec(vec)
    except ZeroDivisionError as err:
        assert err.gcd == g and len(g) > 1
        return
    assert len(g) == 1
    prod = ring.element(inv) * ring.element(vec)
    assert prod.terms == {(0, 0): 1} and prod.den == 1


def test_squarefree_image_agrees_with_the_exact_gcd(exact_gcd_calls):
    """Seeded products of random factors, a repeated factor in about a third
    of them: the answer is the exact gcd's, and the exact gcd runs exactly
    when the image mod p shares a factor (every repeated root) or p | lc."""
    rng = random.Random(13)
    answers = set()
    for _ in range(300):
        factors = [
            [rng.randint(-30, 30) for _ in range(rng.randint(1, 3))] + [rng.choice((1, -2, 3, 7))]
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.35:
            factors.append(factors[0])
        if rng.random() < 0.1:
            factors.append([rng.randint(1, 5), IMAGE_PRIME * rng.randint(1, 3)])
        q = (1,)
        for f in factors:
            q = _intpoly_mul(q, f)
        calls = len(exact_gcd_calls)
        answer = series_module.intpoly_squarefree(q)
        assert answer == _exact_squarefree(q), q
        fell_back = len(exact_gcd_calls) > calls
        assert fell_back == (not answer or q[-1] % IMAGE_PRIME == 0), q
        answers.add((answer, q[-1] % IMAGE_PRIME == 0))
    assert answers == {(True, False), (False, False), (True, True), (False, True)}


@pytest.mark.parametrize(
    "q, squarefree, exact",
    [
        ((1, 3, IMAGE_PRIME), True, True),  # p | lc: the image drops a degree
        (_intpoly_mul((1, IMAGE_PRIME), (1, IMAGE_PRIME)), False, True),  # (p w + 1)^2
        ((1, 2, 1), False, True),  # (w + 1)^2
        (_intpoly_mul((-3, 1), (-3 - IMAGE_PRIME, 1)), True, True),  # (w - 3)(w - 3 - p) = (w - 3)^2 mod p
        ((5, 1), True, False),
        ((7,), True, False),
    ],
)
def test_squarefree_image_falls_back_when_it_cannot_decide(q, squarefree, exact, exact_gcd_calls):
    assert series_module.intpoly_squarefree(q) is squarefree
    assert exact_gcd_calls == ([q] if exact else [])


def test_evaluate_poly_at_series():
    ring = SeriesRing([0, 1])
    v = TruncatedSeries.variable(ring)
    p = parse("v^2*w + w^2 - 1", R2)
    (out,) = evaluate_polys_at_series(
        [p], {"v": v, "w": v + TruncatedSeries.constant(ring, 1)}, ring
    )
    # (v^2)(v+1) + (v+1)^2 - 1 = v^3 + 2v^2 + 2v... wait: v^3 + v^2 + v^2 + 2v = v^3 + 2v^2 + 2v
    assert out.coeff_fractions(0)[0] == 0
    assert out.coeff_fractions(1)[0] == 2
    assert out.coeff_fractions(2)[0] == 2
    assert out.coeff_fractions(3)[0] == 1


def _branch_cases(seed, count):
    """Random H(v, w) whose fiber q = H(0, w) is squarefree of degree >= 1,
    with a precision each: rings Q[W]/(q) of degree 1 (roots zero and
    nonzero) and of higher degree."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        d = rng.randint(1, 5)
        terms = [
            ((i, j), Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))))
            for i in range(d + 1)
            for j in range(d + 1 - i)
            if rng.random() < 0.7
        ]
        H = SparsePoly.from_terms(R2, terms)
        if H.is_zero() or H.degree_in("w") < 1:
            continue
        q = intpoly_from_poly(H.evaluate_partial({"v": Fraction(0)}), "w")
        if len(q) >= 2 and intpoly_squarefree(q):
            cases.append((H, q, rng.randint(1, 40)))
    return cases


def test_newton_branch_matches_reference():
    cases = _branch_cases(11, 60)
    # rings of degree 1 (the root 0 among them) and of higher degree
    assert {len(q) > 2 for _, q, _ in cases} == {False, True}
    assert any(q == (0, 1) for _, q, _ in cases)
    for H, q, prec in cases:
        ring = SeriesRing(q)
        br = newton_branch(H, "v", "w", ring, ring.generator(), prec)
        ref = newton_branch_reference(H, "v", "w", ring, ring.generator(), prec)
        assert (br.terms, br.den, br.trunc) == (ref.terms, ref.den, ref.trunc), (H, prec)
        v = TruncatedSeries.variable(ring).with_trunc(prec)
        (residual,) = evaluate_polys_at_series([H], {"v": v, "w": br}, ring)
        assert residual.trunc >= prec and all(j >= prec for j, _ in residual.terms), (H, prec)


def _agree_below_trunc(a, b):
    """Equal coefficients at every order below both truncations."""
    top = min(a.trunc, b.trunc)
    for j in {j for j, _ in a.terms} | {j for j, _ in b.terms}:
        if j < top:
            assert a.coeff_fractions(j) == b.coeff_fractions(j), j


def _random_series(rng, ring, exact):
    """A series with valuation 0..2 and 1..6 terms; truncated at 4..14
    orders past its valuation unless ``exact``."""
    v = rng.randint(0, 2)
    terms = {}
    for j in range(v, v + rng.randint(1, 6)):
        for k in range(ring.deg):
            c = rng.randint(-5, 5)
            if c or (j == v and k == 0):
                terms[(j, k)] = c or 1
    trunc = INF if exact else v + rng.randint(4, 14)
    return TruncatedSeries(ring, terms, rng.randint(1, 4), trunc).normalized()


def _random_polys(seed, count):
    """Polynomials over 1-3 variables with sparse exponents up to 7 (so with
    gaps), the zero polynomial and constants among them."""
    rng = random.Random(seed)
    polys = [SparsePoly.zero(("a",)), SparsePoly.const(("a", "b"), Fraction(-3, 2))]
    while len(polys) < count:
        ring = ("a", "b", "c")[: rng.randint(1, 3)]
        terms = [
            (tuple(rng.choice((0, 0, 1, 2, 3, 5, 7)) for _ in ring),
             Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        polys.append(SparsePoly.from_terms(ring, terms))
    return polys


@pytest.mark.parametrize("q", [(-2, 1), (-3, 0, 0, 1)], ids=["deg1", "deg3"])
@pytest.mark.parametrize("rel_cap", [None, 8])
def test_evaluate_matches_monomial_reference(q, rel_cap):
    ring = SeriesRing(q)
    rng = random.Random(f"{q}/{rel_cap}")
    polys = _random_polys(5, 60)
    assert any(p.is_zero() for p in polys) and any(p.terms and p.is_constant() for p in polys)
    for exact in (False, True):
        for p in polys:
            at = {name: _random_series(rng, ring, exact) for name in p.ring}
            (got,) = evaluate_polys_at_series([p], at, ring, rel_cap)
            (ref,) = evaluate_polys_at_series_reference([p], at, ring, rel_cap)
            _agree_below_trunc(got, ref)
            # no known order is lost: a lower trunc would mean a retry at a
            # doubled truncation on the degree route
            assert got.trunc >= ref.trunc, p
            if exact and rel_cap is None:
                assert (got.terms, got.den, got.trunc) == (ref.terms, ref.den, ref.trunc), p


def test_invert_claims_only_known_orders():
    # the corner branch of this cubic at truncation 16: x0 = s(u) has
    # valuation 2, so its inverse is known to 16 - 2 - 2 = 12 orders
    cv = CurveInput.from_poly(parse("y^2-x^3+x^2*y+x+1", ("x", "y")))

    def corner_x0(trunc):
        [piece] = [p for p in infinity_pieces(cv, trunc) if p.q is None]
        return piece.x0

    x0 = corner_x0(16)
    assert (x0.trunc, x0.valuation()) == (16, 2)
    inv = x0.invert(24)
    assert inv.trunc == 12
    _agree_below_trunc(inv, corner_x0(64).invert(80))
