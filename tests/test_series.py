import random
from fractions import Fraction

import pytest

from oracles import newton_branch_reference
from sigcurve.errors import TruncationError
from sigcurve.parser import parse
from sigcurve.poly import SparsePoly
from sigcurve.series import (
    SeriesRing,
    TruncatedSeries,
    evaluate_polys_at_series,
    fiber_min_valuation_sum,
    fiber_valuation_sum,
    intpoly_from_poly,
    intpoly_gcd,
    intpoly_rem,
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
    assert intpoly_rem([1, 0, 0, 1], [1, 1]) == ()  # w^3+1 divisible by w+1
    assert intpoly_gcd([6], [4]) == (2,) or intpoly_gcd([6], [4]) == (1,)


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
