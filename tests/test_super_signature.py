import random
from fractions import Fraction

from sigcurve.errors import ExceptionalCurveError
from sigcurve.jets import CurveInput, GroupId
from sigcurve.parser import parse
from sigcurve.poly import SparsePoly
from oracles import conic_se2_super_signature
from sigcurve.signature import SignaturePolynomial, signature_polynomial

R = ("x", "y")


def test_specialization_matches_elimination_on_random_conics():
    """The frozen conic super-signature specializes to each conic's computed
    signature polynomial (5 random non-degenerate conics)."""
    rng = random.Random(271828)
    checked = 0
    while checked < 5:
        F = SparsePoly.from_terms(
            R,
            [((i, j), Fraction(rng.randint(-6, 6), rng.randint(1, 2)))
             for i in range(3) for j in range(3 - i)],
        )
        cv = CurveInput.from_poly(F) if not (F.is_zero() or F.is_constant()) else None
        if cv is None or cv.d != 2:
            continue
        try:
            frozen = conic_se2_super_signature(cv)
            computed = signature_polynomial(cv, GroupId.SE2)
        except (ExceptionalCurveError, ValueError):
            continue
        if not isinstance(computed, SignaturePolynomial):
            continue  # circles have point signatures; not covered by the fixture
        assert frozen == computed.S
        checked += 1


def test_ellipse_specialization():
    cv = CurveInput.from_poly(parse("x^2 + x*y + y^2 - 1"))
    frozen = conic_se2_super_signature(cv)
    computed = signature_polynomial(cv, GroupId.SE2)
    assert frozen == computed.S
