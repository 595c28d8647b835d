"""The Fermat family x^d + y^d + 1: closed-form signatures and symmetry.

The signature polynomials of Fermat curves under PGL(3) and A(2) have
degree 4 and degree 3 (2 at d = 3) for every d >= 3, with coefficients
polynomial in d; the symmetry groups have orders 6d^2 and 2d^2, and 1 or 4
under SE(2) depending on the parity of d.  The closed forms are frozen here;
``signature.certify_signature`` proves one is the signature polynomial of
its curve.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import CurveInput, GroupId
from .parser import parse
from .poly import SparsePoly
from .signature import SIG_RING, SignaturePolynomial, canonical_signature_poly


def fermat_curve(d: int) -> CurveInput:
    if d < 1:
        raise ValueError("degree must be positive")
    return CurveInput.from_poly(parse(f"x^{d} + y^{d} + 1"))


def fermat_symmetry_order(d: int, group: GroupId) -> int:
    """Cardinality of the symmetry group of the degree-d Fermat curve."""
    if group is GroupId.PGL3:
        return 6 * d * d
    if group is GroupId.A2:
        return 2 * d * d
    if group is GroupId.SE2:
        return 4 if d % 2 == 0 else 1
    if group is GroupId.SA2:
        raise ValueError("no closed-form symmetry order recorded for SA2")
    raise ValueError(group)


def _poly(terms: dict[tuple[int, int], Fraction]) -> SparsePoly:
    return SparsePoly(SIG_RING, {e: Fraction(c) for e, c in terms.items() if c})


def fermat_signature_pgl3(d: int) -> SignaturePolynomial:
    """Closed-form PGL(3) signature polynomial (degree four for d >= 3)."""
    if d < 3:
        raise ValueError("Fermat signatures require d >= 3")
    D = Fraction(d)
    a = (D - 2) ** 4 * D**3 * (D + 1) ** 4 * (2 * D - 1) ** 4
    b3 = (D - 2) ** 3 * D**2 * (D + 1) ** 3 * (2 * D - 1) ** 3
    b2 = (D - 2) ** 2 * D * (D + 1) ** 2 * (2 * D - 1) ** 2
    b1 = (D - 2) * (D + 1) * (2 * D - 1)
    q1 = D * D - D + 1
    q2 = 10 * D * D - 3 * D + 3
    terms = {
        (0, 4): 49392 * a,
        (1, 2): 602112 * a,
        (0, 3): 10584 * b3 * q2 * (34 * D * D - 27 * D + 27),
        (2, 0): 1835008 * a,
        (1, 1): -9289728 * b3 * q1**2,
        (0, 2): 61236 * b2 * q1 * q2**2 * (16 * D * D - 9 * D + 9),
        (1, 0): -23328
        * b2
        * (
            11792 * D**8
            - 17376 * D**7
            + 28152 * D**6
            - 24424 * D**5
            + 19473 * D**4
            - 8940 * D**3
            + 3358 * D**2
            - 324 * D
            + 81
        ),
        (0, 1): 118098 * b1 * q1**2 * q2**4,
        (0, 0): 531441 * D * q1**3 * q2**4,
    }
    S = canonical_signature_poly(_poly(terms))
    return SignaturePolynomial(S, GroupId.PGL3, fermat_curve(d))


def fermat_signature_a2(d: int) -> SignaturePolynomial:
    """Closed-form A(2) signature polynomial (degree 3; degree 2 at d = 3)."""
    if d < 3:
        raise ValueError("Fermat signatures require d >= 3")
    D = Fraction(d)
    terms = {
        (0, 3): (D - 3) ** 2 * (D - 2) * D**2 * (D + 1) * (2 * D - 1) ** 3,
        (2, 0): -((D - 5) ** 3) * D * (2 * D - 1) ** 2,
        (1, 1): 3 * (D - 5) * (D - 2) * D * (D + 1) * (2 * D - 1) ** 2 * (5 * D - 11),
        (0, 2): 6 * (D - 2) ** 2 * D * (D + 1) ** 2 * (2 * D - 1) ** 2 * (D * D - 4 * D + 6),
        (1, 0): 2 * (D - 2) ** 2 * (D + 1) ** 2 * (2 * D - 1) * (15 * D * D - 10 * D + 18),
        (0, 1): 12 * (D - 2) ** 3 * (D + 1) ** 3 * (2 * D - 1) * (D * D - 2 * D + 3),
        (0, 0): 8 * (D - 2) ** 4 * D * (D + 1) ** 4,
    }
    S = canonical_signature_poly(_poly(terms))
    return SignaturePolynomial(S, GroupId.A2, fermat_curve(d))


def fermat_signature(d: int, group: GroupId) -> SignaturePolynomial:
    if group is GroupId.PGL3:
        return fermat_signature_pgl3(d)
    if group is GroupId.A2:
        return fermat_signature_a2(d)
    raise ValueError(f"no closed-form Fermat signature recorded for {group.value}")
