"""Group-equivalence verdicts and symmetry-group cardinality.

Two non-exceptional curves with finite symmetry groups are G-equivalent
exactly when their canonical signature polynomials coincide; constant
signatures compare as constants but only give a necessary condition (the
signature classification holds unconditionally only there).  ``equivalent``
computes S_F by the certified route; one ``FiberTable`` of G decides whether
G's signature is constant and checks S_F on G's fibers with the same
certificate: S_F is irreducible, so if it vanishes on G's signature curve it
is S_G, and one fiber of G where S_F(K1, K2) is nonzero proves S_G != S_F.
The symmetry order n is recovered from
n * deg(S) = d * deg(sigma) - mult_sum with deg(S) from the certified S.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .degree import DegreeReport, predict_degree
from .errors import ExceptionalCurveError, NonIntegralSymmetryError
from .jets import CurveInput, GroupId
from .signature import (
    FiberTable,
    PointSignature,
    SignaturePolynomial,
    certify_signature,
    is_constant_signature,
    signature_polynomial,
)


class VerdictReason(str, Enum):
    SIGNATURES_EQUAL = "signatures-equal"
    SIGNATURES_DIFFER = "signatures-differ"
    BOTH_CONSTANT_EQUAL = "both-constant-equal"
    CONSTANT_VS_CURVE = "constant-vs-curve"
    EXCEPTIONAL_INPUT = "exceptional-input"


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: Optional[bool]  # None = undecided (exceptional input)
    reason: VerdictReason
    left: Optional[Union[SignaturePolynomial, PointSignature]] = None
    right: Optional[Union[SignaturePolynomial, PointSignature]] = None
    note: str = ""


def equivalent(F: CurveInput, G: CurveInput, group: GroupId) -> EquivalenceVerdict:
    """Decide G-equivalence: the certified S_F, then the constancy of G's
    signature and ``certify_signature`` of S_F, both on one fiber table of G
    (``right`` is None when the certificate fails)."""
    try:
        sig_f = signature_polynomial(F, group)
        table_g = FiberTable(G, group)
        const_g = table_g.constant()
    except ExceptionalCurveError as e:
        return EquivalenceVerdict(None, VerdictReason.EXCEPTIONAL_INPUT, note=str(e))
    const_f = isinstance(sig_f, PointSignature)
    if const_f and const_g is not None:
        same = sig_f.value == const_g
        return EquivalenceVerdict(
            same,
            VerdictReason.BOTH_CONSTANT_EQUAL if same else VerdictReason.SIGNATURES_DIFFER,
            sig_f,
            PointSignature(const_g, group, G),
            note=(
                "necessary-condition only: signature classification is complete "
                "only for finite symmetry groups"
                if same
                else ""
            ),
        )
    if const_f or const_g is not None:
        return EquivalenceVerdict(False, VerdictReason.CONSTANT_VS_CURVE, sig_f)
    cert = certify_signature(table_g, sig_f.S)
    if cert is None:
        return EquivalenceVerdict(False, VerdictReason.SIGNATURES_DIFFER, sig_f)
    return EquivalenceVerdict(
        True,
        VerdictReason.SIGNATURES_EQUAL,
        sig_f,
        SignaturePolynomial(sig_f.S, group, G, cert),
    )


@dataclass(frozen=True)
class SymmetryResult:
    n: Optional[int]  # None encodes infinite
    infinite: bool
    route: str  # "degree-ratio" | "constant-signature"
    degree_report: Optional[DegreeReport] = None
    signature_degree: Optional[int] = None
    constant_value: Optional[Fraction] = None


def symmetry_order(
    curve: CurveInput,
    group: GroupId,
    seed: int = 0,
    known_signature_degree: Optional[int] = None,
) -> SymmetryResult:
    """|Sym(X, G)| from the degree formula: n = (d*deg(sigma) - mult)/deg(S).

    deg(S) is ``known_signature_degree`` (e.g. a verified closed form) or
    the degree of the certified signature polynomial.  Infinite symmetry is
    the constant-signature case, detected before the degree formula is ever
    invoked (it does not apply): the certified route answers it with a
    ``PointSignature``, and ``is_constant_signature`` when deg(S) is known.
    """
    if known_signature_degree is None:
        sig = signature_polynomial(curve, group)
        const = sig.value if isinstance(sig, PointSignature) else None
    else:
        const = is_constant_signature(curve, group)
    if const is not None:
        return SymmetryResult(
            None, True, "constant-signature", constant_value=const
        )
    deg_s = sig.degree() if known_signature_degree is None else known_signature_degree
    pred = predict_degree(curve, group, seed=seed)
    total = pred.n_times_deg_S
    if deg_s <= 0 or total % deg_s:
        raise NonIntegralSymmetryError(total, deg_s, "d*deg(sigma) - mult_sum")
    return SymmetryResult(
        total // deg_s,
        False,
        "degree-ratio",
        degree_report=pred,
        signature_degree=deg_s,
    )
