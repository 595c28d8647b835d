"""Group-equivalence verdicts and symmetry-group cardinality.

Two non-exceptional curves with finite symmetry groups are G-equivalent
exactly when their canonical signature polynomials coincide; constant
signatures compare as constants but only give a necessary condition (the
signature classification holds unconditionally only there).  The symmetry order n is
recovered from n * deg(S) = d * deg(sigma) - mult_sum once deg(S) is known
from elimination or from a certified sample fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .degree import DegreeReport, predict_degree
from .errors import (
    BudgetExceededError,
    ExceptionalCurveError,
    NonIntegralSymmetryError,
)
from .groebner import EliminationBudget
from .jets import CurveInput, GroupId
from .signature import (
    PointSignature,
    SignaturePolynomial,
    certified_signature_degree,
    signature_polynomial,
)


class VerdictReason(str, Enum):
    SIGNATURES_EQUAL = "signatures-equal"
    SIGNATURES_DIFFER = "signatures-differ"
    BOTH_CONSTANT_EQUAL = "both-constant-equal"
    CONSTANT_VS_CURVE = "constant-vs-curve"
    EXCEPTIONAL_INPUT = "exceptional-input"
    UNDECIDED_BUDGET = "undecided-budget"


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: Optional[bool]  # None = undecided
    reason: VerdictReason
    left: Optional[Union[SignaturePolynomial, PointSignature]] = None
    right: Optional[Union[SignaturePolynomial, PointSignature]] = None
    note: str = ""
    degree_predictions: Optional[tuple[DegreeReport, DegreeReport]] = None


def equivalent(
    F: CurveInput,
    G: CurveInput,
    group: GroupId,
    budget: Optional[EliminationBudget] = None,
    seed: int = 0,
) -> EquivalenceVerdict:
    """Decide G-equivalence by comparing canonical signature polynomials
    byte-exactly; undecided (with degree predictions attached) when the
    elimination budget is exceeded on either side."""
    try:
        sig_f = signature_polynomial(F, group, budget=budget, seed=seed)
        sig_g = signature_polynomial(G, group, budget=budget, seed=seed + 1)
    except ExceptionalCurveError as e:
        return EquivalenceVerdict(None, VerdictReason.EXCEPTIONAL_INPUT, note=str(e))
    except BudgetExceededError as e:
        preds = None
        try:
            preds = (
                predict_degree(F, group, seed=seed),
                predict_degree(G, group, seed=seed),
            )
        except Exception:
            pass
        return EquivalenceVerdict(
            None, VerdictReason.UNDECIDED_BUDGET, note=str(e), degree_predictions=preds
        )
    const_f = isinstance(sig_f, PointSignature)
    const_g = isinstance(sig_g, PointSignature)
    if const_f and const_g:
        same = sig_f.value == sig_g.value
        return EquivalenceVerdict(
            same,
            VerdictReason.BOTH_CONSTANT_EQUAL if same else VerdictReason.SIGNATURES_DIFFER,
            sig_f,
            sig_g,
            note=(
                "necessary-condition only: signature classification is complete "
                "only for finite symmetry groups"
                if same
                else ""
            ),
        )
    if const_f != const_g:
        return EquivalenceVerdict(
            False, VerdictReason.CONSTANT_VS_CURVE, sig_f, sig_g
        )
    same = sig_f.S == sig_g.S
    return EquivalenceVerdict(
        same,
        VerdictReason.SIGNATURES_EQUAL if same else VerdictReason.SIGNATURES_DIFFER,
        sig_f,
        sig_g,
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
    budget: Optional[EliminationBudget] = None,
    seed: int = 0,
    known_signature_degree: Optional[int] = None,
) -> SymmetryResult:
    """|Sym(X, G)| from the degree formula: n = (d*deg(sigma) - mult)/deg(S).

    deg(S) comes from elimination when it fits the budget, from a certified
    sample fit for small degrees, or from ``known_signature_degree`` (e.g. a
    verified closed form).  Infinite symmetry is the constant-signature case,
    detected before the degree formula is ever invoked (it does not apply).
    """
    from .signature import is_constant_signature

    const = is_constant_signature(curve, group)
    if const is not None:
        return SymmetryResult(
            None, True, "constant-signature", constant_value=const
        )
    pred = predict_degree(curve, group, seed=seed)
    total = pred.n_times_deg_S
    deg_s = known_signature_degree
    if deg_s is None:
        try:
            sig = signature_polynomial(curve, group, budget=budget, seed=seed)
            assert isinstance(sig, SignaturePolynomial)
            deg_s = sig.degree()
        except BudgetExceededError:
            candidates = [total // n for n in range(1, total + 1) if total % n == 0]
            deg_s = certified_signature_degree(curve, group, candidates)
            if deg_s is None:
                raise BudgetExceededError(
                    "signature degree not obtainable: elimination over budget and "
                    f"no sample fit certified among divisors of {total}"
                )
    if deg_s <= 0 or total % deg_s:
        raise NonIntegralSymmetryError(total, deg_s, "d*deg(sigma) - mult_sum")
    return SymmetryResult(
        total // deg_s,
        False,
        "degree-ratio",
        degree_report=pred,
        signature_degree=deg_s,
    )
