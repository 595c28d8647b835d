"""Test oracles: independent second routes that only the tests use.

sigcurve computes every quantity by one route.  The routes kept here are
slower or narrower, and the tests compare them against the package:

* Saturated Groebner elimination (Buchberger with sugar strategy,
  Gebauer-Moller pruning and a two-block grevlex elimination order, under
  hard budgets) and ``elimination_signature``, the signature polynomial as
  the generator of

      < F,  B*k1 - A,  E*k2 - C,  1 - t*h >  intersected with  Q[k1, k2],

  where K1 = A/B and K2 = C/E and h is squarefree with the radical of B*E.
* ``mult_sum_line_resultant``: the multiplicity sum of one line by a
  resultant instead of branch series.
* The frozen SE(2) super-signature of conics.
* ``verify_signature_samples``: a numeric check of S at float samples.
* ``mul_tuple_keys`` and ``exact_div_grevlex``: polynomial product and exact
  quotient on exponent tuples and ``Fraction`` remainders, without the
  packed integer keys of ``SparsePoly.__mul__`` and ``poly.exact_div``.
* ``add_fraction_terms`` and ``evaluate_fraction_terms``: the sum of two
  polynomials and the value at an exact point on their ``Fraction`` terms,
  term by term, against which the integer forms of ``SparsePoly.__add__``
  and ``SparsePoly.evaluate`` are checked (values and term order).
* ``mat_inverse_gauss_jordan``: Gauss-Jordan elimination on ``Fraction``
  rows, against which the fraction-free ``poly.mat_inverse`` is checked.
* ``sylvester_resultant``: the resultant of two univariate coefficient lists
  as the determinant of their Sylvester matrix, against which the sign and
  value of ``poly.resultant`` (subresultant PRS) are checked.
* ``modp_sylvester_resultant``: the image mod p of a resultant in two
  variables from Sylvester determinants over F_p at each point
  (``_modp_det``), against which ``modp._modp_resultant`` (Euclid at each
  point) is checked, zero formal leading coefficients included.
* ``evaluate_polys_at_series_reference``: polynomials at truncated series
  monomial by monomial on power tables, against which the Horner route of
  ``series.evaluate_polys_at_series`` is checked.
* ``theta_numerator_reference``: the numerator of Theta_i on a curve, summed
  monomial by monomial with each term brought to the largest jet weight,
  against which ``jets.theta`` (Horner on weighted pairs) is checked.
* ``theta_literals`` and ``theta_horner``: Theta_1..Theta_8 hand-expanded in
  u1..u8, and T_i by Horner over them, against which ``jets.theta_table``
  and ``jets.theta`` (Theta_5..Theta_8 and T_5..T_8 by the derivative
  chain) are checked.
* ``jet_series_horner``: Theta_1..Theta_8 along a branch piece by Horner
  over ``theta_table()`` at the jets u1..u8 of the branch, against which
  ``degree._jet_series`` (Theta_5..Theta_8 by the derivative chain along
  the branch) is checked.
* ``fy_series_horner``: F_y along a branch piece by Horner at the branch's
  (x, y), whose valuation checks ``degree._fy_valuation`` (an order read
  from q's squarefreeness on the fiber, from the branch at the corner).
* ``newton_branch_reference``: the branch of H(t, u) = 0 by Newton steps
  that evaluate H and dH/du with the monomial reference above and invert
  dH/du afresh at every step, against which ``series.newton_branch``
  (Horner, carried inverse) is checked.
* ``jets_at_point`` (and ``fiber_jets`` on a whole fiber): u_1..u_n by a
  Newton branch through a rational point, against which the recurrence of
  ``jets.implicit_jet`` is checked.
* ``canonical_components_reference``: the canonical sigma components along
  a branch piece with the common factor x0^deg(sigma) * F_y^k multiplied
  in, every series capped ``rel`` orders past its first term, against which
  ``degree.canonical_components_on_piece`` (the Theta products, to their
  first terms when those are units, the factor counted once by its
  valuation) is checked.
* ``projective_extension_reference``: the homogeneous triple as products of
  the homogenized T_i over (x0, x1, x2), against which
  ``jets.projective_extension`` (products in the affine chart, homogenized
  once) is checked.
* ``transform_point``: the affine action of a 3x3 matrix on a point, with
  which the tests move points along with ``jets.apply_group_element``.

The elimination order compares monomials first by their total degree in the
eliminated block, grevlex-tiebroken there, then the same in the kept block.
Any monomial touching an eliminated variable is therefore larger than every
monomial in the kept variables alone, so basis elements whose leading
monomial lives in the kept block generate the elimination ideal.
Coefficients are primitive integer vectors throughout; reductions
cross-scale by leading-coefficient gcds and strip content at the end.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from sigcurve.degree import (
    CHART_RING, BranchPiece, _branch_jets, _chart_polys, _combine, _jet_series,
)
from sigcurve.errors import ShearRequiredError, SigcurveError
from sigcurve.jets import (
    CURVE_RING,
    FY_EXPONENT,
    GROUP_THETAS,
    HOMOG_RING,
    JET_RING,
    SIGMA_DEGREE,
    SIGMA_RECIPES,
    TAU_COEFFS,
    CurveInput,
    GroupId,
    HomogeneousTriple,
    ThetaRestriction,
    _point_ring,
    _theta_horner,
    classifying_pair,
    homogeneous_gcd,
    implicit_jet,
    jet_order,
    require_non_exceptional,
    theta_table,
    thetas_for_group,
)
from sigcurve.modp import _horner, _newton_step
from sigcurve.poly import SparsePoly, _int_form, exact_div, gcd, resultant, square_free_part
from sigcurve.series import (
    SeriesRing, TruncatedSeries, evaluate_polys_at_series, newton_branch,
)
from sigcurve.signature import (
    SIG_RING,
    SignaturePolynomial,
    canonical_signature_poly,
    signature_samples,
)

ELIM_RING = ("t", "x", "y", "k1", "k2")


class BudgetExceededError(SigcurveError):
    """An elimination ran past its configured basis-size or degree cap."""


class SampleCheckError(SigcurveError):
    """A signature polynomial does not vanish at its curve's numeric samples."""


# ---------------------------------------------------------------------------
# Groebner elimination

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class EliminationBudget:
    """Hard caps; exceeding either aborts with a loud error."""

    max_basis: int = 5000
    max_degree: int = 400


def _block_key(ne: int):
    def key(e: Exponent):
        a = e[:ne]
        b = e[ne:]
        return (
            sum(a),
            tuple(-x for x in reversed(a)),
            sum(b),
            tuple(-x for x in reversed(b)),
        )

    return key


def _divides(a: Exponent, b: Exponent) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(int.__sub__, a, b))


def _add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(int.__add__, a, b))


class _GBPoly:
    __slots__ = ("terms", "lm", "lc", "sugar")

    def __init__(self, terms: dict[Exponent, int], lm: Exponent, sugar: int):
        self.terms = terms
        self.lm = lm
        self.lc = terms[lm]
        self.sugar = sugar


def _strip_content(terms: dict[Exponent, int]) -> None:
    g = 0
    for c in terms.values():
        g = math.gcd(g, c)
        if g == 1:
            return
    if g > 1:
        for e in terms:
            terms[e] //= g


def _make_gbpoly(terms: dict[Exponent, int], key, sugar=None) -> _GBPoly:
    _strip_content(terms)
    lm = max(terms, key=key)
    if terms[lm] < 0:
        for e in terms:
            terms[e] = -terms[e]
    if sugar is None:
        sugar = max(sum(e) for e in terms)
    return _GBPoly(terms, lm, sugar)


def _reduce_full(
    terms: dict[Exponent, int], sugar: int, basis: list[_GBPoly], key, max_degree: int
) -> tuple[dict[Exponent, int], int]:
    """Fully reduce an integer polynomial modulo the basis."""
    out: dict[Exponent, int] = {}
    work = dict(terms)
    steps = 0
    while work:
        steps += 1
        if steps % 64 == 0:
            # periodic content strip keeps the integer growth in check
            g = 0
            for c in work.values():
                g = math.gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                for c in out.values():
                    g = math.gcd(g, c)
                    if g == 1:
                        break
            if g > 1:
                for e in work:
                    work[e] //= g
                for e in out:
                    out[e] //= g
        m = max(work, key=key)
        if sum(m) > max_degree:
            raise BudgetExceededError(
                f"elimination budget exceeded: monomial degree {sum(m)} > {max_degree}"
            )
        c = work[m]
        reducer = None
        for g in basis:
            if _divides(g.lm, m):
                reducer = g
                break
        if reducer is None:
            del work[m]
            out[m] = c
            continue
        d = math.gcd(c, reducer.lc)
        a = reducer.lc // d
        b = c // d
        if a != 1:
            for e in work:
                work[e] *= a
            for e in out:
                out[e] *= a
        shift = _sub(m, reducer.lm)
        sugar = max(sugar, reducer.sugar + sum(shift))
        for e, cg in reducer.terms.items():
            e2 = _add(e, shift)
            acc = work.get(e2, 0) - b * cg
            if acc:
                work[e2] = acc
            else:
                work.pop(e2, None)
    _strip_content(out)
    return out, sugar


def _spoly(f: _GBPoly, g: _GBPoly) -> tuple[dict[Exponent, int], int]:
    lcm = _lcm(f.lm, g.lm)
    sf = _sub(lcm, f.lm)
    sg = _sub(lcm, g.lm)
    d = math.gcd(f.lc, g.lc)
    cf = g.lc // d
    cg = f.lc // d
    terms: dict[Exponent, int] = {}
    for e, c in f.terms.items():
        e2 = _add(e, sf)
        terms[e2] = terms.get(e2, 0) + cf * c
    for e, c in g.terms.items():
        e2 = _add(e, sg)
        acc = terms.get(e2, 0) - cg * c
        if acc:
            terms[e2] = acc
        else:
            terms.pop(e2, None)
    sugar = max(f.sugar + sum(sf), g.sugar + sum(sg))
    return terms, sugar


def _gm_update(
    basis: list[_GBPoly],
    pairs: set[tuple[int, int]],
    new_index: int,
):
    """Gebauer-Moller pair list update for basis[new_index]."""
    h = basis[new_index]
    # candidate new pairs, pruned among themselves
    cand = []
    for i in range(new_index):
        cand.append(i)
    lcms = {i: _lcm(basis[i].lm, h.lm) for i in cand}
    kept: list[int] = []
    coprime: dict[int, bool] = {
        i: all(
            min(a, b) == 0 for a, b in zip(basis[i].lm, h.lm)
        )
        for i in cand
    }
    for i in cand:
        li = lcms[i]
        redundant = False
        for j in cand:
            if j == i:
                continue
            lj = lcms[j]
            if lj != li and _divides(lj, li):
                redundant = True
                break
        if not redundant:
            kept.append(i)
    # among equal lcms keep a single representative, prefer coprime (dropped)
    seen: dict[Exponent, int] = {}
    final: list[int] = []
    for i in kept:
        li = lcms[i]
        if li in seen:
            if coprime[i]:
                seen[li] = i  # coprime representative kills the pair entirely
            continue
        seen[li] = i
        final.append(i)
    new_pairs = set()
    for li, i in seen.items():
        if not coprime[i]:
            new_pairs.add((i, new_index))
    # prune old pairs by the chain criterion with h
    for (i, j) in list(pairs):
        lij = _lcm(basis[i].lm, basis[j].lm)
        if (
            _divides(h.lm, lij)
            and _lcm(basis[i].lm, h.lm) != lij
            and _lcm(basis[j].lm, h.lm) != lij
        ):
            pairs.discard((i, j))
    pairs.update(new_pairs)


def groebner_basis(
    gens: list[SparsePoly],
    n_elim: int = 0,
    budget: EliminationBudget | None = None,
) -> list[SparsePoly]:
    """Reduced Groebner basis under the two-block grevlex order.

    ``n_elim`` is the number of leading ring variables forming the
    elimination block; 0 gives plain grevlex.
    """
    if not gens:
        raise ValueError("empty generator list")
    budget = budget or EliminationBudget()
    ring = gens[0].ring
    key = _block_key(n_elim)
    basis: list[_GBPoly] = []
    pairs: set[tuple[int, int]] = set()

    def add_poly(terms: dict[Exponent, int], sugar=None) -> None:
        p = _make_gbpoly(terms, key, sugar)
        basis.append(p)
        if len(basis) > budget.max_basis:
            raise BudgetExceededError(
                f"elimination budget exceeded: basis size > {budget.max_basis}"
            )
        _gm_update(basis, pairs, len(basis) - 1)

    for g in gens:
        if g.ring != ring:
            raise ValueError("generators must share one ring")
        if g.is_zero():
            continue
        ints, _den = _int_form(g)
        red, sugar = _reduce_full(ints, max(sum(e) for e in ints), basis, key, budget.max_degree)
        if red:
            add_poly(red, sugar)
    if not basis:
        return [SparsePoly.zero(ring)]

    heap: list[tuple[int, tuple, int, int]] = []
    staged: set[tuple[int, int]] = set()

    def stage_pairs():
        for (i, j) in pairs - staged:
            staged.add((i, j))
            lcm = _lcm(basis[i].lm, basis[j].lm)
            sugar = max(
                basis[i].sugar + sum(_sub(lcm, basis[i].lm)),
                basis[j].sugar + sum(_sub(lcm, basis[j].lm)),
            )
            heapq.heappush(heap, (sugar, key(lcm), i, j))

    stage_pairs()
    while heap:
        _sug, _k, i, j = heapq.heappop(heap)
        if (i, j) not in pairs:
            continue  # pruned since staging
        pairs.discard((i, j))
        sterms, ssugar = _spoly(basis[i], basis[j])
        if not sterms:
            continue
        red, rsugar = _reduce_full(sterms, ssugar, basis, key, budget.max_degree)
        if red:
            add_poly(red, rsugar)
            stage_pairs()

    return _interreduce(basis, ring, key, budget)


def _interreduce(basis: list[_GBPoly], ring, key, budget) -> list[SparsePoly]:
    # minimalize: drop elements whose lm is divisible by another's lm
    keep: list[_GBPoly] = []
    lms = [g.lm for g in basis]
    for idx, g in enumerate(basis):
        if any(
            _divides(lms[k], g.lm) and (lms[k] != g.lm or k < idx)
            for k in range(len(basis))
            if k != idx
        ):
            continue
        keep.append(g)
    # full tail reduction of each against the others
    out: list[SparsePoly] = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1 :]
        red, _ = _reduce_full(dict(g.terms), g.sugar, others, key, budget.max_degree)
        if not red:
            continue
        lm = max(red, key=key)
        if red[lm] < 0:
            red = {e: -c for e, c in red.items()}
        out.append(SparsePoly(ring, {e: Fraction(c) for e, c in red.items()}))
    out.sort(key=lambda p: key(p.leading(key)[0]))
    return out


def groebner_eliminate(
    gens: list[SparsePoly],
    keep: tuple[str, ...],
    budget: EliminationBudget | None = None,
) -> list[SparsePoly]:
    """Generators of the elimination ideal in Q[keep].

    The variables not in ``keep`` are eliminated with a block order (they
    form the dominant block, in ring order, so a saturation variable listed
    first in the ring sits highest).  Saturation itself is the caller's
    responsibility via a ``1 - t*h`` generator.
    """
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    elim = tuple(v for v in ring if v not in keep)
    kept = tuple(v for v in ring if v in keep)
    internal = elim + kept
    ne = len(elim)
    gens_internal = [g.map_variables(internal) for g in gens]
    gb = groebner_basis(gens_internal, n_elim=ne, budget=budget)
    out = []
    for p in gb:
        if p.is_zero():
            continue
        lm, _ = p.leading(_block_key(ne))
        if any(lm[:ne]):
            continue
        out.append(_restrict_ring(p, kept))
    return out


def _restrict_ring(p: SparsePoly, kept: tuple[str, ...]) -> SparsePoly:
    pos = [p.ring.index(v) for v in kept]
    terms = {}
    for e, c in p.terms.items():
        terms[tuple(e[i] for i in pos)] = c
    return SparsePoly(kept, terms)


def elimination_signature(
    curve: CurveInput, group: GroupId, budget: EliminationBudget | None = None
) -> SparsePoly:
    """The canonical signature polynomial by saturated elimination."""
    pair = classifying_pair(curve, group)
    A, B = pair.K1.num, pair.K1.den
    C, E = pair.K2.num, pair.K2.den
    h = square_free_part(square_free_part(B) * square_free_part(E))
    t, x, y, k1, k2 = (SparsePoly.var(ELIM_RING, v) for v in ELIM_RING)
    up = lambda p: p.map_variables(ELIM_RING)
    gens = [
        up(curve.F),
        up(B) * k1 - up(A),
        up(E) * k2 - up(C),
        SparsePoly.const(ELIM_RING, 1) - t * up(h),
    ]
    basis = [p for p in groebner_eliminate(gens, keep=SIG_RING, budget=budget) if p]
    S = basis[0]
    for p in basis[1:]:  # principal by theory
        S = gcd(S, p)
    return canonical_signature_poly(S)


# ---------------------------------------------------------------------------
# multiplicity sums by resultants


def mult_sum_line_resultant(
    curve: CurveInput, sigma: HomogeneousTriple, a: Sequence
) -> int:
    """The order at v = 0 of Res_w(Fh(v,1,w), G(v,1,w)).

    Valid when [0:0:1] is off the curve and the infinite fiber is simple;
    feasible only when the combined polynomial is small.
    """
    H, q, corner = _chart_polys(curve)
    if corner == 0:
        raise ShearRequiredError("corner [0:0:1] on curve: resultant route invalid")
    G = _combine(a, sigma.sigma, SparsePoly.zero(HOMOG_RING))
    r = resultant(H, G.dehomogenize("x1").rename_ring(CHART_RING), "w")
    if r.is_zero():
        raise ValueError("resultant vanished: common factor (unlucky line)")
    return min(e[0] for e in r.terms)


# ---------------------------------------------------------------------------
# the SE(2) super-signature of conics
#
# For a general conic c00 + c10 x + c01 y + c20 x^2 + c11 x y + c02 y^2 the
# signature polynomial of every non-exceptional member is one specialization
# of a single polynomial in the coefficients, expressed through the classical
# conic invariants
#
#     U1 = c02 + c20
#     U2 = 4 c20 c02 - c11^2
#     U3 = 4 c00 c02 c20 - c00 c11^2 - c01^2 c20 + c01 c10 c11 - c02 c10^2
#
# (U3 is four times the determinant of the symmetric matrix of the conic).


def conic_invariants(curve: CurveInput) -> tuple[Fraction, Fraction, Fraction]:
    if curve.d != 2:
        raise ValueError("conic invariants need a degree-2 curve")
    c = {e: curve.F.terms.get(e, Fraction(0)) for e in
         [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}
    c00, c10, c01 = c[(0, 0)], c[(1, 0)], c[(0, 1)]
    c20, c11, c02 = c[(2, 0)], c[(1, 1)], c[(0, 2)]
    u1 = c02 + c20
    u2 = 4 * c20 * c02 - c11 * c11
    u3 = (
        4 * c00 * c02 * c20
        - c00 * c11 * c11
        - c01 * c01 * c20
        + c01 * c10 * c11
        - c02 * c10 * c10
    )
    return u1, u2, u3


def conic_se2_super_signature(curve: CurveInput) -> SparsePoly:
    """Specialized super-signature polynomial of a conic, canonicalized."""
    u1, u2, u3 = conic_invariants(curve)
    terms = {
        (6, 0): 2916 * u3**2,
        (5, 0): 2916 * u3 * u1 * (4 * u1**2 - 3 * u2),
        (4, 2): 972 * u3**2,
        (4, 0): 729 * u2**3,
        (3, 2): -972 * u3 * u2 * u1,
        (2, 4): 108 * u3**2,
        (0, 6): 4 * u3**2,
    }
    S = SparsePoly(SIG_RING, {e: c for e, c in terms.items() if c})
    if S.is_zero():
        raise ValueError("degenerate conic: super-signature vanishes")
    return canonical_signature_poly(S)


# ---------------------------------------------------------------------------
# numeric sample check


def relative_residual(S: SparsePoly, k1: complex, k2: complex) -> float:
    """|S(k1,k2)| scaled by 1 + the sum of the term magnitudes."""
    total = 0j
    scale = 1.0
    for e, c in S.terms.items():
        term = complex(c) * k1 ** e[0] * k2 ** e[1]
        total += term
        scale += abs(term)
    return abs(total) / scale


def verify_signature_samples(
    sig: SignaturePolynomial, count: int = 25, seed: int = 0, tol: float = 1e-8
) -> None:
    """Check that numeric signature samples vanish on S; SampleCheckError
    when more than a tenth of them fail or fewer than four fifths of
    ``count`` are found."""
    samples = signature_samples(sig.source, sig.group, count, seed=seed)
    if len(samples) < count - count // 5:
        raise SampleCheckError(f"only {len(samples)}/{count} numeric samples found")
    bad = 0
    for s in samples:
        if relative_residual(sig.S, s.k1, s.k2) > tol:
            bad += 1
    if bad > max(1, count // 10):
        raise SampleCheckError(
            f"{bad}/{len(samples)} numeric samples fail to vanish on S"
        )


# ---------------------------------------------------------------------------
# polynomial kernels


def grevlex_key(e: Exponent) -> tuple:
    """Sort key for graded reverse lexicographic order."""
    return (sum(e), tuple(-x for x in reversed(e)))


def mul_tuple_keys(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Product by a convolution keyed by exponent tuples, in the loop order
    of ``SparsePoly.__mul__`` (so the term dict has the same order)."""
    if p.ring != q.ring:
        raise ValueError("operands must share one ring")
    if not p.terms or not q.terms:
        return SparsePoly.zero(p.ring)
    pn, pd = _int_form(p)
    qn, qd = _int_form(q)
    if len(pn) > len(qn):
        pn, qn = qn, pn
    acc: dict[Exponent, int] = {}
    for e1, c1 in pn.items():
        for e2, c2 in qn.items():
            e = _add(e1, e2)
            acc[e] = acc.get(e, 0) + c1 * c2
    den = pd * qd
    return SparsePoly(p.ring, {e: Fraction(c, den) for e, c in acc.items() if c})


def exact_div_grevlex(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Quotient p / q by multivariate division in grevlex order over
    ``Fraction`` remainders; ``ValueError`` when the division is not exact."""
    if p.ring != q.ring:
        raise ValueError("operands must share one ring")
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    lead_q = max(q.terms, key=grevlex_key)
    lcq = q.terms[lead_q]
    out: dict[Exponent, Fraction] = {}
    rem = dict(p.terms)
    while rem:
        lead_r = max(rem, key=grevlex_key)
        diff = _sub(lead_r, lead_q)
        if any(x < 0 for x in diff):
            raise ValueError("division is not exact")
        coeff = rem[lead_r] / lcq
        out[diff] = coeff
        for e, c in q.terms.items():
            e2 = _add(e, diff)
            acc = rem.get(e2, Fraction(0)) - coeff * c
            if acc == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = acc
    return SparsePoly(p.ring, out)


def add_fraction_terms(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """p + q on the ``Fraction`` terms: p's terms in order, then q's new ones."""
    terms = dict(p.terms)
    for e, c in q.terms.items():
        acc = terms.get(e)
        s = c if acc is None else acc + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return SparsePoly(p.ring, terms)


def evaluate_fraction_terms(p: SparsePoly, point: dict) -> Fraction:
    """p at an exact point, term by term with ``Fraction`` powers."""
    acc = Fraction(0)
    for e, c in p.terms.items():
        term = Fraction(c)
        for v, k in zip(p.ring, e):
            if k:
                term = term * Fraction(point[v]) ** k
        acc = acc + term
    return acc


def mat_inverse_gauss_jordan(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination on
    ``Fraction`` rows; ZeroDivisionError when it is singular."""
    n = len(m)
    zero, one = Fraction(0), Fraction(1)
    aug = [[Fraction(x) for x in m[i]] + [one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = row = [a / pv if a else a for a in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [a - f * b if b else a for a, b in zip(aug[r], row)]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# resultant


def sylvester_resultant(pc: Sequence[Fraction], qc: Sequence[Fraction]) -> Fraction:
    """Determinant of the Sylvester matrix of two univariate coefficient
    lists (ascending order): the definition ``poly.resultant`` must match,
    sign included."""
    m = len(pc) - 1
    n = len(qc) - 1
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    prow = list(reversed(pc))
    qrow = list(reversed(qc))
    for k in range(n):
        rows.append([Fraction(0)] * k + prow + [Fraction(0)] * (size - k - m - 1))
    for k in range(m):
        rows.append([Fraction(0)] * k + qrow + [Fraction(0)] * (size - k - n - 1))
    return _det_fraction(rows)


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q (rows are overwritten)."""
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, n):
            f = rows[r][col] / pv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def modp_sylvester_resultant(
    f: list[list[int]], g: list[list[int]], prime: int
) -> Optional[list[int]]:
    """Res_y over F_p[x] of two y-lists (``modp._modp_ylists``) with formal
    degrees m = len(f) - 1 and n = len(g) - 1 (m + n >= 1): the Sylvester
    determinant at x = 0, 1, ..., N by ``_modp_det``, and Newton
    interpolation, with the bound N of ``modp._modp_resultant`` (None when
    the prime is not above it), against which its Euclid route is checked."""
    m, n = len(f) - 1, len(g) - 1
    a, b = (max((len(c) - 1 + j for j, c in enumerate(h) if c), default=0) for h in (f, g))
    bound = n * a + m * b - m * n
    if bound >= prime:
        return None
    interp: list[int] = []
    basis = [1]
    for point in range(bound + 1):
        fv = [_horner(c, point, prime) for c in reversed(f)]
        gv = [_horner(c, point, prime) for c in reversed(g)]
        rows = [[0] * r + fv + [0] * (n - 1 - r) for r in range(n)]
        rows += [[0] * s + gv + [0] * (m - 1 - s) for s in range(m)]
        inv = pow(_horner(basis, point, prime), -1, prime)
        _newton_step(interp, _modp_det(rows, prime), basis, inv, point, prime)
        basis = [(lo - point * hi) % prime for lo, hi in zip([0, *basis], [*basis, 0])]
    while interp and not interp[-1]:
        interp.pop()
    return interp


def _modp_det(rows: list[list[int]], prime: int) -> int:
    """Determinant over F_p by Gaussian elimination; each step drops the
    pivot row and the first column."""
    det = 1
    while rows:
        piv = next((r for r, row in enumerate(rows) if row[0]), None)
        if piv is None:
            return 0
        if piv:
            rows[0], rows[piv] = rows[piv], rows[0]
            det = -det
        pivot, *rows = rows
        det = det * pivot[0] % prime
        inv = pow(pivot[0], -1, prime)
        rows = [
            [(u - k * v) % prime for u, v in zip(row[1:], pivot[1:])]
            if (k := row[0] * inv % prime)
            else row[1:]
            for row in rows
        ]
    return det


# ---------------------------------------------------------------------------
# evaluation at ring elements, monomial by monomial


def evaluate_polys_at_series_reference(
    polys: Sequence[SparsePoly],
    assignment: dict[str, TruncatedSeries],
    ring: SeriesRing,
    rel_cap: Optional[int] = None,
) -> list[TruncatedSeries]:
    """Each polynomial as the sum of its monomials, every monomial a product
    of powers from one shared table; ``rel_cap`` truncates every product
    ``rel_cap`` orders past its first known term."""
    pows: dict[str, list[TruncatedSeries]] = {}
    one = TruncatedSeries.constant(ring, Fraction(1))

    def cap(s: TruncatedSeries) -> TruncatedSeries:
        return s if rel_cap is None else s.rel_capped(rel_cap)

    def power(name: str, k: int) -> TruncatedSeries:
        tab = pows.setdefault(name, [one])
        while len(tab) <= k:
            tab.append(cap(tab[-1] * assignment[name]))
        return tab[k]

    out = []
    for p in polys:
        acc = TruncatedSeries.zero(ring)
        for e, c in p.terms.items():
            term = TruncatedSeries.constant(ring, c)
            for name, k in zip(p.ring, e):
                if k:
                    term = cap(term * power(name, k))
            acc = acc + term
        out.append(acc.normalized())
    return out


def theta_numerator_reference(curve: CurveInput, index: int) -> tuple[SparsePoly, int]:
    """(N, D) with Theta_index|_X = N / F_y^D: D is the largest jet weight
    (u_n weighs 2n - 1) of a monomial of Theta_index, and each monomial
    c * prod u_n^k_n contributes c * F_y^(D - w) * prod P_n^k_n."""
    th = theta_table()[index]
    jets = implicit_jet(curve, jet_order([index]))
    fy = curve.fy()

    def weight(e: Exponent) -> int:
        return sum(k * (2 * n + 1) for n, k in enumerate(e))

    D = max(weight(e) for e in th.terms)
    num = SparsePoly.zero(CURVE_RING)
    for e, c in th.terms.items():
        term = SparsePoly.const(CURVE_RING, c) * fy ** (D - weight(e))
        for n, k in enumerate(e):
            if k:
                term = term * jets.p(n + 1) ** k
        num = num + term
    return num, D


@functools.lru_cache(maxsize=1)
def theta_literals() -> dict[int, SparsePoly]:
    """Theta_1..Theta_8 as hand-expanded polynomials in u1..u8, against which
    ``jets.theta_table`` (Theta_5..Theta_8 by the derivative chain) is
    checked."""
    R = JET_RING
    u1, u2, u3, u4, u5, u6, u7, u8 = (SparsePoly.var(R, v) for v in R)
    th1 = u1**2 + 1
    th2 = u2
    th3 = u3 * th1 - 3 * u1 * th2**2
    th4 = 3 * u4 * u2 - 5 * u3**2
    th5 = 9 * u5 * u2**2 - 45 * u4 * u3 * u2 + 40 * u3**3
    th6 = (
        9 * u6 * u2**3
        - 63 * u5 * u3 * u2**2
        - 45 * u4**2 * u2**2
        + 255 * u4 * u3**2 * u2
        - 160 * u3**4
    )
    th7 = (
        18 * u7 * u2**4 * th5
        - 189 * u6**2 * u2**6
        + 126 * u6 * u2**4 * (9 * u5 * u3 * u2 + 15 * u4**2 * u2 - 25 * u4 * u3**2)
        - 189 * u5**2 * u2**4 * (4 * u3**2 + 15 * u2 * u4)
        + 210
        * u5
        * u3
        * u2**2
        * (63 * u4**2 * u2**2 - 60 * u4 * u3**2 * u2 + 32 * u3**4)
        - 525
        * u4
        * u2
        * (9 * u4**3 * u2**3 + 15 * u4**2 * u3**2 * u2**2 - 60 * u4 * u3**4 * u2 + 64 * u3**6)
        + 11200 * u3**8
    ).scale(Fraction(9, 2))
    th8 = (
        u2**4
        * (
            2 * u8 * u2 * th5**2
            - 8
            * u7
            * th5
            * (
                9 * u6 * u2**3
                - 36 * u5 * u3 * u2**2
                - 45 * u4**2 * u2**2
                + 120 * u4 * u3**2 * u2
                - 40 * u3**4
            )
            + 504 * u6**3 * u2**5
            - 504 * u6**2 * u2**3 * (9 * u5 * u3 * u2 + 15 * u4**2 * u2 - 25 * u4 * u3**2)
            + 28
            * u6
            * (
                432 * u5**2 * u3**2 * u2**3
                + 243 * u5**2 * u4 * u2**4
                - 1800 * u5 * u4 * u3**3 * u2**2
                - 240 * u5 * u3**5 * u2
                + 540 * u5 * u4**2 * u3 * u2**3
                + 6600 * u4**2 * u3**4 * u2
                - 2000 * u4 * u3**6
                - 5175 * u4**3 * u3**2 * u2**2
                + 1350 * u4**4 * u2**3
            )
            - 2835 * u5**4 * u2**4
            + 252 * u5**3 * u3 * u2**2 * (9 * u4 * u2 - 136 * u3**2)
            - 35840 * u5**2 * u3**6
            - 630 * u5**2 * u4 * u2 * (69 * u4**2 * u2**2 - 160 * u3**4 - 153 * u4 * u3**2 * u2)
            + 2100 * u5 * u4**2 * u3 * (72 * u3**4 + 63 * u4**2 * u2**2 - 193 * u4 * u3**2 * u2)
            - 7875 * u4**4 * (8 * u4**2 * u2**2 - 22 * u4 * u3**2 * u2 + 9 * u3**4)
        )
    ).scale(Fraction(243, 2))
    return {1: th1, 2: th2, 3: th3, 4: th4, 5: th5, 6: th6, 7: th7, 8: th8}


@functools.lru_cache(maxsize=64)
def theta_horner(curve: CurveInput, index: int) -> ThetaRestriction:
    """Theta_index restricted to the curve by Horner over its expanded
    polynomial (``jets._theta_horner`` on ``theta_literals``), against which
    the chain route of ``jets.theta`` for T_5..T_8 is checked."""
    d_i = FY_EXPONENT[index]
    jets = implicit_jet(curve, jet_order([index]))
    T = _theta_horner(curve, theta_literals()[index], d_i, jets)
    a, b = TAU_COEFFS[index]
    content, primitive = T.primitive()
    return ThetaRestriction(index, T, d_i, a * curve.d + b, content, primitive)


def jet_series_horner(
    piece: BranchPiece, trunc: int, rel: int, needed: Sequence[int]
) -> list[TruncatedSeries]:
    """The Theta_i for i in ``needed`` along a branch piece, every Theta_i
    by Horner over ``theta_table()[i]`` at the jets of the branch up to the
    highest one used, every product capped ``rel`` orders past its first
    known term."""
    u, _dx_inv = _branch_jets(piece, trunc, rel, jet_order(needed))
    return evaluate_polys_at_series([theta_table()[i] for i in needed], u, piece.ring, rel_cap=rel)


def fy_series_horner(
    curve: CurveInput, piece: BranchPiece, trunc: int, rel: int
) -> TruncatedSeries:
    """F_y along a branch piece by Horner at the branch's (x, y), every
    product capped ``rel`` orders past its first known term."""
    x0_inv = piece.x0.invert(trunc + 8)
    at = {"x": (piece.x1 * x0_inv).rel_capped(rel), "y": (piece.x2 * x0_inv).rel_capped(rel)}
    return evaluate_polys_at_series([curve.fy()], at, piece.ring, rel_cap=rel)[0]


# ---------------------------------------------------------------------------
# branch expansion


def newton_branch_reference(
    H: SparsePoly,
    param: str,
    unknown: str,
    ring: SeriesRing,
    root0: TruncatedSeries,
    prec: int,
) -> TruncatedSeries:
    """Series solution u(t) of H(t, u) = 0 with u(0) = root0, to ``prec``:
    each doubling step evaluates H and dH/du on power tables of t and u and
    inverts dH/du anew."""
    dH = H.partial_derivative(unknown)
    t = TruncatedSeries.variable(ring)
    w = root0.with_trunc(1)
    p = 1
    while p < prec:
        p = min(2 * p, prec)
        w_ext = TruncatedSeries(ring, w.terms, w.den, p)
        assignment = {param: t.with_trunc(p), unknown: w_ext}
        hv, dv = evaluate_polys_at_series_reference([H, dH], assignment, ring)
        w = (w_ext - hv * dv.invert(p)).with_trunc(p).normalized()
    return w


def fiber_jets(
    curve: CurveInput, x0: Fraction, ring: SeriesRing, n_max: int
) -> list[TruncatedSeries]:
    """u_1..u_{n_max} at the points (x0, w) of the curve, w running over the
    roots of the ring modulus q (a squarefree factor of F(x0, W) whose roots
    are simple roots of F(x0, .)), as elements of Q[W]/(q): one Newton branch
    expansion covers every point of the fiber."""
    branch = newton_branch(_shifted_curve(curve.F, x0), "h", "u", ring, ring.generator(), n_max + 1)
    return [ring.element([c * math.factorial(k) for c in branch.coeff_fractions(k)])
            for k in range(1, n_max + 1)]


def _shifted_curve(F: SparsePoly, x0: Fraction) -> SparsePoly:
    """H(h, u) = F(x0 + h, u): a Taylor shift by x0 of the coefficient list
    in x of each power of y (repeated synthetic division by x - x0)."""
    cols: dict[int, list[Fraction]] = {}
    for (i, j), c in F.terms.items():
        col = cols.setdefault(j, [])
        col.extend([Fraction(0)] * (i + 1 - len(col)))
        col[i] = c
    terms = {}
    for j, col in cols.items():
        n = len(col) - 1
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                col[k] += x0 * col[k + 1]
        terms.update({(i, j): c for i, c in enumerate(col) if c})
    return SparsePoly(("h", "u"), terms)


def jets_at_point(
    curve: CurveInput, p: tuple[Fraction, Fraction], n_max: int = 8
) -> list[Fraction]:
    """u_1..u_{n_max} at a rational regular point of the curve, computed by
    a local Taylor expansion of the branch through p (never builds P_n)."""
    x0, ring = _point_ring(curve, p)
    return [u.coeff_fractions(0)[0] for u in fiber_jets(curve, x0, ring, n_max)]


# ---------------------------------------------------------------------------
# canonical sigma components with the common factor


def canonical_components_reference(
    curve: CurveInput, group: GroupId, piece: BranchPiece, trunc: int, rel: int
) -> list[TruncatedSeries]:
    """The three canonical sigma components along a branch piece: T_i as
    x0^tau_i * Theta_i(jets) * F_y^d_i, and each component as x0^e * prod
    T_i^p, every product capped ``rel`` orders past its first term."""
    fy = fy_series_horner(curve, piece, trunc, rel)
    thetas = _jet_series(piece, trunc, rel, GROUP_THETAS[group])
    one = TruncatedSeries.constant(piece.ring, Fraction(1))

    def power(s: TruncatedSeries, k: int) -> TruncatedSeries:
        out = one
        for _ in range(k):
            out = (out * s).rel_capped(rel)
        return out

    t_series = {}
    for i, th in zip(GROUP_THETAS[group], thetas):
        a, b = TAU_COEFFS[i]
        tau = a * curve.d + b
        t_series[i] = (th * power(fy, FY_EXPONENT[i]) * power(piece.x0, tau)).rel_capped(rel)
    comps = []
    for x0p, factors in SIGMA_RECIPES[group]:
        c = power(piece.x0, x0p)
        for i, p in factors:
            c = (c * power(t_series[i], p)).rel_capped(rel)
        comps.append(c)
    return comps


# ---------------------------------------------------------------------------
# projective extension by homogeneous products


def projective_extension_reference(
    curve: CurveInput, group: GroupId, cancel: bool = False
) -> HomogeneousTriple:
    """The homogeneous triple with every T_i homogenized to degree tau_i
    first and each component formed as x0^e * prod homogenize(T_i)^p over
    (x0, x1, x2), against which ``jets.projective_extension`` (products over
    (x, y), one homogenization) is checked."""
    require_non_exceptional(curve, group)
    ts = thetas_for_group(curve, group)
    homog = {i: t.T.homogenize("x0", t.tau_i).rename_ring(HOMOG_RING) for i, t in ts.items()}
    x0 = SparsePoly.var(HOMOG_RING, "x0")
    comps = []
    for x0_pow, factors in SIGMA_RECIPES[group]:
        c = x0**x0_pow if x0_pow else SparsePoly.const(HOMOG_RING, 1)
        for i, p in factors:
            c = c * homog[i] ** p
        comps.append(c)
    a, b = SIGMA_DEGREE[group]
    deg = a * curve.d + b
    for c in comps:
        if not c.is_zero() and c.total_degree() != deg:
            raise AssertionError("projective extension degree mismatch")
    if cancel:
        g = homogeneous_gcd(comps)
        if g.total_degree() > 0:
            comps = [exact_div(c, g) for c in comps]
            deg -= int(g.total_degree())
    return HomogeneousTriple(tuple(comps), deg, group, cancelled=cancel)


def transform_point(
    matrix: Sequence[Sequence[Fraction]], p: tuple[Fraction, Fraction]
) -> tuple[Fraction, Fraction]:
    """Affine action of a 3x3 matrix on (x, y); raises on the line at
    infinity (vanishing 0th homogeneous coordinate)."""
    vec = (Fraction(1), Fraction(p[0]), Fraction(p[1]))
    out = [sum(Fraction(matrix[j][k]) * vec[k] for k in range(3)) for j in range(3)]
    if out[0] == 0:
        raise ZeroDivisionError("point maps to the line at infinity")
    return (out[1] / out[0], out[2] / out[0])
