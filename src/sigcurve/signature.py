"""Signature polynomials by saturated elimination, by an exact sample fit,
and numeric samples.

The signature polynomial S is the generator of the elimination ideal

    < F,  B*k1 - A,  D*k2 - C,  1 - t*h >  intersected with  Q[k1, k2],

where K1 = A/B and K2 = C/D are the reduced classifying invariants on the
curve and h is a squarefree polynomial with the same radical as B*D (the
Rabinowitsch variable t sits highest in the elimination block).  For an
irreducible input curve the elimination ideal of this prime ideal is prime
and of height one, hence principal, so irreducibility of S comes for free;
the caller's irreducibility assertion is spot-checked, not proven.

Everything is normalized to the canonical representative: integer
coefficients of content 1 with positive leading coefficient under grlex
k1 > k2, enabling byte-exact comparisons.

Both the exact fit and the numeric samples take (K1, K2) at the points of a
fiber x = x0 from ``jets.fiber_invariants``, exactly over Q[W]/(F(x0, W)).
The samples are the only floats: the fiber's roots, found numerically, and
the exact values evaluated there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import SampleCheckError
from .groebner import EliminationBudget, groebner_eliminate
from .jets import (
    CLASSIFYING_RECIPES,
    CurveInput,
    GroupId,
    classifying_pair,
    fiber_invariants,
    require_non_exceptional,
)
from .poly import SparsePoly, _lc_in, gcd, grlex_key, pseudo_remainder, square_free_part
from .series import SeriesRing, TruncatedSeries, intpoly_from_poly, intpoly_squarefree

SIG_RING = ("k1", "k2")
ELIM_RING = ("t", "x", "y", "k1", "k2")


@dataclass(frozen=True)
class SignaturePolynomial:
    """Canonical defining polynomial of the signature curve."""

    S: SparsePoly  # over SIG_RING, content 1, positive grlex leading coeff
    group: GroupId
    source: CurveInput

    def degree(self) -> int:
        return int(self.S.total_degree())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignaturePolynomial):
            return NotImplemented
        return self.group == other.group and self.S == other.S


@dataclass(frozen=True)
class PointSignature:
    """Constant signature: the image of the signature map is one point."""

    value: Fraction  # the constant K1
    group: GroupId
    source: CurveInput


def canonical_signature_poly(S: SparsePoly) -> SparsePoly:
    """Content-1, positive-leading-coefficient representative over SIG_RING."""
    if S.ring != SIG_RING:
        S = S.map_variables(SIG_RING)
    _, prim = S.primitive()
    return prim


def is_constant_signature(curve: CurveInput, group: GroupId) -> Optional[Fraction]:
    """The constant value of K1 on the curve, or None when non-constant.

    Exact test: the pseudo-reductions of numerator and denominator modulo F
    must be proportional over Q (their y-degrees are below F's, so class
    equality in the coordinate ring is literal polynomial proportionality).
    """
    require_non_exceptional(curve, group)
    # unreduced Theta-power ratio: gcd cancellation is irrelevant for the
    # proportionality test and can be very expensive at PGL(3) scale
    from .jets import thetas_for_group

    ts = thetas_for_group(curve, group)
    ((na, npow), (da, dpow)), _ = CLASSIFYING_RECIPES[group]
    A = ts[na].T ** npow
    B = ts[da].T ** dpow
    F = curve.F
    dy = int(F.degree_in("y"))
    if dy <= 0:
        return None
    lcy = _lc_in(F, 1)

    def reduce_with_scale(p: SparsePoly) -> tuple[SparsePoly, int]:
        k = max(int(p.degree_in("y")) - dy + 1, 0)
        return pseudo_remainder(p, F, "y"), k

    rA, kA = reduce_with_scale(A)
    rB, kB = reduce_with_scale(B)
    if rB.is_zero():
        return None  # denominator vanishes on the curve; exceptional-adjacent
    U = rA * lcy**kB
    W = rB * lcy**kA
    if U.is_zero():
        return Fraction(0)
    _, uc = U.leading(grlex_key)
    _, wc = W.leading(grlex_key)
    c = uc / wc
    if U == W.scale(c):
        return c
    return None


def signature_polynomial(
    curve: CurveInput,
    group: GroupId,
    budget: Optional[EliminationBudget] = None,
    verify_samples: int = 25,
    seed: int = 0,
) -> Union[SignaturePolynomial, PointSignature]:
    """Compute the signature polynomial exactly by saturated elimination.

    Raises BudgetExceededError when the Groebner run blows the configured
    caps (callers can fall back to degree prediction); returns a
    PointSignature for constant signature maps.
    """
    require_non_exceptional(curve, group)
    const = is_constant_signature(curve, group)
    if const is not None:
        return PointSignature(const, group, curve)
    pair = classifying_pair(curve, group)
    A, B = pair.K1.num, pair.K1.den
    C, D = pair.K2.num, pair.K2.den
    h = square_free_part(B) * square_free_part(D)
    h = square_free_part(h)
    gens = []
    t, x, y, k1, k2 = (SparsePoly.var(ELIM_RING, v) for v in ELIM_RING)
    up = lambda p: p.map_variables(ELIM_RING)
    gens.append(up(curve.F))
    gens.append(up(B) * k1 - up(A))
    gens.append(up(D) * k2 - up(C))
    gens.append(SparsePoly.const(ELIM_RING, 1) - t * up(h))
    basis = groebner_eliminate(gens, keep=SIG_RING, budget=budget)
    basis = [p for p in basis if not p.is_zero()]
    if not basis:
        raise RuntimeError("elimination ideal is zero: signature map degenerate")
    if len(basis) > 1:
        # principal by theory; fold defensively via gcd
        S = basis[0]
        for p in basis[1:]:
            S = gcd(S, p)
        if S.is_constant():
            raise RuntimeError("elimination returned a trivial ideal")
    else:
        S = basis[0]
    S = canonical_signature_poly(S)
    sig = SignaturePolynomial(S, group, curve)
    if verify_samples:
        verify_signature_samples(sig, count=verify_samples, seed=seed)
    return sig


# ---------------------------------------------------------------------------
# numeric sampling


@dataclass(frozen=True)
class SignatureSample:
    x: complex
    y: complex
    k1: complex
    k2: complex

    def is_real(self, tol: float = 1e-9) -> bool:
        return abs(self.x.imag) < tol and abs(self.y.imag) < tol


def signature_samples(
    curve: CurveInput,
    group: GroupId,
    count: int,
    seed: int = 0,
    real_only: bool = False,
) -> list[SignatureSample]:
    """Deterministic numeric signature samples over sampled rational x values.

    (K1, K2) is computed once per fiber, exactly over Q[W]/(F(x0, W)), and
    evaluated at the fiber's float roots (companion-matrix roots in y); a
    fiber with a repeated root is skipped, so only regular points are kept.
    Returns fewer than ``count`` with a warning when the curve runs out of
    usable points."""
    import numpy as np

    require_non_exceptional(curve, group)
    rng = random.Random(seed)
    dy = int(curve.F.degree_in("y"))
    float_terms = [(e, float(c)) for e, c in curve.F.terms.items()]
    out: list[SignatureSample] = []
    attempts = 0
    while len(out) < count and attempts < 300 * max(count, 1):
        attempts += 1
        num = rng.randint(-250, 250)
        # float roots first: a fiber without a usable root costs no exact work
        coeffs = [0.0] * (dy + 1)
        for (i, j), c in float_terms:
            coeffs[j] += c * (num / 100) ** i
        if abs(coeffs[-1]) < 1e-12:
            continue
        roots = [complex(r) for r in np.roots(coeffs[::-1])]
        if real_only:
            roots = [r for r in roots if abs(r.imag) <= 1e-9]
        if not roots:
            continue
        x0 = Fraction(num, 100)
        q = intpoly_from_poly(curve.F.evaluate_partial({"x": x0}), "y")
        if not intpoly_squarefree(q):
            continue
        try:
            k1, k2 = fiber_invariants(curve, group, x0, SeriesRing(q))
        except ZeroDivisionError:
            continue  # a denominator Theta vanishes somewhere on the fiber
        c1, c2 = k1.coeff_fractions(0), k2.coeff_fractions(0)
        for y0 in roots:
            if len(out) >= count:
                break
            kk = (_horner(c1, y0), _horner(c2, y0))
            if not (abs(kk[0]) < 1e14 and abs(kk[1]) < 1e14):
                continue
            out.append(SignatureSample(complex(x0), y0, kk[0], kk[1]))
    if len(out) < count:
        import warnings

        warnings.warn(
            f"only {len(out)} of {count} requested signature samples found"
        )
    return out


def _horner(coeffs: Sequence[Fraction], w: complex) -> complex:
    """The polynomial with ascending coefficients ``coeffs`` at w."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * w + float(c)
    return acc


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
# sample fitting (degree certification for small signature degrees)

# Symmetric curves collapse whole fibers onto single signature points, so each
# fiber may contribute only one fresh condition: the fit keeps adding
# abscissas until the kernel pins down.
FIT_ABSCISSAS = tuple(Fraction(num, den) for den in (7, 5, 11, 3) for num in range(1, 13))
# largest candidate degree the exact fit is tried on
MAX_FIT_DEGREE = 10


def exact_signature_fit(
    curve: CurveInput, group: GroupId, degree: int
) -> Optional[SparsePoly]:
    """Exact sample-fitting: the signature polynomial of the given degree,
    certified over Q, or None when the sampled conditions do not pin a
    one-dimensional nullspace.

    For each rational x0 in ``FIT_ABSCISSAS`` the fiber F(x0, y) = 0 is treated
    as one point with coordinates in Q[Y]/(F(x0, Y)): the classifying pair
    evaluates exactly there (``fiber_invariants``), and S(K1, K2) = 0
    contributes deg-many exact rational linear conditions on the coefficients
    of S.  No floats anywhere.
    """
    monos = [
        (i, j) for i in range(degree + 1) for j in range(degree + 1 - i)
    ]
    rows: list[list[Fraction]] = []
    for x0 in FIT_ABSCISSAS:
        q = intpoly_from_poly(curve.F.evaluate_partial({"x": x0}), "y")
        if len(q) < 2 or not intpoly_squarefree(q):
            continue  # no or multiple y-roots: skip this fiber
        ring = SeriesRing(q)
        try:
            k1, k2 = fiber_invariants(curve, group, x0, ring)
        except ZeroDivisionError:
            continue  # a denominator Theta vanishes or is a zero divisor
        pows1 = [TruncatedSeries.constant(ring, Fraction(1))]
        pows2 = [TruncatedSeries.constant(ring, Fraction(1))]
        for _ in range(degree):
            pows1.append(pows1[-1] * k1)
            pows2.append(pows2[-1] * k2)
        cols = []
        for (i, j) in monos:
            cols.append((pows1[i] * pows2[j]).coeff_fractions(0))
        for coordinate in range(ring.deg):
            rows.append([col[coordinate] for col in cols])
        if len(rows) >= len(monos) + 4:
            null = _exact_nullspace(rows, len(monos))
            if null is not None:
                S = SparsePoly(SIG_RING, {e: c for e, c in zip(monos, null) if c})
                if not S.is_zero() and S.total_degree() == degree:
                    return canonical_signature_poly(S)
    if len(rows) < len(monos) + 2:
        return None
    null = _exact_nullspace(rows, len(monos))
    if null is None:
        return None
    S = SparsePoly(SIG_RING, {e: c for e, c in zip(monos, null) if c})
    if S.is_zero() or S.total_degree() != degree:
        return None
    return canonical_signature_poly(S)


def _exact_nullspace(rows: list[list[Fraction]], n: int) -> Optional[list[Fraction]]:
    """The unique (up to scale) kernel vector of an exact rational matrix,
    or None when the kernel is trivial or has dimension above one."""
    A = [row[:] for row in rows]
    m = len(A)
    piv_cols: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][col]
        A[r] = [x / pv for x in A[r]]
        for i in range(m):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in piv_cols]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for row_i, pc in enumerate(piv_cols):
        vec[pc] = -A[row_i][fc]
    return vec


def certified_signature_degree(
    curve: CurveInput,
    group: GroupId,
    candidates: Sequence[int],
) -> Optional[int]:
    """Smallest candidate degree certified by the exact quotient-ring sample
    fit; None when no tractable candidate certifies."""
    for d in sorted(set(candidates)):
        if d <= 0 or d > MAX_FIT_DEGREE:
            continue
        if exact_signature_fit(curve, group, d) is not None:
            return d
    return None
