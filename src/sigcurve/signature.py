"""Signature polynomials by saturated elimination, plus numeric samples.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import SampleCheckError, TruncationError
from .groebner import EliminationBudget, groebner_eliminate
from .jets import (
    CLASSIFYING_RECIPES,
    CurveInput,
    GroupId,
    classifying_pair,
    require_non_exceptional,
    theta_table,
)
from .poly import SparsePoly, _lc_in, gcd, grlex_key, pseudo_remainder, square_free_part

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


def _numeric_jets(F: SparsePoly, x0: complex, y0: complex, n: int = 8) -> list[complex]:
    """Float Taylor jets of the branch of F through (x0, y0) by series Newton."""
    N = n + 1
    terms = [(e, complex(c)) for e, c in F.terms.items()]
    fy_terms = [(e, complex(c)) for e, c in F.partial_derivative("y").terms.items()]

    def smul(a, b):
        out = [0j] * N
        for i, ai in enumerate(a):
            if ai != 0:
                for j in range(N - i):
                    bj = b[j]
                    if bj != 0:
                        out[i + j] += ai * bj
        return out

    def eval_terms(tt, xs, ys):
        dx = max(e[0] for e, _ in tt)
        dyy = max(e[1] for e, _ in tt)
        xp = [[0j] * N]
        xp[0][0] = 1.0
        for _ in range(dx):
            xp.append(smul(xp[-1], xs))
        yp = [[0j] * N]
        yp[0][0] = 1.0
        for _ in range(dyy):
            yp.append(smul(yp[-1], ys))
        out = [0j] * N
        for e, c in tt:
            prod = smul(xp[e[0]], yp[e[1]])
            for i in range(N):
                out[i] += c * prod[i]
        return out

    xs = [0j] * N
    xs[0] = x0
    xs[1] = 1.0
    ys = [0j] * N
    ys[0] = y0
    for _ in range(60):
        fv = eval_terms(terms, xs, ys)
        fyv = eval_terms(fy_terms, xs, ys)
        inv = [0j] * N
        inv[0] = 1.0 / fyv[0]
        for k in range(1, N):
            inv[k] = -sum(fyv[j] * inv[k - j] for j in range(1, k + 1)) * inv[0]
        corr = smul(fv, inv)
        ys = [a - b for a, b in zip(ys, corr)]
        if max(abs(c) for c in corr) < 1e-14 * max(1.0, max(abs(c) for c in ys)):
            break
    out = []
    fact = 1.0
    for k in range(1, n + 1):
        fact *= k
        out.append(ys[k] * fact)
    return out


def _theta_value(i: int, uvals: dict[str, complex]) -> complex:
    acc = 0j
    for e, c in theta_table()[i].terms.items():
        term = complex(c)
        for idx, k in enumerate(e):
            if k:
                term *= uvals[f"u{idx+1}"] ** k
        acc += term
    return acc


def invariants_numeric(
    curve: CurveInput, group: GroupId, x0: complex, y0: complex
) -> Optional[tuple[complex, complex]]:
    """Float (K1, K2) at a numeric curve point; None at degenerate points."""
    fy = curve.fy().evaluate({"x": x0, "y": y0})
    if abs(fy) < 1e-9:
        return None
    u = _numeric_jets(curve.F, x0, y0, 8)
    uvals = {f"u{k}": u[k - 1] for k in range(1, 9)}
    ((na, npow), (da, dpow)), ((nc, cpow), (de, epow)) = CLASSIFYING_RECIPES[group]
    vals = {i: _theta_value(i, uvals) for i in {na, da, nc, de}}
    if abs(vals[da]) < 1e-12 or abs(vals[de]) < 1e-12:
        return None
    k1 = vals[na] ** npow / vals[da] ** dpow
    k2 = vals[nc] ** cpow / vals[de] ** epow
    return k1, k2


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
    """Deterministic numeric signature samples (companion-matrix roots in y
    over sampled x values, regular points only).  Returns fewer than
    ``count`` with a warning when the curve runs out of usable points."""
    import numpy as np

    require_non_exceptional(curve, group)
    rng = random.Random(seed)
    out: list[SignatureSample] = []
    attempts = 0
    while len(out) < count and attempts < 300 * max(count, 1):
        attempts += 1
        if real_only or rng.random() < 0.7:
            x0 = complex(rng.uniform(-2.5, 2.5), 0.0)
        else:
            x0 = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        coeffs = [0j] * (int(curve.F.degree_in("y")) + 1)
        for e, c in curve.F.terms.items():
            coeffs[e[1]] += complex(c) * x0 ** e[0]
        if abs(coeffs[-1]) < 1e-12:
            continue
        roots = np.roots(list(reversed(coeffs)))
        for y0 in roots:
            if len(out) >= count:
                break
            y0 = complex(y0)
            if real_only and abs(y0.imag) > 1e-9:
                continue
            kk = invariants_numeric(curve, group, x0, y0)
            if kk is None:
                continue
            if not (abs(kk[0]) < 1e14 and abs(kk[1]) < 1e14):
                continue
            out.append(SignatureSample(x0, y0, kk[0], kk[1]))
    if len(out) < count:
        import warnings

        warnings.warn(
            f"only {len(out)} of {count} requested signature samples found"
        )
    return out


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
    samples = signature_samples(sig.source, sig.group, count, seed=seed)
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


def fit_signature(
    curve: CurveInput,
    group: GroupId,
    degree: int,
    count: int = 40,
    seed: int = 0,
) -> Optional[list[tuple[tuple[int, int], complex]]]:
    """Least-squares fit of a degree-``degree`` polynomial through numeric
    signature samples; returns the coefficient vector when the nullspace is
    one-dimensional and the fit vanishes on held-out samples, else None.

    Reliable only for small degrees (float64 Vandermonde conditioning).
    """
    import numpy as np

    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    count = max(count, len(monos) + 20)
    raw = signature_samples(curve, group, 2 * count + 15, seed=seed)
    # extreme signature values (near denominator zeros) wreck the float64
    # conditioning: keep the central magnitude band, deduplicated
    seen = set()
    uniq = []
    for s in raw:
        key = (round(s.k1.real, 9), round(s.k1.imag, 9), round(s.k2.real, 9), round(s.k2.imag, 9))
        if key not in seen:
            seen.add(key)
            uniq.append(s)
    uniq.sort(key=lambda s: max(abs(s.k1), abs(s.k2)))
    lo = len(uniq) // 10
    hi = max(len(uniq) - len(uniq) // 10, lo + 1)
    band = uniq[lo:hi]
    if len(band) < len(monos) + 10:
        band = uniq
    if len(band) < len(monos) + 5:
        return None
    fit_n = min(len(band) - 5, count)
    fit_s = band[:fit_n]
    hold_s = band[fit_n:]
    scale1 = float(np.median([abs(s.k1) for s in fit_s])) or 1.0
    scale2 = float(np.median([abs(s.k2) for s in fit_s])) or 1.0
    A = np.zeros((len(fit_s), len(monos)), dtype=complex)
    for r, s in enumerate(fit_s):
        for cidx, (i, j) in enumerate(monos):
            A[r, cidx] = (s.k1 / scale1) ** i * (s.k2 / scale2) ** j
    # row scaling tames the huge dynamic range of signature values and does
    # not change the nullspace of A c = 0
    row_norms = np.linalg.norm(A, axis=1, keepdims=True)
    row_norms[row_norms == 0] = 1.0
    A = A / row_norms
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    A = A / norms
    _, sv, vh = np.linalg.svd(A)
    if len(sv) < len(monos) or sv[-1] > 1e-7 * sv[0]:
        return None  # no nullspace: degree too small
    if len(sv) >= 2 and sv[-2] < 25 * sv[-1]:
        return None  # no clear spectral gap: nullity ambiguous or > 1
    vec = vh[-1].conj() / norms
    coeffs = []
    for (i, j), c in zip(monos, vec):
        coeffs.append(((i, j), c / (scale1**i * scale2**j)))
    # held-out vanishing: a coarse backstop against cluster overfits (the
    # spectral gap above is the primary certificate; spurious relations fail
    # here at O(1) while true fits sit orders of magnitude lower)
    for s in hold_s:
        total = sum(c * s.k1**i * s.k2**j for (i, j), c in coeffs)
        scale = 1.0 + sum(abs(c * s.k1**i * s.k2**j) for (i, j), c in coeffs)
        if abs(total) / scale > 1e-2:
            return None
    return coeffs


def exact_signature_fit(
    curve: CurveInput,
    group: GroupId,
    degree: int,
    xs: Optional[Sequence[Fraction]] = None,
    max_fibers: int = 48,
) -> Optional[SparsePoly]:
    """Exact sample-fitting: the signature polynomial of the given degree,
    certified over Q, or None when the sampled conditions do not pin a
    one-dimensional nullspace.

    For each rational x0 the fiber F(x0, y) = 0 is treated as one point with
    coordinates in Q[Y]/(F(x0, Y)): the jets, the Thetas and the classifying
    pair evaluate exactly there, and S(K1, K2) = 0 contributes deg-many exact
    rational linear conditions on the coefficients of S.  No floats anywhere.
    """
    from .series import (
        SeriesRing,
        TruncatedSeries,
        intpoly_from_poly,
        intpoly_squarefree,
        newton_branch,
    )

    monos = [
        (i, j) for i in range(degree + 1) for j in range(degree + 1 - i)
    ]
    if xs is None:
        # symmetric curves collapse whole fibers onto single signature
        # points, so each fiber may contribute only one fresh condition:
        # keep adding abscissas until the kernel pins down
        xs = [Fraction(num, den) for den in (7, 5, 11, 3) for num in range(1, 13)]
    xs = list(xs)[:max_fibers]
    rows: list[list[Fraction]] = []
    ((na, npow), (da, dpow)), ((nc, cpow), (de, epow)) = CLASSIFYING_RECIPES[group]
    table = theta_table()
    needed = sorted({na, da, nc, de})
    for x0 in xs:
        x0 = Fraction(x0)
        q = intpoly_from_poly(curve.F.evaluate_partial({"x": x0}), "y")
        if len(q) < 2 or not intpoly_squarefree(q):
            continue  # no or multiple y-roots: skip this fiber
        ring = SeriesRing(q)
        ring2 = ("h", "u")
        h = SparsePoly.var(ring2, "h")
        u = SparsePoly.var(ring2, "u")
        H = curve.F.compose_linear([h + SparsePoly.const(ring2, x0), u])
        try:
            branch = newton_branch(H, "h", "u", ring, ring.generator(), 10)
        except ZeroDivisionError:
            continue
        uvals: dict[str, TruncatedSeries] = {}
        fact = 1
        for k in range(1, 9):
            fact *= k
            vec = branch.coeff_fractions(k)
            uvals[f"u{k}"] = ring.element([v * fact for v in vec])
        from .series import evaluate_polys_at_series

        th_vals = evaluate_polys_at_series(
            [table[i] for i in needed], uvals, ring
        )
        th = dict(zip(needed, th_vals))
        try:
            k1 = th[na] ** npow * th[da].invert(1) ** dpow
            k2 = th[nc] ** cpow * th[de].invert(1) ** epow
        except (ZeroDivisionError, TruncationError):
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
    max_fit_degree: int = 10,
) -> Optional[int]:
    """Smallest candidate degree certified by the exact quotient-ring sample
    fit; None when no tractable candidate certifies.  The float fit
    (``fit_signature``) is not a certificate and is not consulted."""
    for d in sorted(set(candidates)):
        if d <= 0 or d > max_fit_degree:
            continue
        if exact_signature_fit(curve, group, d) is not None:
            return d
    return None
