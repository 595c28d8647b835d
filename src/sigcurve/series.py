"""Truncated Laurent series with coefficients in Q[W]/(q(W)).

The ring modulus q is the squarefree defining polynomial of a fiber of
points (e.g. the points at infinity of a projective curve); q need not be
irreducible.  A single series with coefficients in the quotient ring then
tracks all conjugate branches at once, and valuation sums over the fiber are
recovered by gcd-splitting against q: no number-field arithmetic and no
factorization are ever required.  An element a is inverted as a linear map,
by ``poly.mat_inverse`` on the matrix of multiplication by a; a zero divisor
raises with gcd(q, a), on which callers split the fiber.

Representation: a series is a dict mapping (v_exponent, W_exponent) to an
integer numerator over one shared denominator, plus ``trunc``: the first
untrusted v-exponent.  Arithmetic tracks the worst-case trusted order of the
operands.  The rational-root case is simply deg q = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import TruncationError
from .modp import IMAGE_PRIME, _modp_gcd
from .poly import SparsePoly, _int_form, gcd, horner_evaluate, mat_inverse

INF = 10**9

IntPoly = tuple[int, ...]  # ascending coefficients, no trailing zeros


def intpoly_normalize(c: Sequence[int]) -> IntPoly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    g = 0
    for x in c:
        g = math.gcd(g, x)
        if g == 1:
            break
    if g > 1:
        c = [x // g for x in c]
    if c and c[-1] < 0:
        c = [-x for x in c]
    return tuple(c)


def intpoly_from_poly(p: SparsePoly, var: str) -> IntPoly:
    """Primitive integer coefficients of a polynomial in the one variable ``var``."""
    i = p.ring.index(var)
    nums, _den = _int_form(p)
    coeffs = [0] * (int(p.degree_in(var)) + 1 if nums else 1)
    for e, c in nums.items():
        coeffs[e[i]] += c
    return intpoly_normalize(coeffs)


def intpoly_gcd(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """Primitive gcd of two integer polynomials (positive leading coeff)."""
    ring = ("w",)

    def as_poly(c: Sequence[int]) -> SparsePoly:
        return SparsePoly(ring, {(k,): Fraction(x) for k, x in enumerate(c) if x})

    return intpoly_from_poly(gcd(as_poly(a), as_poly(b)), "w")


def intpoly_coprime(q: Sequence[int], c: Sequence[int], exact: bool = True) -> bool:
    """Whether gcd(q, c) is constant (q nonconstant).  A coprime image mod
    p = ``IMAGE_PRIME`` answers yes when p does not divide lc(q): a common
    factor h over Z keeps its degree mod p and divides both images.  The
    exact gcd runs only when that image cannot decide, and only if ``exact``."""
    if q[-1] % IMAGE_PRIME and len(_modp_gcd(q, c, IMAGE_PRIME)) == 1:
        return True
    return exact and len(intpoly_gcd(q, c)) == 1


def intpoly_squarefree(q: Sequence[int]) -> bool:
    """Whether q has no repeated root (constants count): q, q' coprime."""
    return len(q) < 2 or intpoly_coprime(q, [i * q[i] for i in range(1, len(q))])


class SeriesRing:
    """Coefficient domain Q[W]/(q(W)) with precomputed reduction rows."""

    def __init__(self, q: Sequence[int]):
        q = intpoly_normalize(q)
        if len(q) < 2:
            raise ValueError("modulus must have degree >= 1")
        self.q = q
        self.deg = len(q) - 1
        D = self.deg
        # W^k for k in [D, 2D-2] as integer rows over one denominator lc^(D-1)
        lc = q[-1]
        rows: list[list[Fraction]] = []
        base = [Fraction(-q[i], lc) for i in range(D)]
        rows.append(base)
        for _ in range(D - 2):
            prev = rows[-1]
            nxt = [Fraction(0)] + prev[:-1]
            top = prev[-1]
            if top:
                nxt = [a + top * b for a, b in zip(nxt, base)]
            rows.append(nxt)
        self.row_den = lc ** max(D - 1, 1)
        self.rows: dict[int, tuple[int, ...]] = {}
        for i, row in enumerate(rows):
            self.rows[D + i] = tuple(int(x * self.row_den) for x in row)

    def __repr__(self):
        return f"SeriesRing(q={self.q})"

    def element(self, vec: Sequence[Fraction]) -> "TruncatedSeries":
        """Constant series from a W-vector of rationals (degree < deg q)."""
        den = 1
        for c in vec:
            c = Fraction(c)
            den = den * c.denominator // math.gcd(den, c.denominator)
        terms = {}
        for k, c in enumerate(vec):
            c = Fraction(c)
            n = c.numerator * (den // c.denominator)
            if n:
                terms[(0, k)] = n
        return TruncatedSeries(self, terms, den, INF)

    def generator(self) -> "TruncatedSeries":
        """The class of W itself (for deg 1 moduli this is the rational root)."""
        if self.deg == 1:
            return self.element([Fraction(-self.q[0], self.q[1])])
        vec = [Fraction(0)] * self.deg
        vec[1] = Fraction(1)
        return self.element(vec)

    def invert_vec(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Inverse of an element a of Q[W]/(q): the first column of the
        inverse of the matrix of multiplication by a, whose column k is
        a W^k.

        Raises ZeroDivisionError carrying gcd(q, a) as ``.gcd`` when a is a
        zero divisor, i.e. vanishes at the points of the fiber where that
        gcd does (callers split the fiber on it).
        """
        w = TruncatedSeries(self, {(0, 1): 1}, 1, INF)  # W, used when deg q > 1
        cols = [self.element(vec)]
        while len(cols) < self.deg:
            cols.append(cols[-1] * w)
        try:
            inv = mat_inverse(list(zip(*(c.coeff_vec(0) for c in cols))))
        except ZeroDivisionError:
            err = ZeroDivisionError("zero divisor modulo q")
            err.gcd = intpoly_gcd(self.q, vec)  # type: ignore[attr-defined]
            raise err from None
        # the matrix is N diag(1/den_k) for the numerators N, so its inverse
        # is diag(den_k) N^-1
        return [c.den * row[0] for c, row in zip(cols, inv)]


class TruncatedSeries:
    """Laurent series over a SeriesRing, exponents trusted below ``trunc``."""

    __slots__ = ("ring", "terms", "den", "trunc")

    def __init__(self, ring: SeriesRing, terms: dict, den: int, trunc: int):
        self.ring = ring
        self.terms = terms
        self.den = den
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: SeriesRing, trunc: int = INF) -> "TruncatedSeries":
        return cls(ring, {}, 1, trunc)

    @classmethod
    def constant(cls, ring: SeriesRing, c: Fraction) -> "TruncatedSeries":
        c = Fraction(c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {(0, 0): c.numerator}, c.denominator, INF)

    @classmethod
    def variable(cls, ring: SeriesRing) -> "TruncatedSeries":
        return cls(ring, {(1, 0): 1}, 1, INF)

    # -- bookkeeping ---------------------------------------------------------

    def normalized(self) -> "TruncatedSeries":
        terms = {jk: c for jk, c in self.terms.items() if c and jk[0] < self.trunc}
        if not terms:
            return TruncatedSeries(self.ring, {}, 1, self.trunc)
        g = self.den
        for c in terms.values():
            g = math.gcd(g, c)
            if g == 1:
                break
        if g > 1:
            terms = {jk: c // g for jk, c in terms.items()}
            return TruncatedSeries(self.ring, terms, self.den // g, self.trunc)
        return TruncatedSeries(self.ring, terms, self.den, self.trunc)

    def with_trunc(self, trunc: int) -> "TruncatedSeries":
        terms = {jk: c for jk, c in self.terms.items() if jk[0] < trunc}
        return TruncatedSeries(self.ring, terms, self.den, trunc)

    def rel_capped(self, rel: int) -> "TruncatedSeries":
        """Truncate ``rel`` orders past the first known term."""
        return self.with_trunc(min(self.trunc, self.min_exp() + rel))

    def min_exp(self) -> int:
        """Lower bound of the support (trunc when nothing is known)."""
        if not self.terms:
            return self.trunc
        return min(j for j, _ in self.terms)

    def is_known_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        trunc = min(self.trunc, other.trunc)
        den = self.den * other.den // math.gcd(self.den, other.den)
        fa = den // self.den
        fb = den // other.den
        terms = {}
        for jk, c in self.terms.items():
            if jk[0] < trunc:
                terms[jk] = c * fa
        for jk, c in other.terms.items():
            if jk[0] < trunc:
                acc = terms.get(jk, 0) + c * fb
                if acc:
                    terms[jk] = acc
                else:
                    terms.pop(jk, None)
        return TruncatedSeries(self.ring, terms, den, trunc)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.ring, {jk: -c for jk, c in self.terms.items()}, self.den, self.trunc
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, c: Fraction) -> "TruncatedSeries":
        c = Fraction(c)
        if c == 0:
            return TruncatedSeries.zero(self.ring, self.trunc)
        terms = {jk: x * c.numerator for jk, x in self.terms.items()}
        return TruncatedSeries(self.ring, terms, self.den * c.denominator, self.trunc).normalized()

    def __rmul__(self, c: int) -> "TruncatedSeries":
        return self.scale(c)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by v^k."""
        terms = {(j + k, w): c for (j, w), c in self.terms.items()}
        return TruncatedSeries(self.ring, terms, self.den, self.trunc + k)

    def derivative(self) -> "TruncatedSeries":
        """d/dv (Laurent rule j -> j-1)."""
        terms = {}
        for (j, w), c in self.terms.items():
            if j != 0:
                terms[(j - 1, w)] = c * j
        return TruncatedSeries(self.ring, terms, self.den, self.trunc - 1)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self.ring
        va, vb = self.min_exp(), other.min_exp()
        trunc = min(self.trunc + vb, other.trunc + va, INF)
        if not self.terms or not other.terms:
            return TruncatedSeries(ring, {}, 1, trunc)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[tuple[int, int], int] = {}
        get = acc.get
        for (j1, k1), c1 in a.items():
            jmax = trunc - j1
            for (j2, k2), c2 in b.items():
                if j2 >= jmax:
                    continue
                key = (j1 + j2, k1 + k2)
                acc[key] = get(key, 0) + c1 * c2
        den = self.den * other.den
        D = ring.deg
        if D > 1 and any(k >= D for (_, k) in acc):
            rows = ring.rows
            rden = ring.row_den
            red: dict[tuple[int, int], int] = {}
            for (j, k), c in acc.items():
                if k < D:
                    red[(j, k)] = red.get((j, k), 0) + c * rden
                else:
                    row = rows[k]
                    for k2 in range(D):
                        r = row[k2]
                        if r:
                            red[(j, k2)] = red.get((j, k2), 0) + c * r
            acc = red
            den *= rden
        result = TruncatedSeries(ring, acc, den, trunc)
        return result.normalized()

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("use invert() for negative powers")
        result = TruncatedSeries.constant(self.ring, Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- inspection ----------------------------------------------------------

    def coeff_vec(self, j: int) -> tuple[int, ...]:
        """Integer numerator W-vector at v-exponent j (denominator ignored)."""
        vec = [0] * self.ring.deg
        for (jj, k), c in self.terms.items():
            if jj == j:
                vec[k] = c
        return tuple(vec)

    def coeff_fractions(self, j: int) -> list[Fraction]:
        return [Fraction(c, self.den) for c in self.coeff_vec(j)]

    def valuation(self) -> int:
        """Smallest trusted exponent with a nonzero coefficient.

        Raises TruncationError when the series is zero to its trusted order,
        since the true valuation is then merely bounded below.
        """
        best: Optional[int] = None
        for (j, _k), c in self.terms.items():
            if c and (best is None or j < best):
                best = j
        if best is None:
            raise TruncationError(
                f"series is O(v^{self.trunc}): increase truncation to certify valuation"
            )
        return best

    def invert(self, prec: int) -> "TruncatedSeries":
        """Multiplicative inverse to v-precision ``prec`` past the valuation,
        at most ``trunc - valuation``: the unit part is known only below it."""
        v = self.valuation()
        prec = min(prec, self.trunc - v)
        base = self.shift(-v)  # unit part
        c0 = base.coeff_fractions(0)
        inv0 = self.ring.invert_vec(c0)
        z = self.ring.element(inv0).with_trunc(1)
        two = TruncatedSeries.constant(self.ring, Fraction(2))
        p = 1
        while p < prec:
            p = min(2 * p, prec)
            zt = TruncatedSeries(self.ring, z.terms, z.den, p)
            z = (zt * (two - base.with_trunc(p) * zt)).with_trunc(p).normalized()
        return z.shift(-v)


def evaluate_polys_at_series(
    polys: Sequence[SparsePoly],
    assignment: dict[str, TruncatedSeries],
    ring: SeriesRing,
    rel_cap: Optional[int] = None,
) -> list[TruncatedSeries]:
    """Evaluate several polynomials by nested Horner (``poly.horner_evaluate``)
    on one shared table of the powers of the assigned series.

    ``rel_cap`` truncates every product ``rel_cap`` orders past its first
    known term; relative precision is preserved by multiplication, so this
    is sound whenever downstream valuation queries stay within the cap (they
    raise TruncationError otherwise).
    """
    pows: dict[str, list[TruncatedSeries]] = {}
    one = TruncatedSeries.constant(ring, Fraction(1))

    def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        ab = a * b
        return ab if rel_cap is None else ab.rel_capped(rel_cap)

    def power(name: str, k: int) -> TruncatedSeries:
        tab = pows.setdefault(name, [one, assignment[name]])
        while len(tab) <= k:
            tab.append(mul(tab[-1], tab[1]))
        return tab[k]

    def const(c: Fraction) -> TruncatedSeries:
        return TruncatedSeries.constant(ring, c)

    return [
        horner_evaluate(
            p, lambda i, k, names=p.ring: power(names[i], k), mul, TruncatedSeries.__add__, const
        ).normalized()
        for p in polys
    ]


def newton_branch(
    H: SparsePoly,
    param: str,
    unknown: str,
    ring: SeriesRing,
    root0: TruncatedSeries,
    prec: int,
) -> TruncatedSeries:
    """Series solution u(t) of H(t, u) = 0 with u(0) = root0.

    ``root0`` must be a simple root of H(0, .) in the quotient ring: the
    derivative dH/du at it has to be invertible (true whenever the fiber
    modulus is squarefree and root0 is the generator).

    H is split by powers of u into coefficient series in t, and one Horner
    pass gives H and dH/du at the branch.  Each step doubles the precision p
    of u by u <- u - H(u) z, where z is the inverse of dH/du carried across
    the steps: z <- z (2 - z dH/du) to the p - p_old orders that H(u)
    z reads, since H(u) = O(t^p_old).  The solution is unique mod t^prec, so
    the normalized result does not depend on the steps taken.
    """
    i, j = H.ring.index(param), H.ring.index(unknown)
    by_power: dict[int, dict[int, Fraction]] = {}
    for e, c in H.terms.items():
        by_power.setdefault(e[j], {})[e[i]] = c
    coeffs = [_param_series(ring, by_power.get(k, {})) for k in range(max(by_power) + 1)]
    two = TruncatedSeries.constant(ring, Fraction(2))
    w = root0.with_trunc(1)
    z: Optional[TruncatedSeries] = None
    p = 1
    while p < prec:
        p_old, p = p, min(2 * p, prec)
        u = TruncatedSeries(ring, w.terms, w.den, p)
        cs = [c.with_trunc(p) for c in coeffs]
        dh, h = cs[-1], cs[-1] * u + cs[-2]
        for c in reversed(cs[:-2]):
            dh = dh * u + h
            h = h * u + c
        m = p - p_old
        if z is None:
            z = ring.element(ring.invert_vec(dh.coeff_fractions(0))).with_trunc(m)
        else:
            zt = TruncatedSeries(ring, z.terms, z.den, m)
            z = (zt * (two - dh.with_trunc(m) * zt)).with_trunc(m)
        w = (u - h * z).with_trunc(p).normalized()
    return w


def _param_series(ring: SeriesRing, coeffs: dict[int, Fraction]) -> TruncatedSeries:
    """The exact series sum_j c_j t^j with rational coefficients c_j."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    terms = {(j, 0): int(c * den) for j, c in coeffs.items() if c}
    return TruncatedSeries(ring, terms, den, INF).normalized()


def ring_poly_gcd(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Euclidean gcd of two polynomials in v over Q[W]/(q), given as exact
    series (trunc INF).

    Raises ZeroDivisionError carrying the offending gcd with q when a
    leading coefficient is a zero divisor (callers split the fiber on it).
    """
    ring = a.ring
    while b.terms:
        db = max(j for j, _ in b.terms)
        inv = ring.element(ring.invert_vec(b.coeff_fractions(db)))
        while a.terms and max(j for j, _ in a.terms) >= db:
            da = max(j for j, _ in a.terms)
            lead = ring.element(a.coeff_fractions(da)) * inv
            a = a - (b * lead).shift(da - db)
        a, b = b, a
    return a


# ---------------------------------------------------------------------------
# fiber valuation sums


def fiber_valuation_sum(series: TruncatedSeries, q: IntPoly) -> int:
    """Sum over the branches of the fiber V(q) of the valuation of ``series``.

    The coefficients are scanned in increasing v-order; whenever a coefficient
    is nonzero modulo the current modulus, the branches where it does not
    vanish are resolved (their valuation is the current exponent) and the
    scan continues on the gcd part.
    """
    return _fiber_scan([series], q)


def fiber_min_valuation_sum(
    components: Sequence[TruncatedSeries], q: IntPoly
) -> int:
    """Sum over the fiber of min_i val(component_i) (the ideal lower bound)."""
    return _fiber_scan(list(components), q)


def _fiber_scan(components: list[TruncatedSeries], q: IntPoly) -> int:
    modulus = intpoly_normalize(q)
    if len(modulus) < 2:
        return 0
    total = 0
    start = min(s.min_exp() for s in components)
    stop = min(s.trunc for s in components)
    for j in range(start, stop):
        # gcd(g, c mod g) = gcd(g, c): the branches where some component's
        # coefficient is nonzero split off at order j
        g = modulus
        for s in components:
            c = s.coeff_vec(j)
            if any(c):
                g = [1] if intpoly_coprime(g, c, exact=False) else intpoly_gcd(g, c)
                if len(g) == 1:
                    break
        resolved = len(modulus) - len(g)
        total += j * resolved
        if len(g) == 1:
            return total
        modulus = g
    raise TruncationError(
        f"fiber not resolved below truncation {stop}: increase truncation"
    )
