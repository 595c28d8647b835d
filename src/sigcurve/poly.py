"""Exact sparse multivariate polynomial arithmetic over big rationals.

A polynomial is a dict mapping exponent tuples to ``Fraction`` coefficients,
wrapped with its ring (an ordered tuple of variable names).  Zero coefficients
are never stored; the zero polynomial has an empty term dict and total degree
``-inf``.  All operations are pure: no method mutates its operands, so values
may be shared freely across threads.

Multiplication, gcd, resultants and exact division work internally on integer
coefficient arrays (one common denominator per operand) because ``Fraction``
normalises on every operation, which is far too slow in convolution loops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import PoleError, RingMismatchError, UnknownVariableError

Exponent = tuple[int, ...]
Coeff = Fraction
Scalar = Union[int, Fraction]

NEG_INF = float("-inf")


def grlex_key(e: Exponent) -> tuple:
    """Sort key for graded lexicographic order (earlier ring variable wins)."""
    return (sum(e), e)


def grevlex_key(e: Exponent) -> tuple:
    """Sort key for graded reverse lexicographic order."""
    return (sum(e), tuple(-x for x in reversed(e)))


class SparsePoly:
    """Immutable-by-convention sparse polynomial over ``Fraction``."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: tuple[str, ...], terms: dict[Exponent, Fraction]):
        self.ring = ring
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: tuple[str, ...]) -> "SparsePoly":
        return cls(ring, {})

    @classmethod
    def const(cls, ring: tuple[str, ...], c: Scalar) -> "SparsePoly":
        c = Fraction(c)
        if c == 0:
            return cls(ring, {})
        return cls(ring, {(0,) * len(ring): c})

    @classmethod
    def var(cls, ring: tuple[str, ...], name: str) -> "SparsePoly":
        e = [0] * len(ring)
        e[_var_index(ring, name)] = 1
        return cls(ring, {tuple(e): Fraction(1)})

    @classmethod
    def from_terms(
        cls, ring: tuple[str, ...], items: Iterable[tuple[Exponent, Scalar]]
    ) -> "SparsePoly":
        terms: dict[Exponent, Fraction] = {}
        for e, c in items:
            c = Fraction(c)
            acc = terms.get(e)
            c = c if acc is None else acc + c
            if c == 0:
                terms.pop(e, None)
            else:
                terms[e] = c
        return cls(ring, terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        [(e, c)] = self.terms.items()
        if sum(e) != 0:
            raise ValueError("polynomial is not constant")
        return c

    def total_degree(self) -> Union[int, float]:
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> Union[int, float]:
        if not self.terms:
            return NEG_INF
        i = _var_index(self.ring, name)
        return max(e[i] for e in self.terms)

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * len(self.ring)
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring, used) if u)

    def leading(self, key=grlex_key) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def sorted_terms(self, key=grlex_key) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        from .parser import serialize

        return f"SparsePoly({serialize(self)!r})"

    # -- ring arithmetic ---------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.ring, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            s = c if acc is None else acc + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return SparsePoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "SparsePoly":
        return SparsePoly.const(self.ring, other) - self

    def scale(self, c: Scalar) -> "SparsePoly":
        c = Fraction(c)
        if c == 0:
            return SparsePoly.zero(self.ring)
        return SparsePoly(self.ring, {e: k * c for e, k in self.terms.items()})

    def __mul__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return SparsePoly.zero(self.ring)
        pn, pd = _int_form(self)
        qn, qd = _int_form(other)
        if len(pn) > len(qn):
            pn, qn = qn, pn
        acc: dict[Exponent, int] = {}
        get = acc.get
        for e1, c1 in pn.items():
            for e2, c2 in qn.items():
                e = tuple(map(int.__add__, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        den = pd * qd
        terms = {e: Fraction(c, den) for e, c in acc.items() if c}
        return SparsePoly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed:
                base = base * base
        return result

    # -- calculus and substitution -----------------------------------------

    def partial_derivative(self, name: str) -> "SparsePoly":
        i = _var_index(self.ring, name)
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return SparsePoly(self.ring, terms)

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a full assignment of the ring variables.

        Exact (``Fraction``) when every value is rational; falls through to
        the machine float/complex path otherwise, which is approximate.
        """
        vals = []
        for v in self.ring:
            if v not in point:
                raise UnknownVariableError(f"no value bound for {v!r}")
            vals.append(point[v])
        exact = all(isinstance(x, (int, Fraction)) for x in vals)
        zero = Fraction(0) if exact else 0.0
        acc = zero
        for e, c in self.terms.items():
            term = Fraction(c) if exact else float(c)
            for x, k in zip(vals, e):
                if k:
                    term = term * x**k
            acc = acc + term
        return acc

    def evaluate_partial(self, point: Mapping[str, Scalar]) -> "SparsePoly":
        """Substitute exact values for a subset of the variables."""
        idx = {_var_index(self.ring, v): Fraction(x) for v, x in point.items()}
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            for i, x in idx.items():
                if e[i]:
                    c = c * x ** e[i]
            e2 = tuple(0 if i in idx else k for i, k in enumerate(e))
            acc = terms.get(e2)
            c2 = c if acc is None else acc + c
            if c2 == 0:
                terms.pop(e2, None)
            else:
                terms[e2] = c2
        return SparsePoly(self.ring, terms)

    def substitute(self, name: str, value: "RatFunc") -> "RatFunc":
        """Substitute a rational function for one variable."""
        i = _var_index(self.ring, name)
        dmax = 0 if not self.terms else max(e[i] for e in self.terms)
        num_pows = [SparsePoly.const(self.ring, 1)]
        den_pows = [SparsePoly.const(self.ring, 1)]
        for _ in range(dmax):
            num_pows.append(num_pows[-1] * value.num)
            den_pows.append(den_pows[-1] * value.den)
        acc = SparsePoly.zero(self.ring)
        for e, c in self.terms.items():
            k = e[i]
            e2 = list(e)
            e2[i] = 0
            mono = SparsePoly(self.ring, {tuple(e2): c})
            acc = acc + mono * num_pows[k] * den_pows[dmax - k]
        return RatFunc.build(acc, den_pows[dmax])

    def rename_ring(self, target_ring: tuple[str, ...]) -> "SparsePoly":
        """Positional rename of the ring variables (same arity)."""
        if len(target_ring) != len(self.ring):
            raise ValueError("rename requires equal arity")
        return SparsePoly(target_ring, dict(self.terms))

    def map_variables(self, target_ring: tuple[str, ...]) -> "SparsePoly":
        """Re-express in a superset ring (variables matched by name)."""
        pos = [target_ring.index(v) for v in self.ring]
        n = len(target_ring)
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * n
            for i, k in enumerate(e):
                if k:
                    e2[pos[i]] = k
            terms[tuple(e2)] = c
        return SparsePoly(target_ring, terms)

    def compose_linear(self, images: Sequence["SparsePoly"]) -> "SparsePoly":
        """Substitute a polynomial image for every ring variable at once."""
        if len(images) != len(self.ring):
            raise ValueError("one image per ring variable required")
        ring = images[0].ring
        pows: list[list[SparsePoly]] = [[SparsePoly.const(ring, 1)] for _ in images]
        acc = SparsePoly.zero(ring)
        for e, c in self.terms.items():
            term = SparsePoly.const(ring, c)
            for i, k in enumerate(e):
                while len(pows[i]) <= k:
                    pows[i].append(pows[i][-1] * images[i])
                if k:
                    term = term * pows[i][k]
            acc = acc + term
        return acc

    # -- homogenisation -----------------------------------------------------

    def homogenize(self, new_var: str, degree: int) -> "SparsePoly":
        """Multiply each term by ``new_var**(degree - termdeg)``.

        The new variable is prepended to the ring.  ``degree`` must be at
        least the total degree.
        """
        d = self.total_degree()
        if self.terms and degree < d:
            raise ValueError(f"homogenization degree {degree} < total degree {d}")
        if new_var in self.ring:
            raise ValueError(f"{new_var!r} already in ring")
        ring = (new_var,) + self.ring
        terms = {(degree - sum(e),) + e: c for e, c in self.terms.items()}
        return SparsePoly(ring, terms)

    def dehomogenize(self, name: str, value: Scalar = 1) -> "SparsePoly":
        """Substitute ``name = value`` and drop the variable from the ring."""
        i = _var_index(self.ring, name)
        value = Fraction(value)
        ring = self.ring[:i] + self.ring[i + 1 :]
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                c = c * value ** e[i]
            e2 = e[:i] + e[i + 1 :]
            acc = terms.get(e2)
            c2 = c if acc is None else acc + c
            if c2 == 0:
                terms.pop(e2, None)
            else:
                terms[e2] = c2
        return SparsePoly(ring, terms)

    # -- normal forms --------------------------------------------------------

    def content(self) -> Fraction:
        """Rational content: returned so that ``self/content`` is primitive
        with integer coefficients and positive grlex leading coefficient."""
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        cont = Fraction(num_gcd, den_lcm)
        _, lc = self.leading(grlex_key)
        return -cont if lc < 0 else cont

    def primitive(self) -> tuple[Fraction, "SparsePoly"]:
        """Split into (content, primitive part); ``p == content * part``."""
        if not self.terms:
            return Fraction(0), self
        cont = self.content()
        inv = 1 / cont
        return cont, SparsePoly(self.ring, {e: c * inv for e, c in self.terms.items()})

    def primitive_part(self) -> "SparsePoly":
        return self.primitive()[1]


class RatFunc:
    """Quotient of two sparse polynomials, kept reduced.

    Invariants: den != 0; gcd(num, den) = 1; den primitive with positive
    grlex leading coefficient (the rational content lives in the numerator).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: SparsePoly):
        self.num = num
        self.den = den

    @classmethod
    def build(cls, num: SparsePoly, den: SparsePoly, reduce: bool = True) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return cls(num, SparsePoly.const(num.ring, 1))
        if reduce:
            g = gcd(num, den)
            if g.total_degree() > 0:
                num = exact_div(num, g)
                den = exact_div(den, g)
        dc, dp = den.primitive()
        return cls(num.scale(1 / dc), dp)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.build(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.build(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.build(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.build(self.num * other.den, self.den * other.num)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def evaluate(self, point: Mapping[str, object]):
        den = self.den.evaluate(point)
        if den == 0:
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / den

    def derivative(self, name: str) -> "RatFunc":
        n, d = self.num, self.den
        return RatFunc.build(
            n.partial_derivative(name) * d - n * d.partial_derivative(name), d * d
        )


# ---------------------------------------------------------------------------
# internal integer representation helpers


def _var_index(ring: tuple[str, ...], name: str) -> int:
    try:
        return ring.index(name)
    except ValueError:
        raise UnknownVariableError(f"{name!r} not in ring {ring}") from None


def _int_form(p: SparsePoly) -> tuple[dict[Exponent, int], int]:
    """Rewrite as (integer coefficient dict, common denominator)."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


# ---------------------------------------------------------------------------
# division, gcd, resultants


def exact_div(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Exact polynomial quotient p/q; raises if the division leaves a remainder."""
    if p.ring != q.ring:
        raise RingMismatchError(f"{p.ring} vs {q.ring}")
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return p
    if q.is_constant():
        return p.scale(1 / q.constant_value())
    rn, rd = _int_form(p)
    qn, qd = _int_form(q)
    q_items = list(qn.items())
    lead_q = max(qn, key=grevlex_key)
    lcq = qn[lead_q]
    out: dict[Exponent, Fraction] = {}
    # Fraction coefficients in the running remainder: quotients of a division
    # that is known exact stay small in practice.
    rem: dict[Exponent, Fraction] = {e: Fraction(c, rd) for e, c in rn.items()}
    while rem:
        lead_r = max(rem, key=grevlex_key)
        diff = tuple(map(int.__sub__, lead_r, lead_q))
        if any(x < 0 for x in diff):
            raise ValueError("exact_div: division is not exact")
        coeff = rem[lead_r] / lcq
        out[diff] = coeff
        for e, c in q_items:
            e2 = tuple(map(int.__add__, e, diff))
            acc = rem.get(e2, Fraction(0)) - coeff * Fraction(c)
            if acc == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = acc
    return SparsePoly(p.ring, {e: c * qd for e, c in out.items() if c})


def divides(q: SparsePoly, p: SparsePoly) -> bool:
    try:
        exact_div(p, q)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _lc_in(p: SparsePoly, i: int) -> SparsePoly:
    """Leading coefficient of p viewed as a polynomial in ring variable i."""
    d = max(e[i] for e in p.terms)
    terms = {}
    for e, c in p.terms.items():
        if e[i] == d:
            e2 = list(e)
            e2[i] = 0
            terms[tuple(e2)] = c
    return SparsePoly(p.ring, terms)


def pseudo_remainder(p: SparsePoly, q: SparsePoly, name: str) -> SparsePoly:
    """prem(p, q) with respect to one variable: lc(q)^(dp-dq+1) p mod q.

    The full power of lc(q) is restored even when cancellations shorten the
    reduction, so the subresultant PRS divisions stay exact.
    """
    i = _var_index(p.ring, name)
    if q.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    dq = max(e[i] for e in q.terms) if q.terms else 0
    if dq == 0:
        return SparsePoly.zero(p.ring)
    dp = p.degree_in(name)
    if not p.terms or dp < dq:
        return p
    lcq = _lc_in(q, i)
    r = p
    dr = dp
    steps = 0
    while r.terms and dr >= dq:
        lcr = _lc_in(r, i)
        shift = [0] * len(p.ring)
        shift[i] = int(dr - dq)
        mono = SparsePoly(p.ring, {tuple(shift): Fraction(1)})
        r = lcq * r - lcr * mono * q
        steps += 1
        dr = r.degree_in(name)
    missing = int(dp - dq + 1) - steps
    if missing > 0 and r.terms:
        r = r * lcq**missing
    return r


def gcd(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Multivariate gcd, primitive with positive leading coefficient (so the
    gcd of nonzero constants is 1; gcd(0, 0) = 0).

    Evaluation-reconstruction heuristic first (certified by two exact trial
    divisions, retried with growing evaluation points), primitive PRS as the
    deterministic fallback.
    """
    if p.ring != q.ring:
        raise RingMismatchError(f"{p.ring} vs {q.ring}")
    if p.is_zero() and q.is_zero():
        return p
    if p.is_zero():
        return q.primitive_part()
    if q.is_zero():
        return p.primitive_part()
    if p.is_constant() or q.is_constant():
        return SparsePoly.const(p.ring, 1)
    shared = [
        i
        for i in range(len(p.ring))
        if any(e[i] for e in p.terms) and any(e[i] for e in q.terms)
    ]
    # common monomial factor is free to extract and pervasive in practice
    mono = tuple(
        min(min(e[i] for e in p.terms), min(e[i] for e in q.terms))
        for i in range(len(p.ring))
    )
    if any(mono):
        mono_poly = SparsePoly(p.ring, {mono: Fraction(1)})
        p = SparsePoly(p.ring, {_sub_exp(e, mono): c for e, c in p.terms.items()})
        q = SparsePoly(q.ring, {_sub_exp(e, mono): c for e, c in q.terms.items()})
        return mono_poly * gcd(p, q)
    if not shared:
        return SparsePoly.const(p.ring, 1)
    if len(shared) == 1:
        i = shared[0]
        if all(
            all(k == 0 for j, k in enumerate(e) if j != i)
            for e in list(p.terms) + list(q.terms)
        ):
            # effectively univariate: modular coprimality certificate first,
            # then a CRT-modular gcd (primitive PRS and the lift heuristic
            # both drown in huge-height resultant coefficients here)
            if _univariate_coprime_mod_p(p, q, i):
                return SparsePoly.const(p.ring, 1)
            g = _gcd_univariate_modular(p, q, i)
            if g is not None:
                return g
            return _gcd_prs(p, q, shared)
    total = SparsePoly.const(p.ring, 1)
    for _ in range(80):
        g = _gcd_heuristic(p, q)
        if g is None:
            return (total * _gcd_prs(p, q, shared)).primitive_part()
        if g.total_degree() <= 0:
            return total.primitive_part()
        total = total * g
        p = exact_div(p, g)
        q = exact_div(q, g)
        if p.is_constant() or q.is_constant():
            return total.primitive_part()
    return (total * _gcd_prs(p, q, shared)).primitive_part()


def _sub_exp(e: Exponent, m: Exponent) -> Exponent:
    return tuple(a - b for a, b in zip(e, m))


def _dense_int_coeffs(p: SparsePoly, i: int) -> list[int]:
    pn, _ = _int_form(p)
    d = max(e[i] for e in pn)
    out = [0] * (d + 1)
    for e, c in pn.items():
        out[e[i]] += c
    g = 0
    for c in out:
        g = math.gcd(g, c)
        if g == 1:
            break
    if g > 1:
        out = [c // g for c in out]
    return out


def _modp_gcd(a: list[int], b: list[int], prime: int) -> list[int]:
    """Monic gcd of dense coefficient lists over F_p (ascending order)."""
    a = [c % prime for c in a]
    b = [c % prime for c in b]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    trim(a)
    trim(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], prime - 2, prime)
        while a and len(a) >= len(b):
            f = a[-1] * inv % prime
            sh = len(a) - len(b)
            for k, c in enumerate(b):
                a[k + sh] = (a[k + sh] - f * c) % prime
            trim(a)
        a, b = b, a
    inv = pow(a[-1], prime - 2, prime)
    return [c * inv % prime for c in a]


def _primes_31bit():
    n = 2**31 - 1
    while True:
        while not _is_probable_prime(n):
            n -= 2
        yield n
        n -= 2


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gcd_univariate_modular(p: SparsePoly, q: SparsePoly, i: int) -> Union[SparsePoly, None]:
    """Primitive univariate gcd by CRT over 31-bit primes with a division
    certificate; None after too many unlucky primes (caller falls back)."""
    pc = _dense_int_coeffs(p, i)
    qc = _dense_int_coeffs(q, i)
    g_lc = math.gcd(pc[-1], qc[-1])
    pp = p.primitive_part()
    qp = q.primitive_part()
    best_deg: Union[int, None] = None
    acc: list[int] = []
    modulus = 1
    stable = 0
    gen = _primes_31bit()
    for _count in range(400):
        prime = next(gen)
        if pc[-1] % prime == 0 or qc[-1] % prime == 0:
            continue
        gp = _modp_gcd(pc, qc, prime)
        deg = len(gp) - 1
        if deg == 0:
            return SparsePoly.const(p.ring, 1)
        if best_deg is None or deg < best_deg:
            best_deg = deg
            acc = [0] * (deg + 1)
            modulus = 1
            stable = 0
        elif deg > best_deg:
            continue  # unlucky prime
        scaled = [c * g_lc % prime for c in gp]
        old_modulus = modulus
        old_lift = (
            [c if c <= old_modulus // 2 else c - old_modulus for c in acc]
            if old_modulus > 1
            else None
        )
        inv = pow(old_modulus % prime, prime - 2, prime) if old_modulus > 1 else 1
        new = []
        for old, s in zip(acc, scaled):
            if old_modulus == 1:
                t = s
            else:
                t = (old + (s - old) * inv % prime * old_modulus) % (old_modulus * prime)
            new.append(t)
        modulus = old_modulus * prime
        lifted = [c if c <= modulus // 2 else c - modulus for c in new]
        if old_lift is not None and lifted == old_lift:
            stable += 1
        else:
            stable = 0
        acc = new
        if stable >= 1:
            cand_terms = {}
            for k, c in enumerate(lifted):
                if c:
                    e = [0] * len(p.ring)
                    e[i] = k
                    cand_terms[tuple(e)] = Fraction(c)
            cand = SparsePoly(p.ring, cand_terms).primitive_part()
            if not cand.is_zero() and divides(cand, pp) and divides(cand, qp):
                return cand
    return None


def _univariate_coprime_mod_p(p: SparsePoly, q: SparsePoly, i: int) -> bool:
    """Certify gcd(p, q) = 1 via a modular gcd: if the reductions mod a prime
    not dividing one leading coefficient are coprime, so are p and q."""
    pn, _ = _int_form(p)
    qn, _ = _int_form(q)
    dp = max(e[i] for e in pn)
    dq = max(e[i] for e in qn)
    pc = [0] * (dp + 1)
    qc = [0] * (dq + 1)
    for e, c in pn.items():
        pc[e[i]] += c
    for e, c in qn.items():
        qc[e[i]] += c
    for prime in (2147483629, 2147483587, 2147482951):
        if pc[-1] % prime == 0 or qc[-1] % prime == 0:
            continue
        a = [c % prime for c in pc]
        b = [c % prime for c in qc]

        def trim(v):
            while v and v[-1] == 0:
                v.pop()
            return v

        trim(a)
        trim(b)
        while b:
            if len(a) < len(b):
                a, b = b, a
                continue
            inv = pow(b[-1], prime - 2, prime)
            while a and len(a) >= len(b):
                f = a[-1] * inv % prime
                sh = len(a) - len(b)
                for k, c in enumerate(b):
                    a[k + sh] = (a[k + sh] - f * c) % prime
                trim(a)
            a, b = b, a
        if len(a) == 1:
            return True
    return False


def _gcd_heuristic(p: SparsePoly, q: SparsePoly) -> Union[SparsePoly, None]:
    """GCDHEU: evaluate one variable at a large integer, recurse, lift the
    result back through balanced base-xi digits, certify by division.

    The evaluation point is re-derived per recursion level from the current
    coefficient heights (nested levels see heights blown up by xi powers)."""
    pp = p.primitive_part()
    qp = q.primitive_part()
    pn, _ = _int_form(pp)
    qn, _ = _int_form(qp)
    bump = 1
    for _ in range(6):
        try:
            g = _heu_core(pp.ring, pn, qn, bump)
        except (_HeuFailure, RecursionError):
            g = None
        if g:
            cand = SparsePoly(pp.ring, {e: Fraction(c) for e, c in g.items()})
            cand = cand.primitive_part()
            if divides(cand, pp) and divides(cand, qp):
                return cand
        bump = bump * 8
    return None


class _HeuFailure(Exception):
    pass


def _heu_core(ring, pn: dict, qn: dict, bump: int) -> dict:
    """Integer-dict gcd kernel; returns an exponent->int dict."""
    k = len(ring)
    var = None
    for i in reversed(range(k)):
        if any(e[i] for e in pn) and any(e[i] for e in qn):
            var = i
            break
    if var is None:
        g = 0
        for c in list(pn.values()) + list(qn.values()):
            g = math.gcd(g, c)
        return {(0,) * k: g}
    height = min(
        max(abs(c) for c in pn.values()), max(abs(c) for c in qn.values())
    )
    xi = (2 * height + 29) * bump
    pe = _eval_int_var(pn, var, xi)
    qe = _eval_int_var(qn, var, xi)
    if not pe or not qe:
        raise _HeuFailure
    if _is_int_const(pe) and _is_int_const(qe):
        g0 = math.gcd(next(iter(pe.values())), next(iter(qe.values())))
        gamma = {(0,) * k: g0}
    else:
        gamma = _heu_core(ring, pe, qe, bump)
    # lift gamma (free of var) back to a polynomial in var via balanced digits
    deg_bound = min(max(e[var] for e in pn), max(e[var] for e in qn))
    digits: dict[Exponent, int] = {}
    power = 0
    while any(gamma.values()):
        if power > deg_bound:
            raise _HeuFailure
        nxt: dict[Exponent, int] = {}
        for e, c in gamma.items():
            r = c % xi
            if r > xi // 2:
                r -= xi
            if r:
                e2 = list(e)
                e2[var] = power
                digits[tuple(e2)] = r
            cc = (c - r) // xi
            if cc:
                nxt[e] = cc
        gamma = nxt
        power += 1
    if not digits:
        raise _HeuFailure
    # keep integer content: at the enclosing level it encodes polynomial
    # content in the next variable (stripped only at the very top)
    return digits


def _is_int_const(d: dict) -> bool:
    return len(d) == 1 and not any(next(iter(d)))


def _eval_int_var(terms: dict, var: int, xi: int) -> dict:
    out: dict[Exponent, int] = {}
    for e, c in terms.items():
        e2 = list(e)
        k = e2[var]
        e2[var] = 0
        key = tuple(e2)
        out[key] = out.get(key, 0) + c * xi**k
    return {e: c for e, c in out.items() if c}


def _gcd_prs(p: SparsePoly, q: SparsePoly, shared: list[int]) -> SparsePoly:
    """Primitive PRS gcd (deterministic fallback)."""
    # main variable: the shared one of least combined degree keeps PRS short
    i = min(shared, key=lambda j: max(e[j] for e in p.terms) + max(e[j] for e in q.terms))
    name = p.ring[i]
    cp, pp = _content_in(p, i)
    cq, qq = _content_in(q, i)
    cont = gcd(cp, cq)
    a, b = pp, qq
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    while True:
        r = pseudo_remainder(a, b, name)
        if r.is_zero():
            break
        if not any(e[i] for e in r.terms):
            b = SparsePoly.const(p.ring, 1)
            break
        a, b = b, _content_in(r, i)[1]
    return (cont * b.primitive_part()).primitive_part()


def _content_in(p: SparsePoly, i: int) -> tuple[SparsePoly, SparsePoly]:
    """Content/primitive split of p w.r.t. ring variable i: content is the
    gcd of the coefficient polynomials in the remaining variables."""
    coeffs: dict[int, dict[Exponent, Fraction]] = {}
    for e, c in p.terms.items():
        e2 = list(e)
        k = e2[i]
        e2[i] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    cont = SparsePoly.zero(p.ring)
    for terms in coeffs.values():
        cont = gcd(cont, SparsePoly(p.ring, terms))
        if cont.is_constant() and not cont.is_zero():
            cont = SparsePoly.const(p.ring, 1)
            break
    return cont, exact_div(p, cont)


def square_free_part(p: SparsePoly) -> SparsePoly:
    """Product of the distinct irreducible factors (primitive, positive lc)."""
    if p.is_zero() or p.is_constant():
        return p.primitive_part() if p.terms else p
    g = p
    for v in p.variables_used():
        g = gcd(g, p.partial_derivative(v))
        if g.is_constant():
            break
    return exact_div(p, g).primitive_part()


def resultant(p: SparsePoly, q: SparsePoly, name: str) -> SparsePoly:
    """Resultant of p and q with respect to one variable.

    Subresultant PRS for the value, with the overall sign pinned to the
    Sylvester-determinant convention Res(p, q) = det S(p, q) by an exact
    evaluation at a random non-degenerate rational point.
    """
    if p.ring != q.ring:
        raise RingMismatchError(f"{p.ring} vs {q.ring}")
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    i = _var_index(p.ring, name)
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if dp <= 0 and dq <= 0:
        raise ValueError(f"both polynomials constant in {name!r}")
    if dp < dq:
        r = resultant(q, p, name)
        return r.scale(-1) if (dp * dq) % 2 else r
    if dq <= 0:
        # Res(p, c) = c^deg(p)
        return q**int(dp)
    value = _subresultant_prs_resultant(p, q, i, name)
    if value.is_zero():
        return value
    return _fix_resultant_sign(p, q, i, name, value)


def _subresultant_prs_resultant(p, q, i: int, name: str) -> SparsePoly:
    ring = p.ring
    a, b = p, q
    da, db = int(a.degree_in(name)), int(b.degree_in(name))
    g = SparsePoly.const(ring, 1)
    h = SparsePoly.const(ring, 1)
    while True:
        delta = da - db
        r = pseudo_remainder(a, b, name)
        if r.is_zero():
            return SparsePoly.zero(ring) if db > 0 else _final_prs(b, h, da)
        divisor = g * h**delta
        rnext = exact_div(r, divisor)
        a, da = b, db
        g = _lc_in(a, i)
        if delta > 0:
            h = exact_div(g**delta, h ** (delta - 1))
        elif delta == 0:
            h = h  # degree tie: h unchanged (delta-1 < 0 never occurs after swap)
        b = rnext
        db = int(b.degree_in(name)) if b.terms and any(e[i] for e in b.terms) else 0
        if db == 0:
            return _final_prs(b, h, da)


def _final_prs(b: SparsePoly, h: SparsePoly, da: int) -> SparsePoly:
    if b.is_zero():
        return b
    if da <= 0:
        return SparsePoly.const(b.ring, 1)
    # resultant = b^da / h^(da-1), exact in the subresultant PRS
    return exact_div(b**da, h ** (da - 1))


def _fix_resultant_sign(p, q, i, name, value) -> SparsePoly:
    """Compare against an exact Sylvester determinant at a random point."""
    import random

    ring = p.ring
    others = [v for j, v in enumerate(ring) if j != i]
    rng = random.Random(20260808)
    for _ in range(64):
        point = {v: Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for v in others}
        pc = _univariate_coeffs(p.evaluate_partial(point), i)
        qc = _univariate_coeffs(q.evaluate_partial(point), i)
        if pc[-1] == 0 or qc[-1] == 0:
            continue  # leading coefficient collapsed; resample
        if len(pc) - 1 != p.degree_in(name) or len(qc) - 1 != q.degree_in(name):
            continue
        expected = sylvester_resultant(pc, qc)
        got = value.evaluate({**point, name: Fraction(0)})
        if expected == 0 and got == 0:
            continue  # unlucky common zero; resample
        if expected == got:
            return value
        if expected == -got:
            return -value
        raise AssertionError("subresultant PRS disagrees with Sylvester oracle")
    return value


def _univariate_coeffs(p: SparsePoly, i: int) -> list[Fraction]:
    """Dense coefficient list (ascending) of a polynomial univariate in var i."""
    d = 0 if p.is_zero() else int(max(e[i] for e in p.terms))
    out = [Fraction(0)] * (d + 1)
    for e, c in p.terms.items():
        out[e[i]] += c
    return out


def sylvester_resultant(pc: Sequence[Fraction], qc: Sequence[Fraction]) -> Fraction:
    """Determinant of the Sylvester matrix of two univariate coefficient
    lists (ascending order).  Independent oracle for `resultant`."""
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
