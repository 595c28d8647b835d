"""Exact sparse multivariate polynomial arithmetic over big rationals.

A polynomial maps exponent tuples to rational coefficients, wrapped with its
ring (an ordered tuple of variable names), in one or both of two forms:
``terms``, a dict of ``Fraction`` coefficients, and the integer form
(numerators, den), a dict of integer numerators over one positive common
denominator, reduced so that gcd(den, numerators) = 1.  Zero coefficients are
never stored; the zero polynomial has no terms and total degree ``-inf``.

``Fraction`` normalises on every operation, which is far too slow in
convolution loops, so sums, differences, negation, scaling, products,
derivatives, exact quotients and primitive parts run on the integer form and
produce only it.  Either form is built from the other once, on first use,
and cached, with the same terms in the same order; questions about exponents
alone read whichever form exists, and renaming, re-embedding and
homogenizing re-key it.  An exact ``evaluate`` is one integer sum
over the numerators.  All operations are pure: no method mutates its
operands or either of their dicts, and no caller may mutate them, so values
may be shared freely across threads (two threads that build the same cached
form build equal ones).

The product and exact-division kernels key terms by packed exponents: one int
per exponent vector, in a mixed radix large enough that no exponent of the
result carries (deg_i(p) + deg_i(q) + 1 for a product, deg_i(p) + 1 for a
quotient), so adding two keys adds the exponent vectors and integer order is
lex order.  A product takes one of two routes, chosen from its operands: the
double loop over term pairs, or, when the operands are dense in the box of
the product's radix, Kronecker substitution, which places each coefficient
in a slot of one big integer at its packed key and lets one ``int`` product
(Karatsuba, in C) do the pair work (Harvey, J. Symb. Comput. 2009).  The rule
is stated at ``KRONECKER_MIN_PAIRS``.  ``exact_div`` divides integer
numerators by the primitive part of the divisor: by Gauss's lemma an exact
quotient is integral, and the division is refused by the three rules its
docstring states.

``resultant`` runs the subresultant PRS, whose sign bookkeeping (a flip at
every step that pairs two odd degrees) gives the Sylvester-determinant sign by
construction; the determinant itself is a test oracle (``tests/oracles.py``).

``horner_evaluate`` is the one route that evaluates a polynomial at elements
of another ring (truncated series, or numerators over powers of F_y): nested
Horner over a grouping of its terms by variable.  ``mat_inverse`` is the one
exact matrix inverse: fraction-free Gauss-Jordan elimination on integer rows.

The dense arithmetic modulo a prime, for the gcd images and for the images
that answer "no" without an exact remainder or resultant, is in ``modp``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .errors import PoleError, RingMismatchError, SigcurveError, UnknownVariableError
from .modp import _modp_gcd_dict, _primes_31bit

Exponent = tuple[int, ...]
Coeff = Fraction
Scalar = Union[int, Fraction]
T = TypeVar("T")

NEG_INF = float("-inf")


def grlex_key(e: Exponent) -> tuple:
    """Sort key for graded lexicographic order (earlier ring variable wins)."""
    return (sum(e), e)


class SparsePoly:
    """Immutable sparse polynomial over ``Fraction``, held in two forms.

    ``terms`` maps exponent tuples to ``Fraction`` coefficients; the integer
    form ``_int_form(p)`` is (numerators, den): integer coefficients over one
    positive common denominator, with gcd(den, numerators) = 1 so that equal
    polynomials have equal integer forms.  Both are dicts with the same keys
    in the same order.  The constructor takes the ``Fraction`` dict; the
    arithmetic produces only the integer form, and each form is built from
    the other once, on first use, and cached.  Neither dict may be mutated by
    a caller.
    """

    __slots__ = ("ring", "_terms", "_ints")

    def __init__(self, ring: tuple[str, ...], terms: dict[Exponent, Fraction]):
        self.ring = ring
        self._terms = terms
        self._ints = None

    @classmethod
    def _from_ints(cls, ring: tuple[str, ...], nums: dict[Exponent, int], den: int) -> "SparsePoly":
        """The polynomial nums / den; reduced here when den > 1."""
        if den > 1:
            g = math.gcd(den, *nums.values())
            if g > 1:
                nums = {e: c // g for e, c in nums.items()}
                den //= g
        p = object.__new__(cls)
        p.ring = ring
        p._terms = None
        p._ints = (nums, den)
        return p

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        terms = self._terms
        if terms is None:
            nums, den = self._ints
            if den == 1:
                terms = {e: Fraction(c) for e, c in nums.items()}
            else:
                terms = {e: Fraction(c, den) for e, c in nums.items()}
            self._terms = terms
        return terms

    def _keys(self) -> dict:
        """Whichever form exists, for questions about exponents only."""
        terms = self._terms
        return self._ints[0] if terms is None else terms

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
        return not self._keys()

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._keys())

    def constant_value(self) -> Fraction:
        if not self._keys():
            return Fraction(0)
        [(e, c)] = self.terms.items()
        if sum(e) != 0:
            raise ValueError("polynomial is not constant")
        return c

    def total_degree(self) -> Union[int, float]:
        keys = self._keys()
        if not keys:
            return NEG_INF
        return max(sum(e) for e in keys)

    def degree_in(self, name: str) -> Union[int, float]:
        keys = self._keys()
        if not keys:
            return NEG_INF
        i = _var_index(self.ring, name)
        return max(e[i] for e in keys)

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * len(self.ring)
        for e in self._keys():
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
        return self.ring == other.ring and _int_form(self) == _int_form(other)

    def __hash__(self):
        # on the reduced integer form, which is canonical, as __eq__
        nums, den = _int_form(self)
        return hash((self.ring, den, frozenset(nums.items())))

    def __bool__(self) -> bool:
        return bool(self._keys())

    def __repr__(self) -> str:
        from .parser import serialize

        return f"SparsePoly({serialize(self)!r})"

    # -- ring arithmetic ---------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        nums, den = _int_form(self)
        return SparsePoly._from_ints(self.ring, {e: -c for e, c in nums.items()}, den)

    def __sub__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        return self._plus(other, -1)

    def __rsub__(self, other: Scalar) -> "SparsePoly":
        return SparsePoly.const(self.ring, other) - self

    def _plus(self, other: Union["SparsePoly", Scalar], sign: int) -> "SparsePoly":
        """self + sign * other on the integer forms, over the lcm of the two
        denominators; the terms keep self's order, then other's new ones."""
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.ring, other)
        self._check(other)
        pn, pd = _int_form(self)
        qn, qd = _int_form(other)
        den = pd * qd // math.gcd(pd, qd)
        fp, fq = den // pd, sign * den // qd
        nums = dict(pn) if fp == 1 else {e: c * fp for e, c in pn.items()}
        get = nums.get
        for e, c in qn.items():
            s = get(e, 0) + c * fq
            if s:
                nums[e] = s
            else:
                del nums[e]
        return SparsePoly._from_ints(self.ring, nums, den)

    def scale(self, c: Scalar) -> "SparsePoly":
        c = Fraction(c)
        if c == 0:
            return SparsePoly.zero(self.ring)
        nums, den = _int_form(self)
        k = c.numerator
        return SparsePoly._from_ints(
            self.ring, {e: a * k for e, a in nums.items()}, den * c.denominator
        )

    def __mul__(self, other: Union["SparsePoly", Scalar]) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        self._check(other)
        pn, pd = _int_form(self)
        qn, qd = (pn, pd) if other is self else _int_form(other)
        if not pn or not qn:
            return SparsePoly.zero(self.ring)
        if len(pn) > len(qn):
            pn, qn = qn, pn
        # in radix deg_i(p) + deg_i(q) + 1 no sum of two exponents carries,
        # so adding two packed keys adds the exponent vectors
        bases = [a + b + 1 for a, b in zip(_degrees(pn), _degrees(qn))]
        pairs, slots = len(pn) * len(qn), KRONECKER_PAIRS_PER_SLOT * math.prod(bases)
        dense = KRONECKER_MIN_PAIRS <= pairs >= slots and slots**3 * _kronecker_width(
            pn, qn) <= KRONECKER_PAIRS_PER_SLOT * KRONECKER_PACKED_BYTES * pairs**2
        product = (_mul_kronecker if dense else _mul_loop)(pn, qn, bases)
        return SparsePoly._from_ints(self.ring, dict(product), pd * qd)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return SparsePoly.const(self.ring, 1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- calculus and substitution -----------------------------------------

    def partial_derivative(self, name: str) -> "SparsePoly":
        i = _var_index(self.ring, name)
        nums, den = _int_form(self)
        out: dict[Exponent, int] = {}
        for e, c in nums.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return SparsePoly._from_ints(self.ring, out, den)

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a full assignment of the ring variables.

        Exact (``Fraction``) when every value is rational; falls through to
        the machine float/complex path otherwise, which is approximate.  At
        an exact point x_i = r_i/s_i the value is one integer sum over the
        numerators c_e, each times prod_i r_i^(e_i) s_i^(deg_i - e_i) from a
        per-variable table, over den * prod_i s_i^(deg_i).
        """
        vals = []
        for v in self.ring:
            if v not in point:
                raise UnknownVariableError(f"no value bound for {v!r}")
            vals.append(point[v])
        if not all(isinstance(x, (int, Fraction)) for x in vals):
            acc = 0.0
            for e, c in self.terms.items():
                term = float(c)
                for x, k in zip(vals, e):
                    if k:
                        term = term * x**k
                acc = acc + term
            return acc
        nums, den = _int_form(self)
        if not nums:
            return Fraction(0)
        tables = []
        for i, k in enumerate(_degrees(nums)):
            if k:
                r, s = vals[i].numerator, vals[i].denominator
                rp, sp = [1], [1]
                for _ in range(k):
                    rp.append(rp[-1] * r)
                    sp.append(sp[-1] * s)
                tables.append((i, [a * b for a, b in zip(rp, reversed(sp))]))
                den *= sp[-1]
        total = 0
        for e, c in nums.items():
            for i, table in tables:
                c *= table[e[i]]
            total += c
        return Fraction(total, den)

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

    def rename_ring(self, target_ring: tuple[str, ...]) -> "SparsePoly":
        """Positional rename of the ring variables (same arity)."""
        if len(target_ring) != len(self.ring):
            raise ValueError("rename requires equal arity")
        return self._rekeyed(target_ring, lambda e: e)

    def map_variables(self, target_ring: tuple[str, ...]) -> "SparsePoly":
        """Re-express in a superset ring (variables matched by name)."""
        pos = [target_ring.index(v) for v in self.ring]
        n = len(target_ring)

        def key(e: Exponent) -> Exponent:
            e2 = [0] * n
            for i, k in enumerate(e):
                if k:
                    e2[pos[i]] = k
            return tuple(e2)

        return self._rekeyed(target_ring, key)

    def _rekeyed(self, ring: tuple[str, ...], key: Callable[[Exponent], Exponent]) -> "SparsePoly":
        """The same coefficients on the exponents ``key`` maps one-to-one, in
        the integer form when it exists."""
        if self._ints is None:
            return SparsePoly(ring, {key(e): c for e, c in self._terms.items()})
        nums, den = self._ints
        return SparsePoly._from_ints(ring, {key(e): c for e, c in nums.items()}, den)

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
        if degree < d:
            raise ValueError(f"homogenization degree {degree} < total degree {d}")
        if new_var in self.ring:
            raise ValueError(f"{new_var!r} already in ring")
        return self._rekeyed((new_var,) + self.ring, lambda e: (degree - sum(e),) + e)

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
        nums, den = _int_form(self)
        if not nums:
            return Fraction(0)
        # den is coprime to the numerators, so gcd/den is already reduced
        cont = Fraction(math.gcd(*nums.values()), den)
        return -cont if nums[max(nums, key=grlex_key)] < 0 else cont

    def primitive(self) -> tuple[Fraction, "SparsePoly"]:
        """Split into (content, primitive part); ``p == content * part``."""
        nums, _den = _int_form(self)
        if not nums:
            return Fraction(0), self
        cont = self.content()
        g = cont.numerator
        return cont, SparsePoly._from_ints(self.ring, {e: c // g for e, c in nums.items()}, 1)

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
    def build(cls, num: SparsePoly, den: SparsePoly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return cls(num, SparsePoly.const(num.ring, 1))
        g, a, b = _gcd_cofactors(num, den)
        if g.total_degree() > 0:
            num, den = a, b
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

    def evaluate(self, point: Mapping[str, object]):
        den = self.den.evaluate(point)
        if den == 0:
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / den


# ---------------------------------------------------------------------------
# internal integer representation helpers


def _var_index(ring: tuple[str, ...], name: str) -> int:
    try:
        return ring.index(name)
    except ValueError:
        raise UnknownVariableError(f"{name!r} not in ring {ring}") from None


def _int_form(p: SparsePoly) -> tuple[dict[Exponent, int], int]:
    """p as (integer coefficient dict, common denominator), built from the
    ``Fraction`` terms on first use and cached; the dict is p's own."""
    ints = p._ints
    if ints is None:
        terms = p._terms
        den = 1
        for c in terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        if den == 1:
            ints = {e: c.numerator for e, c in terms.items()}, 1
        else:
            ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den
        p._ints = ints
    return ints


def _degrees(terms: Iterable[Exponent]) -> list[int]:
    """Per-variable maximal exponent of a nonempty set of exponent vectors."""
    return [max(col) for col in zip(*terms)]


def _radix_scales(bases: Sequence[int]) -> list[int]:
    """Place values of a mixed-radix packing, first variable most significant
    (so packed keys compare in lex order)."""
    scales = [1] * len(bases)
    for i in range(len(bases) - 1, 0, -1):
        scales[i - 1] = scales[i] * bases[i]
    return scales


def _pack(e: Exponent, scales: Sequence[int]) -> int:
    return sum(map(int.__mul__, e, scales))


def _unpack(k: int, scales: Sequence[int]) -> Exponent:
    e = []
    for m in scales:
        a, k = divmod(k, m)
        e.append(a)
    return tuple(e)


# A product of integer numerators pn * qn (#pn <= #qn) whose exponents lie
# in the box of ``bases`` (base_i = deg_i pn + deg_i qn + 1) takes the
# Kronecker route when it has at least KRONECKER_MIN_PAIRS term pairs and at
# least KRONECKER_PAIRS_PER_SLOT of them per slot of the box, times
# sqrt(box * width / KRONECKER_PACKED_BYTES) when that exceeds 1 (width the
# slot bytes): Karatsuba's cost per slot grows with the packed size, a loop
# pair's hardly.  The box holds more than #qn slots unless pn is a constant,
# so an operand of at most 8 terms always takes the loop.
KRONECKER_MIN_PAIRS = 256
KRONECKER_PAIRS_PER_SLOT = 8
KRONECKER_PACKED_BYTES = 12_000


def _mul_loop(pn: dict[Exponent, int], qn: dict[Exponent, int], bases: Sequence[int]):
    """The nonzero (exponent, coefficient) terms of pn * qn, by the double
    loop over term pairs on packed keys."""
    scales = _radix_scales(bases)
    pk = [(_pack(e, scales), c) for e, c in pn.items()]
    qk = [(_pack(e, scales), c) for e, c in qn.items()]
    acc: dict[int, int] = {}
    get = acc.get
    for k1, c1 in pk:
        for k2, c2 in qk:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return [(_unpack(k, scales), c) for k, c in acc.items() if c]


def _mul_kronecker(pn: dict[Exponent, int], qn: dict[Exponent, int], bases: Sequence[int]):
    """The nonzero terms of pn * qn (#pn <= #qn) in lex order, by Kronecker
    substitution: each operand becomes one integer with its coefficient of
    packed key k in a signed slot of w bits at bit w*k, and one ``int``
    product does the work of every term pair.

    A product coefficient is a sum of at most #pn products each below
    2^(bits max|pn| + bits max|qn|), so w = that + bits #pn + 1, rounded up to
    whole bytes, holds it with its sign.  Adding 2^(w-1) to every slot of
    the product makes every slot nonnegative, so the slots are read back from
    its bytes with no borrow from a neighbour."""
    scales = _radix_scales(bases)
    box = math.prod(bases)
    width = _kronecker_width(pn, qn)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * box, "little")
    packed = _kronecker_pack(pn, scales, width)
    # a square stays one object, so the product takes CPython's squaring path
    prod = packed * (packed if qn is pn else _kronecker_pack(qn, scales, width))
    buf = (prod + offset).to_bytes(box * width, "little")
    out = []
    for e, i in zip(itertools.product(*map(range, bases)), range(0, box * width, width)):
        c = int.from_bytes(buf[i : i + width], "little") - half
        if c:
            out.append((e, c))
    return out


def _kronecker_width(pn: dict[Exponent, int], qn: dict[Exponent, int]) -> int:
    """The slot width w of ``_mul_kronecker`` in bytes."""
    bits = max(map(abs, pn.values())).bit_length() + max(map(abs, qn.values())).bit_length()
    return (bits + len(pn).bit_length() + 8) // 8


def _kronecker_pack(terms: dict[Exponent, int], scales: Sequence[int], width: int) -> int:
    """sum c * 2^(8 width key(e)), built in O(#terms) as the bytes of the
    positive coefficients minus those of the negative ones."""
    keyed = [(_pack(e, scales) * width, c) for e, c in terms.items()]
    size = max(keyed)[0] + width
    pos, neg = bytearray(size), bytearray(size)
    for i, c in keyed:
        if c > 0:
            pos[i : i + width] = c.to_bytes(width, "little")
        else:
            neg[i : i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# ---------------------------------------------------------------------------
# evaluation at ring elements


def horner_evaluate(
    p: SparsePoly,
    power: Callable[[int, int], T],
    mul: Callable[[T, T], T],
    add: Callable[[T, T], T],
    const: Callable[[Fraction], T],
) -> T:
    """p at elements of any commutative ring, by nested Horner.

    ``power(i, k)`` is the value of ring variable i to the power k >= 1 (the
    caller tables it); ``mul``, ``add`` and ``const`` are the ring's
    operations.  The outermost variable has the largest degree in p (ties
    broken by ring order): p = sum_k c_k x^k over the exponents k1 > k2 > ...
    that occur is walked as ((c_k1 x^(k1-k2) + c_k2) x^(k2-k3) + ...) x^kmin,
    each c_k in the same way over the remaining variables.  The zero
    polynomial is const(0)."""
    if not p.terms:
        return const(Fraction(0))
    degrees = _degrees(p.terms)
    order = sorted((i for i, k in enumerate(degrees) if k), key=lambda i: -degrees[i])
    return _horner_run(list(p.terms.items()), order, power, mul, add, const)


# Module-level recursion: a nested recursive closure would form a reference
# cycle that keeps the caller's power table alive until the cyclic collector
# runs.
def _horner_run(items: list, order: Sequence[int], power, mul, add, const):
    """The terms ``items`` (all equal in the variables before ``order``) at
    the ring elements: grouped by the exponent of order[0], largest first."""
    if not order:
        [(_e, c)] = items
        return const(c)
    i, rest = order[0], order[1:]
    parts: dict[int, list] = {}
    for e, c in items:
        parts.setdefault(e[i], []).append((e, c))
    acc, prev = None, 0
    for k in sorted(parts, reverse=True):
        value = _horner_run(parts[k], rest, power, mul, add, const)
        acc = value if acc is None else add(mul(acc, power(i, prev - k)), value)
        prev = k
    return mul(acc, power(i, prev)) if prev else acc


# ---------------------------------------------------------------------------
# division, gcd, resultants


def exact_div(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Exact polynomial quotient p/q; raises ``ValueError`` if q does not
    divide p.

    With p = rn/rd and q = qn/qd (integer numerators, common denominators)
    and c the integer content of qn, the quotient is (rn / (qn/c)) * qd/(rd*c).
    By Gauss's lemma an exact quotient of an integer polynomial by a
    primitive one has integer coefficients, so the division runs in integers
    and the scale is applied once at the end.  Remainder terms are keyed by
    exponents packed in radix deg_i(p) + 1, whose integer order is lex order;
    the leading term comes off a max-heap of keys (an exact quotient is
    unique, so any monomial order gives the same answer).  The division is
    refused, at the first step that shows it, when:

    * the leading exponent of q does not divide the remainder's leading
      exponent;
    * a quotient exponent plus deg_i(q) exceeds deg_i(p) (an exact quotient
      never has one, and past it the packed keys would alias);
    * an integer quotient coefficient leaves a remainder.
    """
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
    dp = _degrees(rn)
    room = [a - b for a, b in zip(dp, _degrees(qn))]
    if min(room) < 0:
        raise ValueError("exact_div: division is not exact")
    scales = _radix_scales([a + 1 for a in dp])
    cont = math.gcd(*qn.values())
    lead_q = max(qn)
    lcq = qn[lead_q] // cont
    lead_key = _pack(lead_q, scales)
    q_tail = [(_pack(e, scales), c // cont) for e, c in qn.items() if e != lead_q]
    rem = {_pack(e, scales): c for e, c in rn.items()}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    out: dict[Exponent, int] = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k)
        if not c:
            continue  # cancelled after it was pushed
        diff = tuple(map(int.__sub__, _unpack(k, scales), lead_q))
        if any(x < 0 or x > m for x, m in zip(diff, room)):
            raise ValueError("exact_div: division is not exact")
        coeff, r = divmod(c, lcq)
        if r:
            raise ValueError("exact_div: division is not exact")
        out[diff] = coeff
        shift = k - lead_key
        for kq, cq in q_tail:
            k2 = kq + shift
            old = rem.get(k2)
            if old is None:
                rem[k2] = -coeff * cq
                heapq.heappush(heap, -k2)
            else:
                rem[k2] = old - coeff * cq
    return SparsePoly._from_ints(p.ring, {e: c * qd for e, c in out.items()}, rd * cont)


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
    """Greatest common divisor, primitive with integer coefficients and a
    positive grlex leading coefficient (so the gcd of nonzero constants is 1;
    gcd(0, 0) = 0).

    Brown's dense modular algorithm (Brown, JACM 1971) on the variables the
    operands use, after a common monomial factor is split off.  Images of the
    gcd modulo 31-bit primes (``_modp_gcd_dict``) are combined by Chinese
    remaindering; a prime whose image has a larger degree vector than another
    is unlucky and discarded.  The lift is accepted once one more prime leaves
    it unchanged and it divides both operands exactly; ``SigcurveError`` when
    no lift has done so by the time the primes pass the coefficient bound.
    """
    if p.ring != q.ring:
        raise RingMismatchError(f"{p.ring} vs {q.ring}")
    if p.is_zero() and q.is_zero():
        return p
    if p.is_zero():
        return q.primitive_part()
    if q.is_zero():
        return p.primitive_part()
    return _gcd_cofactors(p, q)[0]


def _gcd_cofactors(
    p: SparsePoly, q: SparsePoly
) -> tuple[SparsePoly, SparsePoly, SparsePoly]:
    """(g, p / g, q / g) for two nonzero polynomials, g = gcd(p, q): the
    cofactors are the quotients of the exact divisions that certify g."""
    if p.is_constant() or q.is_constant():
        return SparsePoly.const(p.ring, 1), p, q
    # common monomial factor is free to extract and pervasive in practice
    mono = tuple(
        min(min(e[i] for e in p.terms), min(e[i] for e in q.terms))
        for i in range(len(p.ring))
    )
    if any(mono):
        mono_poly = SparsePoly(p.ring, {mono: Fraction(1)})
        p = SparsePoly(p.ring, {_sub_exp(e, mono): c for e, c in p.terms.items()})
        q = SparsePoly(q.ring, {_sub_exp(e, mono): c for e, c in q.terms.items()})
        g, a, b = _gcd_cofactors(p, q)
        return mono_poly * g, a, b
    pv, qv = p.variables_used(), q.variables_used()
    if not set(pv) & set(qv):
        return SparsePoly.const(p.ring, 1), p, q
    used = [i for i, v in enumerate(p.ring) if v in pv or v in qv]
    # gcd commutes with x -> x^k, so a variable whose exponents are all
    # multiples of k (as in the Fermat family) is deflated by k
    step = [math.gcd(*(e[i] for f in (p, q) for e in f.terms)) for i in used]
    ring = tuple(p.ring[i] for i in used)
    (cp, pp), (cq, qp) = (
        SparsePoly(
            ring, {tuple(e[i] // k for i, k in zip(used, step)): c for e, c in f.terms.items()}
        ).primitive()
        for f in (p, q)
    )

    def inflate(f: SparsePoly) -> SparsePoly:
        terms = {tuple(a * k for a, k in zip(e, step)): c for e, c in f.terms.items()}
        return SparsePoly(ring, terms).map_variables(p.ring)

    g, a, b = _gcd_crt(pp, qp)
    if g.is_constant():
        return SparsePoly.const(p.ring, 1), p, q
    sign, g = inflate(g).primitive()
    return g, inflate(a).scale(cp * sign), inflate(b).scale(cq * sign)


def _sub_exp(e: Exponent, m: Exponent) -> Exponent:
    return tuple(a - b for a, b in zip(e, m))


def _gcd_crt(
    pp: SparsePoly, qp: SparsePoly
) -> tuple[SparsePoly, SparsePoly, SparsePoly]:
    """gcd of two primitive integer polynomials by CRT over 31-bit primes,
    with the cofactors pp / gcd and qp / gcd.

    The image modulo a prime is monic in lex order (first variable most
    significant) and is scaled by gamma, the integer gcd of the two lex
    leading coefficients, so the images lift to gamma / lc(g) * g.  Its
    evaluation points start at a residue drawn per prime: a fixed start such
    as 1 can be unlucky over Q, and so for every prime (x*(y^2-9) - 5*y^2
    and 8*x + 5 share x + 5/8 at y = 1).  The lift's coefficients are
    bounded by gamma times Mignotte's bound on a factor's coefficients, so
    a lift past twice that bound that still fails its check is an error."""
    pn = {e: c.numerator for e, c in pp.terms.items()}
    qn = {e: c.numerator for e, c in qp.terms.items()}
    lp, lq = pn[max(pn)], qn[max(qn)]
    gamma = math.gcd(lp, lq)
    norm = min(math.isqrt(sum(c * c for c in f.values())) + 1 for f in (pn, qn))
    degs = sum(min(max(e[i] for e in pn), max(e[i] for e in qn)) for i in range(len(pp.ring)))
    ceiling = 2 * gamma * norm << degs
    lead, acc, lifted, modulus = None, {}, {}, 1
    for prime in _primes_31bit():
        if lp % prime == 0 or lq % prime == 0:
            continue
        image = _modp_gcd_dict(
            {e: r for e, c in pn.items() if (r := c % prime)},
            {e: r for e, c in qn.items() if (r := c % prime)},
            prime,
            random.Random(prime).randrange(prime),
        )
        top = max(image)
        if not any(top):
            return SparsePoly.const(pp.ring, 1), pp, qp
        if lead is None or top < lead:
            lead, acc, lifted, modulus = top, {}, {}, 1
        elif top > lead:
            continue  # unlucky prime
        inv = pow(modulus, -1, prime)
        new = {}
        for e in acc.keys() | image.keys():
            old = acc.get(e, 0)
            t = old + (image.get(e, 0) * gamma - old) * inv % prime * modulus
            if t:
                new[e] = t
        acc, modulus = new, modulus * prime
        previous = lifted
        lifted = {e: c if c <= modulus // 2 else c - modulus for e, c in acc.items()}
        if lifted == previous:
            cand = SparsePoly(pp.ring, {e: Fraction(c) for e, c in lifted.items()})
            cand = cand.primitive_part()
            try:
                return cand, exact_div(pp, cand), exact_div(qp, cand)
            except ValueError:
                pass  # not a common divisor yet: more primes
        if modulus > ceiling * prime:
            raise SigcurveError("modular gcd: the images do not lift to a common divisor")


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
    """Resultant of p and q with respect to one variable, in the Sylvester
    convention Res(p, q) = det S(p, q).

    Subresultant PRS (Collins 1967; Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 3.3.7).  Res(a, b) = (-1)^(deg a * deg b)
    Res(b, a), so the sign flips at every step where both degrees are odd,
    the initial swap to deg p >= deg q included.
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
    odd = False
    if dp < dq:
        p, q, dp, dq = q, p, dq, dp
        odd = bool(dp % 2 and dq % 2)
    if dq <= 0:
        # Res(p, c) = c^deg(p)
        return q**int(dp)
    return _subresultant_prs_resultant(p, q, i, name, odd)


def _subresultant_prs_resultant(p, q, i: int, name: str, odd: bool) -> SparsePoly:
    """Res(p, q) for deg p >= deg q >= 1, negated when ``odd``."""
    ring = p.ring
    a, b = p, q
    da, db = int(a.degree_in(name)), int(b.degree_in(name))
    g = SparsePoly.const(ring, 1)
    h = SparsePoly.const(ring, 1)
    while True:
        delta = da - db
        odd ^= bool(da % 2 and db % 2)
        r = pseudo_remainder(a, b, name)
        if r.is_zero():
            return r
        rnext = exact_div(r, g * h**delta)
        a, da = b, db
        g = _lc_in(a, i)
        if delta > 0:
            h = exact_div(g**delta, h ** (delta - 1))
        b = rnext
        db = int(b.degree_in(name)) if any(e[i] for e in b.terms) else 0
        if db == 0:
            # Res = b^da / h^(da-1), exact in the subresultant PRS
            res = exact_div(b**da, h ** (da - 1))
            return -res if odd else res


# ---------------------------------------------------------------------------
# exact linear algebra


def mat_inverse(m: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; ZeroDivisionError when it is
    singular.

    Row i times the lcm d_i of its denominators makes an integer row, so
    m = D^-1 N and m^-1 = N^-1 D.  N is inverted by fraction-free
    Gauss-Jordan elimination on [N | I] (Bareiss, Math. Comp. 1968): after
    the step on column k every entry is a minor of order k + 1, so the
    division by the previous pivot is exact, and at the end each row reads
    det(N) on the diagonal and det(N) times that row of N^-1 on the right."""
    n = len(m)
    aug, dens = [], []
    for i, row in enumerate(m):
        d = math.lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (d // x.denominator) for x in row] + [int(i == j) for j in range(n)])
        dens.append(d)
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        row = aug[col]
        pv = row[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(pv * a - f * b) // prev for a, b in zip(aug[r], row)]
        prev = pv
    return [[Fraction(a * d, row[i]) for a, d in zip(row[n:], dens)] for i, row in enumerate(aug)]
