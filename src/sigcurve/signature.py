"""Signature polynomials by one certified route, and numeric samples.

The signature polynomial S of an irreducible curve is the irreducible
polynomial, unique up to scale, that vanishes on the image of the signature
map (K1, K2).  It is normalized to the canonical representative: integer
coefficients of content 1 with positive leading coefficient under grlex
k1 > k2, enabling byte-exact comparisons.

Fibers.  A fiber x = x0 on which q = F(x0, W) is squarefree of full y-degree
is one point of the curve with coordinates in Q[W]/(q).  ``FiberTable``
keeps such fibers, x0 running through the rationals by height, with
(K1, K2) = (T_a^p T_b^-q, T_c^r T_b^-s) read exactly from the group's T_i
(``jets.fiber_invariants``): T_a, T_b and T_c evaluated at x = x0 in
Q[W]/(q), and T_b inverted there (a fiber on which T_b is a zero divisor is
skipped).  It keeps the exact powers of K1; ``signature_polynomial`` reads
one table for every fit and its certificate.  ``signature_samples`` reads
(K1, K2) from the same function.

Constant signatures.  ``FiberTable.constant`` decides first whether K1 is
constant.  q is squarefree, so K1 on a fiber is one rational number exactly
when it takes that value at every point of the fiber: a fiber where K1 is
not rational, or two fibers with different values (needed when deg_y F = 1),
prove "not constant".  These are the table's first two fibers, so a "not
constant" answer never builds the classifying pair.  A common value c is
proved by F | A - c B, K1 = A/B the reduced classifying pair
(``jets._vanishes_on_curve``); the Theta powers of K1 differ from A and B by
a factor that F does not divide on a curve that is not exceptional.

Fit.  S(K1, K2) = 0 on a fiber is deg q linear conditions on the
coefficients of S.  ``exact_signature_fit`` solves them modulo a 31-bit
prime for one degree D.  A kernel that is zero modulo a prime is zero over
Q, so no polynomial of degree D vanishes on the curve; a one-dimensional
kernel is lifted by Chinese remaindering and rational reconstruction.  The
fit only proposes S; the certificate decides.

Certificate.  Write K1 = A/B and K2 = C/E in lowest terms, L = lcm(B, E)
and deg_line = max(deg A + deg L - deg B, deg L, deg C + deg L - deg E)
(``line_degree``).  A line a k1 + b k2 + c of the (k1, k2) plane pulls back
to the curve a A (L/B) + b C (L/E) + c L of degree at most deg_line, so
deg S <= d deg_line.  For S of degree D, N = L^D S(A/B, C/E) = sum c_ij A^i
C^j (L/B)^i (L/E)^j L^(D-i-j) is a polynomial of degree at most deg_N =
D deg_line, and it vanishes at every point of a table fiber on which
S(K1, K2) = 0 (each factor of L divides B or E, which divide powers of T_b
and so are units where T_b is inverted).  ``certify_signature`` checks
S(K1, K2) = 0 exactly on more than d deg_N / deg_y F fibers: then F
meets N in more than d deg_N points, so F divides N by Bezout and S vanishes
on the signature curve.  It also checks that no nonzero polynomial of degree
D - 1 meets the table's conditions modulo a prime, so S is the signature
polynomial.  Bezout needs F irreducible, which is the caller's assertion
(``CurveInput``); the certificate records it as "irreducible-asserted".
``FiberTable.deg_line`` needs no pair when T_b is prime to T_a and to T_c
(every generic curve; ``poly.gcd`` answers from one modular image): then
A = T_a^p, B = T_b^q, C = T_c^r and E = T_b^s up to constants, and
L = T_b^max(q, s), so the T_i's degrees give the same bound.  Where T_b
shares a factor with T_a or T_c (the Fermat curves, the worked cubic under
SA2) the table builds and reduces the pair, whose bound is smaller.

Samples.  ``signature_samples`` evaluates the exact fiber values at the
float roots of q; they are the only floats.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import SigcurveError
from .jets import (
    CLASSIFYING_RECIPES,
    ClassifyingPair,
    CurveInput,
    GroupId,
    _vanishes_on_curve,
    classifying_pair,
    fiber_invariants,
    require_non_exceptional,
    theta,
)
from .modp import _primes_31bit
from .poly import SparsePoly, gcd
from .series import SeriesRing, TruncatedSeries, intpoly_from_poly, intpoly_squarefree

SIG_RING = ("k1", "k2")

# Fibers a one-dimensional kernel must survive before it is lifted.
STABLE_BATCH = 2
# Consecutive unusable abscissas after which a curve is refused.
MAX_SKIPPED = 1000


@dataclass(frozen=True)
class SignatureCertificate:
    """A Bezout-count proof that S is the signature polynomial (see the
    module docstring)."""

    deg_N: int  # bound on the degree of L^D S(A/B, C/E), L = lcm(B, E)
    fibers: int  # fibers on which S(K1, K2) = 0 was checked exactly
    kind: str = "bezout-count"
    curve: str = "irreducible-asserted"  # Bezout's premise, not proven


@dataclass(frozen=True)
class SignaturePolynomial:
    """Canonical defining polynomial of the signature curve."""

    S: SparsePoly  # over SIG_RING, content 1, positive grlex leading coeff
    group: GroupId
    source: CurveInput
    certificate: Optional[SignatureCertificate] = None

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
    """The constant value of K1 on the curve, or None when it is not
    constant: ``FiberTable.constant`` of a fresh table."""
    return FiberTable(curve, group).constant()


def signature_polynomial(
    curve: CurveInput, group: GroupId
) -> Union[SignaturePolynomial, PointSignature]:
    """The certified signature polynomial, or a PointSignature for a
    constant signature map.

    For D = 1, 2, ... up to d deg_line, ``exact_signature_fit``
    either proves that no polynomial of degree D vanishes on the curve or
    proposes one, which ``certify_signature`` proves or rejects; a rejected
    proposal is fitted again on more fibers."""
    table = FiberTable(curve, group)
    const = table.constant()
    if const is not None:
        return PointSignature(const, group, curve)
    fibers = 1
    for degree in range(1, curve.d * table.deg_line + 1):
        while True:
            S, fibers = exact_signature_fit(table, degree, fibers)
            if S is None:
                break
            cert = certify_signature(table, S)
            if cert is not None:
                return SignaturePolynomial(S, group, curve, cert)
            if fibers >= table.bezout_fibers(degree):
                raise SigcurveError(
                    f"the degree-{degree} fit on {fibers} fibers fails its certificate"
                )
            fibers += STABLE_BATCH
    raise SigcurveError("no signature polynomial up to the degree bound d deg_line")


def certify_signature(table: FiberTable, S: SparsePoly) -> Optional[SignatureCertificate]:
    """A proof that S is the signature polynomial of the table's curve, or
    None when S(K1, K2) is nonzero on some table fiber (S does not vanish on
    the signature curve) or a nonzero polynomial of lower degree meets the
    table's conditions (S is not the smallest)."""
    degree = int(S.total_degree())
    if degree < 1:
        return None
    fibers = table.bezout_fibers(degree)
    if not all(table.fiber(i).vanishes(S) for i in range(fibers)):
        return None
    if degree > 1:
        kernel = _ModKernel(table, degree - 1, _primes_31bit())
        kernel.extend(range(fibers))
        if kernel.nullity:
            return None
    return SignatureCertificate(degree * table.deg_line, fibers)


# ---------------------------------------------------------------------------
# the fiber table


def _abscissas() -> Iterator[Fraction]:
    """0, then the nonzero rationals a/b by height max(|a|, b), both signs."""
    yield Fraction(0)
    for h in itertools.count(1):
        for a, b in [(h, b) for b in range(1, h + 1)] + [(a, h) for a in range(1, h)]:
            if math.gcd(a, b) == 1:
                yield Fraction(a, b)
                yield Fraction(-a, b)


class _Fiber:
    """(K1, K2) on one fiber as elements of Q[W]/(q), with the exact powers
    of K1 computed so far."""

    __slots__ = ("ring", "k1", "k2", "powers")

    def __init__(self, ring: SeriesRing, k1: TruncatedSeries, k2: TruncatedSeries):
        self.ring, self.k1, self.k2 = ring, k1, k2
        self.powers = [TruncatedSeries.constant(ring, Fraction(1)), k1]

    def k1_value(self) -> Optional[Fraction]:
        """K1 on the fiber when it is one rational number, else None."""
        value = self.k1.coeff_fractions(0)
        return None if any(value[1:]) else value[0]

    def vanishes(self, S: SparsePoly) -> bool:
        """Whether S(K1, K2) = 0 in Q[W]/(q), by Horner's rule in K2 over
        the stored powers of K1."""
        while len(self.powers) <= S.total_degree():
            self.powers.append(self.powers[-1] * self.k1)
        by_k2: dict[int, list] = {}
        for (i, j), c in S.terms.items():
            by_k2.setdefault(j, []).append((i, c))
        acc = TruncatedSeries.zero(self.ring)
        for j in range(max(by_k2), -1, -1):
            acc = acc * self.k2
            for i, c in by_k2.get(j, ()):
                acc = acc + self.powers[i].scale(c)
        return acc.is_known_zero()

    def rows(self, monos: Sequence[tuple[int, int]], prime: int) -> Optional[list[list[int]]]:
        """The conditions S(K1, K2) = 0 modulo the prime, one row per
        coordinate of Q[W]/(q) and one column per monomial of S; None when
        the prime divides a denominator."""
        q, k1, k2 = self.ring.q, self.k1, self.k2
        if any(den % prime == 0 for den in (q[-1], k1.den, k2.den)):
            return None
        monic, a, b = (
            [c * pow(den, -1, prime) % prime for c in vec]
            for vec, den in ((q, q[-1]), (k1.coeff_vec(0), k1.den), (k2.coeff_vec(0), k2.den))
        )
        top = max(max(i, j) for i, j in monos)
        pa, pb = [[1] + [0] * (len(a) - 1)], [[1] + [0] * (len(b) - 1)]
        for _ in range(top):
            pa.append(_mulmod(pa[-1], a, monic, prime))
            pb.append(_mulmod(pb[-1], b, monic, prime))
        cols = [_mulmod(pa[i], pb[j], monic, prime) for i, j in monos]
        return [list(row) for row in zip(*cols)]


def _mulmod(a: list[int], b: list[int], monic: list[int], prime: int) -> list[int]:
    """a * b in F_p[W]/(monic)."""
    n = len(monic) - 1
    acc = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = acc[k] % prime
        if c:
            for t in range(n):
                acc[k - n + t] -= c * monic[t]
    return [c % prime for c in acc[:n]]


def _usable_fibers(curve: CurveInput, group: GroupId) -> Iterator[_Fiber]:
    """The fibers x = x0, in abscissa order, on which q = F(x0, W) is
    squarefree of full y-degree and ``fiber_invariants`` gives (K1, K2)
    without a ZeroDivisionError (T_b is a unit); SigcurveError after
    ``MAX_SKIPPED`` unusable abscissas in a row."""
    dy = int(curve.F.degree_in("y"))
    skipped = 0
    for x0 in _abscissas():
        q = intpoly_from_poly(curve.F.evaluate_partial({"x": x0}), "y")
        if len(q) - 1 == dy and intpoly_squarefree(q):
            ring = SeriesRing(q)
            try:
                fiber = _Fiber(ring, *fiber_invariants(curve, group, x0, ring))
            except ZeroDivisionError:
                pass  # the denominator Theta vanishes somewhere on the fiber
            else:
                skipped = 0
                yield fiber
                continue
        skipped += 1
        if skipped > MAX_SKIPPED:
            raise SigcurveError(
                f"no usable fiber among {MAX_SKIPPED} abscissas in a row (F not squarefree?)"
            )


def line_degree(a: int, b: int, c: int, e: int, lcm: int) -> int:
    """deg_line (module docstring) from deg A, deg B, deg C, deg E and
    deg L, L = lcm(B, E)."""
    return max(a + lcm - b, lcm, c + lcm - e)


class FiberTable:
    """The usable fibers of a curve under a group, in abscissa order, grown
    on demand: (K1, K2) on each from the group's T_i (``fiber_invariants``),
    skipping a fiber on which T_b is a zero divisor.  ``constant`` reads the
    table's first two fibers.  ``deg_line`` (module docstring) reads the
    degrees of the T_i when T_b is prime to T_a and to T_c, and the reduced
    classifying pair otherwise; the pair is also built for the proof of a
    constant c.  Not safe to share between threads."""

    def __init__(self, curve: CurveInput, group: GroupId):
        require_non_exceptional(curve, group)
        self.curve, self.group = curve, group
        self.dy = int(curve.F.degree_in("y"))
        self.fibers: list[_Fiber] = []
        self._usable = _usable_fibers(curve, group)

    @cached_property
    def pair(self) -> ClassifyingPair:
        return classifying_pair(self.curve, self.group)

    @cached_property
    def deg_line(self) -> int:
        ((na, p), (nb, q)), ((nc, r), (_, s)) = CLASSIFYING_RECIPES[self.group]
        ta, tb, tc = (theta(self.curve, i).T for i in (na, nb, nc))
        for name, t in (("K1", ta), ("K2", tc)):
            if t.is_zero():
                raise SigcurveError(
                    f"{name} is 0 on the curve: the signature is a point, not a curve"
                )
        if gcd(ta, tb).is_constant() and gcd(tc, tb).is_constant():
            # A = T_a^p, B = T_b^q, C = T_c^r, E = T_b^s up to constants
            a, b, c = (int(t.total_degree()) for t in (ta, tb, tc))
            return line_degree(p * a, q * b, r * c, s * b, max(q, s) * b)
        K1, K2 = self.pair.K1, self.pair.K2
        a, b, c, e = (int(t.total_degree()) for t in (K1.num, K1.den, K2.num, K2.den))
        return line_degree(a, b, c, e, b + e - int(gcd(K1.den, K2.den).total_degree()))

    def constant(self) -> Optional[Fraction]:
        """The constant value of K1 on the curve, or None: the first two
        fibers answer "not constant", one exact identity "constant c"."""
        values = {self.fiber(i).k1_value() for i in range(2)}
        if len(values) > 1 or None in values:
            return None
        [c] = values
        K1 = self.pair.K1
        return c if _vanishes_on_curve(K1.num - K1.den.scale(c), self.curve) else None

    def bezout_fibers(self, degree: int) -> int:
        """The fibers whose conditions a polynomial of this degree must meet
        before it provably vanishes on the signature curve."""
        return self.curve.d * degree * self.deg_line // self.dy + 1

    def fiber(self, index: int) -> _Fiber:
        while len(self.fibers) <= index:
            self.fibers.append(next(self._usable))
        return self.fibers[index]


# ---------------------------------------------------------------------------
# the modular kernel fit


class _ModKernel:
    """Reduced row echelon form modulo a prime of the conditions on a
    polynomial of one degree from a growing set of table fibers."""

    def __init__(self, table: FiberTable, degree: int, primes: Iterator[int]):
        self.table = table
        self.monos = [(i, k - i) for k in range(degree + 1) for i in range(k + 1)]
        self.primes = primes
        self.prime = next(primes)
        self.pivots: dict[int, list[int]] = {}
        self.fibers: list[int] = []  # fibers added
        self.used: list[int] = []  # fibers that raised the rank

    @property
    def nullity(self) -> int:
        return len(self.monos) - len(self.pivots)

    def extend(self, fibers: Iterable[int]) -> None:
        """Add the fibers' conditions until the kernel is zero."""
        for i in fibers:
            if not self.nullity:
                return
            rows = self.table.fiber(i).rows(self.monos, self.prime)
            if rows is None:  # the prime divides a denominator: the next one
                redo = self.fibers + [i]
                self.prime, self.pivots, self.fibers, self.used = next(self.primes), {}, [], []
                self.extend(redo)
                continue
            self.fibers.append(i)
            if sum(map(self._add, rows)):
                self.used.append(i)

    def _add(self, row: list[int]) -> bool:
        p = self.prime
        for c, r in self.pivots.items():
            f = row[c]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, r)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            return False
        inv = pow(row[lead], -1, p)
        row = [x * inv % p for x in row]
        for c, r in self.pivots.items():
            f = r[lead]
            if f:
                self.pivots[c] = [(x - f * y) % p for x, y in zip(r, row)]
        self.pivots[lead] = row
        return True

    def kernel_vector(self) -> tuple[int, list[int]]:
        """The free column and the kernel vector that is 1 there (nullity 1)."""
        [free] = [c for c in range(len(self.monos)) if c not in self.pivots]
        vec = [0] * len(self.monos)
        vec[free] = 1
        for c, r in self.pivots.items():
            vec[c] = -r[free] % self.prime
        return free, vec


def exact_signature_fit(
    table: FiberTable, degree: int, fibers: int = 1
) -> tuple[Optional[SparsePoly], int]:
    """The polynomial of the given degree proposed by the table's first
    fibers, and the number of fibers used.

    Fibers are added, from ``fibers`` on, until the kernel modulo a prime is
    zero (None: no polynomial of this degree vanishes on the curve) or one-
    dimensional and unchanged by ``STABLE_BATCH`` more fibers.  The kernel
    vector is then lifted over Q by Chinese remaindering on the fibers that
    raised the rank, until one more prime leaves its rational
    reconstruction unchanged.  SigcurveError when the kernel keeps a higher
    dimension on ``bezout_fibers`` fibers: the curve is then reducible."""
    cap = table.bezout_fibers(degree)
    primes = _primes_31bit()
    kernel = _ModKernel(table, degree, primes)
    n, stable_from = max(fibers, 1), None
    while True:
        kernel.extend(range(len(kernel.fibers), n))
        if kernel.nullity == 0:
            return None, n
        if kernel.nullity == 1:
            stable_from = stable_from or n
            if n >= min(stable_from + STABLE_BATCH, cap):
                break
        elif n >= cap:
            raise SigcurveError(
                f"{kernel.nullity} independent polynomials of degree {degree} vanish "
                f"on {n} fibers: the curve is not irreducible"
            )
        n += 1
    free, acc = kernel.kernel_vector()
    modulus = kernel.prime
    lifted = [_rational_reconstruction(c, modulus) for c in acc]
    while True:
        image = _ModKernel(table, degree, primes)
        image.extend(kernel.used)
        if image.nullity == 0:
            return None, n  # the first prime was unlucky: no kernel over Q
        if image.nullity > 1 or image.kernel_vector()[0] != free:
            continue  # an unlucky prime
        inv = pow(modulus, -1, image.prime)
        acc = [
            a + (v - a) * inv % image.prime * modulus
            for a, v in zip(acc, image.kernel_vector()[1])
        ]
        modulus *= image.prime
        previous, lifted = lifted, [_rational_reconstruction(c, modulus) for c in acc]
        if None not in lifted and lifted == previous:
            break
    S = SparsePoly(SIG_RING, {e: c for e, c in zip(kernel.monos, lifted) if c})
    return canonical_signature_poly(S), n


def _rational_reconstruction(a: int, modulus: int) -> Optional[Fraction]:
    """The fraction r/s with |r|, |s| <= sqrt(modulus / 2) and r = a s
    modulo the modulus, or None."""
    bound = math.isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, a % modulus, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        s0, s1 = s1, s0 - quo * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(s1, modulus) != 1:
        return None
    return Fraction(r1, s1)


# ---------------------------------------------------------------------------
# numeric sampling


@dataclass(frozen=True)
class SignatureSample:
    x: complex
    y: complex
    k1: complex
    k2: complex


def signature_samples(
    curve: CurveInput,
    group: GroupId,
    count: int,
    seed: int = 0,
    real_only: bool = False,
) -> list[SignatureSample]:
    """Deterministic numeric signature samples over sampled rational x values.

    (K1, K2) is computed once per fiber, exactly over Q[W]/(F(x0, W)) by
    ``fiber_invariants``, and evaluated at the fiber's float roots (companion-matrix roots in y); a
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
            continue  # the denominator Theta vanishes somewhere on the fiber
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


