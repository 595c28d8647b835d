"""Dense polynomials over F_p: the modular images behind exact answers.

A univariate polynomial is the list of its residues in ascending order; one
in two variables is a list, by powers of the main variable, of such lists in
the other (``_modp_ylists``); ``_modp_gcd_dict`` takes exponent -> residue
dicts.  The primes are 31-bit (``_primes_31bit``).

Two uses.  ``poly.gcd`` lifts the gcd images of ``_modp_gcd_dict`` (Brown,
JACM 1971) by Chinese remaindering.  And an image answers "no" where only
"yes" needs the exact computation: ``pseudo_remainder_image`` proves a
pseudo-remainder nonzero, and ``resultant_coprime_image`` proves the gcd of
a polynomial, or of a resultant whose exact degree is known, and a
resultant constant from their images (Collins, JACM 1971), each taken by
Euclid at points.  Their callers run the exact routes of ``poly`` only when
an image cannot decide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .poly import SparsePoly


# ---------------------------------------------------------------------------
# primes, dense arithmetic and the images of a gcd


def _modp_gcd_dict(a: dict, b: dict, prime: int, start: int) -> dict:
    """Monic (lex) gcd over F_p of two nonzero polynomials given as
    exponent -> residue dicts, by recursion on the last variable.

    Both operands are split into their content in the last variable and a
    primitive part.  The primitive parts are evaluated at start, start + 1,
    ... (skipping points where a leading coefficient in the other variables
    vanishes), the gcd of each evaluation is scaled by gamma, the gcd of those
    leading coefficients, and the scaled images are interpolated by Newton's
    formula.
    An image of larger degree vector comes from an unlucky point and is
    discarded; a smaller one restarts the interpolation, and a constant one
    leaves the gcd of the contents as the answer.  After one point more than
    the degree bound, the interpolant's primitive part times the gcd of the
    contents is the answer."""
    ac, bc = _split_last(a), _split_last(b)
    if len(next(iter(a))) == 1:
        return _join_last({(): _modp_gcd(ac[()], bc[()], prime)})
    cont_a, cont_b = _modp_content(ac.values(), prime), _modp_content(bc.values(), prime)
    cont = _modp_gcd(cont_a, cont_b, prime)
    ac = {h: _modp_quo(c, cont_a, prime) for h, c in ac.items()}
    bc = {h: _modp_quo(c, cont_b, prime) for h, c in bc.items()}
    la, lb = ac[max(ac)], bc[max(bc)]
    gamma = _modp_gcd(la, lb, prime)
    bound = min(max(map(len, ac.values())), max(map(len, bc.values()))) + len(gamma) - 2
    lead = None
    for point in range(start, start + prime):
        if not _horner(la, point, prime) or not _horner(lb, point, prime):
            continue
        ac_pt, bc_pt = _eval_last(ac, point, prime), _eval_last(bc, point, prime)
        image = _modp_gcd_dict(ac_pt, bc_pt, prime, start)
        top = max(image)
        if not any(top):
            return _join_last({top: cont})
        if lead is None or top < lead:
            lead, interp, basis = top, {}, [1]
        elif top > lead:
            continue  # unlucky point
        g_pt = _horner(gamma, point, prime)
        inv = pow(_horner(basis, point, prime), -1, prime)
        for h in interp.keys() | image.keys():
            _newton_step(interp.setdefault(h, []), image.get(h, 0) * g_pt, basis, inv, point, prime)
        basis = _modp_mul(basis, [-point % prime, 1], prime)
        if len(basis) - 1 > bound:
            break
    hc = _modp_content(interp.values(), prime)
    g = _join_last({h: _modp_mul(_modp_quo(c, hc, prime), cont, prime) for h, c in interp.items()})
    inv = pow(g[max(g)], -1, prime)
    return {e: c * inv % prime for e, c in g.items()}


def _modp_gcd(a: list[int], b: list[int], prime: int) -> list[int]:
    """Monic gcd of dense coefficient lists over F_p (ascending order);
    [] when both are zero, as gcd(0, 0) = 0."""
    a, b = _trim([c % prime for c in a]), _trim([c % prime for c in b])
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], -1, prime)
        while a and len(a) >= len(b):
            f = a[-1] * inv % prime
            sh = len(a) - len(b)
            for k, c in enumerate(b):
                a[k + sh] = (a[k + sh] - f * c) % prime
            _trim(a)
        a, b = b, a
    if not a:
        return a
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def _trim(v: list[int]) -> list[int]:
    """v without its trailing zeros, in place."""
    while v and not v[-1]:
        v.pop()
    return v


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


def _split_last(a: dict) -> dict:
    """exponent -> residue as head exponent -> ascending list in the last variable."""
    out: dict[Exponent, list[int]] = {}
    for e, c in a.items():
        v = out.setdefault(e[:-1], [])
        v.extend([0] * (e[-1] + 1 - len(v)))
        v[e[-1]] = c
    return out


def _join_last(heads: dict) -> dict:
    return {h + (k,): c for h, v in heads.items() for k, c in enumerate(v) if c}


def _eval_last(heads: dict, point: int, prime: int) -> dict:
    return {h: c for h, v in heads.items() if (c := _horner(v, point, prime))}


def _horner(v: Sequence[int], x: int, prime: int) -> int:
    acc = 0
    for c in reversed(v):
        acc = (acc * x + c) % prime
    return acc


def _newton_step(
    cur: list[int], value: int, basis: list[int], inv: int, point: int, prime: int
) -> None:
    """One step of Newton interpolation over F_p, in place: add a multiple of
    ``basis`` (the product of x - q over the earlier points q) so that cur
    takes ``value`` at ``point``; inv is 1 / basis(point)."""
    diff = (value - _horner(cur, point, prime)) * inv % prime
    cur.extend([0] * (len(basis) - len(cur)))
    for j, c in enumerate(basis):
        cur[j] = (cur[j] + diff * c) % prime


def _modp_content(polys: Iterable[list[int]], prime: int) -> list[int]:
    g: list[int] = []
    for v in polys:
        g = _modp_gcd(v, g, prime)
        if len(g) == 1:
            break
    return g


def _modp_mul(a: list[int], b: list[int], prime: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % prime for c in out]


def _modp_quo(a: list[int], b: list[int], prime: int) -> list[int]:
    """Quotient of an exact division of dense lists over F_p."""
    a = list(a)
    inv = pow(b[-1], -1, prime)
    out = [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(out))):
        f = out[k] = a[k + len(b) - 1] * inv % prime
        for j, c in enumerate(b):
            a[k + j] = (a[k + j] - f * c) % prime
    return out


# ---------------------------------------------------------------------------
# images modulo a prime that answer "nonzero" and "coprime" without the exact
# remainder or resultant

IMAGE_PRIME = 2**31 - 1  # the first prime _primes_31bit yields


def _modp_ylists(p: SparsePoly, name: str, prime: int) -> Optional[list[list[int]]]:
    """p, in a ring of two variables, mod prime: by powers of ``name`` up to
    its degree over Q, the dense ascending list in the other variable
    (trailing zeros trimmed); None when prime divides a denominator."""
    from .poly import _int_form  # poly imports this module

    if len(p.ring) != 2:
        raise ValueError(f"a ring of two variables is required, not {p.ring}")
    i = p.ring.index(name)
    nums, den = _int_form(p)
    if den % prime == 0:
        return None
    inv = pow(den, -1, prime)
    out: list[list[int]] = [[] for _ in range(int(p.degree_in(name)) + 1)] if nums else []
    for e, c in nums.items():
        v, k = out[e[i]], e[1 - i]
        v.extend([0] * (k + 1 - len(v)))
        v[k] = c * inv % prime
    for v in out:
        _trim(v)
    return out


def _modp_axpy(a: list[int], x: list[int], b: list[int], y: list[int], prime: int) -> list[int]:
    """a*x - b*y over F_p, trimmed."""
    out = [0] * (max(len(a) + len(x), len(b) + len(y)) - 1)
    for s, u, v in ((1, a, x), (-1, b, y)):
        for i, c in enumerate(u):
            if c:
                c *= s
                for j, d in enumerate(v):
                    out[i + j] += c * d
    return _trim([c % prime for c in out])


def _modp_prem(t: list[list[int]], f: list[list[int]], prime: int) -> list[list[int]]:
    """Formal pseudo-remainder of y-lists over F_p[x]: lc(f)^(deg t - deg f + 1) t
    mod f, the degrees being the list lengths minus one; t itself when
    deg t < deg f.  Step j takes r to lc(f)*r - r_j*y^(j - deg f)*f, so the
    result is a polynomial in the coefficients (the image of the remainder
    over Q).  A position is multiplied by the lc(f) powers it owes when it
    enters the window of the step, not at every step."""
    dq, top = len(f) - 1, len(t) - 1
    r = [list(c) for c in t]
    if top < dq:
        return r
    lc, owed = f[-1], [1]
    for j in range(top, dq - 1, -1):
        c = r.pop()
        low = j - dq
        r[low] = _modp_axpy(owed, r[low], [], [], prime)
        for k in range(low, j):
            r[k] = _modp_axpy(lc, r[k], c, f[k - low], prime)
        owed = _modp_axpy(owed, lc, [], [], prime)
    return r


def _modp_resultant(f: list[list[int]], g: list[list[int]], prime: int) -> Optional[list[int]]:
    """Res_y over F_p[x] of two y-lists with formal degrees m = len(f) - 1 and
    n = len(g) - 1 (m + n >= 1): the Sylvester determinant, by its values at
    x = 0, 1, ..., N (by Euclid) and Newton interpolation.  With a and b the
    total degrees (deg_x of the y^j coefficient is at most a - j), every term
    of the determinant has degree at most N = n*a + m*b - m*n.  None when the
    prime is not above N.  (Collins, *The calculation of multivariate
    polynomial resultants*, JACM 1971, takes the same images.)"""
    m, n = len(f) - 1, len(g) - 1
    a, b = (max((len(c) - 1 + j for j, c in enumerate(h) if c), default=0) for h in (f, g))
    bound = n * a + m * b - m * n
    if bound >= prime:
        return None
    interp: list[int] = []
    basis = [1]
    for point in range(bound + 1):
        fv, gv = ([_horner(c, point, prime) for c in h] for h in (f, g))
        inv = pow(_horner(basis, point, prime), -1, prime)
        _newton_step(interp, _modp_univariate_resultant(fv, gv, prime), basis, inv, point, prime)
        basis = [(lo - point * hi) % prime for lo, hi in zip([0, *basis], [*basis, 0])]
    return _trim(interp)


def _modp_univariate_resultant(f: list[int], g: list[int], prime: int) -> int:
    """The Sylvester determinant over F_p of ascending lists (consumed) of
    formal degrees m = len(f) - 1, n = len(g) - 1, by Euclid in O(mn): a zero
    f_m (g_n) drops m (n) at a factor (-1)^n g_n (f_m), and for m >= n
    Res(f, g) = (-1)^(mn) g_n^(m-n+1) Res(g, f mod g); m < n swaps sign-free."""
    acc = 1
    while len(f) > 1 and len(g) > 1:
        m, n = len(f) - 1, len(g) - 1
        if not (f[-1] and g[-1]):  # drop a zero formal leading coefficient
            acc = acc * (f[-1] or (-1) ** n * g[-1]) % prime
            (g if f[-1] else f).pop()
            continue
        if m < n:
            f, g, m, n = g, f, n, m
        elif m * n % 2:
            acc = -acc
        acc = acc * pow(g[-1], m - n + 1, prime) % prime
        inv = pow(g[-1], -1, prime)
        for k in range(m - n, -1, -1):
            if c := f[k + n] * inv % prime:
                for j in range(n):
                    f[k + j] = (f[k + j] - c * g[j]) % prime
        f, g = g, f[:n]
    return acc * pow(f[0], len(g) - 1, prime) * pow(g[0], len(f) - 1, prime) % prime  # m or n is 0


def pseudo_remainder_image(
    p: SparsePoly, q: SparsePoly, name: str, prime: int = IMAGE_PRIME
) -> Optional[list[list[int]]]:
    """The image mod prime of ``pseudo_remainder(p, q, name)`` in a ring of
    two variables, as ``_modp_ylists`` lays it out; None when prime divides a
    denominator of p or q or the leading coefficient of q in ``name``, or q
    is constant in ``name``.

    Pseudo-division is ring arithmetic on the coefficients, so
    lc(q)^k p = Q q + R (k = deg p - deg q + 1) reduces mod prime.  The
    reduced q keeps its degree, so the reduced R is the one remainder of
    that identity over F_p[x]: a nonzero image proves R != 0."""
    qp, pp = _modp_ylists(q, name, prime), _modp_ylists(p, name, prime)
    if qp is None or pp is None or len(qp) < 2 or not qp[-1]:
        return None
    return _modp_prem(pp, qp, prime)


def resultant_coprime_image(
    a: SparsePoly, p: SparsePoly, q: SparsePoly, name: str, prime: int = IMAGE_PRIME,
    degree: Optional[int] = None,
) -> bool:
    """True when images mod prime prove that gcd(A, Res_name(p, q)) is
    constant, for A a nonzero polynomial a free of ``name`` in a ring of two
    variables, or, given its ``degree``, A = Res_name(p, a); False when they
    cannot decide.

    B_p is the image of Res(p, prem(q, p)) with the remainder's formal degree
    deg p - 1, which is lc(p)^e Res(p, q) for some e >= 0 (q itself when
    deg q < deg p).  Let G be a primitive common divisor of A and B over Z.
    When prime divides no denominator of p or q, nor lc(p) in ``name``, nor
    lc of the primitive part of A, then G divides both images, and prime
    does not divide lc(G) (a factor of lc(A)), so deg G = deg(G mod prime),
    which divides gcd(A_p, B_p): a gcd 1 of nonzero images leaves G
    constant.  The image of a resultant A needs its exact degree, which it
    keeps only when prime does not divide lc(A) (lc(p) a constant mod prime,
    so that lc(p)^e changes no degree)."""
    pp = _modp_ylists(p, name, prime)

    def image(c: SparsePoly) -> Optional[list[int]]:  # of Res(p, prem(c, p))
        rp = pseudo_remainder_image(c, p, name, prime)
        return _modp_resultant(pp, rp, prime) if rp is not None and any(rp) else None

    if degree is None:
        a = a.primitive_part()
        ap, degree = (_modp_ylists(a, name, prime) or [None])[0], a.total_degree()
    else:
        ap = image(a) if pp and len(pp[-1]) == 1 else None
    if not ap or len(ap) - 1 != degree:
        return False
    bp = image(q)
    return bool(bp) and len(_modp_gcd(ap, bp, prime)) == 1
