"""Independent mathematics the benchmark checks sigcurve's answers against.

Nothing here imports sigcurve.  Jets come from order-by-order implicit
differentiation at a point of the curve, the differential invariants from
the classical Euclidean and affine formulas, and degrees and symmetry
orders from the paper's closed forms.  Every routine works on exact
``Fraction`` values and, where a point is not rational, on ``mpmath``
complex numbers at high precision.

Polynomials are dicts from exponent tuples to coefficients; bivariate
curve polynomials use exponents ``(i, j)`` for ``x^i y^j``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

GROUPS = ("SE2", "SA2", "A2", "PGL3")

# Paper's generic signature degrees (n = 1) and projective-extension degrees.
GENERIC_DEGREE = {
    "SE2": lambda d: 6 * d * d - 6 * d,
    "SA2": lambda d: 24 * d * d - 48 * d,
    "A2": lambda d: 24 * d * d - 48 * d,
    "PGL3": lambda d: 96 * d * d - 216 * d,
}
SIGMA_DEGREE = {
    "SE2": lambda d: 6 * d - 6,
    "SA2": lambda d: 24 * d - 32,
    "A2": lambda d: 24 * d - 36,
    "PGL3": lambda d: 96 * d - 144,
}
# Theta_i restricted to the curve is T_i / F_y^(FY_WEIGHT[i]).
FY_WEIGHT = {1: 2, 2: 3, 3: 6, 4: 8, 5: 12, 6: 16}
# Symmetry-group orders of the Fermat curve x^d + y^d + 1.
FERMAT_SYMMETRY = {"A2": lambda d: 2 * d * d, "PGL3": lambda d: 6 * d * d}


# ---------------------------------------------------------------------------
# polynomials


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_pow(p: dict, n: int) -> dict:
    out = {(0,) * len(next(iter(p))): 1}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def compose_affine(F: dict, x_image: tuple, y_image: tuple) -> dict:
    """F(a*x + b*y + c, d*x + e*y + f) for images (a, b, c) and (d, e, f)."""
    X = {e: c for e, c in zip(((1, 0), (0, 1), (0, 0)), x_image) if c}
    Y = {e: c for e, c in zip(((1, 0), (0, 1), (0, 0)), y_image) if c}
    out: dict = {}
    for (i, j), c in F.items():
        term = poly_mul(poly_pow(X, i), poly_pow(Y, j))
        out = poly_add(out, poly_mul({(0, 0): c}, term))
    return out


def primitive(F: dict) -> dict:
    """Integer coefficients with gcd 1 and a positive leading coefficient in
    graded lexicographic order: the normal form of a curve polynomial."""
    den = math.lcm(*(Fraction(c).denominator for c in F.values()))
    ints = {e: int(Fraction(c) * den) for e, c in F.items()}
    g = math.gcd(*ints.values())
    lead = max(ints, key=lambda e: (sum(e), e))
    if ints[lead] < 0:
        g = -g
    return {e: c // g for e, c in ints.items()}


def evaluate(P: dict, values) -> object:
    """P at the point ``values`` (one value per variable)."""
    total = 0
    for e, c in P.items():
        term = c
        for v, k in zip(values, e):
            if k:
                term = term * v**k
        total = total + term
    return total


def partial_y(F: dict) -> dict:
    return {(i, j - 1): j * c for (i, j), c in F.items() if j}


def resultant(p: list, q: list) -> Fraction:
    """Resultant of two univariate polynomials given as coefficient lists
    (constant term first), as the Sylvester determinant."""
    m, n = len(p) - 1, len(q) - 1
    def row(coeffs, before, after):
        return [Fraction(0)] * before + [Fraction(c) for c in reversed(coeffs)] + [Fraction(0)] * after

    rows = [row(p, i, n - 1 - i) for i in range(n)] + [row(q, i, m - 1 - i) for i in range(m)]
    det = Fraction(1)
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, m + n):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def generic_at_infinity(F: dict) -> bool:
    """F meets the line at infinity in d distinct points, none of them a
    circular point [1 : +-i : 0], and [0 : 1 : 0] is not on it.

    With T(x, y) the top-degree form and p(t) = T(1, t): deg p = d, p
    squarefree (nonzero resultant with p'), and T(1, i) != 0.
    """
    d = max(sum(e) for e in F)
    p = [F.get((d - k, k), 0) for k in range(d + 1)]
    if not p[d]:
        return False
    re = sum(c * (1, 0, -1, 0)[k % 4] for k, c in enumerate(p))
    im = sum(c * (0, 1, 0, -1)[k % 4] for k, c in enumerate(p))
    return (re, im) != (0, 0) and resultant(p, [k * p[k] for k in range(1, d + 1)]) != 0


def to_text(F: dict) -> str:
    """A curve polynomial in the CLI's input grammar."""
    parts = []
    for (i, j), c in sorted(F.items(), key=lambda t: (-sum(t[0]), t[0])):
        mono = "*".join(f"{v}^{k}" for v, k in (("x", i), ("y", j)) if k)
        parts.append(f"{c}*{mono}" if mono else f"{c}")
    return " + ".join(parts).replace("+ -", "- ")


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_serialized(text: str, names: tuple[str, ...]) -> dict:
    """Read the canonical text form sigcurve prints (``3*k1^2 - 1/2*k2``)."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _TERM_SPLIT.split(text)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    out: dict = {}
    for s, body in zip(signs, pieces[0::2]):
        coeff = Fraction(s)
        exp = [0] * len(names)
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name in names:
                exp[names.index(name)] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        e = tuple(exp)
        if e in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[e] = coeff
    return out


# ---------------------------------------------------------------------------
# jets and invariants at a point


def jets(F: dict, a, b, n: int) -> list:
    """u_1..u_n = y', ..., y^(n) of the branch of F = 0 through (a, b).

    Writes y(a + h) = b + sum c_k h^k and fixes c_k order by order: with
    c_k = 0, the h^k coefficient of F(a + h, y(h)) is the residual r_k, and
    c_k = -r_k / F_y(a, b).
    """
    fy = evaluate(partial_y(F), (a, b))
    if fy == 0:
        raise ValueError("F_y vanishes at the point")
    c = [b] + [0] * n

    def mul(s, t):
        return [sum(s[i] * t[k - i] for i in range(k + 1)) for k in range(n + 1)]

    xs = [[1] + [0] * n]
    for _ in range(max(i for i, _ in F)):
        xs.append(mul(xs[-1], [a, 1] + [0] * (n - 1)))
    for k in range(1, n + 1):
        ys = [[1] + [0] * n]
        for _ in range(max(j for _, j in F)):
            ys.append(mul(ys[-1], c))
        residual = 0
        for (i, j), coeff in F.items():
            residual = residual + coeff * mul(xs[i], ys[j])[k]
        c[k] = -residual / fy
    return [c[k] * math.factorial(k) for k in range(1, n + 1)]


def thetas(u: list) -> dict:
    """Theta_1..Theta_6 of the jets u = [u1, u2, ...]: Euclidean arc-length
    and curvature terms (1..3), affine curvature and its derivatives (4..6)."""
    u1, u2, u3 = u[0], u[1], u[2]
    out = {1: 1 + u1**2, 2: u2, 3: u3 * (1 + u1**2) - 3 * u1 * u2**2}
    if len(u) >= 5:
        u4, u5 = u[3], u[4]
        out[4] = 3 * u4 * u2 - 5 * u3**2
        out[5] = 9 * u5 * u2**2 - 45 * u4 * u3 * u2 + 40 * u3**3
    if len(u) >= 6:
        u6 = u[5]
        out[6] = (
            9 * u6 * u2**3
            - 63 * u5 * u3 * u2**2
            - 45 * u4**2 * u2**2
            + 255 * u4 * u3**2 * u2
            - 160 * u3**4
        )
    return out


# Jet order each group's invariants need.
JET_ORDER = {"SE2": 3, "SA2": 5, "A2": 6}


def invariants(group: str, u: list) -> tuple:
    """(K1, K2) as (numerator, denominator) pairs.

    SE2: (kappa^2, kappa_s) with kappa = u2 / (1+u1^2)^(3/2) and
    kappa_s = d kappa / ds = (u3 (1+u1^2) - 3 u1 u2^2) / (1+u1^2)^3.
    SA2: (Theta4^3 / Theta2^8, Theta5 / Theta2^4).
    A2: (Theta5^2 / Theta4^3, Theta6 / Theta4^2).
    """
    t = thetas(u)
    if group == "SE2":
        return (t[2] ** 2, t[1] ** 3), (t[3], t[1] ** 3)
    if group == "SA2":
        return (t[4] ** 3, t[2] ** 8), (t[5], t[2] ** 4)
    if group == "A2":
        return (t[5] ** 2, t[4] ** 3), (t[6], t[4] ** 2)
    raise ValueError(f"no point invariants for {group}")


def close(a, b, tol: float) -> bool:
    """a and b agree to the relative tolerance ``tol``."""
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def numeric_points(F: dict, xs, dps: int = 50) -> list:
    """Complex points (x, y) of F = 0 over the given x values, one per root
    in y, at ``dps`` significant digits; points with F_y = 0 are skipped."""
    import mpmath

    mpmath.mp.dps = dps
    dy = max(j for _, j in F)
    fy = partial_y(F)
    out = []
    for x in xs:
        x = mpmath.mpc(mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator)
        coeffs = [
            sum(c * x**i for (i, j), c in F.items() if j == k) for k in range(dy, -1, -1)
        ]
        for y in mpmath.polyroots(coeffs, maxsteps=500, extraprec=2 * dps):
            if abs(evaluate(fy, (x, y))) > mpmath.mpf(10) ** (-dps // 2):
                out.append((x, y))
    return out
