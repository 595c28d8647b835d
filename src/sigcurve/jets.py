"""Implicit jets of plane curves and the differential functions built on them.

For a curve F(x, y) = 0 the derivatives of y along the curve are rational in
the partials of F:

    y^(n)|_X = P_n / (F_y)^(2n-1),   P_1 = -F_x,
    P_{n+1}  = F_y*(dP_n/dx * F_y - (2n-1) P_n F_xy)
             - F_x*(dP_n/dy * F_y - (2n-1) P_n F_yy).

These hold on every level curve F = c, so in Q(x, y).  Eight differential
functions Theta_1..Theta_8 in the jet coordinates u_k restrict to a curve as
T_i / (F_y)^(d_i); the four classifying invariant pairs and the projective
extensions of the signature maps are fixed integer monomial combinations of
the T_i recorded in the recipe tables below.  Theta_5..Theta_8 come from the
lower ones by invariant differentiation (Fels & Olver, Moving coframes II,
1999), with D = sum_k u_(k+1) d/du_k the total derivative:

    Theta_5 = 3 u2 D(Theta_4) - 8 u3 Theta_4,   Theta_6 = u2 D(Theta_5) - 4 u3 Theta_5,
    Theta_7 = 9 u2 Theta_5 D(Theta_6) - 48 u3 Theta_5 Theta_6 - (21/2) Theta_6^2
              - (3/2) Theta_4 Theta_5^2,
    Theta_8 = u2 (3 Theta_5 D(Theta_7) - 8 D(Theta_5) Theta_7).

On the curve D = delta / F_y with delta = F_y d/dx - F_x d/dy, so D(Theta_k)
restricts to D_k(T_k) / F_y^(d_k + 2) with D_k(T) = F_y delta(T) - d_k
delta(F_y) T, and u2, u3 to P_2 / F_y^3, P_3 / F_y^5.  Every product above
lies over F_y^(d + 1), d = d_(k+1) (Theta_6^2 and Theta_4 Theta_5^2 over
F_y^d), so T_(k+1) is their numerator over one F_y; the division is exact
because T_(k+1) = Theta_(k+1) F_y^d is a polynomial.

One function, ``_chain``, serves three routes: the jet-space table
``theta_table``, the T_i on the curve (``theta``), and the Theta_i along the
branches at infinity (``degree._jet_series``, with D = d/dx along the
branch and the jets u2, u3 of the branch).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import ExceptionalCurveError, InvalidCurveError, VerticalLineError
from .modp import pseudo_remainder_image
from .poly import (
    RatFunc, SparsePoly, _int_form, exact_div, gcd, horner_evaluate, mat_inverse,
    pseudo_remainder,
)
from .series import INF, SeriesRing, TruncatedSeries

CURVE_RING = ("x", "y")
JET_RING = ("u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8")
HOMOG_RING = ("x0", "x1", "x2")


class GroupId(str, Enum):
    SE2 = "SE2"
    SA2 = "SA2"
    A2 = "A2"
    PGL3 = "PGL3"


# (tau_i, d_i) as affine functions of the curve degree: tau_i = a*d + b
TAU_COEFFS = {
    1: (2, -2),
    2: (3, -4),
    3: (6, -8),
    4: (8, -12),
    5: (12, -18),
    6: (16, -24),
    7: (32, -48),
    8: (48, -72),
}
FY_EXPONENT = {1: 2, 2: 3, 3: 6, 4: 8, 5: 12, 6: 16, 7: 32, 8: 48}

# K1 = Theta_a^p / Theta_b^q, K2 = Theta_c^r / Theta_b^s per group, as
# ((num_index, num_power), (den_index, den_power)) pairs; both denominators are
# powers of the one Theta_b, which ``fiber_invariants`` inverts once.
CLASSIFYING_RECIPES = {
    GroupId.SE2: (((2, 2), (1, 3)), ((3, 1), (1, 3))),
    GroupId.SA2: (((4, 3), (2, 8)), ((5, 1), (2, 4))),
    GroupId.A2: (((5, 2), (4, 3)), ((6, 1), (4, 2))),
    GroupId.PGL3: (((7, 3), (5, 8)), ((8, 1), (5, 4))),
}

# projective extension components: (x0_power, ((T_index, power), ...))
SIGMA_RECIPES = {
    GroupId.SE2: ((0, ((1, 3),)), (2, ((2, 2),)), (2, ((3, 1),))),
    GroupId.SA2: ((0, ((2, 8),)), (4, ((4, 3),)), (2, ((2, 4), (5, 1)))),
    GroupId.A2: ((0, ((4, 3),)), (0, ((5, 2),)), (0, ((4, 1), (6, 1)))),
    GroupId.PGL3: ((0, ((5, 8),)), (0, ((7, 3),)), (0, ((8, 1), (5, 4)))),
}

# deg sigma = a*d + b
SIGMA_DEGREE = {
    GroupId.SE2: (6, -6),
    GroupId.SA2: (24, -32),
    GroupId.A2: (24, -36),
    GroupId.PGL3: (96, -144),
}

# T indices needed per group (denominator T listed first)
GROUP_THETAS = {
    GroupId.SE2: (1, 2, 3),
    GroupId.SA2: (2, 4, 5),
    GroupId.A2: (4, 5, 6),
    GroupId.PGL3: (5, 7, 8),
}
DENOMINATOR_THETA = {
    GroupId.SE2: 1,
    GroupId.SA2: 2,
    GroupId.A2: 4,
    GroupId.PGL3: 5,
}


# the coefficients (a, b), for Theta_7 (a, b, c, e), of the module docstring's chain
THETA_CHAIN = {5: (3, -8), 6: (1, -4), 7: (9, -48, Fraction(-21, 2), Fraction(-3, 2)), 8: (3, -8)}


def _chain(index, th, deriv, u2, u3, over_fy):
    """Theta_index from ``th(k)`` = Theta_k and ``deriv(k)`` = D(Theta_k),
    k < index, with ``over_fy`` the identity (polynomials in jet space or
    series along a branch); or T_index from T_k, D_k(T_k), P_2 and P_3, with
    ``over_fy`` the exact division by F_y."""
    a, b, *ce = THETA_CHAIN[index]
    if index in (5, 6):
        return over_fy(a * u2 * deriv(index - 1) + b * u3 * th(index - 1))
    if index == 7:
        c, e = ce
        return (over_fy(th(5) * (a * u2 * deriv(6) + b * u3 * th(6)))
                + (th(6) ** 2).scale(c) + (th(4) * th(5) ** 2).scale(e))
    return over_fy(u2 * (a * th(5) * deriv(7) + b * deriv(5) * th(7)))


@functools.lru_cache(maxsize=1)
def theta_table() -> dict[int, SparsePoly]:
    """The eight differential functions as polynomials in u1..u8: Theta_1..
    Theta_4 as written, Theta_5..Theta_8 by ``_chain`` with the total
    derivative D = sum_k u_(k+1) d/du_k."""
    R = JET_RING
    u = [SparsePoly.var(R, v) for v in R]
    u1, u2, u3, u4 = u[:4]
    th = {1: u1**2 + 1, 2: u2}
    th[3] = u3 * th[1] - 3 * u1 * th[2] ** 2
    th[4] = 3 * u4 * u2 - 5 * u3**2

    @functools.cache
    def deriv(k: int) -> SparsePoly:
        p = th[k]
        return sum((u[n + 1] * p.partial_derivative(v) for n, v in enumerate(R[:-1])),
                   SparsePoly.zero(R))

    for i in (5, 6, 7, 8):
        th[i] = _chain(i, th.__getitem__, deriv, u2, u3, lambda p: p)
    return th


def jet_order(indices: Iterable[int]) -> int:
    """Highest jet u_k that Theta_i uses, over i in ``indices``."""
    table = theta_table()
    return max(
        (n + 1 for i in indices for e in table[i].terms for n, k in enumerate(e) if k),
        default=1,
    )


@dataclass(frozen=True)
class CurveInput:
    """An affine plane curve V(F), F primitive with integer coefficients.

    ``from_poly`` checks that F is squarefree; irreducibility is the
    caller's promise and is not checked.
    """

    F: SparsePoly
    d: int

    @classmethod
    def from_poly(cls, F: SparsePoly) -> "CurveInput":
        if F.ring != CURVE_RING:
            F = F.map_variables(CURVE_RING)
        if F.is_zero() or F.is_constant():
            raise InvalidCurveError("curve polynomial must be nonconstant")
        F = F.primitive_part()
        # a repeated factor divides F and both partials
        g = gcd(gcd(F, F.partial_derivative("x")), F.partial_derivative("y"))
        if g.total_degree() > 0:
            raise InvalidCurveError(
                "curve polynomial is not squarefree: "
                f"gcd(F, F_x, F_y) has degree {g.total_degree()}"
            )
        return cls(F, int(F.total_degree()))

    def fx(self) -> SparsePoly:
        return self.F.partial_derivative("x")

    def fy(self) -> SparsePoly:
        return self.F.partial_derivative("y")

    def homogenized(self) -> SparsePoly:
        return self.F.homogenize("x0", self.d).rename_ring(HOMOG_RING)


@dataclass(frozen=True)
class JetRestriction:
    curve: CurveInput
    entries: tuple[tuple[SparsePoly, int], ...]  # (P_n, n) with n = 1..n_max

    def p(self, n: int) -> SparsePoly:
        return self.entries[n - 1][0]


@functools.lru_cache(maxsize=64)
def implicit_jet(curve: CurveInput, n_max: int) -> JetRestriction:
    """P_1..P_{n_max} with y^(n)|_X = P_n/(F_y)^(2n-1); order n extends the
    cached order n - 1, so each P_n of a curve is built once."""
    if n_max < 1 or n_max > 8:
        raise ValueError("jet order must be between 1 and 8")
    fy = curve.fy()
    if fy.is_zero():
        raise VerticalLineError()
    fx = curve.fx()
    if n_max == 1:
        return JetRestriction(curve, ((-fx, 1),))
    prev = implicit_jet(curve, n_max - 1)
    n = n_max - 1
    p = prev.p(n)
    k = 2 * n - 1
    px = p.partial_derivative("x")
    py = p.partial_derivative("y")
    fxy = fy.partial_derivative("x")
    fyy = fy.partial_derivative("y")
    p = fy * (px * fy - k * p * fxy) - fx * (py * fy - k * p * fyy)
    return JetRestriction(curve, prev.entries + ((p, n_max),))


@dataclass(frozen=True)
class ThetaRestriction:
    """Theta_i restricted to the curve: Theta_i|_X = T_i / (F_y)^(d_i).

    ``T`` carries the exact rational content of the table; ``primitive`` and
    ``content`` expose the split so invariant ratios stay exact.
    """

    index: int
    T: SparsePoly
    d_i: int
    tau_i: int
    content: Fraction
    primitive: SparsePoly


@functools.lru_cache(maxsize=256)
def theta(curve: CurveInput, index: int) -> ThetaRestriction:
    """Restrict Theta_index to the curve and cancel the F_y powers.

    T_1..T_4 come from ``_theta_horner`` on the table's polynomials, T_5..T_8
    from the module docstring's chain (``_chain`` on the lower T_k, read
    through this cache, their derivatives D_k(T_k), P_2 and P_3, with one
    exact division by F_y).  Every T_i passes ``_spot_check_theta``."""
    if index < 1 or index > 8:
        raise ValueError("theta index must be 1..8")
    d_i = FY_EXPONENT[index]
    jets = implicit_jet(curve, jet_order([index]))
    if index <= 4:
        T = _theta_horner(curve, theta_table()[index], d_i, jets)
    else:
        T = _theta_chain(curve, index, jets)
    a, b = TAU_COEFFS[index]
    tau = a * curve.d + b
    _spot_check_theta(curve, index, T, d_i, jets)
    content, primitive = T.primitive()
    return ThetaRestriction(index, T, d_i, tau, content, primitive)


def _theta_chain(curve: CurveInput, index: int, jets: JetRestriction) -> SparsePoly:
    """T_index by ``_chain``, with D_k(T) = F_y delta(T) - d_k delta(F_y) T
    for the derivation delta = F_y d/dx - F_x d/dy."""
    fy, fx = curve.fy(), curve.fx()
    delta_fy = fy * fy.partial_derivative("x") - fx * fy.partial_derivative("y")

    def T(k: int) -> SparsePoly:
        return theta(curve, k).T

    def deriv(k: int) -> SparsePoly:
        t = T(k)
        delta_t = fy * t.partial_derivative("x") - fx * t.partial_derivative("y")
        return fy * delta_t - FY_EXPONENT[k] * delta_fy * t

    return _chain(index, T, deriv, jets.p(2), jets.p(3), lambda n: exact_div(n, fy))


def _theta_horner(curve: CurveInput, th: SparsePoly, d_i: int, jets: JetRestriction) -> SparsePoly:
    """T = th(u) F_y^(d_i) for a jet polynomial th, by Horner
    (``poly.horner_evaluate``) on pairs (N, w) that stand for N / F_y^w: u_n
    is (P_n, 2n - 1), and a sum brings both operands to the larger weight by
    one F_y power.  The result has the largest jet weight D of th's
    monomials, and N is divisible by F_y^(D - d_i) exactly."""
    fy = curve.fy()
    one = SparsePoly.const(CURVE_RING, 1)
    pows_fy = [one, fy]
    pows_p: dict[int, list[SparsePoly]] = {}

    def fy_pow(k: int) -> SparsePoly:
        while len(pows_fy) <= k:
            pows_fy.append(pows_fy[-1] * fy)
        return pows_fy[k]

    def power(i: int, k: int) -> tuple[SparsePoly, int]:
        # u_(i+1)^k = P_(i+1)^k / F_y^(k (2i + 1))
        tab = pows_p.setdefault(i, [one, jets.p(i + 1)])
        while len(tab) <= k:
            tab.append(tab[-1] * tab[1])
        return tab[k], k * (2 * i + 1)

    def mul(a: tuple[SparsePoly, int], b: tuple[SparsePoly, int]) -> tuple[SparsePoly, int]:
        return a[0] * b[0], a[1] + b[1]

    def add(a: tuple[SparsePoly, int], b: tuple[SparsePoly, int]) -> tuple[SparsePoly, int]:
        (na, wa), (nb, wb) = a, b
        if wa < wb:
            na = na * fy_pow(wb - wa)
        elif wb < wa:
            nb = nb * fy_pow(wa - wb)
        return na + nb, max(wa, wb)

    def const(c: Fraction) -> tuple[SparsePoly, int]:
        return SparsePoly.const(CURVE_RING, c), 0

    num, D = horner_evaluate(th, power, mul, add, const)
    return exact_div(num, fy_pow(D - d_i)) if D > d_i else num


def _spot_check_theta(curve, index, T, d_i, jets: JetRestriction) -> None:
    """One random rational substitution: direct Theta evaluation on jet
    values must equal T/(F_y)^(d_i) (a rational-function identity).  The
    jets are those Theta_index reads; the u_k past them do not occur in it."""
    import random

    rng = random.Random(index * 7919 + curve.d)
    fy = curve.fy()
    for _ in range(32):
        pt = {"x": Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
              "y": Fraction(rng.randint(-9, 9), rng.randint(1, 4))}
        fyv = fy.evaluate(pt)
        if fyv == 0:
            continue
        uvals = {u: Fraction(0) for u in JET_RING}
        for p, n in jets.entries:
            uvals[f"u{n}"] = p.evaluate(pt) / fyv ** (2 * n - 1)
        lhs = theta_table()[index].evaluate(uvals) * fyv**d_i
        rhs = T.evaluate(pt)
        if lhs != rhs:
            raise AssertionError(f"Theta_{index} restriction failed spot check")
        return


def thetas_for_group(curve: CurveInput, group: GroupId) -> dict[int, ThetaRestriction]:
    return {i: theta(curve, i) for i in GROUP_THETAS[group]}


# ---------------------------------------------------------------------------
# exceptional curves


@dataclass(frozen=True)
class ExceptionalVerdict:
    exceptional: bool
    reason: Optional[str] = None


def _vanishes_on_curve(p: SparsePoly, curve: CurveInput) -> bool:
    """Exact test that p is 0 modulo F (for irreducible F with deg_y F >= 1):
    pseudo-reduce with respect to y; the remainder has smaller y-degree than
    F, so it vanishes exactly when p was a multiple of F.

    A nonzero image of the remainder mod a 31-bit prime proves it nonzero
    (``pseudo_remainder_image``: the prime divides no denominator and F keeps
    its y-degree), which answers "no" on a curve that is not exceptional
    unless the prime is unlucky.  The exact ``pseudo_remainder`` runs only
    when the image is zero or cannot be taken."""
    if p.is_zero():
        return True
    image = pseudo_remainder_image(p, curve.F, "y")
    if image is not None and any(image):
        return False
    return pseudo_remainder(p, curve.F, "y").is_zero()


def exceptional_check(curve: CurveInput, group: GroupId) -> ExceptionalVerdict:
    """Lines are exceptional for every group; conics additionally for
    SA(2)/A(2)/PGL(3); otherwise test the group's denominator Theta on X."""
    if curve.d <= 1:
        return ExceptionalVerdict(True, "line")
    if curve.fy().is_zero():
        return ExceptionalVerdict(True, "vertical-line curve (F_y = 0)")
    if group is not GroupId.SE2 and curve.d == 2:
        return ExceptionalVerdict(True, "conic")
    for i in (1, 2) if group is GroupId.SE2 else (DENOMINATOR_THETA[group],):
        if _vanishes_on_curve(theta(curve, i).T, curve):
            return ExceptionalVerdict(True, f"Theta_{i} vanishes on the curve")
    return ExceptionalVerdict(False)


def require_non_exceptional(curve: CurveInput, group: GroupId) -> None:
    verdict = exceptional_check(curve, group)
    if verdict.exceptional:
        raise ExceptionalCurveError(verdict.reason or "unknown")


# ---------------------------------------------------------------------------
# classifying pairs and projective extensions


@dataclass(frozen=True)
class ClassifyingPair:
    group: GroupId
    K1: RatFunc
    K2: RatFunc


def classifying_pair(curve: CurveInput, group: GroupId) -> ClassifyingPair:
    """The pair of classifying invariants restricted to the curve, fully
    reduced; every F_y power cancels identically before reduction."""
    require_non_exceptional(curve, group)
    ts = thetas_for_group(curve, group)
    ((na, npow), (da, dpow)), ((nc, cpow), (de, epow)) = CLASSIFYING_RECIPES[group]
    K1 = RatFunc.build(ts[na].T ** npow, ts[da].T ** dpow)
    K2 = RatFunc.build(ts[nc].T ** cpow, ts[de].T ** epow)
    return ClassifyingPair(group, K1, K2)


@dataclass(frozen=True)
class HomogeneousTriple:
    """Projective extension [sigma0 : sigma1 : sigma2] of a signature map."""

    sigma: tuple[SparsePoly, SparsePoly, SparsePoly]
    deg: int
    group: GroupId
    cancelled: bool = False

    def dehomogenized(self) -> list[SparsePoly]:
        """The components in the affine chart x0 = 1, over (x, y)."""
        return [s.dehomogenize("x0").rename_ring(CURVE_RING) for s in self.sigma]


def homogeneous_gcd(polys: Sequence[SparsePoly]) -> SparsePoly:
    """gcd of homogeneous trivariate polynomials via the affine chart.

    Strips the common x0 power, computes the bivariate gcd of the
    dehomogenizations, and rehomogenizes; valid because dehomogenization at
    x0=1 is injective on homogeneous polynomials of known degree.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ValueError("gcd of empty or all-zero list")
    x0_common = min(min(e[0] for e in p.terms) for p in polys)
    affine = [p.dehomogenize("x0") for p in polys]
    g = affine[0]
    for p in affine[1:]:
        g = gcd(g, p)
        if g.is_constant():
            break
    if g.is_constant():
        gh = SparsePoly.const(HOMOG_RING, 1)
    else:
        gh = g.homogenize("x0", int(g.total_degree())).rename_ring(HOMOG_RING)
    if x0_common:
        x0 = SparsePoly.var(HOMOG_RING, "x0")
        gh = gh * x0**x0_common
    return gh


def projective_extension(
    curve: CurveInput, group: GroupId, cancel: bool = False
) -> HomogeneousTriple:
    """The canonical homogeneous triple for the group; with ``cancel`` the
    common factor of the three components is removed (the degree formula
    holds for either normalization, with matching multiplicity sums)."""
    require_non_exceptional(curve, group)
    ts = thetas_for_group(curve, group)
    a, b = SIGMA_DEGREE[group]
    deg = a * curve.d + b
    comps = []
    for x0_pow, factors in SIGMA_RECIPES[group]:
        # x0^x0_pow * prod homogenize(T_i, tau_i)^p = homogenize(prod T_i^p, deg):
        # the products run over (x, y), where the Kronecker route applies
        if x0_pow + sum(p * ts[i].tau_i for i, p in factors) != deg:
            raise AssertionError("projective extension degree mismatch")
        c = functools.reduce(operator.mul, [ts[i].T ** p for i, p in factors])
        comps.append(c.homogenize("x0", deg).rename_ring(HOMOG_RING))
    if cancel:
        g = homogeneous_gcd(comps)
        if g.total_degree() > 0:
            comps = [exact_div(c, g) for c in comps]
            deg -= int(g.total_degree())
    return HomogeneousTriple(tuple(comps), deg, group, cancelled=cancel)


# ---------------------------------------------------------------------------
# group elements


def _check_group_shape(m: list[list[Fraction]], group: GroupId) -> list[list[Fraction]]:
    m = [[Fraction(x) for x in row] for row in m]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det == 0:
        raise ValueError("singular matrix")
    if group is GroupId.PGL3:
        return m
    if m[0][1] != 0 or m[0][2] != 0 or m[0][0] == 0:
        raise ValueError(f"{group.value} matrix must have first row [c, 0, 0]")
    if m[0][0] != 1:
        s = m[0][0]
        m = [[x / s for x in row] for row in m]
    lower_det = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    if group is GroupId.SA2 and lower_det != 1:
        raise ValueError("SA2 requires unit determinant of the linear block")
    if group is GroupId.SE2:
        c, s = m[1][1], m[1][2]
        if m[2][1] != -s or m[2][2] != c or c * c + s * s != 1:
            raise ValueError("SE2 requires a rotation block [[c, s], [-s, c]], c^2+s^2=1")
    return m


def apply_group_element(
    curve: CurveInput, matrix: Sequence[Sequence[Fraction]], group: GroupId
) -> CurveInput:
    """Defining polynomial of the transformed curve g.X: substitute the
    inverse action into the homogenization, clear x0, take the primitive
    part."""
    m = _check_group_shape([list(r) for r in matrix], group)
    minv = mat_inverse(m)
    Fh = curve.homogenized()
    xs = [SparsePoly.var(HOMOG_RING, v) for v in HOMOG_RING]
    zero = SparsePoly.zero(HOMOG_RING)
    images = [sum((x.scale(c) for x, c in zip(xs, row) if c), zero) for row in minv]
    G = Fh.compose_linear(images)
    affine = G.dehomogenize("x0").rename_ring(CURVE_RING)
    return CurveInput.from_poly(affine)


# ---------------------------------------------------------------------------
# invariants on a fiber


def fiber_evaluator(P: SparsePoly) -> Callable[[Fraction, SeriesRing], TruncatedSeries]:
    """The map (x0, ring) -> P(x0, W) in Q[W]/(q) of a polynomial P over
    (x, y).

    P's coefficients are fixed once as integers over one denominator, one
    list per power of y.  At x0 = r/s each power of y takes its value in x
    as a dot product with the integers r^i s^(dx - i); the values are then
    reduced modulo q by Horner's rule in W on integer vectors.  A step past
    deg q multiplies the accumulator by lc(q), and each later value by the
    running power of lc(q), which the result carries in its denominator."""
    ix, iy = P.ring.index("x"), P.ring.index("y")
    nums, den = _int_form(P)
    dx = max((e[ix] for e in nums), default=0)
    dy = max((e[iy] for e in nums), default=-1)
    columns = [[0] * (dx + 1) for _ in range(dy + 1)]
    for e, c in nums.items():
        columns[dy - e[iy]][e[ix]] = c

    def evaluate(x0: Fraction, ring: SeriesRing) -> TruncatedSeries:
        r, s = x0.numerator, x0.denominator
        rs = [r**i * s ** (dx - i) for i in range(dx + 1)]
        q, lc = ring.q, ring.q[-1]
        acc, scale = [0] * ring.deg, 1
        for column in columns:
            top = acc.pop()
            acc.insert(0, 0)
            if top:
                if lc != 1:
                    acc = [a * lc for a in acc]
                    scale *= lc
                acc = [a - top * c for a, c in zip(acc, q)]
            acc[0] += scale * sum(map(operator.mul, column, rs))
        terms = {(0, k): a for k, a in enumerate(acc) if a}
        return TruncatedSeries(ring, terms, den * s**dx * scale, INF).normalized()

    return evaluate


@functools.lru_cache(maxsize=64)
def _theta_evaluator(
    curve: CurveInput, index: int
) -> Callable[[Fraction, SeriesRing], TruncatedSeries]:
    """``fiber_evaluator`` of T_index, built once per curve."""
    return fiber_evaluator(theta(curve, index).T)


def fiber_invariants(
    curve: CurveInput, group: GroupId, x0: Fraction, ring: SeriesRing
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(K1, K2) = (T_a^p T_b^-q, T_c^r T_b^-s) (``CLASSIFYING_RECIPES``) at
    the points of the fiber x = x0 that ``ring`` describes, as elements of
    Q[W]/(q), q a squarefree factor of F(x0, W) whose roots are simple roots
    of F(x0, .): T_a, T_b and T_c evaluated there (``fiber_evaluator``), T_b inverted once and the powers
    taken by squaring.  The F_y powers of the Theta_i cancel identically.
    Raises ZeroDivisionError when T_b is a zero divisor, i.e. the
    denominator Theta vanishes at some point of the fiber."""
    ((na, npow), (nb, bpow)), ((nc, cpow), (_, epow)) = CLASSIFYING_RECIPES[group]
    ta, tb, tc = (_theta_evaluator(curve, i)(x0, ring) for i in (na, nb, nc))
    inv = ring.element(ring.invert_vec(tb.coeff_fractions(0)))
    return ta**npow * inv**bpow, tc**cpow * inv**epow


def _point_ring(curve: CurveInput, p: tuple[Fraction, Fraction]) -> tuple[Fraction, SeriesRing]:
    """x0 and the ring Q[W]/(W - y0) of a rational regular point (x0, y0)."""
    x0, y0 = Fraction(p[0]), Fraction(p[1])
    if curve.F.evaluate({"x": x0, "y": y0}) != 0:
        raise ValueError("point does not lie on the curve")
    if curve.fy().evaluate({"x": x0, "y": y0}) == 0:
        raise ValueError("F_y vanishes at the point (not a regular point)")
    return x0, SeriesRing([-y0.numerator, y0.denominator])


def invariants_at_point(
    curve: CurveInput, group: GroupId, p: tuple[Fraction, Fraction]
) -> tuple[Fraction, Fraction]:
    """Exact (K1, K2) at a rational regular point (``fiber_invariants`` on
    the ring Q[W]/(W - y0)); raises ZeroDivisionError at zeros of the
    denominator Theta."""
    x0, ring = _point_ring(curve, p)
    k1, k2 = fiber_invariants(curve, group, x0, ring)
    return k1.coeff_fractions(0)[0], k2.coeff_fractions(0)[0]
