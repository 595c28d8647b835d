"""Degree prediction for signature polynomials.

The degree formula reads  n * deg(S) = d * deg(sigma) - sum of multiplicities
over the base locus of the projective extension sigma.  For the canonical
extensions all base-locus points of a generic curve sit on the line at
infinity, where the curve is a union of branches w(v) above v = 0 in the
chart (v, 1, w).  Intersection multiplicities are then valuations along
those branches, computed on truncated series whose coefficients live in
Q[W]/(q(W)) with q = Fh(0, 1, w): one series handles the whole conjugate
fiber and gcd-splitting against q recovers the per-fiber sums exactly.

One pipeline computes the multiplicity sum for every kind of triple:
``infinity_pieces`` yields the branch pieces at infinity, a components
function gives the three sigma series on each piece (an explicit triple is
evaluated there; the canonical triple is assembled from the jet series and
never builds the T_i products, the only feasible way for PGL(3) at d >= 4),
one driver runs the trial lines, the lower bound and the truncation
doubling, and one affine routine adds the affine base points of special
curves.  On a generic curve images mod a 31-bit prime prove Res_y(F, T_a)
and Res_y(F, T_b) coprime (T_a, T_b the cut of the canonical triple); exact
resultants and gcds run only where the images cannot decide.  The canonical
components share a factor x0^deg(sigma) * F_y^k, counted once by its
valuation.  Three lemmas spare series and polynomials built for one number:
(a) F_y(1/v, w/v) = v^-(d-1) H_w(v, w(v)) with H = Fh(v, 1, w), and
H_w(0, W) = c q'(W) is a unit mod the squarefree q, so F_y has order -(d-1)
on each fiber branch; (b) when each Theta_i's first coefficient is a unit
mod q, every component has one valuation on each branch, read from its
first term (a trial line whose first terms cancel raises TruncationError
and doubles); (c) with [0:0:1] off the curve, lc_y F is constant and
T_a = Theta_a F_y^d_a on the d fiber branches y_i(x), so deg_x Res_y(F, T_a)
= -sum ord T_a(x, y_i(x)) = d d_a (d-1) - sum_fiber val Theta_a by (a).

Along a branch Theta_5..Theta_8 come from Theta_4 by ``jets._chain``.  Every
series carries its own trusted order (``derivative`` lowers it by one,
products and sums take the minimum), so precision the chain loses surfaces
as TruncationError and a doubling, never as a different answer.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import tee
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    ExceptionalCurveError,
    NonIntegralSymmetryError,
    ShearRequiredError,
    TruncationError,
)
from .jets import (
    CURVE_RING,
    FY_EXPONENT,
    GROUP_THETAS,
    SIGMA_DEGREE,
    SIGMA_RECIPES,
    TAU_COEFFS,
    CurveInput,
    GroupId,
    HomogeneousTriple,
    _chain,
    apply_group_element,
    jet_order,
    require_non_exceptional,
    theta,
    theta_table,
)
from .modp import resultant_coprime_image
from .poly import SparsePoly, _lc_in, exact_div, gcd, resultant, square_free_part
from .series import (
    INF,
    SeriesRing,
    TruncatedSeries,
    evaluate_polys_at_series,
    fiber_min_valuation_sum,
    fiber_valuation_sum,
    intpoly_coprime,
    intpoly_from_poly,
    intpoly_gcd,
    intpoly_squarefree,
    newton_branch,
    ring_poly_gcd,
)

CHART_RING = ("v", "w")
DEFAULT_TRUNC = 80  # starting truncation of explicit triples and valuation tables
MAX_TRUNC = 320
SHEAR_RETRIES = 5  # group elements tried before the chart at infinity is refused

# relative cap per group of the canonical route: every series is known this
# many orders past its first term.  It is the orders lost by the deepest
# Theta_i the group reads, plus a margin of 2: on the fiber piece of dense
# quartics and quintics Theta_1..Theta_4 lose at most 2, Theta_5 and Theta_6
# 5, Theta_7 7 and Theta_8 8.  TruncationError doubles the truncation and
# quadruples the cap for special curves (see _mult_report)
GROUP_REL_CAP = {
    GroupId.SE2: 4,  # Theta_3
    GroupId.SA2: 7,  # Theta_5
    GroupId.A2: 7,  # Theta_5, Theta_6
    GroupId.PGL3: 10,  # Theta_8
}

# starting truncation per group for the canonical route: the per-branch
# valuations are degree-independent (0 / 16 / 12 / 72).  The branches at
# infinity are expanded only to their valuation plus the cap (see
# infinity_pieces), below the truncation for PGL(3)
GROUP_START_TRUNC = {
    GroupId.SE2: 16,
    GroupId.SA2: 30,
    GroupId.A2: 26,
    GroupId.PGL3: 80,
}


# ---------------------------------------------------------------------------
# the chart at infinity


@dataclass(frozen=True)
class InfinityChart:
    """The curve whose branches at infinity are expanded, and the group
    element applied to the input when it had to be sheared first."""

    curve: CurveInput
    sheared_with: Optional[tuple] = None  # 3x3 matrix applied to the input


def _chart_polys(curve: CurveInput) -> tuple[SparsePoly, tuple[int, ...], Fraction]:
    Fh = curve.homogenized()
    H = Fh.dehomogenize("x1").rename_ring(CHART_RING)
    # q(w) = Fh(0,1,w) cuts out the finite-w fiber at infinity
    q = intpoly_from_poly(H.evaluate_partial({"v": Fraction(0)}), "w")
    top = Fh.evaluate_partial({"x0": Fraction(0), "x1": Fraction(0), "x2": Fraction(1)})
    return H, q, top.constant_value()


def _corner_chart(curve: CurveInput) -> tuple[SparsePoly, Fraction, Fraction]:
    """Fh in the chart x2 = 1 over (s, u) = (x0, x1), with its partial
    derivatives in s and u at the corner [0:0:1]."""
    H2 = curve.homogenized().dehomogenize("x2").rename_ring(("s", "u"))
    ds, du = (H2.partial_derivative(v).evaluate({"s": 0, "u": 0}) for v in ("s", "u"))
    return H2, ds, du


def chart_workable(curve: CurveInput) -> bool:
    """Conditions the branch machinery can handle without shearing: the
    finite-w fiber must be simple, and when [0:0:1] lies on the curve it
    must be a smooth point (its branch gets its own chart)."""
    _, q, corner = _chart_polys(curve)
    return intpoly_squarefree(q) and (corner != 0 or any(_corner_chart(curve)[1:]))


def _shear_matrix(group: GroupId, rng: random.Random, attempt: int) -> list[list[Fraction]]:
    if group is GroupId.SE2:
        m = Fraction(rng.randint(1, 40), rng.randint(1, 7))
        c = (1 - m * m) / (1 + m * m)
        s = 2 * m / (1 + m * m)
        return [[Fraction(1), 0, 0], [0, c, s], [0, -s, c]]
    lam = Fraction(rng.randint(1, 1000))
    if attempt % 2 == 0:
        # x -> x + lam*y restores a missing y^d term (condition (i))
        return [[Fraction(1), 0, 0], [0, Fraction(1), lam], [0, 0, Fraction(1)]]
    return [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, lam, Fraction(1)]]


def infinity_chart(curve: CurveInput, group: GroupId, seed: int = 0) -> InfinityChart:
    """The curve itself when its branches at infinity are workable, else a
    sheared copy under an element of the group (multiplicity sums are
    group-invariant, so the sheared curve answers for the original)."""
    if chart_workable(curve):
        return InfinityChart(curve)
    rng = random.Random(seed ^ 0x5EED)
    for attempt in range(SHEAR_RETRIES):
        m = _shear_matrix(group, rng, attempt)
        cur2 = apply_group_element(curve, m, group)
        if chart_workable(cur2):
            return InfinityChart(cur2, sheared_with=tuple(map(tuple, m)))
    raise ShearRequiredError(
        "could not normalize the chart at infinity after shearing retries"
    )


# ---------------------------------------------------------------------------
# branch pieces of the infinite fiber


@dataclass
class BranchPiece:
    """One piece of the curve along the line at infinity: either the whole
    finite-w fiber (coefficients in Q[W]/q) or the corner [0:0:1] branch.

    Stores the homogeneous-coordinate series (x0, x1, x2) of the branch in
    its local parameter together with the fiber modulus (None = single
    rational branch)."""

    ring: SeriesRing
    q: Optional[tuple[int, ...]]
    x0: TruncatedSeries
    x1: TruncatedSeries
    x2: TruncatedSeries


def infinity_pieces(curve: CurveInput, trunc: int, rel: Optional[int] = None) -> list[BranchPiece]:
    """Branch pieces covering all points of the curve on the line at
    infinity: the finite-w fiber as one quotient-ring piece plus the corner
    branch when [0:0:1] lies on the (there smooth) curve.

    Each branch is expanded to ``trunc``, or with ``rel`` (the relative cap
    of the series that read the pieces) only to the orders those series
    read: ``rel`` past the branch's first term."""
    H, q, corner = _chart_polys(curve)
    pieces: list[BranchPiece] = []

    def branch(H: SparsePoly, param: str, unknown: str, ring: SeriesRing) -> TruncatedSeries:
        root, prec = ring.generator(), trunc
        if rel is not None:
            prec = min(trunc, _branch_valuation(H, param, unknown, root) + rel)
        return newton_branch(H, param, unknown, ring, root, prec)

    if len(q) >= 2:
        if not intpoly_squarefree(q):
            raise ShearRequiredError("infinite fiber is not simple; shear required")
        ring = SeriesRing(q)
        w = branch(H, "v", "w", ring)
        one = TruncatedSeries.constant(ring, Fraction(1))
        pieces.append(BranchPiece(ring, q, TruncatedSeries.variable(ring), one, w))
    if corner == 0:
        ring = SeriesRing([0, 1])
        H2, ds, du = _corner_chart(curve)
        one = TruncatedSeries.constant(ring, Fraction(1))
        t = TruncatedSeries.variable(ring)
        if du != 0:
            pieces.append(BranchPiece(ring, None, t, branch(H2, "s", "u", ring), one))
        elif ds != 0:
            H2s = SparsePoly(H2.ring, {(e[1], e[0]): c for e, c in H2.terms.items()})
            pieces.append(BranchPiece(ring, None, branch(H2s, "s", "u", ring), t, one))
        else:
            raise ShearRequiredError("[0:0:1] is a singular point of the curve")
    return pieces


def _branch_valuation(H: SparsePoly, param: str, unknown: str, root: TruncatedSeries) -> int:
    """Valuation in ``param`` of the branch u(param) of H = 0 through the
    simple root ``root`` of H(0, .).  It is 0 unless the root is 0; then
    H(t, 0) = -u(t) * G(t, u(t)) with G(0, 0) = dH/du(0, 0) != 0, so the
    branch vanishes to the order of H(t, 0) (INF when that is 0)."""
    if root.terms:
        return 0
    h0 = H.evaluate_partial({unknown: Fraction(0)})
    i = H.ring.index(param)
    return min((e[i] for e in h0.terms), default=INF)


# ---------------------------------------------------------------------------
# sigma components along a branch piece


def _triple_components_on_piece(
    sigma: HomogeneousTriple, piece: BranchPiece
) -> list[TruncatedSeries]:
    """An explicit triple along a branch piece: each component evaluated at
    the piece's (x0, x1, x2)."""
    at = {"x0": piece.x0, "x1": piece.x1, "x2": piece.x2}
    return evaluate_polys_at_series(sigma.sigma, at, piece.ring)


def _branch_jets(
    piece: BranchPiece, trunc: int, rel: int, n_max: int
) -> tuple[dict[str, TruncatedSeries], TruncatedSeries]:
    """The jets u_k = d^k y / dx^k (k <= n_max) and dv/dx of a branch
    piece, each capped ``rel`` orders past its first known term; every
    ``derivative`` lowers the trusted order by one."""
    x0_inv = piece.x0.invert(trunc + 8)
    x_series = (piece.x1 * x0_inv).rel_capped(rel)
    y_series = (piece.x2 * x0_inv).rel_capped(rel)
    dx_inv = x_series.derivative().invert(trunc + 8).rel_capped(rel)
    u: dict[str, TruncatedSeries] = {}
    cur = y_series
    for k in range(1, n_max + 1):
        cur = (cur.derivative() * dx_inv).rel_capped(rel)
        u[f"u{k}"] = cur
    return u, dx_inv


def _jet_series(
    piece: BranchPiece, trunc: int, rel: int, needed: Sequence[int]
) -> list[TruncatedSeries]:
    """The Theta_i for i in ``needed`` along a branch piece:
    Theta_1..Theta_4 by Horner at the branch jets, Theta_5..Theta_8 by
    ``jets._chain`` with D(Theta_k) = Theta_k' * dv/dx.  The inputs are known
    ``rel`` orders past their first term and products keep that, so the
    chain needs no cap; what it loses shows in the trusted orders.  F_y's
    order needs no series (lemma (a), ``_fy_valuation``)."""
    top = max(needed)
    horner = sorted({i for i in needed if i <= 4} | ({4} if top > 4 else set()))
    u, dx_inv = _branch_jets(piece, trunc, rel, jet_order(horner))
    th = dict(zip(horner, evaluate_polys_at_series(
        [theta_table()[i] for i in horner], u, piece.ring, rel_cap=rel
    )))

    @functools.cache
    def deriv(k: int) -> TruncatedSeries:
        return (th[k].derivative() * dx_inv).rel_capped(rel)

    for i in range(5, top + 1):
        th[i] = _chain(i, th.__getitem__, deriv, u["u2"], u["u3"], lambda s: s)
    return [th[i] for i in needed]


def _fy_valuation(curve: CurveInput, piece: BranchPiece) -> int:
    """F_y's order on a piece (a fiber sum), by lemma (a).  At the corner
    (x0, x1, 1), x0^(d-1) F_y = Fh_2 = -(x0 Fh_0 + x1 Fh_1) (Euler), and
    Fh_0 x0' + Fh_1 x1' = 0 on the branch gives Fh_2 = unit * (x0 x1' - x1 x0')."""
    if piece.q is not None:
        return -(curve.d - 1) * (len(piece.q) - 1)
    x0, x1 = piece.x0, piece.x1
    wronskian = x0 * x1.derivative() - x1 * x0.derivative()
    return -(curve.d - 1) * x0.valuation() + wronskian.valuation()


def canonical_components_on_piece(
    curve: CurveInput, group: GroupId, piece: BranchPiece, trunc: int, rel: int
) -> tuple[list[TruncatedSeries], int, Optional[int]]:
    """The three canonical sigma components along a branch piece with their
    common factor divided out, the valuation of that factor, and lemma (c)'s
    fiber sum of val Theta_a (None at the corner or when unresolved).

    T_i restricts to x0^tau_i * Theta_i(jets) * F_y^d_i, so every component
    x0^e * prod T_i^p is x0^deg(sigma) * F_y^k (k = 6, 24, 24, 96) times the
    Theta product prod Theta_i^p.  Valuations add at each point of the
    fiber, so the factor counts once: deg(sigma) * val x0 + k * val F_y, a
    fiber sum on the quotient-ring piece (val F_y by lemma (a)).

    ``rel`` caps every series ``rel`` orders past its first known term; too
    small a cap, or precision lost in ``_jet_series``'s chain, surfaces as
    TruncationError downstream; the group's starting cap is
    ``GROUP_REL_CAP[group]``.  By lemma (b) the Theta_i are capped at
    max(1, rel // GROUP_REL_CAP[group]) when their first coefficients are
    units."""
    needed = GROUP_THETAS[group]
    theta_series = _jet_series(piece, trunc, rel, needed)
    if all(th.terms and intpoly_coprime(piece.ring.q, th.coeff_vec(th.min_exp()))
           for th in theta_series):
        rel = max(1, rel // GROUP_REL_CAP[group])
    # products of series known at most ``rel`` orders past their first term
    # are again so: the Theta products need no further cap
    thetas = {i: th.rel_capped(rel) for i, th in zip(needed, theta_series)}
    comps = [reduce(mul, (thetas[i] ** p for i, p in fs)) for _x0p, fs in SIGMA_RECIPES[group]]
    a, b = SIGMA_DEGREE[group]
    k = sum(FY_EXPONENT[i] * p for i, p in SIGMA_RECIPES[group][0][1])
    common = (a * curve.d + b) * _piece_val(piece.x0, piece) + k * _fy_valuation(curve, piece)
    theta_a = theta_series[needed.index(CANONICAL_AFFINE_PAIR[group][0])]
    try:  # its first term resolves every branch when its coefficient is a unit
        return comps, common, None if piece.q is None else fiber_valuation_sum(theta_a, piece.q)
    except TruncationError:
        return comps, common, None


def _certify_zero_components(
    curve: CurveInput, group: GroupId, comps: list[TruncatedSeries]
) -> list[TruncatedSeries]:
    """Replace component series that are empty to their trusted order by
    exact zeros once a factor is proven to vanish on the curve.

    Degenerate invariants (e.g. kappa_s on a circle) make a sigma component
    identically zero along every branch; without the exact certificate the
    valuation scans would keep doubling the truncation forever.
    ``mult_min_canonical`` calls it only once the truncation has doubled.
    """
    from .jets import _vanishes_on_curve

    out = []
    for comp, (_x0p, factors) in zip(comps, SIGMA_RECIPES[group]):
        if comp.is_known_zero() and any(
            _vanishes_on_curve(theta(curve, i).T, curve) for i, _pw in factors
        ):
            comp = TruncatedSeries.zero(comp.ring, INF)
        out.append(comp)
    if all(c.is_known_zero() and c.trunc >= INF for c in out):
        raise ExceptionalCurveError(
            "signature map undefined on curve: all components vanish"
        )
    return out


# ---------------------------------------------------------------------------
# affine base points (non-generic inputs; absent for generic curves of
# degree >= 4, but present for special curves like the cubic fixture)

# The sigma components are given in affine form, each as a product of
# (factor, power) pairs: a single factor for an explicit triple, T_i powers
# for the canonical triple.


def _curve_resultant(F: SparsePoly, p: SparsePoly) -> SparsePoly:
    r = resultant(F, p, "y")
    if r.is_zero():
        raise ShearRequiredError("a base component vanishes on the curve")
    return r


def _view(p: SparsePoly, images: Optional[tuple]) -> SparsePoly:
    return p if images is None else p.compose_linear(images)


def _affine_projections(curve: CurveInput, cut: Callable, degree: Optional[int] = None):
    """Project the common zeros of ``cut()`` on the curve to the x-axis: in
    the given coordinates, after the shears x -> x + k*y, and with x and y
    swapped.  Yields (images, F, gsf, res) for every view whose squarefree
    candidate polynomial gsf (in x, from the resultant gcd) avoids the zeros
    of the leading y-coefficient of F, with the resultants of the cut by
    polynomial; gsf None means the gcd is constant, so no affine base point
    exists, and ends the views.  A cut polynomial that vanishes on the curve
    (resultant 0) constrains nothing.  ``cut()`` is called when the first
    view is reached.

    In the first view, given ``degree`` = deg Res_y(F, cut[0]) (lemma (c)),
    ``resultant_coprime_image`` first tries to prove the two resultants of
    the cut coprime from their images mod a 31-bit prime, so a generic curve
    takes no exact resultant unless the prime is unlucky.  Otherwise the
    first resultant with a nonzero value is exact, and before each later one
    the image tries to prove its gcd with the exact one so far constant.  A
    proof yields gsf None at once, and ``res`` lacks the resultants not
    built, which no caller reads then.  Later views are reached only when
    the first gcd is nonconstant, which on the special curves means affine
    base points that every view sees, so the image is not tried there."""
    x, y = SparsePoly.var(CURVE_RING, "x"), SparsePoly.var(CURVE_RING, "y")
    cut = cut()
    if degree is not None and resultant_coprime_image(cut[0], curve.F, cut[1], "y", degree=degree):
        yield None, curve.F, None, {}
        return
    for images in [None] + [(x + y.scale(k), y) for k in (1, 2, 3)] + [(y, x)]:
        F = _view(curve.F, images)
        res: dict[SparsePoly, SparsePoly] = {}
        g: Optional[SparsePoly] = None
        for p in cut:
            viewed = _view(p, images)
            if images is None and g is not None and resultant_coprime_image(g, F, viewed, "y"):
                yield images, F, None, res
                return
            res[p] = resultant(F, viewed, "y")
            if res[p].is_zero():
                continue
            g = res[p] if g is None else gcd(g, res[p])
            if g.is_constant():
                yield images, F, None, res
                return
        if g is None:
            raise ShearRequiredError("every base component vanishes on the curve")
        gsf = square_free_part(g)
        lc = _lc_in(F, 1)
        if lc.is_constant() or gcd(gsf, lc).total_degree() <= 0:
            yield images, F, gsf, res


def _one_point_per_fiber(
    F: SparsePoly, gsf: SparsePoly, factors: Sequence[SparsePoly]
) -> bool:
    """Certificate that each fiber above a root of ``gsf`` holds exactly one
    point of F = 0 where some factor vanishes.  The zeros on the fiber are
    the gcd in y of F and each factor over Q[W]/(gsf); zero divisors split
    gsf and both parts are checked."""
    ring = SeriesRing(intpoly_from_poly(gsf, "x"))
    at = {"x": ring.generator(), "y": TruncatedSeries.variable(ring)}
    try:
        Fw, *ps = evaluate_polys_at_series([F, *factors], at, ring)
        h = TruncatedSeries.constant(ring, Fraction(1))
        for p in ps:
            h = h * ring_poly_gcd(Fw, p)
        repeated = ring_poly_gcd(h, h.derivative())
        return max(h.terms)[0] - max(repeated.terms)[0] == 1
    except ZeroDivisionError as err:
        g = SparsePoly(CURVE_RING, {(k, 0): Fraction(c) for k, c in enumerate(err.gcd) if c})
        return all(_one_point_per_fiber(F, part, factors) for part in (g, exact_div(gsf, g)))


def _affine_term(
    views: Iterable,
    factored: Callable[[], Sequence[Sequence[tuple[SparsePoly, int]]]],
) -> tuple[int, str]:
    """The affine term of the lower bound, with its status.  ``factored()``
    is called only when candidates exist: the T_i outside the cut are
    costly to build.

    In a view with one base point per candidate fiber the per-component
    resultant orders are that point's multiplicities, and the term is
    ``included`` (or ``verified-empty`` when it is 0).  When no view
    separates the points the term is 0 (always sound) with status
    ``per-line``: each trial line then counts its own affine intersections."""
    for images, F, gsf, res in views:
        if gsf is None:
            return 0, "verified-empty"
        components = factored()
        factors = list(dict.fromkeys(f for comp in components for f, _ in comp))
        viewed = {f: _view(f, images) for f in factors}
        if not _one_point_per_fiber(F, gsf, list(viewed.values())):
            continue
        # Res(F, prod f^k) = prod Res(F, f)^k; a factor that vanishes on the
        # curve (resultant 0) gives its component infinite order
        for f in factors:
            if f not in res:
                res[f] = resultant(F, viewed[f], "y")
        live = [comp for comp in components if all(not res[f].is_zero() for f, _ in comp)]
        total = _affine_ideal([[(res[f], k) for f, k in comp] for comp in live], gsf)
        return total, ("included" if total else "verified-empty")
    return 0, "per-line"


def _affine_line_sums(
    views: Iterable,
    factored: Sequence[Sequence[tuple[SparsePoly, int]]],
    lines: Sequence[Sequence[Fraction]],
) -> list[int]:
    """Per line a: the sum over the curve points above the candidates of
    m_p(F, a0*s0 + a1*s1 + a2*s2), as the resultant order over V(gsf), in
    the first view."""
    for images, F, gsf, _res in views:
        if gsf is None:
            return [0] * len(lines)
        viewed = []
        for comp in factored:
            c = SparsePoly.const(CURVE_RING, 1)
            for f, k in comp:
                c = c * _view(f, images) ** k
            viewed.append(c)
        return [
            _affine_ideal(
                [[(_curve_resultant(F, _combine(a, viewed, SparsePoly.zero(CURVE_RING))), 1)]], gsf
            )
            for a in lines
        ]
    raise ShearRequiredError("affine base candidates collide with the leading coefficient of F")


def _vanishing_orders(R: SparsePoly, gsf: SparsePoly) -> list[tuple[SparsePoly, int]]:
    """gsf split into factors on whose roots R vanishes to one order each."""
    parts = []
    level = 0
    while gsf.total_degree() > 0:
        # the roots with order >= level + 1 stay active; R drops one order
        deeper = gcd(gsf, R)
        exact = exact_div(gsf, deeper)
        if exact.total_degree() > 0:
            parts.append((exact, level))
        gsf, R, level = deeper, exact_div(R, deeper), level + 1
    return parts


def _affine_ideal(
    factored: Sequence[Sequence[tuple[SparsePoly, int]]], gsf: SparsePoly
) -> int:
    """Sum over the roots of gsf of min over the components of the order of
    prod R^k, from the vanishing orders of each resultant R."""
    cells: list[tuple[SparsePoly, dict]] = [(gsf, {})]
    for R in dict.fromkeys(R for comp in factored for R, _ in comp):
        cells = [
            (common, {**orders, R: level})
            for part, level in _vanishing_orders(R, gsf)
            for cell, orders in cells
            if (common := gcd(cell, part)).total_degree() > 0
        ]
    return sum(
        int(cell.total_degree()) * min(sum(k * orders[R] for R, k in comp) for comp in factored)
        for cell, orders in cells
    )


# ---------------------------------------------------------------------------
# the multiplicity driver


@dataclass(frozen=True)
class MultiplicityReport:
    trials: tuple[tuple[tuple, int], ...]  # (a-vector, sum)
    min_sum: int
    route: str  # "resultant-order" | "series-valuation" | "generic-closed-form"
    lower_bound: Optional[int] = None
    sandwich_closed: Optional[bool] = None


def _combine(a: Sequence, items: Sequence, acc):
    for coeff, item in zip(a, items):
        if coeff:  # 0 * item is exact, whatever item's trusted order
            acc = acc + item.scale(Fraction(coeff))
    return acc


def _random_lines(seed: int, trials: int) -> Iterable[tuple[Fraction, ...]]:
    rng = random.Random(seed * 9176 + 11)
    for _ in range(trials):
        a = tuple(Fraction(rng.randint(-10_000, 10_000)) for _ in range(3))
        while all(x == 0 for x in a):
            a = tuple(Fraction(rng.randint(-10_000, 10_000)) for _ in range(3))
        yield a


def _piece_val(comb: TruncatedSeries, piece: BranchPiece) -> int:
    if piece.q is not None:
        return fiber_valuation_sum(comb, piece.q)
    return comb.valuation()


def _piece_min(comps: Sequence[TruncatedSeries], piece: BranchPiece) -> int:
    if piece.q is not None:
        return fiber_min_valuation_sum(comps, piece.q)
    # an exact zero has infinite valuation
    return min(c.valuation() for c in comps if c.terms or c.trunc < INF)


def _doubling(attempt: Callable, trunc: int):
    """attempt(t) for t = trunc, 2*trunc, ... until it stops raising
    TruncationError; past MAX_TRUNC the error propagates."""
    t = trunc
    while True:
        try:
            return attempt(t)
        except TruncationError:
            if t >= MAX_TRUNC:
                raise
            t *= 2


def _mult_report(
    curve: CurveInput,
    components: Callable[[BranchPiece, int, int], tuple[list[TruncatedSeries], int]],
    affine: Callable[[list], tuple[list[int], int, str]],
    lines: Iterable[Sequence[Fraction]],
    trunc: int,
    rel: Optional[int],
) -> tuple[MultiplicityReport, str]:
    """Multiplicity sums over the base locus on the curve for each trial
    line, and the lower bound sum_p min_k m_p(F, sigma_k).

    ``components(piece, trunc, rel)`` gives the three sigma series on a
    branch piece, each capped ``rel`` orders past its first term (None: no
    cap, and the branches are expanded to the full truncation), and the
    valuation of a factor common to all three that the series leave out;
    ``affine(lines)`` gives the per-line affine terms, the affine term of
    the lower bound and its status.  The truncation doubles and the relative
    cap quadruples until every valuation is certified, so a starting cap
    sized to the group's Theta_i still reaches deep caps before MAX_TRUNC
    (4096, 1792, 1792 and 160 from ``GROUP_REL_CAP``); the trial lines are
    drawn once, so the report does not depend on the doublings.
    """
    lines = list(lines)

    def attempt(t: int):
        cap = None if rel is None else rel * (t // trunc) ** 2
        on_pieces = [(p, *components(p, t, cap)) for p in infinity_pieces(curve, t, cap)]
        results = [
            sum(
                _piece_val(_combine(a, comps, TruncatedSeries.zero(piece.ring)), piece) + common
                for piece, comps, common in on_pieces
            )
            for a in lines
        ]
        lower = sum(_piece_min(comps, piece) + common for piece, comps, common in on_pieces)
        return results, lower

    results, lower = _doubling(attempt, trunc)
    line_sums, affine_lower, status = affine(lines)
    trials = tuple((tuple(a), s + t) for a, s, t in zip(lines, results, line_sums))
    min_sum = min(s for _, s in trials)
    lower += affine_lower
    report = MultiplicityReport(
        trials=trials,
        min_sum=min_sum,
        route="series-valuation",
        lower_bound=lower,
        sandwich_closed=(lower == min_sum),
    )
    return report, status


# ---------------------------------------------------------------------------
# explicit triples


def _triple_report(
    curve: CurveInput, sigma: HomogeneousTriple, lines: Iterable[Sequence[Fraction]]
) -> MultiplicityReport:
    comps = sigma.dehomogenized()
    nonzero = [c for c in comps if not c.is_zero()]

    def affine_part(trial_lines: list) -> tuple[list[int], int, str]:
        views, first = tee(_affine_projections(curve, lambda: nonzero))
        lower, status = _affine_term(views, lambda: [[(c, 1)] for c in nonzero])
        sums = _affine_line_sums(first, [[(c, 1)] for c in comps], trial_lines)
        return sums, lower, status

    return _mult_report(
        curve,
        lambda piece, _t, _rel: (_triple_components_on_piece(sigma, piece), 0),
        affine_part,
        lines,
        DEFAULT_TRUNC,
        rel=None,
    )[0]


def mult_sum_line(curve: CurveInput, sigma: HomogeneousTriple, a: Sequence) -> int:
    """Sum over base-locus points on the curve of m_p(F, a0*s0+a1*s1+a2*s2):
    the branches at infinity (the corner [0:0:1] in its own chart when it
    lies on the curve) plus the affine base points of this line."""
    line = tuple(Fraction(x) for x in a)
    return _triple_report(curve, sigma, [line]).min_sum


def mult_min(
    curve: CurveInput,
    sigma: HomogeneousTriple,
    trials: int = 3,
    seed: int = 0,
) -> MultiplicityReport:
    """Minimum over random lines of the base-locus multiplicity sum, plus the
    ideal lower bound; the sandwich closes on generic inputs."""
    if trials < 3:
        raise ValueError("at least 3 trials required")
    return _triple_report(curve, sigma, _random_lines(seed, trials))


# ---------------------------------------------------------------------------
# the canonical triple (Theta route, no sigma polynomials)

# radical pair of T indices cutting out the base locus of the canonical triple
CANONICAL_AFFINE_PAIR = {
    GroupId.SE2: (1, 2),
    GroupId.SA2: (2, 4),
    GroupId.A2: (4, 5),
    GroupId.PGL3: (5, 7),
}


def _canonical_cut(curve: CurveInput, group: GroupId) -> list[SparsePoly]:
    return [theta(curve, i).T for i in CANONICAL_AFFINE_PAIR[group]]


def _canonical_factored(curve: CurveInput, group: GroupId) -> list[list[tuple[SparsePoly, int]]]:
    return [[(theta(curve, i).T, k) for i, k in fs] for _x0, fs in SIGMA_RECIPES[group]]


def canonical_affine_part(curve: CurveInput, group: GroupId, views: Iterable) -> tuple[int, str]:
    """Affine base-point term of the lower bound for the canonical triple.

    Returns (sum, status).  For PGL(3) on dense curves of degree >= 4 the
    check is skipped (generic absence of affine base points holds there, and
    the required T_7/T_8 polynomials are not built at that scale); sparse
    inputs such as the Fermat family are always checked.  Status
    ``per-line`` means the sum is 0 and each trial line adds its own count.
    ``views`` are the ``_affine_projections`` of the canonical cut, given
    deg Res_y(F, T_a) by lemma (c) unless [0:0:1] lies on the curve.
    """
    if group is GroupId.PGL3 and curve.d >= 4 and len(curve.F.terms) > 6:
        return 0, "assumed-generic"
    return _affine_term(views, lambda: _canonical_factored(curve, group))


def mult_min_canonical(
    curve: CurveInput,
    group: GroupId,
    trials: int = 3,
    seed: int = 0,
) -> tuple[MultiplicityReport, InfinityChart, str]:
    """mult_min for the canonical (uncancelled) projective extension, via the
    jet series of the infinite branches (fiber piece plus corner piece);
    shears with a group element only when the branches are not workable.

    Certified affine base contributions (non-generic inputs only) are added
    at their generic-line value, the per-point minimum; uncertified ones are
    counted per trial line.
    """
    chart = infinity_chart(curve, group, seed)
    work = chart.curve
    deg_res: Optional[int] = None  # deg_x Res_y(F, T_a) by lemma (c)

    def components(piece: BranchPiece, t: int, rel: int) -> tuple[list[TruncatedSeries], int]:
        nonlocal deg_res
        comps, common, val = canonical_components_on_piece(work, group, piece, t, rel)
        if val is not None and len(piece.q) == work.d + 1:  # [0:0:1] is off the curve
            deg_res = work.d * (work.d - 1) * FY_EXPONENT[CANONICAL_AFFINE_PAIR[group][0]] - val
        # a component empty at the starting cap is settled by a doubling far
        # more cheaply than by the exact T_i; only one still empty after a
        # doubling needs the exact check
        if t > GROUP_START_TRUNC[group]:
            comps = _certify_zero_components(work, group, comps)
        return comps, common

    def affine_part(trial_lines: list) -> tuple[list[int], int, str]:
        views, first = tee(_affine_projections(work, lambda: _canonical_cut(work, group), deg_res))
        lower, status = canonical_affine_part(work, group, views)
        if status != "per-line":
            return [lower] * len(trial_lines), lower, status
        sums = _affine_line_sums(first, _canonical_factored(work, group), trial_lines)
        return sums, 0, status

    report, status = _mult_report(
        work,
        components,
        affine_part,
        _random_lines(seed, max(trials, 3)),
        GROUP_START_TRUNC[group],
        rel=GROUP_REL_CAP[group],
    )
    return report, chart, status


# ---------------------------------------------------------------------------
# series valuation tables (rational infinite point)


@dataclass(frozen=True)
class ValuationTable:
    root_w: Fraction
    val_theta: tuple[int, ...]  # val Theta_i(beta), i = 1..8
    val_fy: int
    v_i: tuple[int, ...]  # val of the homogenized T_i along alpha


def series_valuations(curve: CurveInput, root_w: Fraction) -> ValuationTable:
    """Valuations of Theta_1..8 and of the homogenized T_i along the branch
    at [0:1:root_w]; the root must be simple and rational, so val F_y is
    -(d-1) by lemma (a)."""
    H, q, _ = _chart_polys(curve)
    root_w = Fraction(root_w)
    qv = sum(Fraction(c) * root_w**k for k, c in enumerate(q))
    if qv != 0:
        raise ValueError("root_w is not a root of the infinite fiber")
    dqv = sum(Fraction(k * c) * root_w ** (k - 1) for k, c in enumerate(q) if k)
    if dqv == 0:
        raise ShearRequiredError("root_w is a multiple root; shear required")
    ring = SeriesRing([-root_w.numerator, root_w.denominator])

    def attempt(t: int) -> ValuationTable:
        # rational-root branch: modulus W - root_w
        w = newton_branch(H, "v", "w", ring, ring.generator(), t)
        one = TruncatedSeries.constant(ring, Fraction(1))
        piece = BranchPiece(ring, ring.q, TruncatedSeries.variable(ring), one, w)
        thetas = _jet_series(piece, t, t, range(1, 9))
        val_fy = _fy_valuation(curve, piece)
        vth = tuple(th.valuation() for th in thetas)
        vi = tuple(
            TAU_COEFFS[i][0] * curve.d + TAU_COEFFS[i][1] + vt + FY_EXPONENT[i] * val_fy
            for i, vt in enumerate(vth, 1)
        )
        return ValuationTable(root_w, vth, val_fy, vi)

    return _doubling(attempt, DEFAULT_TRUNC)


# ---------------------------------------------------------------------------
# base locus evidence


@dataclass(frozen=True)
class BaseLocusReport:
    affine_empty: Optional[bool]  # None = unresolved candidates remain
    affine_evidence: str
    infinity_points: str


def base_locus_on_curve(curve: CurveInput, sigma: HomogeneousTriple) -> BaseLocusReport:
    """Partition of the base locus on the curve into affine and infinite
    parts.  The affine test is the gcd of the resultants of F with the
    components; a constant gcd certifies emptiness."""
    if all(s.is_zero() for s in sigma.sigma):
        raise ValueError("signature map undefined on curve: zero triple")
    inf = _inf_points(curve, sigma)
    affine = [c for c in sigma.dehomogenized() if not c.is_zero()]
    try:
        for _images, _F, gsf, _res in _affine_projections(curve, lambda: affine):
            if gsf is None:
                return BaseLocusReport(True, "resultant gcd is constant", inf)
            evidence = f"common x-candidates cut out by a degree-{gsf.total_degree()} polynomial"
            return BaseLocusReport(None, evidence, inf)
    except ShearRequiredError:
        return BaseLocusReport(None, "every component vanishes on the curve", inf)
    return BaseLocusReport(None, "candidates meet the leading coefficient of F in every view", inf)


def _inf_points(curve: CurveInput, sigma: HomogeneousTriple) -> str:
    _, q, top = _chart_polys(curve)
    corner = top == 0
    corner_base = corner and all(s.evaluate({"x0": 0, "x1": 0, "x2": 1}) == 0 for s in sigma.sigma)
    parts = []
    if len(q) >= 2:
        g = q
        for s in sigma.sigma:
            su = s.evaluate_partial({"x0": Fraction(0), "x1": Fraction(1)})
            g = intpoly_gcd(g, intpoly_from_poly(su, "x2"))
            if len(g) == 1:
                break
        if len(g) > 1:
            parts.append(f"fiber base points cut out by w-polynomial of degree {len(g)-1}")
        else:
            parts.append("no base points among the finite-w fiber")
    if corner_base:
        parts.append("corner [0:0:1] is a base point on the curve")
    elif corner:
        parts.append("corner [0:0:1] on curve, not a base point")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# degree prediction


@dataclass(frozen=True)
class DegreeReport:
    d: int
    deg_sigma: int
    mult_sum: int
    n: Optional[int]
    deg_S_predicted: Optional[int]  # None when n unknown: see n_times_deg_S
    n_times_deg_S: int
    group: GroupId
    affine_base_points_excluded: bool
    affine_status: str
    mult_report: MultiplicityReport
    sheared: bool = False


def generic_degree(group: GroupId, d: int) -> int:
    """Closed-form generic signature degree; tight for generic curves."""
    if d < 3:
        raise ValueError("generic degree formulas require d >= 3")
    if d == 3:
        import warnings

        warnings.warn("generic degree at d = 3 is outside the stated hypothesis (d >= 4)")
    return {
        GroupId.SE2: 6 * d * d - 6 * d,
        GroupId.SA2: 24 * d * d - 48 * d,
        GroupId.A2: 24 * d * d - 48 * d,
        GroupId.PGL3: 96 * d * d - 216 * d,
    }[group]


def predict_degree(
    curve: CurveInput,
    group: GroupId,
    n: Optional[int] = None,
    trials: int = 3,
    seed: int = 0,
) -> DegreeReport:
    """Degree of the signature polynomial via the canonical projective
    extension: n * deg(S) = d * deg(sigma) - mult_sum."""
    require_non_exceptional(curve, group)
    report, chart, affine_status = mult_min_canonical(curve, group, trials=trials, seed=seed)
    d = curve.d
    a, b = SIGMA_DEGREE[group]
    deg_sigma = a * d + b
    total = d * deg_sigma - report.min_sum
    if n is not None:
        if n <= 0:
            raise ValueError("symmetry order must be positive")
        if total % n:
            raise NonIntegralSymmetryError(total, n, "d*deg(sigma) - mult_sum")
        deg_s = total // n
    else:
        deg_s = None
    return DegreeReport(
        d=d,
        deg_sigma=deg_sigma,
        mult_sum=report.min_sum,
        n=n,
        deg_S_predicted=deg_s,
        n_times_deg_S=total,
        group=group,
        affine_base_points_excluded=(affine_status != "included"),
        affine_status=affine_status,
        mult_report=report,
        sheared=chart.sheared_with is not None,
    )
