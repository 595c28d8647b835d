import itertools
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import sigcurve.degree as degree_mod
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_components_reference, fy_series_horner, jet_series_horner, mult_sum_line_resultant,
)
from sigcurve.degree import (
    CANONICAL_AFFINE_PAIR,
    CANONICAL_REL_CAP,
    GROUP_START_TRUNC,
    _branch_jets,
    _certify_zero_components,
    _chart_polys,
    _fy_valuation,
    _jet_series,
    _mult_report,
    _piece_val,
    _random_lines,
    base_locus_on_curve,
    canonical_components_on_piece,
    generic_degree,
    infinity_chart,
    infinity_pieces,
    mult_min,
    mult_min_canonical,
    mult_sum_line,
    predict_degree,
    series_valuations,
)
from sigcurve.errors import (
    InvalidCurveError, NonIntegralSymmetryError, ShearRequiredError, SigcurveError,
)
from sigcurve.jets import (
    GROUP_THETAS,
    CurveInput,
    GroupId,
    jet_order,
    projective_extension,
    theta,
    theta_table,
)
from sigcurve.parser import parse
from sigcurve.modp import resultant_coprime_image
from sigcurve.poly import SparsePoly, gcd, resultant
from sigcurve.series import INF, TruncatedSeries, evaluate_polys_at_series

R = ("x", "y")


def rand_curve(rng, d, height=9):
    while True:
        F = SparsePoly.from_terms(
            R,
            [((i, j), rng.randint(-height, height)) for i in range(d + 1) for j in range(d + 1 - i)],
        )
        cv = CurveInput.from_poly(F)
        if cv.d == d and not cv.fy().is_zero():
            return cv


def rand_curve_rational_infinity(rng, d, w0):
    while True:
        terms = {
            (i, j): Fraction(rng.randint(-9, 9))
            for i in range(d + 1)
            for j in range(d + 1 - i)
        }
        top = sum(c * w0**j for (i, j), c in terms.items() if i + j == d and (i, j) != (d, 0))
        terms[(d, 0)] = -top
        F = SparsePoly(R, {k: v for k, v in terms.items() if v})
        cv = CurveInput.from_poly(F)
        if cv.d == d:
            return cv


class TestCubicFixture:
    def test_mult_sums(self, worked_cubic):
        tri = projective_extension(worked_cubic, GroupId.A2, cancel=True)
        assert tri.deg == 26
        assert mult_sum_line(worked_cubic, tri, (5, 1, 1)) == 30
        # the known non-generic line pairs its -6 with the T4*T6 component
        # (component order here is [T4^3 : T5^2 : T4*T6])
        assert mult_sum_line(worked_cubic, tri, (1, 1, -6)) == 32
        rep = mult_min(worked_cubic, tri, trials=3, seed=0)
        assert rep.min_sum == 30
        assert rep.lower_bound == 30 and rep.sandwich_closed

    def test_sa2_affine_points_are_not_base_points(self, worked_cubic):
        # each fiber above 11x^2 - 9 holds two curve points, and no point is a
        # common zero of the components: the affine term is 0, not 10
        rep = predict_degree(worked_cubic, GroupId.SA2)
        assert rep.mult_sum == 54 and rep.n_times_deg_S == 66
        assert rep.affine_status != "included"
        tri = projective_extension(worked_cubic, GroupId.SA2)
        assert mult_min(worked_cubic, tri).min_sum == 54

    def test_predicted_degree(self, worked_cubic):
        rep = predict_degree(worked_cubic, GroupId.A2, n=2)
        assert rep.deg_S_predicted == 24
        assert rep.mult_sum == 60 and rep.deg_sigma == 36  # canonical triple
        with pytest.raises(NonIntegralSymmetryError):
            predict_degree(worked_cubic, GroupId.A2, n=7)


class TestGenericDegrees:
    def test_closed_forms(self):
        assert generic_degree(GroupId.SE2, 4) == 72
        assert generic_degree(GroupId.A2, 5) == 360
        assert generic_degree(GroupId.SA2, 5) == 360
        assert generic_degree(GroupId.PGL3, 4) == 672

    def test_d3_caveat_flag(self):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            generic_degree(GroupId.SE2, 3)
        assert any("d = 3" in str(w.message) for w in log)
        with pytest.raises(ValueError):
            generic_degree(GroupId.SE2, 2)

    def test_tightness_one_quartic(self):
        rng = random.Random(41)
        cv = rand_curve(rng, 4)
        for g in (GroupId.SE2, GroupId.SA2, GroupId.A2):
            rep = predict_degree(cv, g, n=1, seed=2)
            assert rep.deg_S_predicted == generic_degree(g, 4)
            assert rep.mult_report.sandwich_closed

    def test_per_point_multiplicities(self):
        # mult per infinite point is 0 / 16 / 12 for SE2 / SA2 / A2
        rng = random.Random(43)
        cv = rand_curve(rng, 4)
        for g, per_point in ((GroupId.SE2, 0), (GroupId.SA2, 16), (GroupId.A2, 12)):
            rep, _, _ = mult_min_canonical(cv, g, seed=5)
            assert rep.min_sum == 4 * per_point


class TestSeriesValuations:
    def test_quartic_tables(self):
        rng = random.Random(17)
        cv = rand_curve_rational_infinity(rng, 4, Fraction(2, 3))
        vt = series_valuations(cv, Fraction(2, 3))
        assert vt.val_theta == (0, 3, 4, 8, 15, 19, 40, 60)
        assert vt.v_i == (0, 2, 2, 4, 9, 11, 24, 36)

    def test_wrong_root_rejected(self):
        cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
        with pytest.raises(ValueError):
            series_valuations(cv, Fraction(1, 2))

    def test_fermat_rational_root(self):
        cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
        vt = series_valuations(cv, Fraction(-1))
        # non-generic curve: valuations exist but differ from the generic table
        assert len(vt.val_theta) == 8


class TestRoutesAgree:
    def test_series_vs_resultant_route(self, ellipse):
        tri = projective_extension(ellipse, GroupId.SE2)
        rng = random.Random(3)
        for _ in range(3):
            a = tuple(Fraction(rng.randint(-50, 50)) for _ in range(3))
            if all(x == 0 for x in a):
                continue
            assert mult_sum_line(ellipse, tri, a) == mult_sum_line_resultant(
                ellipse, tri, a
            )

    def test_cancelled_vs_uncancelled_consistency(self, worked_cubic):
        # n*deg(S) is extension-independent: d*deg - mult agrees
        t26 = projective_extension(worked_cubic, GroupId.A2, cancel=True)
        t36 = projective_extension(worked_cubic, GroupId.A2, cancel=False)
        m26 = mult_min(worked_cubic, t26, seed=1).min_sum
        m36 = mult_min(worked_cubic, t36, seed=1).min_sum
        assert 3 * 26 - m26 == 3 * 36 - m36 == 48


@pytest.mark.parametrize("text", ["y^2 - x^3", "x^2*y + y^2 + y + 64/121", "x^3 + y^3 + 1"])
@pytest.mark.parametrize("group", [GroupId.SE2, GroupId.SA2, GroupId.A2])
def test_explicit_and_canonical_triples_agree(text, group):
    cv = CurveInput.from_poly(parse(text))
    explicit = mult_min(cv, projective_extension(cv, group))
    canonical, _, _ = mult_min_canonical(cv, group)
    assert explicit.min_sum == canonical.min_sum
    assert explicit.lower_bound == canonical.lower_bound
    assert explicit.sandwich_closed and canonical.sandwich_closed


@pytest.mark.parametrize(
    "curve, group",
    [
        (lambda: CurveInput.from_poly(parse("x^2*y + y^2 + y + 64/121")), GroupId.PGL3),
        (lambda: CurveInput.from_poly(parse("y^2 - x^3")), GroupId.PGL3),
        (lambda: CurveInput.from_poly(parse("x^4 + y^4 + 1")), GroupId.A2),
        (lambda: rand_curve(random.Random(15), 4, height=1), GroupId.PGL3),
    ],
    ids=["worked-cubic-root-w0", "cusp-corner", "fermat-quartic", "dense-quartic"],
)
@pytest.mark.parametrize("doublings", [0, 1])
def test_sized_branches_give_the_same_components(curve, group, doublings):
    # the canonical route reads each branch only to its valuation plus the
    # relative cap; the components must equal those from the full branch
    work = infinity_chart(curve(), group).curve
    t = GROUP_START_TRUNC[group] << doublings
    rel = CANONICAL_REL_CAP << doublings
    full = infinity_pieces(work, t)
    sized = infinity_pieces(work, t, rel)
    assert [p.q for p in full] == [p.q for p in sized]
    for pf, ps in zip(full, sized):
        cf, common_f, val_f = canonical_components_on_piece(work, group, pf, t, rel)
        cs, common_s, val_s = canonical_components_on_piece(work, group, ps, t, rel)
        assert [(c.terms, c.den, c.trunc) for c in cf] == [(c.terms, c.den, c.trunc) for c in cs]
        assert (common_f, val_f) == (common_s, val_s)


CANONICAL_CURVES = {
    "worked-cubic": lambda: CurveInput.from_poly(parse("x^2*y + y^2 + y + 64/121")),
    "cusp": lambda: CurveInput.from_poly(parse("y^2 - x^3")),
    "fermat-quartic": lambda: CurveInput.from_poly(parse("x^4 + y^4 + 1")),
    "dense-quartic": lambda: rand_curve(random.Random(15), 4, height=1),
    "dense-quintic": lambda: rand_curve(random.Random(8), 5, height=2),
    # Theta_1 = 1 + u1^2 vanishes at the circular points w = +-i of its fiber
    "circular-quartic": lambda: CurveInput.from_poly(parse("x^4 - y^4 + x^2 + 1")),
}
ALL_GROUPS = (GroupId.SE2, GroupId.SA2, GroupId.A2, GroupId.PGL3)


@pytest.mark.parametrize("group", ALL_GROUPS)
@pytest.mark.parametrize("name", CANONICAL_CURVES)
def test_common_factor_counted_once_matches_reference(name, group):
    # the components with x0^deg(sigma) * F_y^k multiplied in give the same
    # trial-line sums and lower bound as the Theta products plus the
    # factor's valuation (the worked cubic meets infinity at w = 0 under
    # PGL(3); the cusp's branch at infinity is the corner piece, where its
    # PGL(3) component T_8 * T_5^4 is an exact zero)
    _reports_agree_with_reference(infinity_chart(CANONICAL_CURVES[name](), group).curve, group)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(ALL_GROUPS))
def test_leading_order_components_match_reference_on_random_quartics(seed, group):
    # the Theta products read to their first terms give the reference's
    # trial-line sums and lower bound
    try:
        work = infinity_chart(rand_curve(random.Random(seed), 4), group).curve
    except ShearRequiredError:
        assume(False)
    _reports_agree_with_reference(work, group)


def _reports_agree_with_reference(work: CurveInput, group: GroupId, lines=None) -> None:
    def reference(piece, t, rel):
        comps = canonical_components_reference(work, group, piece, t, rel)
        return _certify_zero_components(work, group, comps), 0

    def counted_once(piece, t, rel):
        comps, common, _val = canonical_components_on_piece(work, group, piece, t, rel)
        return _certify_zero_components(work, group, comps), common

    def report(components):
        no_affine = lambda lines: ([0] * len(lines), 0, "none")
        return _mult_report(
            work, components, no_affine, lines or _random_lines(3, 4), GROUP_START_TRUNC[group],
            CANONICAL_REL_CAP,
        )[0]

    want, got = report(reference), report(counted_once)
    assert got.trials == want.trials
    assert got.lower_bound == want.lower_bound


FY_CURVES = {
    **CANONICAL_CURVES,
    **{f"dense-quartic-{seed}": lambda seed=seed: rand_curve(random.Random(seed), 4)
       for seed in (1, 2, 3)},
    **{f"dense-quintic-{seed}": lambda seed=seed: rand_curve(random.Random(seed), 5)
       for seed in (1, 6)},
    # [0:0:1] on the curve with dFh/dx1 != 0 there, and with dFh/dx0 != 0 only
    "corner-du": lambda: CurveInput.from_poly(parse("x*y^2 + x^3 + y + 1")),
    "corner-ds": lambda: CurveInput.from_poly(parse("y^2 - x^3 + x^2*y + x + 1")),
}


@pytest.mark.parametrize("group", ALL_GROUPS)
@pytest.mark.parametrize("name", FY_CURVES)
def test_fy_order_is_the_horner_series_valuation(name, group):
    # -(d-1) * deg q on the fiber piece (q squarefree), the branch's
    # Wronskian order on the corner piece: both equal the valuation of F_y
    # evaluated by Horner along the piece
    work = infinity_chart(FY_CURVES[name](), group).curve
    t = GROUP_START_TRUNC[group]
    for piece in infinity_pieces(work, t, CANONICAL_REL_CAP):
        fy = fy_series_horner(work, piece, t, CANONICAL_REL_CAP)
        assert _fy_valuation(work, piece) == _piece_val(fy, piece), piece.q


def test_fiber_piece_evaluates_no_fy_series(monkeypatch):
    cv = rand_curve(random.Random(4), 4)
    evaluated = []
    evaluate = degree_mod.evaluate_polys_at_series

    def recorded(polys, *args, **kwargs):
        evaluated.extend(polys)
        return evaluate(polys, *args, **kwargs)

    monkeypatch.setattr(degree_mod, "evaluate_polys_at_series", recorded)
    for group in ALL_GROUPS:
        work = infinity_chart(cv, group).curve
        t = GROUP_START_TRUNC[group]
        [piece] = infinity_pieces(work, t, CANONICAL_REL_CAP)
        canonical_components_on_piece(work, group, piece, t, CANONICAL_REL_CAP)
        assert evaluated and work.fy() not in evaluated, group
        evaluated.clear()


@pytest.mark.parametrize("doublings", [0, 1])
def test_components_are_read_to_their_first_term_on_a_dense_quartic(doublings):
    # every Theta_i has a unit first coefficient on the fiber, so each
    # component is known max(1, rel // CANONICAL_REL_CAP) orders past it
    cv = rand_curve(random.Random(4), 4)
    for group in ALL_GROUPS:
        work = infinity_chart(cv, group).curve
        t = GROUP_START_TRUNC[group] << doublings
        rel = CANONICAL_REL_CAP << doublings
        [piece] = infinity_pieces(work, t, rel)
        comps, _common, _val = canonical_components_on_piece(work, group, piece, t, rel)
        assert [c.trunc - c.valuation() for c in comps] == [1 << doublings] * 3, group


@pytest.mark.parametrize("group", ALL_GROUPS)
def test_a_zero_line_coefficient_adds_an_exact_zero(monkeypatch, group):
    # a line that leaves out the component of least valuation (Theta_1^3
    # under SE(2)) reads the others at their first terms; the component it
    # leaves out, known one order, must not bound the sum's trusted order
    work = infinity_chart(rand_curve(random.Random(4), 4), group).curve
    lines = [tuple(map(Fraction, a)) for a in ((0, 3, 5), (2, 0, 7), (4, 1, 0), (0, 0, 1))]
    calls = _count_pieces(monkeypatch)
    _reports_agree_with_reference(work, group, lines)
    assert len(calls) == 2  # one attempt for each route


def test_a_non_unit_first_coefficient_keeps_the_full_cap():
    # Theta_1 = 1 + u1^2 vanishes where w = +-i on the fiber of
    # x^4 - y^4 + x^2 + 1 (q = 1 - w^4), so under SE(2) the Theta_i keep
    # the relative cap (the jets behind Theta_2, Theta_3 lose two orders); the
    # report equals the reference's (CANONICAL_CURVES)
    work = infinity_chart(CANONICAL_CURVES["circular-quartic"](), GroupId.SE2).curve
    t = GROUP_START_TRUNC[GroupId.SE2]
    [piece] = infinity_pieces(work, t, CANONICAL_REL_CAP)
    comps, _, _ = canonical_components_on_piece(work, GroupId.SE2, piece, t, CANONICAL_REL_CAP)
    assert [c.trunc - c.min_exp() for c in comps] == [16, 14, 14]


def _count_pieces(monkeypatch) -> list:
    calls = []
    pieces = degree_mod.infinity_pieces

    def counted(*args):
        calls.append(args)
        return pieces(*args)

    monkeypatch.setattr(degree_mod, "infinity_pieces", counted)
    return calls


@pytest.mark.parametrize("d, seed", [(4, 3), (4, 11), (5, 6)])
def test_relative_cap_leaves_a_margin_on_generic_curves(monkeypatch, d, seed):
    # the cap's justification: at the starting cap every Theta series along
    # every branch piece keeps at least 2 known orders past its first
    # nonzero term, and predict_degree never doubles the truncation
    cv = rand_curve(random.Random(seed), d)
    calls = _count_pieces(monkeypatch)
    for group in ALL_GROUPS:
        work = infinity_chart(cv, group).curve
        t = GROUP_START_TRUNC[group]
        for piece in infinity_pieces(work, t, CANONICAL_REL_CAP):
            thetas = _jet_series(piece, t, CANONICAL_REL_CAP, GROUP_THETAS[group])
            assert all(th.trunc - th.valuation() >= 2 for th in thetas), (group, piece.q)
        calls.clear()
        rep = predict_degree(cv, group, n=1, seed=seed)
        assert rep.deg_S_predicted == generic_degree(group, d)
        assert len(calls) == 1


def test_report_does_not_depend_on_the_doublings(monkeypatch):
    # a cap of 2 is too small for the Fermat cubic under A(2): one doubling,
    # and the report, trial lines included, is the unforced one
    cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
    want = predict_degree(cv, GroupId.A2, seed=4)
    monkeypatch.setattr(degree_mod, "CANONICAL_REL_CAP", 2)
    calls = _count_pieces(monkeypatch)
    assert predict_degree(cv, GroupId.A2, seed=4) == want
    assert len(calls) == 2


# the degree-generic benchmark's seed-1 round-0 quartic and trial seed
BENCH_QUARTIC = {
    (0, 0): 6, (0, 1): -1, (0, 2): -5, (0, 3): -4, (0, 4): 3, (1, 0): -2, (1, 1): 4,
    (1, 2): 5, (1, 3): -1, (2, 0): 8, (2, 1): -8, (2, 2): 4, (3, 0): 3, (3, 1): 1, (4, 0): -2,
}


def test_an_empty_component_doubles_before_its_exact_check(monkeypatch):
    # at cap 8 the quartic's third PGL(3) component, Theta_8 * Theta_5^4, is
    # empty on the first attempt; the doubling finds it nonzero, so the exact
    # T_8 (far the most costly T_i) is never built, and the report is the
    # default cap's
    import sigcurve.jets as jets_mod

    cv = CurveInput.from_poly(SparsePoly.from_terms(R, list(BENCH_QUARTIC.items())))
    want = predict_degree(cv, GroupId.PGL3, n=1, seed=341)
    jets_mod.theta.cache_clear()
    built = []
    theta = jets_mod.theta

    def recorded(curve, index):
        built.append(index)
        return theta(curve, index)

    monkeypatch.setattr(jets_mod, "theta", recorded)
    monkeypatch.setattr(degree_mod, "theta", recorded)
    monkeypatch.setattr(degree_mod, "CANONICAL_REL_CAP", 8)
    calls = _count_pieces(monkeypatch)
    assert predict_degree(cv, GroupId.PGL3, n=1, seed=341) == want
    assert len(calls) == 2
    assert built and 8 not in built


def test_cusp_degree_under_pgl3_is_zero():
    # the cusp's PGL(3) signature is a point: T_8 vanishes on the curve, its
    # component is an exact zero at infinity and has infinite order at the
    # affine base point
    rep = predict_degree(CurveInput.from_poly(parse("y^2 - x^3")), GroupId.PGL3)
    assert rep.n_times_deg_S == 0
    assert rep.mult_report.sandwich_closed


def test_branch_at_a_zero_root_is_sized_past_its_valuation():
    # the worked cubic under PGL(3) meets infinity at w = 0, where the
    # branch starts at v^3: the cap reads it to order 3 + the cap
    cubic = CurveInput.from_poly(parse("x^2*y + y^2 + y + 64/121"))
    work = infinity_chart(cubic, GroupId.PGL3).curve
    fiber = infinity_pieces(work, 80, CANONICAL_REL_CAP)[0]
    assert fiber.q == (0, 1)
    assert fiber.x2.min_exp() == 3
    assert fiber.x2.trunc == 3 + CANONICAL_REL_CAP


def _count_products(monkeypatch) -> list:
    # products of two series; a product with an exact constant is a scaling
    # (one pass over the other operand) and is not counted
    products = []
    mul = TruncatedSeries.__mul__

    def counted(a, b):
        if not any(s.trunc >= INF and s.terms.keys() <= {(0, 0)} for s in (a, b)):
            products.append(1)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    return products


def test_theta_series_take_horner_products(monkeypatch):
    # Theta_5, Theta_7, Theta_8 at the PGL(3) jet series of a dense quartic
    # take 181 products of two series monomial by monomial and 107 by
    # Horner.  Not counted: the 70 and 63 products with an exact constant,
    # each a scaling (one pass over the other operand).
    group = GroupId.PGL3
    work = infinity_chart(rand_curve(random.Random(4), 4), group).curve
    t = GROUP_START_TRUNC[group]
    piece = infinity_pieces(work, t, 32)[0]
    u, _dx_inv = _branch_jets(piece, t, 32, jet_order(GROUP_THETAS[group]))
    products = _count_products(monkeypatch)
    polys = [theta_table()[i] for i in GROUP_THETAS[group]]
    evaluate_polys_at_series(polys, u, piece.ring, rel_cap=32)
    assert len(products) <= 130


def test_theta_chain_along_a_branch_takes_few_products(monkeypatch):
    # Theta_4 by Horner and Theta_5..Theta_8 by the derivative chain along
    # the PGL(3) fiber piece of a dense quartic take 50 products; Horner
    # over the expanded Theta_5, Theta_7, Theta_8 takes 147
    group = GroupId.PGL3
    work = infinity_chart(rand_curve(random.Random(4), 4), group).curve
    t = GROUP_START_TRUNC[group]
    [piece] = infinity_pieces(work, t, CANONICAL_REL_CAP)
    products = _count_products(monkeypatch)
    _jet_series(piece, t, CANONICAL_REL_CAP, GROUP_THETAS[group])
    assert len(products) <= 55


def _fractions_below(s: TruncatedSeries, order: int) -> dict:
    return {jk: Fraction(c, s.den) for jk, c in s.terms.items() if c and jk[0] < order}


def _chain_agrees_with_horner(cv: CurveInput, group: GroupId) -> int:
    """Theta_1..Theta_8 of ``_jet_series`` equal the Horner oracle's below
    their common trusted order on every branch piece at the group's
    starting truncation, or both routes raise the same error (from the
    branch jets they share); the number of pieces."""
    work = infinity_chart(cv, group).curve
    t = GROUP_START_TRUNC[group]
    pieces = infinity_pieces(work, t, CANONICAL_REL_CAP)
    for piece in pieces:
        try:
            horner = jet_series_horner(piece, t, CANONICAL_REL_CAP, range(1, 9))
        except (SigcurveError, ZeroDivisionError) as err:
            with pytest.raises(type(err)):
                _jet_series(piece, t, CANONICAL_REL_CAP, range(1, 9))
            continue
        chain = _jet_series(piece, t, CANONICAL_REL_CAP, range(1, 9))
        for i, (c, h) in enumerate(zip(chain, horner), 1):
            common = min(c.trunc, h.trunc)
            assert _fractions_below(c, common) == _fractions_below(h, common), (i, piece.q)
            if i <= 4:
                assert c.trunc == h.trunc
    return len(pieces)


CHAIN_CURVES = [
    *((f"dense-quartic-{seed}", lambda seed=seed: rand_curve(random.Random(seed), 4), GroupId.PGL3)
      for seed in (3, 4, 11)),
    *((f"fermat-{d}", lambda d=d: CurveInput.from_poly(parse(f"x^{d} + y^{d} + 1")), GroupId.PGL3)
      for d in (3, 4, 5)),
    *((name, lambda text=text: CurveInput.from_poly(parse(text)), group)
      for name, text in (("worked-cubic", "x^2*y + y^2 + y + 64/121"),
                         ("elliptic", "y^2 - x^3 - x - 1"))
      for group in (GroupId.A2, GroupId.PGL3)),
]


@pytest.mark.parametrize("name, curve, group", CHAIN_CURVES, ids=[c[0] for c in CHAIN_CURVES])
def test_theta_chain_along_branches_matches_horner(name, curve, group):
    assert _chain_agrees_with_horner(curve(), group) >= 1


# exponents of the curves of degree at most 4
TRIANGLE = [(i, j) for i in range(5) for j in range(5 - i)]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TRIANGLE), st.integers(-5, 5)), min_size=2, max_size=10),
       st.sampled_from(ALL_GROUPS))
def test_theta_chain_along_branches_matches_horner_on_random_curves(terms, group):
    F = SparsePoly.from_terms(R, terms)
    try:
        cv = CurveInput.from_poly(F)
        infinity_chart(cv, group)
    except (InvalidCurveError, ShearRequiredError):
        assume(False)
    assume(cv.d >= 2 and not cv.fy().is_zero())
    _chain_agrees_with_horner(cv, group)


def test_series_valuations_by_the_chain_match_horner(monkeypatch):
    cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
    chain = series_valuations(cv, Fraction(-1))
    monkeypatch.setattr(degree_mod, "_jet_series", jet_series_horner)
    assert series_valuations(cv, Fraction(-1)) == chain


def test_affine_term_per_line_when_no_view_separates_points():
    # base point at the origin of a circle through it; the third component
    # also vanishes on every line through the origin that a view projects
    # along, so each candidate fiber holds a second curve point where some
    # component vanishes
    from sigcurve.degree import _affine_line_sums, _affine_projections, _affine_term

    cv = CurveInput.from_poly(parse("x^2 + y^2 - 2*x - 3*y"))
    x, y, f = (parse(t).map_variables(R) for t in ("x", "y", "x*y*(x-y)*(x-2*y)*(x-3*y)"))
    factored = [[(x, 1)], [(y, 1)], [(f, 1)]]
    views, first = itertools.tee(_affine_projections(cv, lambda: [x, y]))
    assert _affine_term(views, lambda: factored) == (0, "per-line")
    # a generic line meets the curve transversally at the origin only
    lines = [(Fraction(3), Fraction(5), Fraction(7)), (Fraction(-2), Fraction(1), Fraction(4))]
    assert _affine_line_sums(first, factored, lines) == [1, 1]


@pytest.mark.parametrize("text", ["x^2*y + y^2 + y + 64/121", "x^3 + y^3 + 1", "x^4 + y^4 + 1"])
def test_coprime_image_never_certifies_a_common_factor(text):
    # every view of these curves has a nonconstant resultant gcd, so the
    # image must stay inconclusive in each, and the exact route decides
    from sigcurve.degree import _affine_projections, _canonical_cut, _view

    cv = CurveInput.from_poly(parse(text))
    cut = _canonical_cut(cv, GroupId.A2)
    views = list(_affine_projections(cv, lambda: cut))
    assert views
    for images, F, gsf, _res in views:
        a, b = (resultant(F, _view(p, images), "y") for p in cut)
        assert not gcd(a, b).is_constant() and gsf is not None
        assert not resultant_coprime_image(a, F, _view(cut[1], images), "y")
    assert predict_degree(cv, GroupId.A2).affine_status == "included"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# a dense quartic with no y^4 term: [0:0:1] is a smooth point of the curve,
# so the branches at infinity have a corner piece
CORNER_QUARTIC = ("-x*y^3+4*x^2*y^2+x^3*y-2*x^4-4*y^3+5*x*y^2-8*x^2*y+3*x^3-5*y^2+4*x*y"
                  "+8*x^2-y-2*x+6")


@pytest.mark.parametrize("seed", [3, 4])
def test_generic_affine_check_takes_one_exact_resultant(monkeypatch, seed):
    # on dense quartics the lemma (c) image certifies the first view with no
    # exact resultant; where it cannot decide, the image certifies it after
    # the exact resultant of the cheaper cut polynomial.  PGL3 skips the check
    calls = []
    exact, image = degree_mod.resultant, degree_mod.resultant_coprime_image

    def counted(*args):
        calls.append(args)
        return exact(*args)

    def count(group):
        calls.clear()
        rep = predict_degree(cv, group)
        assert rep.affine_status == "verified-empty", group
        return rep, len(calls)

    monkeypatch.setattr(degree_mod, "resultant", counted)
    cv = rand_curve(random.Random(seed), 4)
    groups = (GroupId.SE2, GroupId.SA2, GroupId.A2)
    reports = []
    for group in groups:
        rep, n = count(group)
        assert n == 0, group
        reports.append(rep)
    monkeypatch.setattr(degree_mod, "resultant_coprime_image",
                        lambda *args, degree=None: degree is None and image(*args))
    assert [count(group) for group in groups] == [(rep, 1) for rep in reports]


def test_generic_affine_check_takes_no_exact_resultant(monkeypatch):
    # on the degree-generic benchmark's seed-1 curves lemma (c) reads
    # deg Res_y(F, T_a) from the branches at infinity, and two coprime
    # images mod p settle the first view: no exact resultant is built, and
    # the reports equal the exact route's
    import sigcurve.poly as poly_mod

    predict, exact = degree_mod.predict_degree, poly_mod.resultant
    resultants, calls = [], []

    def counted(*args):
        resultants.append(args)
        return exact(*args)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, predict(*args, **kwargs)))
        return calls[-1][2]

    for module in (degree_mod, poly_mod):
        monkeypatch.setattr(module, "resultant", counted)
    monkeypatch.setattr(degree_mod, "predict_degree", recorded)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for r in (0, 1):
        for op in workloads.degree_generic(workloads.round_rng("degree-generic", 1, r)):
            assert op.check(op.call()) is None, op.label
    assert len(calls) == 10 and not resultants
    assert [rep.affine_status for *_, rep in calls if rep.group is not GroupId.PGL3] == [
        "verified-empty"] * 8
    monkeypatch.setattr(degree_mod, "resultant_coprime_image", lambda *args, **kwargs: False)
    for args, kwargs, rep in calls:
        assert predict(*args, **kwargs) == rep
    assert resultants


# perfbench.workloads.dense_curve(Random(seed), d): (d, seed)
BENCH_CURVES = {f"bench-{name}-{seed}": (d, seed)
                for d, name in ((4, "quartic"), (5, "quintic")) for seed in (1, 2, 3)}


@pytest.mark.parametrize("group", [GroupId.SE2, GroupId.SA2, GroupId.A2])
@pytest.mark.parametrize("name", [*CANONICAL_CURVES, *BENCH_CURVES])
def test_cut_resultant_degree_is_read_from_the_branches(monkeypatch, name, group):
    # lemma (c): with [0:0:1] off the curve, deg_x Res_y(F, T_a) =
    # d * d_a * (d - 1) - the fiber sum of val Theta_a; with a corner piece
    # no degree is read
    if name in CANONICAL_CURVES:
        cv = CANONICAL_CURVES[name]()
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        d, seed = BENCH_CURVES[name]
        cv = workloads._curve_input(workloads.dense_curve(random.Random(seed), d))
    read = []
    projections = degree_mod._affine_projections

    def recorded(curve, cut, degree=None):
        read.append(degree)
        return projections(curve, cut, degree)

    monkeypatch.setattr(degree_mod, "_affine_projections", recorded)
    mult_min_canonical(cv, group)
    work = infinity_chart(cv, group).curve
    if _chart_polys(work)[2] == 0:
        assert read == [None]
        return
    T = theta(work, CANONICAL_AFFINE_PAIR[group][0]).T
    assert read == [int(resultant(work.F, T, "y").total_degree())]


@pytest.mark.parametrize(
    "text, images, total, status",
    [
        # the images share the factor of the affine base points
        ("x^4 + y^4 + 1", [False], 96, "included"),
        # corner pieces: no degree is read, so no image is taken
        ("x^2*y + y^2 + y + 64/121", [], 48, "included"),
        (CORNER_QUARTIC, [], 192, "verified-empty"),
    ],
    ids=["fermat-quartic", "worked-cubic", "corner-quartic"],
)
def test_the_exact_route_answers_where_the_images_cannot(monkeypatch, text, images, total, status):
    cv = CurveInput.from_poly(parse(text))
    tried = []
    coprime = degree_mod.resultant_coprime_image

    def recorded(*args, **kwargs):
        if "degree" in kwargs:  # the images of both resultants of the cut
            tried.append(coprime(*args, **kwargs))
            return tried[-1]
        return coprime(*args, **kwargs)

    monkeypatch.setattr(degree_mod, "resultant_coprime_image", recorded)
    rep = predict_degree(cv, GroupId.A2)
    assert tried == images
    assert (rep.n_times_deg_S, rep.affine_status) == (total, status)
    monkeypatch.setattr(degree_mod, "resultant_coprime_image", lambda *args, **kwargs: False)
    assert predict_degree(cv, GroupId.A2) == rep


class TestBaseLocus:
    def test_generic_quartic_affine_empty(self):
        rng = random.Random(19)
        cv = rand_curve(rng, 4)
        tri = projective_extension(cv, GroupId.A2)
        rep = base_locus_on_curve(cv, tri)
        assert rep.affine_empty is True

    def test_fermat_pgl3_base_at_infinity(self):
        cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
        tri = projective_extension(cv, GroupId.PGL3)
        rep = base_locus_on_curve(cv, tri)
        assert rep.affine_empty is True
        assert "base points" in rep.infinity_points

    def test_worked_cubic_affine_candidates(self, worked_cubic):
        tri = projective_extension(worked_cubic, GroupId.A2, cancel=True)
        rep = base_locus_on_curve(worked_cubic, tri)
        assert rep.affine_empty is None  # candidates cut out by 11x^2 - 9

    def test_zero_triple_rejected(self, ellipse):
        from sigcurve.jets import HomogeneousTriple

        z = SparsePoly.zero(("x0", "x1", "x2"))
        with pytest.raises(ValueError):
            base_locus_on_curve(ellipse, HomogeneousTriple((z, z, z), 0, GroupId.SE2))


class TestFermatDegrees:
    def test_fermat_pgl3_nds(self):
        # n*deg(S) = 6d^2 * 4 for the Fermat family
        for d in (3, 4):
            cv = CurveInput.from_poly(parse(f"x^{d} + y^{d} + 1"))
            rep = predict_degree(cv, GroupId.PGL3, seed=1)
            assert rep.n_times_deg_S == 6 * d * d * 4

    def test_fermat_a2_nds(self):
        for d, deg_s in ((3, 2), (4, 3)):
            cv = CurveInput.from_poly(parse(f"x^{d} + y^{d} + 1"))
            rep = predict_degree(cv, GroupId.A2, seed=1)
            assert rep.n_times_deg_S == 2 * d * d * deg_s
