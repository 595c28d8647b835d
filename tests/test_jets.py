import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    jets_at_point,
    projective_extension_reference,
    theta_horner,
    theta_literals,
    theta_numerator_reference,
    transform_point,
)
from sigcurve import jets
from sigcurve.errors import ExceptionalCurveError, InvalidCurveError, VerticalLineError
from sigcurve.jets import (
    CurveInput,
    GroupId,
    apply_group_element,
    classifying_pair,
    exceptional_check,
    fiber_invariants,
    implicit_jet,
    invariants_at_point,
    projective_extension,
    theta,
)
from sigcurve.parser import parse, serialize
from sigcurve.poly import SparsePoly, exact_div
from sigcurve.series import SeriesRing, intpoly_from_poly

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


class TestImplicitJet:
    def test_circle_formulas(self, circle):
        j = implicit_jet(circle, 2)
        # y' = -x/y and y'' = -(x^2+y^2)/y^3 after scaling
        assert j.p(1) == parse("-2x")
        assert j.p(2) == parse("-8x^2 - 8y^2")

    def test_line_higher_jets_vanish(self):
        line = CurveInput.from_poly(parse("y - x"))
        j = implicit_jet(line, 4)
        fy = line.fy()
        assert (j.p(1).constant_value() / fy.constant_value()) == 1
        assert j.p(2).is_zero() and j.p(3).is_zero() and j.p(4).is_zero()

    def test_worked_cubic_degree_bound(self, worked_cubic):
        assert implicit_jet(worked_cubic, 2).p(2).total_degree() <= 3 * 3 - 4

    def test_p_n_degree_bounds_random(self):
        rng = random.Random(3)
        for d in (3, 4):
            cv = rand_curve(rng, d)
            j = implicit_jet(cv, 8)
            for n in range(1, 9):
                assert j.p(n).total_degree() <= (2 * n - 1) * d - (3 * n - 2)

    def test_recurrence_matches_branch_series(self):
        # independent oracle: local Taylor expansion through a rational point
        F = parse("x^3*y + 2x*y^2 - y^3 + x - 7y + 5")
        c = F.evaluate({"x": Fraction(1), "y": Fraction(1)})
        cv = CurveInput.from_poly(F - SparsePoly.const(R, c))
        p = (Fraction(1), Fraction(1))
        u_branch = jets_at_point(cv, p, 8)
        j = implicit_jet(cv, 8)
        fy = cv.fy().evaluate({"x": p[0], "y": p[1]})
        u_rec = [
            j.p(n).evaluate({"x": p[0], "y": p[1]}) / fy ** (2 * n - 1)
            for n in range(1, 9)
        ]
        assert u_branch == u_rec

    def test_orders_share_jets(self):
        cv = rand_curve(random.Random(11), 4)
        j5, j8 = implicit_jet(cv, 5), implicit_jet(cv, 8)
        assert [n for _, n in j8.entries] == list(range(1, 9))
        assert all(a is b for a, b in zip(j5.entries, j8.entries[:5]))

    def test_vertical_line_error(self):
        from sigcurve.errors import VerticalLineError

        with pytest.raises(VerticalLineError):
            implicit_jet(CurveInput.from_poly(parse("x^2 - 1")), 2)


class TestTheta:
    def test_degree_bounds_dense(self):
        rng = random.Random(5)
        for d in (3, 4):
            cv = rand_curve(rng, d)
            for i in range(1, 7):
                t = theta(cv, i)
                assert t.T.total_degree() <= t.tau_i
                assert t.content * t.primitive == t.T

    def test_degree_bounds_high_theta_small_curve(self):
        cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
        for i in (7, 8):
            t = theta(cv, i)
            assert t.T.total_degree() <= t.tau_i

    def test_line_theta2_zero(self):
        line = CurveInput.from_poly(parse("y - x"))
        assert theta(line, 2).T.is_zero()

    def test_exact_identity_on_fraction_field(self):
        # T_i = Theta_i(jets) * F_y^{d_i} as rational functions: verified by
        # exact cancellation at several rational arguments
        from sigcurve.jets import theta_table

        rng = random.Random(11)
        cv = rand_curve(rng, 3)
        jets = implicit_jet(cv, 8)
        for i in (3, 4, 5, 6):
            t = theta(cv, i)
            for _ in range(3):
                pt = {
                    "x": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                    "y": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                }
                fyv = cv.fy().evaluate(pt)
                if fyv == 0:
                    continue
                u = {
                    f"u{n}": jets.p(n).evaluate(pt) / fyv ** (2 * n - 1)
                    for n in range(1, 9)
                }
                assert theta_table()[i].evaluate(u) * fyv**t.d_i == t.T.evaluate(pt)

    def test_theta_matches_monomial_reference(self):
        rng = random.Random(23)
        cases = [(rand_curve(rng, d), range(1, 7)) for d in (3, 4, 5)]
        cases.append((rand_curve(rng, 3), (7,)))
        for cv, indices in cases:
            for i in indices:
                num, D = theta_numerator_reference(cv, i)
                t = theta(cv, i)
                assert t.T == exact_div(num, cv.fy() ** (D - t.d_i)), (cv.F, i)

    def test_spot_check_at_the_theta_jet_order(self):
        # the check reads only the jets Theta_i uses and still refuses a
        # wrong restriction
        from sigcurve.jets import _spot_check_theta, jet_order

        cv = rand_curve(random.Random(7), 3)
        for i in (2, 5):
            t = theta(cv, i)
            jets = implicit_jet(cv, jet_order([i]))
            _spot_check_theta(cv, i, t.T, t.d_i, jets)
            with pytest.raises(AssertionError):
                _spot_check_theta(cv, i, t.T + SparsePoly.const(R, 1), t.d_i, jets)


def pgl3_image_cubic():
    F = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
    return apply_group_element(F, [[1, 1, 0], [0, 1, 1], [2, 0, 1]], GroupId.PGL3)


def chain_case(text, indices=range(5, 9)):
    return pytest.param(lambda: CurveInput.from_poly(parse(text)), indices, id=text)


# T_8 of a dense quartic is left to the cubics
CHAIN_CASES = [
    pytest.param(lambda: rand_curve(random.Random(31), 3), range(5, 9), id="dense-cubic"),
    pytest.param(lambda: rand_curve(random.Random(32), 4), range(5, 8), id="dense-quartic"),
    chain_case("x^3 + y^3 + 1"),
    chain_case("x^4 + y^4 + 1"),
    chain_case("y^2 - x^3"),
    chain_case("x^2*y + y^2 + y + 64/121"),
    chain_case("x^2 + y^2 - 1"),  # Theta_5 = 0 on conics: T_5..T_8 are 0
    chain_case("x^2 + x*y + y^2 - 1"),
    chain_case("y - x"),  # F_y constant
    chain_case("y - x^3"),
    chain_case("x^3/2 + 3*y^2/4 + x*y + 5/6"),  # F_y = 12x + 18y, content 6
    pytest.param(pgl3_image_cubic, range(5, 9), id="pgl3-image-cubic"),
]


class TestThetaChain:
    """T_5..T_8 by the derivative chain against Horner over the expanded
    polynomials (the oracle ``theta_horner``)."""

    def test_table_derives_the_literals(self):
        table, literals = jets.theta_table(), theta_literals()
        assert all(table[i] == literals[i] for i in range(1, 9))

    @pytest.mark.parametrize("make, indices", CHAIN_CASES)
    def test_chain_matches_horner(self, make, indices):
        cv = make()
        for i in indices:
            got, want = theta(cv, i), theta_horner(cv, i)
            assert (got.T, got.content, got.primitive) == (want.T, want.content, want.primitive)
            assert (got.d_i, got.tau_i) == (want.d_i, want.tau_i)
        if cv.d == 2:
            assert all(theta(cv, i).T.is_zero() for i in range(5, 9))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
                    min_size=2, max_size=6))
    def test_chain_matches_horner_on_random_curves(self, items):
        items = [((i, j), c) for i, j, c in items if i + j <= 3]
        try:
            cv = CurveInput.from_poly(SparsePoly.from_terms(R, items))
        except InvalidCurveError:
            assume(False)
        assume(not cv.fy().is_zero())
        for i in range(5, 9):
            got, want = theta(cv, i), theta_horner(cv, i)
            assert (got.T, got.content, got.primitive) == (want.T, want.content, want.primitive)

    def test_vertical_line_is_refused(self):
        cv = CurveInput.from_poly(parse("x"))
        for i in (1, 5, 8):
            with pytest.raises(VerticalLineError):
                theta(cv, i)

    @pytest.mark.parametrize("text, index, coeffs", [
        ("x^3 + y^3 + 1", 7, (9, -48, -10, Fraction(-3, 2))),  # -21/2 -> -10
        ("x^3 + y^3 + 1", 7, (9, -48, Fraction(-21, 2), -1)),  # -3/2 -> -1
        ("y - x^3", 5, (3, -7)),  # F_y = -1: the division cannot refuse it
        ("y - x^3", 6, (1, -3)),
    ])
    def test_spot_check_guards_the_chain(self, monkeypatch, text, index, coeffs):
        cv = CurveInput.from_poly(parse(text))
        jets.theta_table()  # built and cached with the true coefficients
        monkeypatch.setitem(jets.THETA_CHAIN, index, coeffs)
        with pytest.raises(AssertionError, match=f"Theta_{index} "):
            theta.__wrapped__(cv, index)


class TestClassifyingPair:
    def test_ellipse_reference_values(self, ellipse):
        pair = classifying_pair(ellipse, GroupId.SE2)
        assert pair.K1.num == parse("(x^2+x*y+y^2)^2").scale(36)
        assert pair.K1.den == parse("(5x^2+8x*y+5y^2)^3")
        # the symbolic derivation gives the same denominator for K1 and K2
        assert pair.K2.num == parse("(y^4 - x^4 + x*y^3 - x^3*y)").scale(54)
        assert pair.K2.den == parse("(5x^2+8x*y+5y^2)^3")

    def test_circle_constant(self, circle):
        k = invariants_at_point(circle, GroupId.SE2, (Fraction(3, 5), Fraction(4, 5)))
        assert k[0] == 1

    def test_fiber_invariants_reduce_to_point_values(self):
        # F(1, W) = -(W - 1)(W^2 - W + 5): K1, K2 over Q[W]/(F(1, W)), reduced
        # at the rational root W = 1, are the values at the point (1, 1)
        cv = CurveInput.from_poly(parse("x^3*y + 2x*y^2 - y^3 + x - 7y + 4"))
        ring = SeriesRing(intpoly_from_poly(cv.F.evaluate_partial({"x": 1}), "y"))
        assert ring.deg == 3
        for g in GroupId:
            fiber = fiber_invariants(cv, g, Fraction(1), ring)
            at_root = tuple(sum(k.coeff_fractions(0)) for k in fiber)
            assert at_root == invariants_at_point(cv, g, (Fraction(1), Fraction(1)))

    def test_line_exceptional_everywhere(self):
        line = CurveInput.from_poly(parse("x + y - 1"))
        for g in GroupId:
            with pytest.raises(ExceptionalCurveError):
                classifying_pair(line, g)


class TestExceptional:
    def test_lines_and_conics_fixture_set(self):
        rng = random.Random(23)
        lines = [
            CurveInput.from_poly(
                SparsePoly.from_terms(
                    R, [((1, 0), rng.randint(1, 9)), ((0, 1), rng.randint(-9, 9)), ((0, 0), rng.randint(-9, 9))]
                )
            )
            for _ in range(10)
        ]
        conics = []
        while len(conics) < 10:
            cv = CurveInput.from_poly(
                SparsePoly.from_terms(
                    R,
                    [((i, j), rng.randint(-9, 9)) for i in range(3) for j in range(3 - i)],
                )
            )
            if cv.d == 2:
                conics.append(cv)
        for line in lines:
            for g in GroupId:
                assert exceptional_check(line, g).exceptional
        for conic in conics:
            for g in (GroupId.SA2, GroupId.A2, GroupId.PGL3):
                assert exceptional_check(conic, g).exceptional
            if not conic.fy().is_zero():
                se = exceptional_check(conic, GroupId.SE2)
                # SE2-exceptional conics are degenerate (Theta_1/2 vanish on X)
                if se.exceptional:
                    assert "Theta" in (se.reason or "") or "vertical" in (se.reason or "")

    def test_ellipse_not_exceptional_se2(self, ellipse):
        assert not exceptional_check(ellipse, GroupId.SE2).exceptional

    def test_circle_conic_exceptional_a2(self, circle):
        assert exceptional_check(circle, GroupId.A2).exceptional


class TestRemainderImage:
    """``_vanishes_on_curve`` answers "no" from an image of the remainder mod
    a prime; the image must be the reduced exact remainder."""

    def cases(self):
        rng = random.Random(23)  # the curves of test_theta_matches_monomial_reference
        cases = [(rand_curve(rng, d), range(1, 7)) for d in (3, 4, 5)]
        cases.append((rand_curve(rng, 3), (7, 8)))
        return cases + [(CurveInput.from_poly(parse("x^2 + y^2")), (1, 2))]

    def test_image_is_the_reduced_remainder(self):
        from sigcurve.jets import _vanishes_on_curve
        from sigcurve.modp import IMAGE_PRIME, _modp_ylists, pseudo_remainder_image
        from sigcurve.poly import pseudo_remainder

        for cv, indices in self.cases():
            for i in indices:
                T = theta(cv, i).T
                image = pseudo_remainder_image(T, cv.F, "y")
                exact = pseudo_remainder(T, cv.F, "y")
                lists = _modp_ylists(exact, "y", IMAGE_PRIME)
                n = max(len(image), len(lists))
                assert image + [[]] * (n - len(image)) == lists + [[]] * (n - len(lists)), (cv.F, i)
                if any(image):
                    assert not exact.is_zero()
                assert _vanishes_on_curve(T, cv) == exact.is_zero()

    def test_generic_curves_skip_the_exact_remainder(self, monkeypatch):
        import sigcurve.jets as jets_mod

        calls = []
        monkeypatch.setattr(jets_mod, "pseudo_remainder", lambda *a: calls.append(a))
        for cv, _ in self.cases()[:4]:
            for g in GroupId:
                assert not exceptional_check(cv, g).exceptional
        assert calls == []

    def test_the_image_reads_the_integer_form(self):
        # T_2 (Horner) and T_5 (chain) are built as integer forms only, and
        # the remainder images of the SA2 and PGL3 checks leave them so
        cv = rand_curve(random.Random(97), 4)
        for g in (GroupId.SA2, GroupId.PGL3):
            assert not exceptional_check(cv, g).exceptional
        assert theta(cv, 2).T._terms is None and theta(cv, 5).T._terms is None

    @pytest.mark.parametrize(
        "text, group, reason",
        [
            ("x^2 + y^2", GroupId.SE2, "Theta_1 vanishes on the curve"),
            ("x^2 + 2*y^2 - 3", GroupId.A2, "conic"),
            ("3*x - y + 2", GroupId.SE2, "line"),
            ("y - x^2", GroupId.SA2, "conic"),
        ],
    )
    def test_exceptional_reasons(self, text, group, reason):
        verdict = exceptional_check(CurveInput.from_poly(parse(text)), group)
        assert verdict.exceptional and verdict.reason == reason


class TestGroupAction:
    def test_identity(self, ellipse):
        ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert apply_group_element(ellipse, ident, GroupId.A2).F == ellipse.F

    def test_translation_image(self, circle):
        tr = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
        out = apply_group_element(circle, tr, GroupId.A2)
        # image of the unit circle under (x,y) -> (x+1,y)
        assert out.F == parse("x^2 + y^2 - 2x")

    def test_rational_rotation_fixes_circle(self, circle):
        rot = [
            [1, 0, 0],
            [0, Fraction(3, 5), Fraction(4, 5)],
            [0, Fraction(-4, 5), Fraction(3, 5)],
        ]
        assert apply_group_element(circle, rot, GroupId.SE2).F == circle.F

    def test_shape_validation(self, circle):
        bad_se2 = [[1, 0, 0], [0, 2, 0], [0, 0, 2]]
        with pytest.raises(ValueError):
            apply_group_element(circle, bad_se2, GroupId.SE2)
        bad_sa2 = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
        with pytest.raises(ValueError):
            apply_group_element(circle, bad_sa2, GroupId.SA2)
        singular = [[1, 0, 0], [0, 1, 1], [0, 1, 1]]
        with pytest.raises(ValueError):
            apply_group_element(circle, singular, GroupId.A2)

    def test_invariance_at_matched_point(self, ellipse):
        m = [
            [1, 0, 0],
            [Fraction(1, 2), Fraction(3, 5), Fraction(4, 5)],
            [-2, Fraction(-4, 5), Fraction(3, 5)],
        ]
        p = (Fraction(0), Fraction(1))
        k = invariants_at_point(ellipse, GroupId.SE2, p)
        moved = apply_group_element(ellipse, m, GroupId.SE2)
        q = transform_point(m, p)
        assert invariants_at_point(moved, GroupId.SE2, q) == k


class TestProjectiveExtension:
    def test_degree_identities(self):
        rng = random.Random(31)
        deg_forms = {
            GroupId.SE2: lambda d: 6 * d - 6,
            GroupId.SA2: lambda d: 24 * d - 32,
            GroupId.A2: lambda d: 24 * d - 36,
        }
        for d in (3, 4, 5, 6):
            cv = rand_curve(rng, d, height=5)
            for g, form in deg_forms.items():
                tri = projective_extension(cv, g)
                assert tri.deg == form(d)
                for s in tri.sigma:
                    assert s.total_degree() == tri.deg
        # PGL3 at the scale where T_7, T_8 are buildable
        cv = rand_curve(rng, 3, height=4)
        tri = projective_extension(cv, GroupId.PGL3)
        assert tri.deg == 96 * 3 - 144

    def test_worked_cubic_cancellation(self, worked_cubic):
        for cancel, deg in ((False, 36), (True, 26)):
            tri = projective_extension(worked_cubic, GroupId.A2, cancel=cancel)
            assert tri.deg == deg
            assert tri == projective_extension_reference(worked_cubic, GroupId.A2, cancel=cancel)

    @pytest.mark.parametrize("cancel", [False, True])
    def test_matches_the_homogeneous_product_oracle(self, circle, cancel):
        # products in the affine chart, homogenized once, against the
        # products of the homogenized T_i
        rng = random.Random(15)
        cases = [
            (rand_curve(rng, d, height=3), g)
            for d in (3, 4)
            for g in (GroupId.SE2, GroupId.SA2, GroupId.A2)
        ]
        cases += [
            (CurveInput.from_poly(parse("x^3 + x*y + y^2 + 1")), GroupId.PGL3),
            (circle, GroupId.SE2),
        ]
        for cv, g in cases:
            tri = projective_extension(cv, g, cancel=cancel)
            ref = projective_extension_reference(cv, g, cancel=cancel)
            assert tri == ref
            assert [serialize(s) for s in tri.sigma] == [serialize(s) for s in ref.sigma]
        # T_3 vanishes on the circle, and so does its sigma_2
        assert [s.is_zero() for s in projective_extension(circle, GroupId.SE2).sigma] == [
            False, False, True,
        ]

    def test_recipe_degree_mismatch_raises(self, monkeypatch, circle):
        # x0^1 * T_1^3 has degree 6d - 5 against deg sigma = 6d - 6
        recipe = jets.SIGMA_RECIPES[GroupId.SE2]
        monkeypatch.setitem(jets.SIGMA_RECIPES, GroupId.SE2, ((1, ((1, 3),)),) + recipe[1:])
        with pytest.raises(AssertionError):
            projective_extension(circle, GroupId.SE2)
