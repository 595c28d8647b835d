import random
from fractions import Fraction

from sigcurve.equivalence import VerdictReason, equivalent, symmetry_order
from sigcurve.fermat import fermat_curve, fermat_signature, fermat_symmetry_order
from sigcurve.jets import CurveInput, GroupId, apply_group_element
from sigcurve.parser import parse
from sigcurve.signature import FiberTable


def rand_se2(rng):
    m = Fraction(rng.randint(1, 30), rng.randint(1, 7))
    c = (1 - m * m) / (1 + m * m)
    s = 2 * m / (1 + m * m)
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return [[1, 0, 0], [a, c, s], [b, -s, c]]


def rand_a2(rng):
    while True:
        mat = [
            [Fraction(1), Fraction(0), Fraction(0)],
            [
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            ],
            [
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            ],
        ]
        det = mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1]
        if det != 0:
            return mat


class TestVerdicts:
    def test_self_equivalence_a2(self):
        rng = random.Random(2)
        F = fermat_curve(3)
        G = apply_group_element(F, rand_a2(rng), GroupId.A2)
        v = equivalent(F, G, GroupId.A2)
        assert v.equivalent is True and v.reason is VerdictReason.SIGNATURES_EQUAL

    def test_self_equivalence_se2(self, cusp_cubic):
        rng = random.Random(3)
        moved = apply_group_element(cusp_cubic, rand_se2(rng), GroupId.SE2)
        v = equivalent(cusp_cubic, moved, GroupId.SE2)
        assert v.equivalent is True

    def test_constant_vs_curve(self, ellipse, circle):
        for F, G in ((ellipse, circle), (circle, ellipse)):
            v = equivalent(F, G, GroupId.SE2)
            assert v.equivalent is False and v.reason is VerdictReason.CONSTANT_VS_CURVE

    def test_both_constant_carries_caveat(self, circle):
        big = CurveInput.from_poly(parse("x^2 + y^2 - 4"))
        v = equivalent(circle, big, GroupId.SE2)
        assert v.equivalent is False  # different curvature constants
        v2 = equivalent(circle, circle, GroupId.SE2)
        assert v2.equivalent is True and "necessary-condition" in v2.note

    def test_exceptional_input(self, circle, ellipse):
        line = CurveInput.from_poly(parse("x + y - 1"))
        for F, G in ((line, ellipse), (ellipse, line)):
            v = equivalent(F, G, GroupId.SE2)
            assert v.equivalent is None and v.reason is VerdictReason.EXCEPTIONAL_INPUT

    def test_fermat3_vs_fermat4_pgl3_closed_forms(self):
        # both signatures have degree four; the polynomials differ
        s3 = fermat_signature(3, GroupId.PGL3)
        s4 = fermat_signature(4, GroupId.PGL3)
        assert s3.degree() == s4.degree() == 4
        assert s3.S != s4.S

    def test_relation_properties(self, cusp_cubic):
        """Reflexivity, symmetry, and transitivity across chained moves."""
        rng = random.Random(11)
        g1 = rand_se2(rng)
        g2 = rand_se2(rng)
        a = cusp_cubic
        b = apply_group_element(a, g1, GroupId.SE2)
        c = apply_group_element(b, g2, GroupId.SE2)
        assert equivalent(a, a, GroupId.SE2).equivalent is True
        assert equivalent(a, b, GroupId.SE2).equivalent is True
        assert equivalent(b, a, GroupId.SE2).equivalent is True
        assert equivalent(a, c, GroupId.SE2).equivalent is True


class TestSymmetry:
    def test_circle_infinite(self, circle):
        r = symmetry_order(circle, GroupId.SE2)
        assert r.infinite and r.route == "constant-signature"
        assert r.constant_value == 1

    def test_one_fiber_table(self, circle, cusp_cubic, monkeypatch):
        """Without a known degree, constancy is read from the certified
        route's own table: one table per command, constant or not."""
        built = []
        init = FiberTable.__init__

        def counting(self, curve, group):
            built.append(curve)
            init(self, curve, group)

        monkeypatch.setattr(FiberTable, "__init__", counting)
        assert symmetry_order(circle, GroupId.SE2).infinite
        assert symmetry_order(cusp_cubic, GroupId.SE2).n == 1
        assert built == [circle, cusp_cubic]

    def test_cusp_cubic_trivial_symmetry(self, cusp_cubic):
        r = symmetry_order(cusp_cubic, GroupId.SE2)
        assert r.n == 1 and r.signature_degree == 9

    def test_ellipse_two(self, ellipse):
        r = symmetry_order(ellipse, GroupId.SE2)
        assert r.n == 2 and r.signature_degree == 6

    def test_fermat_table(self):
        for d in (3, 4):
            for g in (GroupId.PGL3, GroupId.A2):
                sig = fermat_signature(d, g)
                r = symmetry_order(
                    fermat_curve(d), g, known_signature_degree=sig.degree()
                )
                assert r.n == fermat_symmetry_order(d, g)

    def test_fermat4_a2_certified_degree(self):
        """n from the certified S, with no known degree: 2 d^2 = 32."""
        r = symmetry_order(fermat_curve(4), GroupId.A2)
        assert r.n == 32 and r.signature_degree == 3

    def test_fermat_se2_orders(self):
        # odd degree: trivial; even degree: four (via the closed-form table)
        assert fermat_symmetry_order(3, GroupId.SE2) == 1
        assert fermat_symmetry_order(4, GroupId.SE2) == 4


class TestNegativeControl:
    def test_independent_cubics_inequivalent(self):
        """Independent cubics are pairwise inequivalent (a probability-one
        event for random pairs)."""
        F = fermat_curve(3)
        G_indep = CurveInput.from_poly(parse("x^3 + y^3 + x*y + 1"))
        v = equivalent(F, G_indep, GroupId.A2)
        assert v.equivalent is False and v.reason is VerdictReason.SIGNATURES_DIFFER
