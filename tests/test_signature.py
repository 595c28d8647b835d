from fractions import Fraction

import pytest

import oracles
import sigcurve.signature as signature_module
from oracles import SampleCheckError, relative_residual, verify_signature_samples
from sigcurve.fermat import fermat_curve, fermat_signature
from sigcurve.jets import CurveInput, GroupId, apply_group_element, classifying_pair
from sigcurve.parser import parse, serialize
from sigcurve.poly import SparsePoly, divides, resultant
from sigcurve.signature import (
    SIG_RING,
    FiberTable,
    PointSignature,
    certify_signature,
    is_constant_signature,
    signature_polynomial,
    signature_samples,
)

ELLIPSE_S_REFERENCE = (
    "2916*k1^6 + 972*k1^4*k2^2 + 108*k1^2*k2^4 + 4*k2^6"
    " - 13608*k1^5 + 1944*k1^3*k2^2 + 2187*k1^4"
)


class TestEllipse:
    def test_reference_polynomial_byte_exact(self, ellipse):
        sig = signature_polynomial(ellipse, GroupId.SE2)
        assert serialize(sig.S) == ELLIPSE_S_REFERENCE

    def test_degree_matches_prediction(self, ellipse):
        from sigcurve.degree import predict_degree

        sig = signature_polynomial(ellipse, GroupId.SE2)
        rep = predict_degree(ellipse, GroupId.SE2, n=2)
        assert sig.degree() == rep.deg_S_predicted == 6

    def test_samples_vanish(self, ellipse):
        sig = signature_polynomial(ellipse, GroupId.SE2)
        samples = signature_samples(ellipse, GroupId.SE2, 25, seed=3)
        assert len(samples) == 25
        assert all(relative_residual(sig.S, s.k1, s.k2) < 1e-8 for s in samples)

    def test_samples_deterministic(self, ellipse):
        a = signature_samples(ellipse, GroupId.SE2, 10, seed=5)
        b = signature_samples(ellipse, GroupId.SE2, 10, seed=5)
        assert [(s.x, s.y) for s in a] == [(s.x, s.y) for s in b]
        c = signature_samples(ellipse, GroupId.SE2, 10, seed=6)
        assert [(s.x, s.y) for s in a] != [(s.x, s.y) for s in c]

    def test_count_zero(self, ellipse):
        assert signature_samples(ellipse, GroupId.SE2, 0, seed=1) == []

    def test_check_needs_samples(self, ellipse, monkeypatch):
        """A sample check that finds no samples is not evidence for S."""
        sig = signature_polynomial(ellipse, GroupId.SE2)
        monkeypatch.setattr(oracles, "signature_samples", lambda *a, **k: [])
        with pytest.raises(SampleCheckError):
            verify_signature_samples(sig)


class TestConstantSignature:
    def test_unit_circle(self, circle):
        assert is_constant_signature(circle, GroupId.SE2) == 1
        out = signature_polynomial(circle, GroupId.SE2)
        assert isinstance(out, PointSignature) and out.value == 1

    def test_ellipse_not_constant(self, ellipse):
        assert is_constant_signature(ellipse, GroupId.SE2) is None

    def test_fermat4_a2_not_constant(self):
        cv = CurveInput.from_poly(parse("x^4 + y^4 + 1"))
        assert is_constant_signature(cv, GroupId.A2) is None

    def test_shifted_circle_constant(self):
        cv = CurveInput.from_poly(parse("x^2 + y^2 - 2x - 4y + 1"))
        assert is_constant_signature(cv, GroupId.SE2) == Fraction(1, 4)


class TestEquivariance:
    def test_cusp_cubic_se2(self, cusp_cubic):
        sig = signature_polynomial(cusp_cubic, GroupId.SE2)
        assert sig.degree() == 9
        m = [
            [1, 0, 0],
            [Fraction(1, 3), Fraction(3, 5), Fraction(4, 5)],
            [Fraction(-2, 7), Fraction(-4, 5), Fraction(3, 5)],
        ]
        moved = apply_group_element(cusp_cubic, m, GroupId.SE2)
        assert signature_polynomial(moved, GroupId.SE2).S == sig.S

    def test_fermat3_a2(self):
        cv = CurveInput.from_poly(parse("x^3 + y^3 + 1"))
        sig = signature_polynomial(cv, GroupId.A2)
        m = [[1, 0, 0], [2, 3, Fraction(1, 2)], [-1, 1, 1]]
        moved = apply_group_element(cv, m, GroupId.A2)
        assert signature_polynomial(moved, GroupId.A2).S == sig.S


class TestResultantCrossCheck:
    def test_s_divides_iterated_resultant(self, ellipse):
        """S divides Res_x(Res_y(F, B k1 - A), Res_y(F, D k2 - C))."""
        sig = signature_polynomial(ellipse, GroupId.SE2)
        pair = classifying_pair(ellipse, GroupId.SE2)
        R5 = ("x", "y", "k1", "k2")
        up = lambda p: p.map_variables(R5)
        k1 = SparsePoly.var(R5, "k1")
        k2 = SparsePoly.var(R5, "k2")
        F = up(ellipse.F)
        r1 = resultant(F, up(pair.K1.den) * k1 - up(pair.K1.num), "y")
        r2 = resultant(F, up(pair.K2.den) * k2 - up(pair.K2.num), "y")
        iterated = resultant(r1, r2, "x")
        assert not iterated.is_zero()
        assert divides(up(sig.S), iterated)


class TestCertificate:
    def test_records_the_bezout_count(self, ellipse):
        cert = signature_polynomial(ellipse, GroupId.SE2).certificate
        # K1, K2: degree 4 over degree 6; deg N <= 6 * (6 + 6), fibers > 2 * 72 / 2
        assert (cert.kind, cert.deg_N, cert.fibers, cert.curve) == (
            "bezout-count", 72, 73, "irreducible-asserted"
        )

    def test_rejects_another_curves_signature(self):
        """The quartic's PGL3 closed form has the cubic's degree but does
        not vanish on the cubic's signature curve."""
        wrong = fermat_signature(4, GroupId.PGL3).S
        assert certify_signature(FiberTable(fermat_curve(3), GroupId.PGL3), wrong) is None

    def test_rejects_a_multiple(self, ellipse):
        """k1 * S vanishes on the signature curve, but S has lower degree."""
        sig = signature_polynomial(ellipse, GroupId.SE2)
        table = FiberTable(ellipse, GroupId.SE2)
        assert certify_signature(table, sig.S) is not None
        k1 = SparsePoly.var(SIG_RING, "k1")
        assert certify_signature(table, sig.S * k1) is None

    def test_rejected_fits_are_refitted(self, monkeypatch):
        """A kernel trusted after one more fiber proposes polynomials of
        degree 1 and 2 on this curve; the certificate rejects them and the
        route still ends at the signature polynomial of degree 3."""
        seen = []

        def recording(table, S):
            cert = certify_signature(table, S)
            seen.append((int(S.total_degree()), cert is not None))
            return cert

        monkeypatch.setattr(signature_module, "STABLE_BATCH", 1)
        monkeypatch.setattr(signature_module, "certify_signature", recording)
        cv = CurveInput.from_poly(parse("x^4 + y^4 + 1"))
        sig = signature_polynomial(cv, GroupId.A2)
        assert seen == [(1, False), (2, False), (3, True)]
        assert sig.S == fermat_signature(4, GroupId.A2).S
