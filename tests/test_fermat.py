import pytest

from sigcurve.fermat import (
    fermat_curve,
    fermat_signature,
    fermat_signature_a2,
    fermat_signature_pgl3,
    fermat_symmetry_order,
)
from oracles import elimination_signature, relative_residual
from sigcurve.jets import GroupId
from sigcurve.signature import SignaturePolynomial, signature_polynomial, signature_samples


class TestClosedForms:
    def test_pgl3_degree_four_for_all_d(self):
        for d in (3, 4, 5, 6, 9):
            assert fermat_signature_pgl3(d).degree() == 4

    def test_a2_degree_drop_at_three(self):
        assert fermat_signature_a2(3).degree() == 2
        for d in (4, 5, 7):
            assert fermat_signature_a2(d).degree() == 3

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            fermat_signature_pgl3(2)
        with pytest.raises(ValueError):
            fermat_signature(3, GroupId.SE2)


class TestEliminationAgreement:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_a2_byte_exact(self, d):
        """The elimination oracle and the certified route both reproduce the
        closed form."""
        assert elimination_signature(fermat_curve(d), GroupId.A2) == fermat_signature_a2(d).S
        computed = signature_polynomial(fermat_curve(d), GroupId.A2)
        assert isinstance(computed, SignaturePolynomial)
        assert computed.S == fermat_signature_a2(d).S


class TestSampleAgreement:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_pgl3_samples_vanish(self, d):
        sig = fermat_signature_pgl3(d)
        samples = signature_samples(fermat_curve(d), GroupId.PGL3, 25, seed=2)
        assert len(samples) >= 20
        bad = sum(1 for s in samples if relative_residual(sig.S, s.k1, s.k2) > 1e-8)
        assert bad <= 2


class TestSymmetryTable:
    def test_orders(self):
        assert fermat_symmetry_order(3, GroupId.PGL3) == 54
        assert fermat_symmetry_order(4, GroupId.PGL3) == 96
        assert fermat_symmetry_order(3, GroupId.A2) == 18
        assert fermat_symmetry_order(4, GroupId.A2) == 32
        assert fermat_symmetry_order(5, GroupId.SE2) == 1
        assert fermat_symmetry_order(6, GroupId.SE2) == 4
