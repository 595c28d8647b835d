import random
from fractions import Fraction

import pytest

from oracles import (
    BudgetExceededError,
    EliminationBudget,
    elimination_signature,
    groebner_basis,
    groebner_eliminate,
)
from sigcurve.jets import CurveInput, GroupId
from sigcurve.parser import parse, serialize
from sigcurve.poly import SparsePoly
from sigcurve.signature import signature_polynomial


def V(ring):
    return tuple(SparsePoly.var(ring, v) for v in ring)


def test_parabola_elimination():
    R = ("x", "k1", "k2")
    x, k1, k2 = V(R)
    out = groebner_eliminate([x - k1, x * x - k2], keep=("k1", "k2"))
    assert [serialize(p) for p in out] == ["k1^2 - k2"]


def test_line_circle_elimination():
    R = ("x", "y", "k1")
    x, y, k1 = V(R)
    out = groebner_eliminate([y - x, x * x + y * y - 1, k1 - x], keep=("k1",))
    assert [serialize(p) for p in out] == ["2*k1^2 - 1"]


def test_eliminate_nothing_is_reduced_basis():
    R = ("x", "y")
    x, y = V(R)
    gb = groebner_eliminate([x**2 + y**2 - 1, x * y - 1], keep=R)
    gb2 = groebner_basis([x**2 + y**2 - 1, x * y - 1])
    assert gb == gb2
    # reduced: no leading monomial divides another, all primitive
    assert all(p.content() == 1 for p in gb)


def test_budget_exceeded_is_loud():
    R = ("x", "y", "z")
    x, y, z = V(R)
    gens = [x**5 + y**4 + z - 1, x * y**3 + z**2 * x - 2, y * z**3 - x - 3]
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, budget=EliminationBudget(max_basis=4, max_degree=400))
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, budget=EliminationBudget(max_basis=5000, max_degree=6))


def test_elimination_vanishing_oracle():
    """Generators of the eliminated ideal vanish on 50 numeric points of a
    parametrized curve (the input ideal's variety)."""
    R = ("t", "x", "y")
    t, x, y = V(R)
    # x = t^2 - 1, y = t^3 - t
    gens = [x - (t * t - 1), y - (t**3 - t)]
    out = groebner_eliminate(gens, keep=("x", "y"))
    assert out
    rng = random.Random(7)
    for _ in range(50):
        tv = rng.uniform(-2, 2)
        xv = tv * tv - 1
        yv = tv**3 - tv
        for p in out:
            val = p.evaluate({"x": xv, "y": yv})
            scale = 1 + sum(
                abs(float(c)) * abs(xv) ** e[0] * abs(yv) ** e[1]
                for e, c in p.terms.items()
            )
            assert abs(val) / scale < 1e-9


def test_ideal_membership_after_elimination():
    # eliminating from a saturated ideal drops spurious components
    R = ("t", "x", "k1")
    t, x, k1 = V(R)
    # x^2 = 0 saturated by x leaves the empty variety: ideal becomes (1)
    gens = [x * x, SparsePoly.const(R, 1) - t * x]
    out = groebner_eliminate(gens, keep=("k1",))
    assert [serialize(p) for p in out] == ["1"]


@pytest.mark.parametrize(
    "text, group",
    [
        ("x^2 + x*y + y^2 - 1", GroupId.SE2),
        ("y^2 - x^3", GroupId.SE2),
        ("x^3 + y^3 + 1", GroupId.A2),
        ("x^4 + y^4 + 1", GroupId.A2),
    ],
)
def test_elimination_oracle_matches_certified_signature(text, group):
    cv = CurveInput.from_poly(parse(text))
    assert elimination_signature(cv, group) == signature_polynomial(cv, group).S
