"""Tests of the benchmark's own checks: a wrong answer must be reported as a
failed operation, and the independent formulas must be right.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import sys
from fractions import Fraction
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def in_process_cli(mutate=lambda args, out: out):
    """A desk-session ``cli`` that runs sigcurve's CLI in this process and
    lets a test alter the JSON answer of each command."""
    import sigcurve.cli

    def cli(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert sigcurve.cli.main(["--format", "json", *args]) == 0
        return json.dumps(mutate(args, json.loads(buf.getvalue())))

    return cli


def desk_op(label, mutate):
    rng = workloads.round_rng("desk-session", 0, 0)
    ops = workloads.desk_session(rng, in_process_cli(mutate))
    return next(op for op in ops if op.label == label)


def judge(op):
    _, _, reason, wrong = run_op(op, process_time)
    return reason, wrong


def test_right_signature_passes_and_perturbed_coefficient_fails():
    assert judge(desk_op("signature ellipse SE2", lambda a, out: out)) == (None, False)

    def perturb(args, out):
        first, rest = out["S"].split("*", 1)
        out["S"] = f"{int(first) + 1}*{rest}"
        return out

    reason, wrong = judge(desk_op("signature ellipse SE2", perturb))
    assert wrong and "does not vanish" in reason


def test_perturbed_fermat_signature_fails_numerically():
    def perturb(args, out):
        out["S"] = out["S"].replace("+ 256", "+ 257")
        return out

    reason, wrong = judge(desk_op("signature fermat3 A2", perturb))
    assert wrong and "does not vanish" in reason


def test_degree_off_by_one_fails():
    op = workloads.degree_generic(random.Random(5))[0]
    assert judge(op) == (None, False)
    rep = op.call()
    bumped = workloads.Op(
        op.label,
        lambda: dataclasses.replace(rep, deg_S_predicted=rep.deg_S_predicted + 1),
        op.check,
    )
    reason, wrong = judge(bumped)
    assert wrong and "closed form" in reason


def test_wrong_verdicts_fail():
    def flip(args, out):
        out["equivalent"] = not out["equivalent"]
        return out

    for label in ("equiv ellipse moved SE2", "equiv ellipse stretched SE2"):
        assert judge(desk_op(label, lambda a, out: out)) == (None, False)
        reason, wrong = judge(desk_op(label, flip))
        assert wrong and "equivalent" in reason

    def wrong_order(args, out):
        out["n"] += 1
        return out

    assert judge(desk_op("symmetry cusp SE2", wrong_order))[1]


def test_sigma_with_perturbed_coefficient_fails():
    op = workloads.sigma_extension(random.Random(3))[1]  # d = 3, SA2
    tri = op.call()
    assert op.check(tri) is None
    s1 = tri.sigma[1]
    e = next(iter(s1.terms))
    bad = type(s1)(s1.ring, {**s1.terms, e: s1.terms[e] + 1})
    wrong = dataclasses.replace(tri, sigma=(tri.sigma[0], bad, tri.sigma[2]))
    assert "[1:K1:K2]" in op.check(wrong)


def test_exception_is_failed_but_not_wrong():
    def boom():
        raise ValueError("no")

    reason, wrong = judge(workloads.Op("boom", boom, lambda out: None))
    assert reason == "boom: ValueError: no" and not wrong


def test_invariants_are_invariant_under_the_group():
    """(K1, K2) of the benchmark's formulas agree at corresponding points of a
    curve and its image under a random element of each group."""
    rng = random.Random(7)
    F, (a, b) = workloads.random_ellipse(rng)
    F = checks.poly_mul(F, {(1, 0): 1, (0, 0): 3})  # a cubic through (a, b)
    elements = {
        "SE2": ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))),
        "SA2": ((Fraction(2), Fraction(3)), (Fraction(1), Fraction(2))),
        "A2": ((Fraction(2), Fraction(1)), (Fraction(-1), Fraction(3))),
    }
    t = (Fraction(1, 2), Fraction(-2))
    for group, ((m11, m12), (m21, m22)) in elements.items():
        det = m11 * m22 - m12 * m21
        # G(x, y) = F(M^-1 ((x, y) - t)) has the point M (a, b) + t
        i11, i12, i21, i22 = m22 / det, -m12 / det, -m21 / det, m11 / det
        x_image = (i11, i12, -i11 * t[0] - i12 * t[1])
        y_image = (i21, i22, -i21 * t[0] - i22 * t[1])
        G = checks.compose_affine(F, x_image, y_image)
        p = (m11 * a + m12 * b + t[0], m21 * a + m22 * b + t[1])
        n = checks.JET_ORDER[group]
        k_f = checks.invariants(group, checks.jets(F, a, b, n))
        k_g = checks.invariants(group, checks.jets(G, *p, n))
        for (n1, d1), (n2, d2) in zip(k_f, k_g):
            assert n1 * d2 == n2 * d1, group


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
