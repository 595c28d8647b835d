#!/usr/bin/env python3
"""Check that two sigcurve checkouts give the same answers to the benchmark.

    python3 scripts/same_answers.py --parent DIR --change DIR

Each checkout answers in fresh processes, with its own ``src`` and the inputs
of its own ``perfbench/workloads.py`` (imported, not edited):

* desk-session, seeds 1-2, round 0: the exit code and ``--format json``
  standard output of every command, each a fresh ``sigcurve.cli`` process;
* degree-generic, seeds 1-3, rounds 0-1: the ``repr`` of every
  ``DegreeReport``;
* sigma-extension, seeds 1-3, rounds 0-2: the degree and the serialized
  components of every projective extension;
* theta, seeds 1-3, rounds 0-2: the serialized T_1..T_8 of the curves of
  the same sigma-extension rounds (T_7 and T_8 on the cubics only) and, with
  seed 1, of ``PGL3_IMAGE``;
* degree-special, once: the ``repr`` of ``predict_degree`` of every curve of
  ``DEGREE_SPECIAL`` under each of the four groups: Fermat curves, the
  cusp (an exact-zero PGL3 component), the worked cubic, the elliptic
  curve, the refusals of conics past SE2 and of the cubic graph, a quartic
  whose Theta_1 vanishes at the circular points on its fiber at infinity
  (so the Theta products keep their full cap under SE2), a dense quartic
  with no y^4 term (a smooth point at [0:0:1], so a corner piece at
  infinity and the exact affine route), and the singular quartic that
  ``degree-generic`` draws at seed 10, round 85;
* signature-special, once: the ``repr`` of ``signature_polynomial`` of
  every curve and group of ``SIGNATURE_SPECIAL`` (the ellipse, the circle's
  point signature, the cusp, the Fermat cubic and quartic), of
  ``equivalent`` on the Fermat cubic and ``PGL3_IMAGE`` under PGL3, and of
  ``signature_samples`` of the worked cubic under each of the four groups.

An operation that raises answers with its exception.  The first answer that
differs is printed and the script exits 1; it exits 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Optional

# (workload, seeds, rounds)
PLAN = (
    ("desk-session", (1, 2), (0,)),
    ("degree-generic", (1, 2, 3), (0, 1)),
    ("sigma-extension", (1, 2, 3), (0, 1, 2)),
    ("theta", (1, 2, 3), (0, 1, 2)),
    ("degree-special", (1,), (0,)),
    ("signature-special", (1,), (0,)),
)
# x^3 + y^3 + 1 moved by a PGL3 matrix: a dense cubic whose T_8 has 1539 terms
PGL3_IMAGE = ("x^3+y^3+1", ((1, 1, 0), (0, 1, 1), (2, 0, 1)))
DEGREE_SPECIAL = (
    "x^3+y^3+1", "x^4+y^4+1", "x^5+y^5+1", "y^2-x^3", "x^2*y+y^2+y+64/121",
    "x^2+y^2-1", "x^2+x*y+2*y^2-3", "y^2-x^3-x-1", "y-x^3", "x*y-1",
    "x^4-y^4+x^2+1",
    "-x*y^3+4*x^2*y^2+x^3*y-2*x^4-4*y^3+5*x*y^2-8*x^2*y+3*x^3-5*y^2+4*x*y+8*x^2-y-2*x+6",
    "-y^4+x*y^3+8*x^2*y^2-8*x^3*y+8*x^4-y^3+8*x*y^2+3*x^2*y-x^3+9*y^2-6*x*y-2*x^2+3*y+4*x+7",
)

SIGNATURE_SPECIAL = (
    ("x^2+x*y+y^2-1", "SE2"), ("x^2+y^2-1", "SE2"), ("y^2-x^3", "SE2"),
    ("x^3+y^3+1", "A2"), ("x^3+y^3+1", "PGL3"), ("x^4+y^4+1", "A2"),
)
WORKED_CUBIC = "x^2*y+y^2+y+64/121"

Answers = list[tuple[str, str]]  # (what was asked, the answer as text)


def first_difference(parent: Answers, change: Answers) -> Optional[str]:
    """A description of the first answer that differs, or None."""
    for i, (p, c) in enumerate(zip(parent, change)):
        if p[0] != c[0]:
            return f"answer {i}: the questions differ: {p[0]!r} / {c[0]!r}"
        if p[1] != c[1]:
            return f"{p[0]}:\n  parent: {p[1]}\n  change: {c[1]}"
    if len(parent) != len(change):
        return f"{len(parent)} answers at the parent, {len(change)} at the change"
    return None


def collect(root: str, workload: str, seed: int, rounds: tuple[int, ...]) -> Answers:
    """The answers of one checkout to one workload seed, from a fresh process
    started in the checkout's root."""
    argv = [sys.executable, os.path.abspath(__file__), "--collect", workload, str(seed),
            *map(str, rounds)]
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    return [tuple(a) for a in json.loads(out.stdout)]


def answer_rounds(workload: str, seed: int, rounds: list[int]) -> Answers:
    """Run in the checkout's root: the answers of the given rounds."""
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from sigcurve import degree, equivalence, jets, signature
    from sigcurve.parser import parse, serialize
    from sigcurve.poly import SparsePoly

    answers: Answers = []

    def answer_of(call) -> str:
        try:
            return call()
        except Exception as e:  # a raised error is an answer to compare
            return f"raised {type(e).__name__}: {e}"

    def cli(args: list) -> str:
        argv = [sys.executable, "-m", "sigcurve.cli", "--format", "json", *args]
        proc = subprocess.run(argv, capture_output=True, text=True)
        answers.append((" ".join(args), json.dumps([proc.returncode, proc.stdout])))
        return proc.stdout

    def text(out) -> str:
        if workload == "sigma-extension":
            return repr((out.deg, [serialize(s) for s in out.sigma]))
        return repr(out)

    def thetas(label: str, cv, indices) -> None:
        jets.theta.cache_clear()
        jets.implicit_jet.cache_clear()
        for i in indices:
            answers.append((f"{label} T_{i}", answer_of(lambda: serialize(jets.theta(cv, i).T))))

    if workload == "degree-special":
        for curve_text in DEGREE_SPECIAL:
            cv = jets.CurveInput.from_poly(parse(curve_text))
            for group in jets.GroupId:
                report = answer_of(lambda: repr(degree.predict_degree(cv, group)))
                answers.append((f"degree-special {curve_text} {group.value}", report))
        return answers
    if workload == "signature-special":
        for curve_text, group in SIGNATURE_SPECIAL:
            cv = jets.CurveInput.from_poly(parse(curve_text))
            sig = answer_of(lambda: repr(signature.signature_polynomial(cv, jets.GroupId(group))))
            answers.append((f"signature-special {curve_text} {group}", sig))
        source, matrix = PGL3_IMAGE
        F = jets.CurveInput.from_poly(parse(source))
        G = jets.apply_group_element(F, matrix, jets.GroupId.PGL3)
        verdict = answer_of(lambda: repr(equivalence.equivalent(F, G, jets.GroupId.PGL3)))
        answers.append((f"signature-special equivalent {source} PGL3 image", verdict))
        cubic = jets.CurveInput.from_poly(parse(WORKED_CUBIC))
        for group in jets.GroupId:
            samples = answer_of(lambda: repr(signature.signature_samples(cubic, group, 6)))
            answers.append((f"signature-special samples {WORKED_CUBIC} {group.value}", samples))
        return answers
    if workload == "theta" and seed == 1:
        text, matrix = PGL3_IMAGE
        image = jets.apply_group_element(jets.CurveInput.from_poly(parse(text)), matrix,
                                         jets.GroupId.PGL3)
        thetas(f"theta PGL3 image of {text}", image, range(1, 9))
    for r in rounds:
        if workload == "theta":  # the curves of the sigma-extension round
            rng = workloads.round_rng("sigma-extension", seed, r)
            for d, groups in workloads.SIGMA_PLAN:
                F, _points = workloads.curve_through_points(rng, d, groups)
                cv = jets.CurveInput.from_poly(SparsePoly.from_terms(jets.CURVE_RING, F.items()))
                thetas(f"theta seed {seed} round {r} d={d}", cv, range(1, 9 if d == 3 else 7))
            continue
        rng = workloads.round_rng(workload, seed, r)
        if workload == "desk-session":
            for op in workloads.desk_session(rng, cli):
                try:
                    op.call()  # the answer is recorded by cli
                except ValueError:
                    pass  # not JSON: the exit code and stdout are recorded
            continue
        jets.theta.cache_clear()
        jets.implicit_jet.cache_clear()
        for op in workloads.IN_PROCESS[workload](rng):
            answers.append((f"{workload} seed {seed} round {r} {op.label}",
                            answer_of(lambda: text(op.call()))))
    return answers


def main() -> int:
    if sys.argv[1:2] == ["--collect"]:
        workload, seed, *rounds = sys.argv[2:]
        json.dump(answer_rounds(workload, int(seed), [int(r) for r in rounds]), sys.stdout)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout with the change")
    args = ap.parse_args()
    total = 0
    for workload, seeds, rounds in PLAN:
        for seed in seeds:
            parent = collect(args.parent, workload, seed, rounds)
            change = collect(args.change, workload, seed, rounds)
            diff = first_difference(parent, change)
            if diff is not None:
                print(f"{workload} seed {seed}: {diff}")
                return 1
            total += len(parent)
            print(f"{workload} seed {seed}: {len(parent)} answers agree", flush=True)
    print(f"same answers: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
