"""``scripts/same_answers.py`` comparison on synthetic answers."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_answers.py"


def load_same_answers():
    spec = importlib.util.spec_from_file_location("same_answers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ANSWERS = [
    ("signature --curve x^2+y^2-1 --group SE2", '[0, "{\\"S\\": \\"k1\\"}\\n"]'),
    ("degree-generic seed 1 round 0 predict_degree d=4 SE2", "DegreeReport(d=4, ...)"),
    ("sigma-extension seed 1 round 0 projective_extension d=3 SE2", "(12, ['x0^12', '0', '1'])"),
]


def test_equal_answers_have_no_difference():
    first_difference = load_same_answers().first_difference
    assert first_difference(ANSWERS, list(ANSWERS)) is None
    assert first_difference([], []) is None


def test_the_first_differing_answer_is_named():
    first_difference = load_same_answers().first_difference
    change = list(ANSWERS)
    change[1] = (ANSWERS[1][0], "DegreeReport(d=4, changed)")
    change[2] = (ANSWERS[2][0], "(12, ['x0^12', '0', '2'])")
    diff = first_difference(ANSWERS, change)
    assert diff.startswith(ANSWERS[1][0])
    assert "DegreeReport(d=4, ...)" in diff and "DegreeReport(d=4, changed)" in diff


def test_an_exit_code_alone_is_a_difference():
    first_difference = load_same_answers().first_difference
    change = [(ANSWERS[0][0], '[1, "{\\"S\\": \\"k1\\"}\\n"]'), *ANSWERS[1:]]
    assert first_difference(ANSWERS, change).startswith(ANSWERS[0][0])


def test_different_questions_or_counts_are_differences():
    first_difference = load_same_answers().first_difference
    swapped = [ANSWERS[1], ANSWERS[0], ANSWERS[2]]
    assert "questions differ" in first_difference(ANSWERS, swapped)
    assert first_difference(ANSWERS, ANSWERS[:2]) == "3 answers at the parent, 2 at the change"


def test_main_exits_1_on_the_first_difference(monkeypatch, capsys):
    module = load_same_answers()
    asked = []

    def collect(root, workload, seed, rounds):
        asked.append((root, workload, seed))
        if root == "change" and workload == "degree-generic" and seed == 2:
            return [("q", "b")]
        return [("q", "a")]

    monkeypatch.setattr(module, "collect", collect)
    monkeypatch.setattr(sys, "argv", ["same_answers.py", "--parent", "parent", "--change", "change"])
    assert module.main() == 1
    assert asked[-1] == ("change", "degree-generic", 2)
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "degree-generic seed 2: q:", "  parent: a", "  change: b"]
    monkeypatch.setattr(module, "collect", lambda root, *_: [("q", "a")])
    assert module.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "same answers: 13"


def test_theta_answers_cover_each_curve_and_index(monkeypatch):
    # seed 1 round 0: the PGL3 image, then the round's cubic, quartic and
    # quintic; T_8 of the image is the Horner oracle's
    from oracles import theta_horner
    from sigcurve.jets import CurveInput, GroupId, apply_group_element
    from sigcurve.parser import parse, serialize

    module = load_same_answers()
    monkeypatch.chdir(SCRIPT.parent.parent)
    monkeypatch.setattr(sys, "path", list(sys.path))
    answers = module.answer_rounds("theta", 1, [0])
    text, matrix = module.PGL3_IMAGE
    image = f"theta PGL3 image of {text}"
    curves = [(image, 8), *((f"theta seed 1 round 0 d={d}", n) for d, n in ((3, 8), (4, 6), (5, 6)))]
    assert [q for q, _ in answers] == [f"{c} T_{i}" for c, n in curves for i in range(1, n + 1)]
    assert not any(a.startswith("raised") for _, a in answers)
    G = apply_group_element(CurveInput.from_poly(parse(text)), matrix, GroupId.PGL3)
    assert answers[7] == (f"{image} T_8", serialize(theta_horner(G, 8).T))


def test_degree_special_answers_cover_each_curve_and_group(monkeypatch):
    # the cusp's PGL3 signature is a point; conics are refused past SE2; the
    # dense quartic with a corner piece is answered by the exact affine
    # route; the singular quartic of degree-generic seed 10, round 85 falls
    # below the generic 72 under SE2
    module = load_same_answers()
    monkeypatch.chdir(SCRIPT.parent.parent)
    monkeypatch.setattr(sys, "path", list(sys.path))
    answers = dict(module.answer_rounds("degree-special", 1, [0]))
    groups = ("SE2", "SA2", "A2", "PGL3")
    assert list(answers) == [f"degree-special {c} {g}" for c in module.DEGREE_SPECIAL for g in groups]
    assert "n_times_deg_S=0," in answers["degree-special y^2-x^3 PGL3"]
    assert answers["degree-special x*y-1 A2"].startswith("raised ExceptionalCurveError")
    singular = module.DEGREE_SPECIAL[-1]
    assert "n_times_deg_S=60," in answers[f"degree-special {singular} SE2"]
    corner = module.DEGREE_SPECIAL[-2]  # no y^4 term: a corner piece at infinity
    assert not any(answers[f"degree-special {c} {g}"].startswith("raised")
                   for c in ("x^4-y^4+x^2+1", corner) for g in groups)
    assert "affine_status='verified-empty'" in answers[f"degree-special {corner} A2"]


def test_signature_special_answers_cover_each_question(monkeypatch):
    # the circle's signature is a point; the PGL3 image is equivalent to the
    # Fermat cubic; the worked cubic gives samples under every group
    module = load_same_answers()
    assert ("signature-special", (1,), (0,)) in module.PLAN
    monkeypatch.chdir(SCRIPT.parent.parent)
    monkeypatch.setattr(sys, "path", list(sys.path))
    answers = dict(module.answer_rounds("signature-special", 1, [0]))
    cubic, source = module.WORKED_CUBIC, module.PGL3_IMAGE[0]
    assert list(answers) == [
        *(f"signature-special {c} {g}" for c, g in module.SIGNATURE_SPECIAL),
        f"signature-special equivalent {source} PGL3 image",
        *(f"signature-special samples {cubic} {g}" for g in ("SE2", "SA2", "A2", "PGL3")),
    ]
    assert not any(a.startswith("raised") for a in answers.values())
    assert answers["signature-special x^2+y^2-1 SE2"].startswith("PointSignature(")
    assert answers[f"signature-special equivalent {source} PGL3 image"].startswith(
        "EquivalenceVerdict(equivalent=True,")
    assert all(answers[f"signature-special samples {cubic} {g}"].count("SignatureSample(") == 6
               for g in ("SE2", "SA2", "A2", "PGL3"))
