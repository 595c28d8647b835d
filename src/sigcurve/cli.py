"""Command-line front end.

Machine output goes to stdout (or ``--out``), diagnostics to stderr.  Exit
codes: 0 success, 1 any other ``SigcurveError`` or an output pipe closed
early (``| head``, quietly), 2 exceptional input, a constant curve polynomial
(``InvalidCurveError``) or an invalid argument, 4 parse error.  A curve text
may begin with '-' (``--curve -x^2+y^3+1``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

from .degree import predict_degree
from .equivalence import equivalent, symmetry_order
from .errors import ExceptionalCurveError, InvalidCurveError, ParseError, SigcurveError
from .fermat import (
    fermat_curve,
    fermat_signature,
    fermat_symmetry_order,
)
from .jets import CurveInput, GroupId, classifying_pair, theta
from .parser import parse, serialize
from .signature import (
    FiberTable,
    PointSignature,
    certify_signature,
    signature_polynomial,
    signature_samples,
)

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_EXCEPTIONAL = 2
EXIT_PARSE = 4


def _group(value: str) -> GroupId:
    try:
        return GroupId(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown group {value!r} (choose from SE2, SA2, A2, PGL3)"
        )


def _int_at_least(low: int):
    def parse_int(value: str) -> int:
        number = int(value)  # argparse reports a ValueError as an invalid int
        if number < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {number}")
        return number

    parse_int.__name__ = "int"
    return parse_int


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _curve(text: str) -> CurveInput:
    return CurveInput.from_poly(parse(text))


def _attach_curve_texts(argv: list[str]) -> list[str]:
    """--curve TEXT as --curve=TEXT when TEXT begins with one '-', which
    argparse would read as an option (-h stays the help flag)."""
    out: list[str] = []
    for arg in argv:
        if out[-1:] in (["--curve"], ["--curve2"]) and arg[:1] == "-" and arg[:2] not in ("--", "-h"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sigcurve",
        description="Differential signatures of plane algebraic curves "
        "under SE(2), SA(2), A(2) and PGL(3), in exact arithmetic.",
    )
    ap.add_argument("--out", help="write machine output to this file instead of stdout")
    ap.add_argument(
        "--format", choices=("text", "json"), default=None, help="output format"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="restriction T_i of a differential function")
    p.add_argument("--curve", required=True)
    p.add_argument("--index", type=int, required=True, choices=range(1, 9))

    p = sub.add_parser("invariants", help="classifying pair K1, K2 on the curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--group", type=_group, required=True)

    p = sub.add_parser("signature", help="certified signature polynomial")
    p.add_argument("--curve", required=True)
    p.add_argument("--group", type=_group, required=True)

    p = sub.add_parser("degree", help="degree prediction via the multiplicity formula")
    p.add_argument("--curve", required=True)
    p.add_argument("--group", type=_group, required=True)
    p.add_argument("--n", type=_positive, default=None, help="known symmetry order")
    p.add_argument("--trials", type=_positive, default=3)
    p.add_argument("--seed", type=_nonnegative, default=0)

    p = sub.add_parser("symmetry", help="symmetry group cardinality")
    p.add_argument("--curve", required=True)
    p.add_argument("--group", type=_group, required=True)
    p.add_argument("--seed", type=_nonnegative, default=0)

    p = sub.add_parser("equiv", help="group equivalence of two curves")
    p.add_argument("--curve", required=True)
    p.add_argument("--curve2", required=True)
    p.add_argument("--group", type=_group, required=True)

    p = sub.add_parser("samples", help="numeric signature samples as CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--group", type=_group, required=True)
    p.add_argument("--count", type=_positive, default=25)
    p.add_argument("--seed", type=_nonnegative, default=0)

    p = sub.add_parser("fermat", help="built-in Fermat family x^d + y^d + 1")
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--group", type=_group, required=True)
    p.add_argument(
        "--what", choices=("signature", "symmetry", "degree"), default="signature"
    )
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_curve_texts(sys.argv[1:] if argv is None else argv))
    out_stream = open(args.out, "w") if args.out else sys.stdout
    fmt = args.format or "text"

    def emit(payload: dict, text: str) -> None:
        if fmt == "json":
            payload["schema_version"] = SCHEMA_VERSION
            print(json.dumps(payload, indent=2, default=str), file=out_stream)
        else:
            print(text, file=out_stream)

    try:
        code = _dispatch(args, emit)
        out_stream.flush()
    except BrokenPipeError:  # stdout to devnull: the flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        code = EXIT_PARSE
    except (ExceptionalCurveError, InvalidCurveError) as e:
        print(str(e), file=sys.stderr)
        code = EXIT_EXCEPTIONAL
    except SigcurveError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    finally:
        if args.out:
            out_stream.close()
    return code


def _dispatch(args, emit) -> int:
    cmd = args.command
    cv = _curve(args.curve) if cmd != "fermat" else None
    if cmd == "theta":
        t = theta(cv, args.index)
        deg_t = None if t.T.is_zero() else t.T.total_degree()
        emit(
            {
                "command": "theta",
                "index": t.index,
                "T": serialize(t.T),
                "content": str(t.content),
                "primitive": serialize(t.primitive),
                "d_i": t.d_i,
                "tau_i": t.tau_i,
                "deg_T": deg_t,
            },
            f"T_{t.index} = {serialize(t.T)}\n"
            f"d_i = {t.d_i}, tau_i = {t.tau_i}"
            + ("" if deg_t is None else f", deg T_i = {deg_t}"),
        )
        return EXIT_OK
    if cmd == "invariants":
        pair = classifying_pair(cv, args.group)
        emit(
            {
                "command": "invariants",
                "group": args.group.value,
                "K1_num": serialize(pair.K1.num),
                "K1_den": serialize(pair.K1.den),
                "K2_num": serialize(pair.K2.num),
                "K2_den": serialize(pair.K2.den),
            },
            f"K1 = ({serialize(pair.K1.num)}) / ({serialize(pair.K1.den)})\n"
            f"K2 = ({serialize(pair.K2.num)}) / ({serialize(pair.K2.den)})",
        )
        return EXIT_OK
    if cmd == "signature":
        sig = signature_polynomial(cv, args.group)
        if isinstance(sig, PointSignature):
            emit(
                {
                    "command": "signature",
                    "group": args.group.value,
                    "point_signature": str(sig.value),
                },
                f"point signature: {sig.value}",
            )
        else:
            emit(
                {
                    "command": "signature",
                    "group": args.group.value,
                    "S": serialize(sig.S),
                    "degree": sig.degree(),
                    "certificate": dataclasses.asdict(sig.certificate),
                },
                f"S = {serialize(sig.S)}",
            )
        return EXIT_OK
    if cmd == "degree":
        rep = predict_degree(
            cv, args.group, n=args.n, trials=args.trials, seed=args.seed
        )
        payload = {
            "command": "degree",
            "group": rep.group.value,
            "d": rep.d,
            "deg_sigma": rep.deg_sigma,
            "mult_sum": rep.mult_sum,
            "n": rep.n,
            "deg_S_predicted": rep.deg_S_predicted,
            "n_times_deg_S": rep.n_times_deg_S,
            "affine_base_points_excluded": rep.affine_base_points_excluded,
            "affine_status": rep.affine_status,
            "sheared": rep.sheared,
            "mult_trials": [[list(map(str, a)), s] for a, s in rep.mult_report.trials],
            "mult_lower_bound": rep.mult_report.lower_bound,
            "sandwich_closed": rep.mult_report.sandwich_closed,
        }
        emit(
            payload,
            f"d = {rep.d}, deg(sigma) = {rep.deg_sigma}, mult_sum = {rep.mult_sum}, "
            f"n*deg(S) = {rep.n_times_deg_S}"
            + (f", deg(S) = {rep.deg_S_predicted} (n = {rep.n})" if rep.n else ""),
        )
        return EXIT_OK
    if cmd == "symmetry":
        res = symmetry_order(cv, args.group, seed=args.seed)
        payload = {
            "command": "symmetry",
            "group": args.group.value,
            "infinite": res.infinite,
            "n": res.n,
            "route": res.route,
            "signature_degree": res.signature_degree,
        }
        emit(
            payload,
            "symmetry order: infinite" if res.infinite else f"symmetry order: {res.n}",
        )
        return EXIT_OK
    if cmd == "equiv":
        v = equivalent(cv, _curve(args.curve2), args.group)
        payload = {
            "command": "equiv",
            "group": args.group.value,
            "equivalent": v.equivalent,
            "reason": v.reason.value,
            "note": v.note,
        }
        emit(
            payload,
            f"equivalent: {v.equivalent} ({v.reason.value})"
            + (f" [{v.note}]" if v.note else ""),
        )
        if v.reason.value == "exceptional-input":
            return EXIT_EXCEPTIONAL
        return EXIT_OK
    if cmd == "samples":
        samples = signature_samples(
            cv, args.group, args.count, seed=args.seed, real_only=True
        )
        lines = ["x,y,k1,k2"]
        for s in samples:
            lines.append(
                ",".join(
                    repr(v.real) for v in (s.x, s.y, s.k1, s.k2)
                )
            )
        emit({"command": "samples", "csv": "\n".join(lines)}, "\n".join(lines))
        return EXIT_OK
    if cmd == "fermat":
        return _fermat_command(args, emit)
    raise AssertionError(f"unhandled command {cmd}")


def _fermat_command(args, emit) -> int:
    d = args.d
    group = args.group
    cv = fermat_curve(d)
    if args.what == "degree":
        rep = predict_degree(cv, group)
        emit(
            {
                "command": "fermat",
                "what": "degree",
                "d": d,
                "group": group.value,
                "deg_sigma": rep.deg_sigma,
                "mult_sum": rep.mult_sum,
                "n_times_deg_S": rep.n_times_deg_S,
            },
            f"n*deg(S) = {rep.n_times_deg_S} (deg sigma {rep.deg_sigma}, mult {rep.mult_sum})",
        )
        return EXIT_OK
    try:
        sig = fermat_signature(d, group)
    except ValueError as e:  # no closed form for this group or degree
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EXCEPTIONAL
    if args.what == "signature":
        cert = certify_signature(FiberTable(cv, group), sig.S)
        emit(
            {
                "command": "fermat",
                "what": "signature",
                "d": d,
                "group": group.value,
                "S": serialize(sig.S),
                "degree": sig.degree(),
                "verification": "bezout-count",
                "verified": cert is not None,
                "certificate": dataclasses.asdict(cert) if cert else None,
            },
            f"S = {serialize(sig.S)}\n"
            + ("[verified: bezout-count]" if cert else "[bezout-count certificate fails]"),
        )
        return EXIT_OK
    if args.what == "symmetry":
        res = symmetry_order(cv, group, known_signature_degree=sig.degree())
        expected = fermat_symmetry_order(d, group)
        emit(
            {
                "command": "fermat",
                "what": "symmetry",
                "d": d,
                "group": group.value,
                "n": res.n,
                "closed_form_n": expected,
                "route": res.route,
            },
            f"n = {res.n} (closed form {expected})",
        )
        return EXIT_OK
    raise AssertionError


if __name__ == "__main__":
    sys.exit(main())
