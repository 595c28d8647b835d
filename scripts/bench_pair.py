#!/usr/bin/env python3
"""Benchmark two sigcurve checkouts side by side and write one BENCH file.

    python3 scripts/bench_pair.py --parent DIR --change DIR \\
        --plan degree-generic=1-3 sigma-extension=1-10 desk-session=1-3 \\
        --trace sigma-extension --out BENCH_<n>.json

For every workload and seed of the plan, ``perfbench/run.py --seconds 30
--trace 0`` runs once in each checkout (its own benchmark code and its own
``src``), alternating which side runs first; the last JSON line of each run
is recorded as printed.  ``--trace`` adds one ``--trace 1`` run per side on
the named workloads (seed 1).  The file also records the git sha of each
checkout (when it has one) and the line count of its ``src/sigcurve/*.py``,
the Python version, ``nproc`` and, per workload and end-to-end metric, the
median and quartiles of each side, the number of pairs in which the change
is lower and in which it is higher (a tie counts for neither), and whether
the medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SECONDS = 30


def seeds_of(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_sha(path: str) -> str | None:
    """HEAD of the checkout, marked when its src differs from HEAD; None
    when the directory is not the top of a git checkout."""
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", path, *argv], capture_output=True,
                              text=True).stdout.strip()

    top = git("rev-parse", "--show-toplevel")
    if not top or os.path.realpath(top) != os.path.realpath(path):
        return None
    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "HEAD") + (" with uncommitted src changes" if dirty else "")


def src_lines(path: str) -> int:
    """Lines of the checkout's package source: ``cat src/sigcurve/*.py | wc -l``."""
    pkg = os.path.join(path, "src", "sigcurve")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def bench(path: str, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=path, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{os.path.basename(os.path.normpath(path))} {workload} seed {seed} "
          f"trace {trace}: {json.dumps(result['metrics'].get('wall_s'))}", flush=True)
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        out[workload] = {
            "pairs": len(pairs),
            "failed": {side: sum(r[side]["failed"] for r in pairs) for side in ("parent", "change")},
            "attempted": {side: sum(r[side]["attempted"] for r in pairs)
                          for side in ("parent", "change")},
        }
        for name in pairs[0]["parent"]["metrics"]:
            par = [r["parent"]["metrics"][name]["value"] for r in pairs]
            chg = [r["change"]["metrics"][name]["value"] for r in pairs]
            par_q, chg_q = quartiles(par), quartiles(chg)
            out[workload][name] = {
                "parent": par_q,
                "change": chg_q,
                # a tied pair counts for neither side
                "change_lower_in_pairs": sum(c < p for p, c in zip(par, chg)),
                "change_higher_in_pairs": sum(c > p for p, c in zip(par, chg)),
                "beyond_parent_iqr":
                    abs(chg_q["median"] - par_q["median"]) > par_q["q3"] - par_q["q1"],
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout with the change")
    ap.add_argument("--plan", nargs="+", required=True, metavar="WORKLOAD=SEEDS",
                    help="seeds as N or LO-HI")
    ap.add_argument("--trace", nargs="*", default=[], metavar="WORKLOAD")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for item in args.plan:
        workload, _, spec = item.partition("=")
        for seed in seeds_of(spec):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            row = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                row[side] = bench(sides[side], workload, seed, 0)
            runs.append(row)
    traced = {w: {side: bench(path, w, 1, 1) for side, path in sides.items()}
              for w in args.trace}
    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   "--trace 0|1, run from each checkout's root",
        "python": platform.python_version(),
        "nproc": int(nproc) if nproc.isdigit() else os.cpu_count(),
        **{side: {"sha": git_sha(path), "src_lines": src_lines(path)}
           for side, path in sides.items()},
        "summary": summarize(runs),
        "runs": runs,
        "traced": traced,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
