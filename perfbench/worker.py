"""One workload run in a fresh process: whole rounds until the time is used.

    python3 perfbench/worker.py --workload W --seed N (--seconds T | --rounds K) \
        --trace 0|1

Prints one JSON object: the rounds run, every operation's wall time, CPU
time and host pace (the median of the ``pace()`` samples taken just before
and just after it), the operations attempted,
failed (raised, exited non-zero or answered wrongly) and answered wrongly,
the peak resident set of the processes that ran sigcurve and, when traced,
the merged spans.  Input generation and checking happen outside the timed
operations.  The sigcurve package is imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, process_time

import tracing
import workloads
from pace import pace

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Desk:
    """Runs each command as its own ``sigcurve`` process; traced commands go
    through ``launch_cli.py``, which wraps the package and writes its spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
        self.spans: dict = {}
        self.theta_hits = self.theta_misses = 0
        self.startup_s = 0.0
        self.commands = 0

    def __call__(self, args: list) -> str:
        args = ["--format", "json", *args]
        if self.traced:
            stats = os.path.join(self.tmp, "spans.json")
            argv = [sys.executable, os.path.join(HERE, "launch_cli.py"), stats, *args]
        else:
            argv = [sys.executable, "-m", "sigcurve.cli", *args]
        t0 = perf_counter()
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
        wall = perf_counter() - t0
        if self.traced:
            with open(stats) as f:
                raw = json.load(f)
            os.remove(stats)
            tracing.merge(self.spans, raw)
            self.theta_hits += raw["theta_hits"]
            self.theta_misses += raw["theta_misses"]
            self.startup_s += wall - raw["spans"]["cli.main"][1]
            self.commands += 1
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def run_op(op: workloads.Op, cpu_now) -> tuple[float, float, str | None, bool]:
    """Time one operation, then judge it: (wall s, CPU s, why it failed or
    None, whether it answered wrongly).  An operation that raises has
    failed without answering; a malformed answer is a wrong answer."""
    t0, c0 = perf_counter(), cpu_now()
    try:
        out = op.call()
    except Exception as e:  # any failure of the program counts as a failed operation
        why = f"{op.label}: {type(e).__name__}: {e}"
        return perf_counter() - t0, cpu_now() - c0, why, False
    wall, cpu = perf_counter() - t0, cpu_now() - c0
    try:
        why = op.check(out)
    except Exception as e:
        why = f"malformed answer: {type(e).__name__}: {e}"
    return wall, cpu, why and f"{op.label}: {why}", bool(why)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    desk = None
    caches = ()
    recorder = tracing.Recorder() if args.trace else None
    if args.workload == "desk-session":
        desk = Desk(traced=bool(args.trace))
        make_round = lambda rng: workloads.desk_session(rng, desk)
        cpu_now = children_cpu
    else:
        import sigcurve.jets

        # Per-curve caches are emptied between rounds (each round is new
        # curves), so peak memory does not grow with the number of rounds.
        caches = (sigcurve.jets.theta, sigcurve.jets.implicit_jet)
        if recorder:
            recorder.install()
        make_round = workloads.IN_PROCESS[args.workload]
        cpu_now = process_time

    result = {
        "rounds": 0, "ops": [], "attempted": 0, "failed": 0, "wrong": 0, "reasons": []
    }
    paces = []  # two pace() samples before each operation, and two after the last
    theta_hits = theta_misses = 0
    start = perf_counter()
    try:
        while (args.rounds is not None and result["rounds"] < args.rounds) or (
            args.rounds is None and perf_counter() - start < args.seconds
        ):
            rng = workloads.round_rng(args.workload, args.seed, result["rounds"])
            ops = make_round(rng)
            for op in ops:
                paces.append((pace(), pace()))
                wall, cpu, reason, wrong = run_op(op, cpu_now)
                result["attempted"] += 1
                result["ops"].append([wall, cpu])
                result["wrong"] += wrong
                if reason:
                    result["failed"] += 1
                    result["reasons"].append(reason)
            if caches:
                info = caches[0].cache_info()
                theta_hits += info.hits
                theta_misses += info.misses
                for cache in caches:
                    cache.cache_clear()
            result["rounds"] += 1
    finally:
        if desk:
            desk.close()
    paces.append((pace(), pace()))
    for op, before, after in zip(result["ops"], paces, paces[1:]):
        op.append(statistics.median(before + after))

    if desk:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        if desk:
            raw = desk.spans
            theta_hits, theta_misses = desk.theta_hits, desk.theta_misses
            startup = desk.startup_s / max(desk.commands, 1)
        else:
            raw, startup = recorder.snapshot(), 0.0
        result.update(
            spans=raw, theta_hits=theta_hits, theta_misses=theta_misses, startup_s=startup
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
