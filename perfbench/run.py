"""sigcurve benchmark: one run of a workload, one JSON result line.

    python3 perfbench/run.py [--workload W] --seed N --seconds T --trace 0|1

Run from the root of a sigcurve checkout; the package is taken from its
``src`` directory.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run plus the
tracing overhead against an untraced replay of the same rounds.  Times are
scaled to the reference host's pace (see pace.py).  See README.md beside
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from pace import pace, scaled  # noqa: E402

SETUP_PROBES = 11
DEADLINE_S = 170  # the whole run, within the 180 s a run may take
READY = "import sigcurve, sys; print('ready', flush=True); sys.stdin.read()"


def setup_probe(workload: str, env: dict) -> float:
    """Seconds from launching a program process until it can take its first
    operation: ``sigcurve --help`` for the desk session, the package import
    for the in-process workloads."""
    if workload == "desk-session":
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "sigcurve.cli", "--help"], env=env,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        return perf_counter() - t0
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], env=env, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.communicate("", timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("sigcurve failed to import")
    return ready


def run_worker(workload: str, seed: int, seconds: int, env: dict, trace: int,
               deadline: float, rounds: int | None = None) -> dict:
    """Run one worker in its own process group, so that a worker stopped at
    the deadline takes its CLI children with it."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if rounds is not None:
        argv += ["--rounds", str(rounds)]
    else:
        argv += ["--seconds", str(seconds)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def op_times(run: dict) -> tuple[list, list]:
    """Wall and CPU seconds of each operation, scaled by its local pace."""
    walls = [scaled(w, p) for w, _, p in run["ops"]]
    cpus = [scaled(c, p) for _, c, p in run["ops"]]
    return walls, cpus


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    """One run of one workload: the result object the benchmark prints."""
    deadline = perf_counter() + DEADLINE_S
    if trace:
        traced = run_worker(workload, seed, seconds, env, 1, deadline)
        k = traced["rounds"]
        plain = run_worker(workload, seed, seconds, env, 0, deadline, rounds=k)
        runs = (traced, plain)
        t_walls, p_walls = op_times(traced)[0], op_times(plain)[0]
        s_traced = sum(t_walls) / sum(w for w, _, _ in traced["ops"])
        metrics = tracing.per_layer(
            traced["spans"], k, traced["theta_hits"], traced["theta_misses"],
            time_scale=s_traced, startup_s=traced["startup_s"] * s_traced,
            overhead_s=(sum(t_walls) - sum(p_walls)) / k,
        )
    else:
        probes, before = [], [pace(), pace()]
        for _ in range(SETUP_PROBES):
            probe_s = setup_probe(workload, env)
            after = [pace(), pace()]
            probes.append(scaled(probe_s, statistics.median(before + after)))
            before = after
        run = run_worker(workload, seed, seconds, env, 0, deadline)
        runs = (run,)
        k = run["rounds"]
        walls, cpus = op_times(run)
        metrics = {
            "setup_s": metric(statistics.median(probes), "s"),
            "wall_s": metric(sum(walls) / k, "s"),
            "cpu_s": metric(sum(cpus) / k, "s"),
            "op_p50_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(run["peak_rss_kb"] / 1024, "MB"),
        }
    for r in runs:
        for reason in r["reasons"]:
            print(f"failed: {reason}", file=sys.stderr)
    return {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="one workload; without it, all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sigcurve", "__init__.py")):
        print(f"no sigcurve package under {src}: run from a checkout's root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        if not args.workload:
            print(workload)
        result = measure(workload, args.seed, args.seconds, args.trace, env)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
