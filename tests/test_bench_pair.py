"""``scripts/bench_pair.py::summarize`` on synthetic runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(seed: int, parent_wall: float, change_wall: float, rss: float) -> dict:
    def side(wall: float, failed: int) -> dict:
        return {
            "failed": failed,
            "attempted": 6,
            "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}},
        }

    return {"workload": "w", "seed": seed, "parent": side(parent_wall, 0),
            "change": side(change_wall, int(seed == 2))}


def test_summarize_counts_ties_for_neither_side():
    summarize = load_bench_pair().summarize
    runs = [
        run(1, 1.0, 0.8, 20.0),
        run(2, 1.1, 1.1, 20.0),  # a tie
        run(3, 1.2, 1.3, 20.0),
        run(4, 1.3, 0.9, 20.0),
        run(5, 1.4, 0.95, 20.0),
    ]
    out = summarize(runs)["w"]
    assert out["pairs"] == 5
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 30, "change": 30}
    wall = out["wall_s"]
    assert (wall["change_lower_in_pairs"], wall["change_higher_in_pairs"]) == (3, 1)
    # parent quartiles 1.1, 1.2, 1.3 and change median 0.95: the gap 0.25 is
    # beyond the parent's spread 0.2
    assert wall["change"]["median"] == 0.95
    assert wall["beyond_parent_iqr"] is True
    # every pair tied: neither side won one, and no gap beyond the (zero) spread
    rss = out["peak_rss_mb"]
    assert (rss["change_lower_in_pairs"], rss["change_higher_in_pairs"]) == (0, 0)
    assert rss["beyond_parent_iqr"] is False


def test_beyond_parent_iqr_compares_the_median_gap_with_the_spread():
    summarize = load_bench_pair().summarize
    runs = [run(s, p, c, 20.0) for s, (p, c) in enumerate(
        [(1.00, 0.70), (1.02, 0.71), (1.04, 0.69), (1.01, 0.72)], start=1)]
    wall = summarize(runs)["w"]["wall_s"]
    assert wall["change_lower_in_pairs"] == 4
    assert wall["beyond_parent_iqr"] is True
    # the same gap inside a wider parent spread is not beyond it
    runs = [run(s, p, c, 20.0) for s, (p, c) in enumerate(
        [(0.60, 0.70), (1.40, 0.71), (1.04, 0.69), (0.70, 0.72)], start=1)]
    assert summarize(runs)["w"]["wall_s"]["beyond_parent_iqr"] is False
