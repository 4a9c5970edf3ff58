"""Compare two ``run.py --repeat N`` result directories metric by metric.

    python3 benchmarks/perf/compare.py DIR_A DIR_B

``DIR_A`` is the reference (the parent commit), ``DIR_B`` the change.
Run ``i`` of A is paired with run ``i`` of B.  For every workload and
every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, B's share of won pairs (ties count for neither side) and
a verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least 9 in 10 pairs and the medians differ by
  more than the distance between A's quartiles;
* ``unresolved``: the spread of either side (quartile distance over
  median) exceeds the bound, unless every B run beats every A run;
* ``unchanged``: none of the above.

It also reports whether the simulated digests of paired runs agree.
Exits 1 if any metric is worse, 2 on unreadable input, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")

#: Share of pairs B must win before a gain is claimed.
MIN_WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool) -> dict:
    """The paired rule for one workload x metric."""
    sign = -1.0 if lower_is_better else 1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    gain = sign * (med_b - med_a) / med_a if med_a else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        call = "unresolved"
    elif gain < -bound:
        call = "worse"
    elif (gain > 0 and wins >= MIN_WIN_SHARE * len(pairs)
          and abs(med_b - med_a) > qa[2] - qa[0]):
        call = "better"
    else:
        call = "unchanged"
    return {"a": qa, "b": qb, "gain": gain, "win_share": wins / len(pairs),
            "spread": spread, "verdict": call}


def load(path: str) -> dict:
    with open(os.path.join(path, "results.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    ap.add_argument("--benchmark", default=BENCHMARK_JSON,
                    help="BENCHMARK.json holding the metric bounds")
    args = ap.parse_args(argv)
    try:
        res_a, res_b = load(args.dir_a), load(args.dir_b)
        with open(args.benchmark) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    n_worse = 0
    print(f"{'workload':24s} {'metric':20s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'gain':>8s} {'bound':>6s} "
          f"{'wins':>5s} verdict")
    for workload in sorted(set(res_a["runs"]) & set(res_b["runs"])):
        runs_a, runs_b = res_a["runs"][workload], res_b["runs"][workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in runs_a
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b
                 if name in r["metrics"]]
            if not a or not b:
                continue
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            n_worse += v["verdict"] == "worse"
            side_a, side_b = (f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"
                              for q in (v["a"], v["b"]))
            print(f"{workload:24s} {name:20s} {side_a:>32s} {side_b:>32s} "
                  f"{v['gain']:>+8.2%} {m['bound']:>6.1%} "
                  f"{v['win_share']:>5.0%} {v['verdict']}")
        if res_a["seed"] == res_b["seed"]:
            same = [ra.get("digest") == rb.get("digest")
                    for ra, rb in zip(runs_a, runs_b)]
            print(f"{workload:24s} simulated digests identical in "
                  f"{sum(same)}/{len(same)} pairs")
    return 1 if n_worse else 0


if __name__ == "__main__":
    sys.exit(main())
