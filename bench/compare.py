"""``python -m bench compare A.json… -- B.json…``: applies the bounds.

Each file is what ``python -m bench run --out`` wrote.  For every
workload and end-to-end metric it prints each side's median and
quartiles, and a verdict:

* ``ok`` — B's median is within the metric's bound of A's;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's interquartile range is wider than the
  bound, so the runs cannot tell (unless every B run beats every A
  run, which is ``ok``).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from bench.spec import load_benchmark_json


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if (a3 - a1) / am > bound or (b3 - b1) / bm > bound:
        beats = all(sign * x < sign * y for x in b for y in a)
        return "ok" if beats else "unresolved"
    return "worse" if sign * (bm - am) / am > bound else "ok"


def load(paths: List[str]) -> Dict[str, Dict]:
    """``{workload: {"values": {metric: [..]}, "failed", "attempted"}}``
    over every file of one side."""
    side: Dict[str, Dict] = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for name, res in doc["workloads"].items():
            entry = side.setdefault(name, {"values": {}, "failed": 0,
                                           "attempted": 0})
            entry["failed"] += res["failed"]
            entry["attempted"] += res["attempted"]
            for metric, m in res["metrics"].items():
                entry["values"].setdefault(metric, []).append(m["value"])
    return side


def compare(a_paths: List[str], b_paths: List[str], out=sys.stdout) -> int:
    """Print the comparison; returns 1 if any metric is ``worse``."""
    bench = load_benchmark_json()
    a, b = load(a_paths), load(b_paths)
    worse = False
    for workload in sorted(set(a) & set(b)):
        sa, sb = a[workload], b[workload]
        print(f"{workload}: failures A {sa['failed']}/{sa['attempted']}"
              f"  B {sb['failed']}/{sb['attempted']}", file=out)
        print(f"  {'metric':<14}{'A q1/med/q3':>30}{'B q1/med/q3':>30}"
              f"{'change':>9}{'bound':>7}  verdict", file=out)
        for m in bench["end_to_end"]:
            va, vb = sa["values"].get(m["name"]), sb["values"].get(m["name"])
            if not va or not vb:
                print(f"  {m['name']:<14} missing on "
                      f"{'A' if not va else 'B'}", file=out)
                worse = True
                continue
            qa, qb = quartiles(va), quartiles(vb)
            v = verdict(va, vb, m["bound"], m["better"])
            worse |= v == "worse"
            print(f"  {m['name']:<14}"
                  f"{'/'.join(f'{x:.4g}' for x in qa):>30}"
                  f"{'/'.join(f'{x:.4g}' for x in qb):>30}"
                  f"{(qb[1] - qa[1]) / qa[1]:>+9.1%}{m['bound']:>7.0%}"
                  f"  {v}", file=out)
    return 1 if worse else 0
