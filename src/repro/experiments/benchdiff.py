"""``repro bench record`` and ``repro bench diff``: the perf history.

``python -m bench run --out RESULT`` is the one place performance is
measured.  ``record`` appends a result to ``BENCH_perf.json``, a JSON
list with one entry per run: ``{"schema": "repro.bench-perf",
"schema_version": 2, "provenance", "workloads": {W: {"params",
"metrics": {M: {"value", "unit"}}}}}``.  ``diff`` compares a result
with the history: the baseline of a (workload, metric) is the median
of its last ``BASELINE_WINDOW`` recorded values.  Each metric's
direction and bound come from ``BENCHMARK.json``; only a metric with
a bound (the end-to-end ones) can regress.

Exit codes: 0 (no regression), 1 (a bounded metric regressed), 2 (the
result or the history cannot be used, or the history has no value for
any row).  ``report_only`` turns 1, and 2 for a history without
values, into 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "BenchDataError", "default_history_path", "load_result",
    "load_history", "history_baseline", "diff_rows", "render_diff",
    "bench_record", "bench_diff",
]

SCHEMA = "repro.bench-perf"
SCHEMA_VERSION = 2
#: Most recent recorded values of a metric the baseline median spans.
BASELINE_WINDOW = 5
_ROOT = Path(__file__).resolve().parents[3]


class BenchDataError(ValueError):
    """A result or history that cannot be used."""


def default_history_path() -> Path:
    """``BENCH_perf.json`` at the repository root."""
    return _ROOT / "BENCH_perf.json"


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise BenchDataError(f"cannot read {path}: {exc}") from exc


def _has_metrics(workloads) -> bool:
    """Whether ``workloads`` maps names to numeric ``metrics``."""
    try:
        return bool(workloads) and all(
            isinstance(m["value"], (int, float))
            for res in workloads.values() for m in res["metrics"].values())
    except (AttributeError, KeyError, TypeError):
        return False


def load_result(path) -> Dict:
    """A ``python -m bench run --out`` file.  A run with a failed
    operation measured a different program, so it is refused, and so
    is a file that does not say how many failed (a history entry
    copied out of ``BENCH_perf.json`` has no failure count)."""
    doc = _read_json(path)
    if not (isinstance(doc, dict) and "provenance" in doc
            and _has_metrics(doc.get("workloads"))):
        raise BenchDataError(f"{path}: not a `python -m bench run --out` "
                             f"result")
    uncounted = [name for name, res in doc["workloads"].items()
                 if "failed" not in res]
    if uncounted:
        raise BenchDataError(f"{path}: no failure count (`failed`) for "
                             f"{', '.join(uncounted)}; is it a history "
                             f"entry rather than a `python -m bench run "
                             f"--out` result?")
    failed = [name for name, res in doc["workloads"].items()
              if res["failed"] != 0]
    if failed:
        raise BenchDataError(f"{path}: operations failed in "
                             f"{', '.join(failed)}")
    return doc


def load_history(path) -> List[Dict]:
    """The history's entries (``[]`` when the file does not exist)."""
    if not Path(path).exists():
        return []
    history = _read_json(path)
    if not isinstance(history, list) or not all(
            isinstance(e, dict) and e.get("schema") == SCHEMA
            and e.get("schema_version") == SCHEMA_VERSION
            and _has_metrics(e.get("workloads")) for e in history):
        raise BenchDataError(f"{path}: not a list of {SCHEMA} "
                             f"v{SCHEMA_VERSION} entries")
    return history


def _declared_metrics() -> Dict[str, Dict]:
    """``BENCHMARK.json``'s metric declarations by name."""
    bench = _read_json(_ROOT / "BENCHMARK.json")
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def history_baseline(history: List[Dict], workload: str, metric: str,
                     window: int = BASELINE_WINDOW) -> Optional[float]:
    """Median of the last ``window`` recorded values of ``metric`` on
    ``workload`` (``None`` when no entry recorded it)."""
    recorded = (e["workloads"].get(workload, {"metrics": {}})["metrics"]
                for e in history)
    values = [m[metric]["value"] for m in recorded if metric in m]
    return statistics.median(values[-window:]) if values else None


def diff_rows(result: Dict, history: List[Dict],
              declared: Dict[str, Dict]) -> List[Dict]:
    """One row per (workload, metric) of ``result``.  ``change`` is
    ``None`` without a baseline or when it is 0; ``regressed`` is
    ``None`` for a metric without a declared bound."""
    rows = []
    for workload, res in sorted(result["workloads"].items()):
        for metric, m in sorted(res["metrics"].items()):
            decl = declared.get(metric, {})
            base = history_baseline(history, workload, metric)
            change = (m["value"] - base) / base if base else None
            regressed = None
            if decl.get("bound") is not None:
                sign = 1.0 if decl.get("better") == "lower" else -1.0
                regressed = (change is not None
                             and sign * change > decl["bound"])
            rows.append({"workload": workload, "metric": metric,
                         "unit": m.get("unit"), "value": m["value"],
                         "baseline": base, "change": change,
                         "better": decl.get("better"),
                         "bound": decl.get("bound"),
                         "regressed": regressed})
    return rows


def render_diff(rows: List[Dict]) -> str:
    lines = [f"{'workload':<18}{'metric':<54}{'value':>12}"
             f"{'baseline':>12}{'change':>9}  verdict"]
    for r in rows:
        base, change = r["baseline"], r["change"]
        verdict = ("no history" if base is None
                   else "" if r["regressed"] is None
                   else "REGRESSED" if r["regressed"] else "ok")
        lines.append(
            f"{r['workload']:<18}{r['metric']:<54}{r['value']:>12.6g}"
            f"{'--' if base is None else f'{base:.6g}':>12}"
            f"{'--' if change is None else f'{change:+.1%}':>9}  "
            f"{verdict}".rstrip())
    lines.append(f"(baseline: median of the last {BASELINE_WINDOW} "
                 f"recorded values; only metrics with a bound in "
                 f"BENCHMARK.json get a verdict)")
    return "\n".join(lines)


def bench_record(result_path, history_path=None, out=print) -> int:
    """Append one result to the history; returns the exit code.  A
    refused result or history leaves the file untouched."""
    path = Path(history_path or default_history_path())
    try:
        result = load_result(result_path)
        history = load_history(path)
    except BenchDataError as exc:
        print(f"repro bench record: {exc}", file=sys.stderr)
        return 2
    history.append({
        "schema": SCHEMA, "schema_version": SCHEMA_VERSION,
        "provenance": result["provenance"],
        "workloads": {name: {"params": res.get("params"),
                             "metrics": res["metrics"]}
                      for name, res in result["workloads"].items()}})
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(history, indent=1) + "\n")
    os.replace(tmp, path)
    out(f"bench record: {path} now holds {len(history)} entries")
    return 0


def bench_diff(result_path, history_path=None, report_only: bool = False,
               json_out=None, out=print) -> int:
    """Compare one result with the history; returns the exit code."""
    path = Path(history_path or default_history_path())
    try:
        result = load_result(result_path)
        history = load_history(path)
        declared = _declared_metrics()
    except BenchDataError as exc:
        print(f"repro bench diff: {exc}", file=sys.stderr)
        return 2
    rows = diff_rows(result, history, declared)
    out(f"bench diff: {result_path} against {path} "
        f"({len(history)} entries)")
    out(render_diff(rows))
    if json_out:
        Path(json_out).write_text(json.dumps({
            "schema": "repro.bench-diff", "schema_version": 2,
            "result": str(result_path), "history": str(path),
            "history_entries": len(history), "rows": rows,
        }, indent=2, sort_keys=True))
        out(f"(wrote {json_out})")
    if all(r["baseline"] is None for r in rows):
        out("bench diff: no usable history; `repro bench record` a "
            "`python -m bench run --out` result to seed it")
        return 0 if report_only else 2
    regressed = [f"{r['workload']} {r['metric']}" for r in rows
                 if r["regressed"]]
    if regressed:
        out(f"bench diff: REGRESSION in {', '.join(regressed)}")
        return 0 if report_only else 1
    return 0
