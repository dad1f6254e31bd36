"""``repro top``: a live terminal dashboard over a run ledger.

The dashboard is a pure function of the ledger file: it re-reads the
JSONL records each tick (append-only files make that cheap and safe
against partial lines) and renders points done/running/failed, the
cache hit rate, worker utilization, an ETA for the remaining points,
and rolling IPC/spill/fill aggregates over the completed payloads.
Because it only ever *reads* the ledger, it can watch a sweep running
in another process, or inspect a finished one after the fact.

Rendering is separated from the refresh loop so tests can call
:func:`render_top` on a record list directly; the loop
(:func:`top_loop`) handles the terminal housekeeping and exits when
the run ends (``run_end`` seen) or after ``max_ticks``.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Dict, List, Optional, Sequence

from .runlog import ledger_points, ledger_summary, read_ledger

__all__ = ["eta_seconds", "point_label", "render_top", "top_loop"]


def point_label(rec: Dict) -> str:
    """Human label of a ``point`` record: the point span's label attr
    when present, else the point dict's label-ish fields."""
    for span in rec.get("spans") or []:
        label = (span.get("attrs") or {}).get("label")
        if span.get("name") == "point" and label:
            return label
    pt = rec.get("point") or {}
    if pt.get("label"):
        return pt["label"]
    if pt.get("model"):
        benches = "+".join(pt.get("benches") or [])
        return f"{pt['model']}/{benches}/r{pt.get('phys_regs', '?')}"
    return ""


def _fmt_secs(secs: Optional[float]) -> str:
    if secs is None:
        return "--"
    if secs >= 3600:
        return f"{secs / 3600:.1f}h"
    if secs >= 60:
        return f"{secs / 60:.1f}m"
    return f"{secs:.1f}s"


def _bar(frac: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, frac)) * width))
    return "#" * filled + "." * (width - filled)


def eta_seconds(executed_elapsed: Sequence[float], remaining: int,
                workers: int) -> Optional[float]:
    """The ETA of the engine's progress line and of ``repro top``.

    The mean elapsed time of the executed points (cache hits resolve
    in microseconds and would make a mostly-cached re-run look nearly
    free) times the whole waves ``workers`` slots need for the rest:
    1 point left on 8 workers still costs one full point.  ``0.0``
    when nothing remains, ``None`` before the first executed point.
    """
    if remaining <= 0:
        return 0.0
    if not executed_elapsed:
        return None
    avg = sum(executed_elapsed) / len(executed_elapsed)
    return avg * math.ceil(remaining / max(1, workers))


def render_top(records: List[Dict], width: int = 72) -> str:
    """The dashboard screen for one snapshot of ledger records."""
    s = ledger_summary(records)
    header = s["header"]
    counts = s["counts"]
    total = s["total"]
    resolved = s["resolved"]
    running = s["running"]
    workers = max(1, int(header.get("workers") or 1))
    finished = bool(s["end"])
    eta = eta_seconds(s["executed_elapsed"], total - resolved, workers)

    lines = []
    cmd = header.get("command") or "?"
    lines.append(f"repro top — run {header.get('run_id', '?')}  "
                 f"[{cmd}]")
    cfg = header.get("config_hash")
    lines.append(f"config {cfg or '?'}   workers {workers}   "
                 f"schema v{header.get('v', '?')}")
    lines.append("")
    frac = resolved / total if total else 0.0
    state = "FINISHED" if finished else "running"
    lines.append(f"[{_bar(frac)}] {resolved}/{total} points  ({state})")
    lines.append(
        "  done {d}  cached {c}  failed {f}  timeout {t}"
        .format(d=counts.get("done", 0), c=counts.get("cached", 0),
                f=counts.get("failed", 0), t=counts.get("timeout", 0)))
    hit = s["cache_hit_rate"]
    util = min(1.0, len(running) / workers) if not finished else 0.0
    lines.append(f"  cache hit rate {hit:.0%}   worker util "
                 f"{util:.0%} ({len(running)}/{workers})   "
                 f"eta {_fmt_secs(eta)}")
    lines.append("")
    lines.append(f"  rolling IPC {s['ipc']:.3f}   "
                 f"cycles {s['cycles']:,}   "
                 f"spills {s['spills']:,}   fills {s['fills']:,}")
    if s["maxrss_kb"] or s["cpu_seconds"]:
        lines.append(f"  peak rss {s['maxrss_kb'] / 1024:.0f} MiB   "
                     f"worker cpu {s['cpu_seconds']:.1f}s")
    if running:
        lines.append("")
        lines.append("  running:")
        for rec in running[:8]:
            lines.append(f"    {rec.get('label', rec.get('key', '?'))}")
        if len(running) > 8:
            lines.append(f"    ... and {len(running) - 8} more")
    failed = sorted(
        (point_label(rec) or key or "?")
        for key, rec in ledger_points(records).items()
        if rec.get("status") in ("failed", "timeout"))
    if failed:
        lines.append("")
        lines.append(f"  failed/timeout: {', '.join(failed[:6])}"
                     + (" ..." if len(failed) > 6 else ""))
    return "\n".join(line[:width] for line in lines)


def top_loop(path, interval: float = 1.0,
             max_ticks: Optional[int] = None,
             out=None, clear: bool = True) -> int:
    """Refresh the dashboard until the run ends (or ``max_ticks``).

    Returns 0 when a ``run_end`` record was seen, 1 when the loop gave
    up without one (e.g. ``--once`` on a ledger mid-run).
    """
    out = out if out is not None else sys.stdout
    ticks = 0
    while True:
        try:
            records = read_ledger(path)
        except OSError:
            records = []
        if clear and getattr(out, "isatty", lambda: False)():
            out.write("\x1b[2J\x1b[H")
        out.write(render_top(records) + "\n")
        out.flush()
        finished = any(r.get("rec") == "run_end" for r in records)
        ticks += 1
        if finished:
            return 0
        if max_ticks is not None and ticks >= max_ticks:
            return 1
        time.sleep(interval)
