"""Plain-text rendering of result tables and figure series."""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Fixed-width table; floats are shown with three decimals."""
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        if v is None:
            return "--"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_progress(progress, width: int = 24) -> str:
    """One live status line for a running sweep (a
    :class:`~repro.experiments.engine.SweepProgress` snapshot):
    progress bar, per-status counts, and the ETA once known."""
    total = max(1, progress.total)
    filled = int(width * progress.completed / total)
    bar = "#" * filled + "-" * (width - filled)
    line = (f"[{bar}] {progress.completed}/{progress.total}"
            f"  done {progress.done}"
            f"  cached {progress.cached}"
            f"  failed {progress.failed + progress.timeout}")
    if progress.eta is not None:
        line += f"  eta {progress.eta:.0f}s"
    return line


def render_outcome_summary(outcomes, elapsed: float) -> str:
    """End-of-sweep summary: one headline line (greppable ``executed
    N`` count) plus a line per failed/timed-out point."""
    counts = {}
    for oc in outcomes.values():
        counts[oc.status] = counts.get(oc.status, 0) + 1
    executed = sum(counts.get(s, 0) for s in ("done", "failed",
                                              "timeout"))
    parts = [f"{counts[s]} {s}" for s in
             ("done", "cached", "failed", "timeout")
             if counts.get(s)]
    lines = [f"sweep: {len(outcomes)} points ({', '.join(parts) or 'none'})"
             f" — executed {executed} in {elapsed:.1f}s"]
    lines += [f"  {render_failure(oc)}" for oc in outcomes.values()
              if not oc.ok]
    return "\n".join(lines)


def render_failure(oc) -> str:
    """One line for a failed or timed-out point: its status, label and
    the last line of its error."""
    reason = oc.error.strip().splitlines()[-1] if oc.error else oc.status
    return f"{oc.status}: {oc.point.label}: {reason}"


def render_series(title: str, x_name: str,
                  series: Dict[str, Dict[int, Optional[float]]]) -> str:
    """A figure as a table: one column per series, one row per x.

    ``None`` values render as ``--`` (the paper's "No Baseline"
    annotations for unrunnable configurations).
    """
    xs = sorted({x for ys in series.values() for x in ys})
    headers = [x_name] + list(series)
    rows = []
    for x in xs:
        rows.append([x] + [series[name].get(x) for name in series])
    return render_table(headers, rows, title=title)
