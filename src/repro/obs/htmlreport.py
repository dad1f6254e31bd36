"""``repro report``: render a run ledger as self-contained HTML.

One HTML file, no external assets or scripts: a run header, the
outcome summary, a per-point table (status, cache, wall/CPU time,
rss, IPC), and — per point — the span waterfall (offset/width bars on
a shared wall-clock axis, children indented under parents) with a
stage-profile "flame" strip for detailed spans that carry
``profile.<stage>.seconds`` counters.  Everything is computed from
the ledger records; the report is a pure function of the file, so it
can be regenerated at any time and attached to CI runs as an
artifact.
"""

from __future__ import annotations

import html
from typing import Dict, Iterable, List, Optional

from .dashboard import point_label
from .runlog import ledger_points, ledger_summary
from .spans import assemble_trees

__all__ = ["render_html"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 70em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
code, td.key { font-family: ui-monospace, monospace; font-size: .85em; }
table { border-collapse: collapse; width: 100%; margin: 1em 0; }
th, td { text-align: left; padding: .3em .6em;
         border-bottom: 1px solid #ddd; font-size: .9em; }
tr.failed td, tr.timeout td { background: #fdecea; }
tr.cached td { color: #666; }
.summary span { margin-right: 1.5em; }
.wf { margin: .2em 0 .8em; }
.wf .row { display: flex; align-items: center; height: 1.35em; }
.wf .lbl { width: 16em; flex: none; font-family: ui-monospace,
           monospace; font-size: .75em; white-space: nowrap;
           overflow: hidden; text-overflow: ellipsis; }
.wf .lane { position: relative; flex: auto; height: 1em;
            background: #f6f6f6; }
.wf .bar { position: absolute; height: 100%; border-radius: 2px;
           min-width: 2px; }
.wf .ok { background: #7cb5ec; } .wf .cached { background: #b8d8a8; }
.wf .error, .wf .terminated { background: #e4938e; }
.wf .timeout { background: #f0c674; }
.flame { display: flex; height: .9em; margin: .1em 0 .4em 16em;
         font-size: .65em; }
.flame div { overflow: hidden; white-space: nowrap; color: #fff;
             padding-left: 2px; }
.f0 { background:#4e79a7; } .f1 { background:#f28e2b; }
.f2 { background:#e15759; } .f3 { background:#76b7b2; }
.f4 { background:#59a14f; } .f5 { background:#edc948; }
.meta { color: #666; font-size: .85em; }
"""


def _esc(v) -> str:
    return html.escape(str(v))


def _walk(node: Dict, depth: int = 0):
    yield node, depth
    for child in node.get("children", ()):
        yield from _walk(child, depth + 1)


def _span_rows(tree: Dict, t_min: float, t_max: float) -> List[str]:
    """Waterfall rows (and flame strips) for one span tree."""
    width = max(t_max - t_min, 1e-9)
    rows: List[str] = []
    for node, depth in _walk(tree):
        t0 = float(node.get("t0") or t_min)
        t1 = float(node.get("t1") or t0)
        left = 100.0 * (t0 - t_min) / width
        w = max(100.0 * (t1 - t0) / width, 0.15)
        status = _esc(node.get("status") or "ok")
        dur = t1 - t0
        label = node.get("name", "?")
        attrs = node.get("attrs") or {}
        if "interval" in attrs:
            label = f"{label}[{attrs['interval']}]"
        title = (f"{label} {dur * 1000:.1f}ms status={status} "
                 f"span={node.get('span_id', '')}")
        rows.append(
            f'<div class="row">'
            f'<div class="lbl">{"&nbsp;" * (2 * depth)}{_esc(label)}'
            f' <span class="meta">{dur * 1000:.0f}ms</span></div>'
            f'<div class="lane"><div class="bar {status}" '
            f'style="left:{left:.2f}%;width:{w:.2f}%" '
            f'title="{_esc(title)}"></div></div></div>')
        rows.extend(_flame_strip(node))
    return rows


def _flame_strip(node: Dict) -> List[str]:
    """A stacked horizontal bar of ``profile.<stage>.seconds``
    counters — the per-stage attribution hanging off a detailed span."""
    counters = node.get("counters") or {}
    stages = [(k.split(".")[1], float(v)) for k, v in counters.items()
              if k.startswith("profile.") and k.endswith(".seconds")]
    total = sum(s for _, s in stages)
    if not stages or total <= 0:
        return []
    cells = []
    for i, (label, secs) in enumerate(stages):
        share = 100.0 * secs / total
        cells.append(f'<div class="f{i % 6}" '
                     f'style="width:{share:.2f}%" '
                     f'title="{_esc(label)} {secs * 1000:.1f}ms '
                     f'({share:.0f}%)">{_esc(label)}</div>')
    return [f'<div class="flame">{"".join(cells)}</div>']


def _point_row(key: str, rec: Dict) -> str:
    status = rec.get("status", "?")
    payload = rec.get("payload") or {}
    ru = rec.get("rusage") or {}
    cycles = payload.get("cycles") or 0
    committed = sum(payload.get("committed") or [])
    ipc = committed / cycles if cycles else 0.0
    cpu = (ru.get("utime") or 0.0) + (ru.get("stime") or 0.0)
    rss = (ru.get("maxrss_kb") or 0) / 1024
    return (f'<tr class="{_esc(status)}">'
            f'<td>{_esc(point_label(rec) or "?")}</td>'
            f'<td>{_esc(status)}</td>'
            f'<td>{_esc(rec.get("cache") or "-")}</td>'
            f'<td>{float(rec.get("elapsed") or 0):.2f}s</td>'
            f'<td>{cpu:.2f}s</td>'
            f'<td>{rss:.0f}M</td>'
            f'<td>{ipc:.3f}</td>'
            f'<td class="key">{_esc(key[:12])}</td></tr>')


def render_html(records: Iterable[Dict],
                title: Optional[str] = None) -> str:
    """The whole report for one ledger's records."""
    records = list(records)
    s = ledger_summary(records)
    header = s["header"]
    points = ledger_points(records)
    run_id = header.get("run_id", "?")
    title = title or f"repro run {run_id}"

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class='meta'>command: <code>"
        f"{_esc(header.get('command') or '?')}</code> &middot; "
        f"config <code>{_esc(header.get('config_hash') or '?')}</code>"
        f" &middot; workers {_esc(header.get('workers') or 1)}</p>",
        "<p class='summary'>",
        f"<span><b>{s['resolved']}</b>/{s['total']} points</span>",
    ]
    for status in ("done", "cached", "failed", "timeout"):
        n = s["counts"].get(status, 0)
        if n:
            parts.append(f"<span>{status} <b>{n}</b></span>")
    parts.append(f"<span>cache hit rate "
                 f"<b>{s['cache_hit_rate']:.0%}</b></span>")
    if s["cycles"]:
        parts.append(f"<span>rolling IPC <b>{s['ipc']:.3f}</b></span>")
    if s["cpu_seconds"]:
        parts.append(f"<span>worker cpu "
                     f"<b>{s['cpu_seconds']:.1f}s</b></span>")
    parts.append("</p>")

    parts.append("<h2>Points</h2><table><tr><th>point</th>"
                 "<th>status</th><th>cache</th><th>wall</th>"
                 "<th>cpu</th><th>rss</th><th>IPC</th><th>key</th>"
                 "</tr>")
    for key, rec in sorted(points.items(),
                           key=lambda kv: point_label(kv[1])):
        parts.append(_point_row(key, rec))
    parts.append("</table>")

    parts.append("<h2>Span waterfall</h2>")
    all_spans = [sp for rec in records
                 for sp in (rec.get("spans") or [])]
    times = ([float(sp["t0"]) for sp in all_spans if sp.get("t0")]
             + [float(sp["t1"]) for sp in all_spans if sp.get("t1")])
    if not all_spans:
        parts.append("<p class='meta'>no spans recorded (run the "
                     "sweep with a ledger attached)</p>")
    else:
        t_min, t_max = min(times), max(times)
        for key, rec in sorted(points.items(),
                               key=lambda kv: point_label(kv[1])):
            trees = assemble_trees(rec.get("spans") or [])
            if not trees:
                continue
            parts.append(f"<h3 class='meta'>"
                         f"{_esc(point_label(rec) or key[:12])} "
                         f"({_esc(rec.get('status'))})</h3>")
            parts.append("<div class='wf'>")
            for tree in trees:
                parts.extend(_span_rows(tree, t_min, t_max))
            parts.append("</div>")
        root_spans = [sp for rec in records
                      for sp in (rec.get("spans") or [])
                      if rec.get("rec") == "run_end"]
        for tree in assemble_trees(root_spans):
            parts.append("<h3 class='meta'>sweep (root)</h3>")
            parts.append("<div class='wf'>")
            parts.extend(_span_rows(tree, t_min, t_max))
            parts.append("</div>")
    parts.append("</body></html>")
    return "\n".join(parts)
