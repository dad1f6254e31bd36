"""The run ledger: a schema-versioned, append-only record of runs.

Every ``repro run`` / ``repro sweep`` invoked with ``--ledger`` leaves
one run's worth of JSONL records behind: who ran what (``run_start``
carries the invoking command, the semantics source hash and a fresh
``run_id``), what happened to each point (``point`` records carry the
outcome, cache hit/miss, per-point resource usage measured in the
worker, and the point's finished spans), and how it ended
(``run_end``).  ``repro top`` tails a ledger for a live dashboard,
``repro report`` renders one into a self-contained HTML report, and
the audit trail is exactly what ROADMAP item 1's service would serve.

The ledger is an audit trail, not recovery state: a re-run resumes
from the result store, which (with the cache on) holds every completed
point before its ``point`` record is written.

Records share three envelope fields: ``rec`` (the record kind), ``v``
(:data:`LEDGER_SCHEMA`) and ``t`` (epoch seconds).  Everything else is
kind-specific; readers must ignore unknown fields so the schema can
grow.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .trace import read_jsonl

__all__ = [
    "LEDGER_SCHEMA", "RunLedger", "read_ledger",
    "ledger_points", "ledger_spans", "ledger_summary",
]

#: Version stamped on every record this module writes.
LEDGER_SCHEMA = 1


class RunLedger:
    """Appends one run's records to a JSONL ledger file.

    The constructor only opens the file; :meth:`run_start` writes the
    header record (the engine calls it once it knows the point count).
    Appending (``"a"``) is deliberate: a re-run sweep extends the
    same ledger, and readers resolve duplicate points by
    last-record-wins.
    """

    def __init__(self, path, run_id: Optional[str] = None,
                 command: Optional[str] = None,
                 config_hash: Optional[str] = None) -> None:
        self.path = Path(path)
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.command = command
        self.config_hash = config_hash
        self._fh = self.path.open("a")

    # -- writing ------------------------------------------------------

    def write(self, rec: str, **fields) -> None:
        """Append one record of kind ``rec`` (flushed immediately, so
        ``repro top`` sees every completed record)."""
        row = {"rec": rec, "v": LEDGER_SCHEMA, "run_id": self.run_id,
               "t": round(time.time(), 6)}
        row.update(fields)
        self._fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        self._fh.flush()

    def run_start(self, total: int = 0, workers: int = 1,
                  trace_id: Optional[str] = None, **extra) -> None:
        """The run header: invoking command, config hash, scale."""
        self.write("run_start", command=self.command,
                   config_hash=self.config_hash, total=total,
                   workers=workers, trace_id=trace_id, **extra)

    def point_start(self, key: str, label: str) -> None:
        """A point began executing (lets ``repro top`` show running
        points)."""
        self.write("point_start", key=key, label=label)

    def point(self, key: str, status: str, point: Optional[dict] = None,
              payload: Optional[dict] = None, error: str = "",
              elapsed: float = 0.0, cache: Optional[str] = None,
              rusage: Optional[dict] = None,
              spans: Optional[List[dict]] = None) -> None:
        """One resolved point and its outcome."""
        self.write("point", key=key, status=status, point=point,
                   payload=payload, error=error,
                   elapsed=round(elapsed, 6), cache=cache,
                   rusage=rusage, spans=spans or [])

    def run_end(self, status: str = "ok",
                counts: Optional[Dict[str, int]] = None,
                elapsed: float = 0.0,
                spans: Optional[List[dict]] = None) -> None:
        """The run footer: outcome counts and the root (sweep) span."""
        self.write("run_end", status=status, counts=counts or {},
                   elapsed=round(elapsed, 6), spans=spans or [])

    def close(self) -> None:
        """Close the file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def read_ledger(path) -> List[Dict]:
    """All records of a ledger file, in order; blank and truncated
    lines (the crash the append-only format survives) are skipped."""
    return list(read_jsonl(path))


def ledger_points(records: Iterable[Dict]) -> Dict[str, Dict]:
    """``{key: record}`` over the ``point`` records; later wins."""
    out: Dict[str, Dict] = {}
    for rec in records:
        if rec.get("rec") == "point" and "key" in rec:
            out[rec["key"]] = rec
    return out


def ledger_spans(records: Iterable[Dict]) -> List[Dict]:
    """Every span dict carried by the records (points + run_end), in
    record order — feed to :func:`repro.obs.spans.assemble_trees`."""
    spans: List[Dict] = []
    for rec in records:
        spans.extend(rec.get("spans") or [])
    return spans


def ledger_summary(records: Iterable[Dict]) -> Dict:
    """Aggregate view of one ledger for dashboards and reports.

    Returns counts by status, cache hit rate, running points (started
    but not yet resolved), rolling IPC/spill/fill aggregates over the
    successful payloads, executed-point timing, and the run header
    fields (run_id/command/config_hash/total/workers).
    """
    records = list(records)
    header: Dict = {}
    end: Dict = {}
    points = ledger_points(records)
    started: Dict[str, Dict] = {}
    for rec in records:
        if rec.get("rec") == "run_start":
            header = rec
        elif rec.get("rec") == "run_end":
            end = rec
        elif rec.get("rec") == "point_start" and "key" in rec:
            started[rec["key"]] = rec

    counts: Dict[str, int] = {}
    elapsed_exec: List[float] = []
    cycles = committed = spills = fills = 0
    maxrss_kb = 0
    cpu_seconds = 0.0
    for rec in points.values():
        status = rec.get("status", "?")
        counts[status] = counts.get(status, 0) + 1
        if status in ("done", "failed", "timeout"):
            elapsed_exec.append(float(rec.get("elapsed") or 0.0))
        payload = rec.get("payload")
        if isinstance(payload, dict):
            cycles += int(payload.get("cycles") or 0)
            committed += sum(payload.get("committed") or [])
            spills += int(payload.get("spills") or 0)
            fills += int(payload.get("fills") or 0)
        ru = rec.get("rusage")
        if isinstance(ru, dict):
            maxrss_kb = max(maxrss_kb, int(ru.get("maxrss_kb") or 0))
            cpu_seconds += float(ru.get("utime") or 0.0)
            cpu_seconds += float(ru.get("stime") or 0.0)

    running = [rec for key, rec in started.items() if key not in points]
    resolved = sum(counts.values())
    hits = counts.get("cached", 0)
    total = int(header.get("total") or 0) or resolved
    return {
        "header": header,
        "end": end,
        "total": total,
        "counts": counts,
        "resolved": resolved,
        "running": running,
        "cache_hit_rate": hits / resolved if resolved else 0.0,
        "executed_elapsed": elapsed_exec,
        "ipc": committed / cycles if cycles else 0.0,
        "cycles": cycles,
        "committed": committed,
        "spills": spills,
        "fills": fills,
        "maxrss_kb": maxrss_kb,
        "cpu_seconds": cpu_seconds,
    }
