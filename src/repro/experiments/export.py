"""Export of experiment artifacts: figure CSVs and run-statistics JSON.

``python -m repro fig4 --csv out.csv`` writes the same data the text
table shows, one row per (series, x) point — directly loadable by
pandas/gnuplot/Excel.  ``python -m repro run ... --json out.json``
writes the full :meth:`SimStats.to_dict` record, the single schema
shared by benchmark artifacts and the ``stats`` field of the
experiment runner's stored results.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.pipeline.stats import SimStats

#: Version stamped into every exported artifact.  Bump when a field is
#: renamed/removed or its meaning changes; adding fields is not a
#: version bump (readers must tolerate unknown keys).
SCHEMA_VERSION = 2
#: ``schema`` value of a ``repro run --json`` record.
STATS_SCHEMA = "repro.run-stats"
#: ``schema`` value of each ``repro sweep --csv`` row.
OUTCOMES_SCHEMA = "repro.sweep-outcomes"
#: ``schema`` value of a ``repro profile --json`` record.
PROFILE_SCHEMA = "repro.profile"


def schema_tag(schema: str) -> str:
    """The compact ``<schema>/v<version>`` form used in CSV cells."""
    return f"{schema}/v{SCHEMA_VERSION}"


def write_stats_json(path: str, stats: SimStats, **meta) -> Path:
    """Write one run's full statistics record (plus ``meta`` labels
    such as model/bench names) as JSON; returns the Path written.

    The record carries ``schema``/``schema_version`` identification
    (see ``docs/experiments.md``) so downstream tooling can detect
    what it is reading without guessing from the filename.
    """
    out = Path(path)
    payload = {"schema": STATS_SCHEMA, "schema_version": SCHEMA_VERSION,
               **meta, "stats": stats.to_dict()}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return out


def read_stats_json(path: str) -> Tuple[Dict, SimStats]:
    """Inverse of :func:`write_stats_json`: (meta, SimStats).

    Validates and strips the schema identification, so ``meta`` holds
    only the caller-supplied labels.
    """
    payload = json.loads(Path(path).read_text())
    schema = payload.pop("schema", None)
    version = payload.pop("schema_version", SCHEMA_VERSION)
    if schema != STATS_SCHEMA:
        raise ValueError(f"{path}: not a {STATS_SCHEMA} record "
                         f"(schema={schema!r})")
    if version > SCHEMA_VERSION:
        raise ValueError(f"{path}: schema_version {version} is newer "
                         f"than supported ({SCHEMA_VERSION})")
    stats = SimStats.from_dict(payload.pop("stats"))
    return payload, stats


def write_series_csv(path: str, x_name: str,
                     series: Dict[str, Dict[int, Optional[float]]]) -> Path:
    """Write a figure's series to ``path``; returns the Path written.

    Unrunnable points (``None``) are emitted with an empty value cell
    so plots show the gap rather than a zero.
    """
    out = Path(path)
    xs = sorted({x for col in series.values() for x in col})
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", x_name, "value"])
        for name, col in series.items():
            for x in xs:
                v = col.get(x)
                writer.writerow([name, x, "" if v is None else f"{v:.6f}"])
    return out


#: Per-point columns of a sweep-outcome CSV (``repro sweep --csv``).
#: ``schema`` carries the ``repro.sweep-outcomes/v2`` tag on every row
#: (CSV has no header metadata, so the tag rides in a column).
OUTCOME_FIELDS: Tuple[str, ...] = (
    "status", "kind", "model", "benches", "phys_regs", "dl1_ports",
    "scale", "elapsed", "cycles", "ipc", "dl1_accesses", "unrunnable",
    "error", "key", "schema",
    "sampled", "sample_intervals", "sample_detailed",
    "sample_detailed_cycles", "sample_rse_rounds",
    "sample_intervals_added",
)


def write_outcomes_csv(path: str, outcomes) -> Path:
    """Write one row per sweep point (``{Point: PointOutcome}`` from an
    execution engine) — the raw-grid counterpart of
    :func:`write_series_csv`."""
    out = Path(path)
    tag = schema_tag(OUTCOMES_SCHEMA)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=OUTCOME_FIELDS)
        writer.writeheader()
        for point, oc in outcomes.items():
            row = {
                "schema": tag,
                "status": oc.status, "kind": point.kind,
                "model": point.model,
                "benches": "+".join(point.benches) or point.bench,
                "phys_regs": point.phys_regs,
                "dl1_ports": point.dl1_ports, "scale": point.scale,
                "elapsed": f"{oc.elapsed:.3f}",
                "error": oc.error.strip().splitlines()[-1]
                         if oc.error else "",
                "key": point.cache_key(),
            }
            if oc.ok and point.kind == "run":
                r = oc.result()
                row.update(cycles=r.cycles, ipc=f"{r.ipc:.6f}",
                           dl1_accesses=r.dl1_accesses,
                           unrunnable=int(r.unrunnable),
                           sampled=int(r.sampled),
                           sample_intervals=r.sample_intervals,
                           sample_detailed=r.sample_detailed,
                           sample_detailed_cycles=r.sample_detailed_cycles,
                           sample_rse_rounds=r.sample_rse_rounds,
                           sample_intervals_added=r.sample_intervals_added)
            writer.writerow(row)
    return out


def read_series_csv(path: str) -> Dict[str, Dict[int, Optional[float]]]:
    """Inverse of :func:`write_series_csv` (round-trip testing)."""
    series: Dict[str, Dict[int, Optional[float]]] = {}
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            col = series.setdefault(row["series"], {})
            v = row["value"]
            col[int(row[reader.fieldnames[1]])] = (
                None if v == "" else float(v))
    return series
