"""Pipeline event tracer: one JSONL file per traced run.

The tracer is the simulator's exec-trace facility, modelled on gem5's
O3 trace: instrumented code emits timestamped events
(``tracer.emit(cycle, tid, kind, **fields)``) and :class:`Tracer`
streams each one as a compact JSON line to the file it opened, for
offline analysis and the ``python -m repro trace`` pipeline view.

Tracing off is :data:`NULL_TRACER`, and it must cost nothing on the
hot path, so every instrumentation site guards with the ``enabled``
attribute::

    tr = self.trace
    if tr.enabled:
        tr.emit(cycle, tid, "spill", addr=addr, cause=cause)

When ``enabled`` is False (the :data:`NULL_TRACER` default) the only
cost is that attribute check; no event dict is ever built.

Event schema: every event is a flat dict with at least ``cycle``
(int), ``tid`` (int, -1 for machine-wide events) and ``kind`` (str);
remaining keys are kind-specific (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator

# The shared disabled tracer lives in the dependency-free
# repro.hooks leaf so the simulation layers can default to it
# without importing repro.obs (lint rule L001); re-exported here
# because it is part of this module's public API.
from repro.hooks import NULL_TRACER, NullTracer

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "read_jsonl"]


class Tracer:
    """Streams events to the JSONL file at ``path``, one compact JSON
    object per line; ``written`` counts them."""

    __slots__ = ("enabled", "path", "written", "_fh")

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w")
        self.written = 0
        #: Always True: a run that is not traced gets NULL_TRACER.
        self.enabled = True

    def emit(self, cycle: int, tid: int, kind: str, **fields) -> None:
        """Append one event.  ``fields`` are the kind-specific keys of
        the event schema; callers guard with ``if tracer.enabled`` so
        no dict is built when tracing is off."""
        event = {"cycle": cycle, "tid": tid, "kind": kind, **fields}
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path) -> Iterator[Dict]:
    """Stream the JSON objects of a JSONL file, an event trace or a run
    ledger.  Blank lines, lines that hold no object and a line cut
    short by a crash or a kill before the last write flushed are
    skipped."""
    with Path(path).open() as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict):
                yield rec
