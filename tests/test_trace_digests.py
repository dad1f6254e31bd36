"""Pinned digests of the event trace ``repro run --trace-out`` writes.

The reconciliation tests in ``tests/test_obs.py`` compare a trace's
per-kind totals with ``SimStats``.  These pins cover the stream
itself: every event, its order, its fields and the bytes of its JSONL
line.  Two runs of ``gzip_graphic`` at scale 0.2 emit every kind in
``repro.obs.schema.EVENTS`` between them: ``vca-rw`` at 96 registers
(tag lookups, victims, spills and fills) and ``conventional-rw`` at
128 registers with one DL1 port (window traps, port conflicts).  Both
runs go through ``repro.cli.main``, so the pins hold whatever the
tracer's internals look like.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.obs.schema import EVENTS

#: ``repro run gzip_graphic --scale 0.2`` flags → (sha256[:16] of the
#: JSONL file, event count), recorded on the tree before this file
#: existed.
TRACE_DIGESTS = {
    ("--model", "vca-rw", "--regs", "96"): ("95243ca088d148c6", 31345),
    ("--model", "conventional-rw", "--regs", "128", "--ports", "1"):
        ("a2077d713d57b733", 26814),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Flags → the bytes of the trace that run writes."""
    out_dir = tmp_path_factory.mktemp("traces")
    traces = {}
    for i, flags in enumerate(TRACE_DIGESTS):
        path = out_dir / f"t{i}.jsonl"
        assert main(["run", "gzip_graphic", "--scale", "0.2", *flags,
                     "--trace-out", str(path)]) == 0
        traces[flags] = path.read_bytes()
    return traces


@pytest.mark.parametrize("flags", list(TRACE_DIGESTS),
                         ids=lambda f: "-".join(f[1::2]))
def test_trace_bytes_pinned(traces, flags):
    want_hash, want_events = TRACE_DIGESTS[flags]
    data = traces[flags]
    assert data.count(b"\n") == want_events
    assert hashlib.sha256(data).hexdigest()[:16] == want_hash


def test_pinned_runs_emit_every_kind(traces):
    kinds = {json.loads(line)["kind"]
             for data in traces.values() for line in data.splitlines()}
    assert kinds == set(EVENTS)
