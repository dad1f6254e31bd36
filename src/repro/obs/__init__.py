"""Observability: tracing, spans, run ledger, profiling.

The simulator's hot layers carry lightweight instrumentation hooks
that are inert by default (``NULL_TRACER``) and activate when a run is
built with a live :class:`Tracer`, which streams every event to one
JSONL file that :func:`read_jsonl` reads back — see
``docs/observability.md`` for the event schema and usage.  A run's
counts live in its :class:`~repro.pipeline.stats.SimStats`; the
tracer is the one event channel.  :mod:`repro.obs.profile` adds
per-stage wall-clock attribution on top (``repro profile``).

The fleet-facing layer: :mod:`repro.obs.spans` records hierarchical
phase spans that survive the parallel engine's process boundary,
:mod:`repro.obs.runlog` is the append-only JSONL run ledger those
spans (and per-point rusage) land in, and
:mod:`repro.obs.dashboard` / :mod:`repro.obs.htmlreport` render a
ledger as a live terminal dashboard (``repro top``) or a
self-contained HTML report (``repro report``).
"""

from .pipeview import render_pipeline_view
from .profile import STAGES, StageProfile, profile_machine
from .runlog import (
    RunLedger, ledger_points, ledger_spans, ledger_summary, read_ledger,
)
from .spans import NULL_SPANS, Span, SpanTracer, assemble_trees
from .trace import NULL_TRACER, Tracer, read_jsonl

__all__ = [
    "render_pipeline_view",
    "NULL_TRACER", "Tracer", "read_jsonl",
    "STAGES", "StageProfile", "profile_machine",
    "NULL_SPANS", "Span", "SpanTracer", "assemble_trees",
    "RunLedger", "ledger_points", "ledger_spans", "ledger_summary",
    "read_ledger",
]
