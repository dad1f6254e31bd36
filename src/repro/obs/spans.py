"""Hierarchical span tracer with cross-process context propagation.

Where :mod:`repro.obs.trace` records *point* events inside one machine
(cycle-granular, high volume), spans describe the *coarse phase
structure* of a whole experiment run: a sweep is one trace, each point
is a span beneath it, and the sampling pipeline hangs its phases
(``fast_forward``, then ``rse_round`` rounds holding ``warmup`` /
``detailed`` intervals) off the point span.
Each span carries wall-clock and CPU time plus free-form attributes
and counters (e.g. the stage-profile seconds attached to a detailed
interval), so a completed trace renders directly as a waterfall.

Spans must survive the ``ParallelEngine`` process boundary: the parent
serialises a :func:`SpanTracer.context` (trace_id + parent span id)
into the worker, the worker builds its own tracer from that context
(:func:`SpanTracer.from_context`), and ships its finished spans back
over the result Pipe as plain dicts (:meth:`SpanTracer.export`).
Span ids embed the PID, so ids never collide across workers and
:func:`assemble_trees` can reassemble the flat ledger rows into one
tree per point afterwards.

The simulation layers never import this module (lint rule L001);
they reach the active tracer through the ``repro.hooks`` current-span
slot, which defaults to the inert ``NULL_SPANS``.  All clock reads
happen inside this module — semantics-bearing callers only hold span
handles — keeping the determinism rule D002 happy.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Dict, Iterable, List, Optional

from repro.hooks import NULL_SPANS, NullSpanTracer

__all__ = [
    "Span", "SpanTracer", "NullSpanTracer", "NULL_SPANS",
    "assemble_trees",
]

#: Version tag stamped on every exported span dict, so ledger readers
#: can evolve the format without guessing.
SPAN_SCHEMA = 1


class Span:
    """One live span: a named phase with start/end times, a parent,
    and attached attributes/counters.

    Mutable while open (``attrs``/``counters`` may be updated by the
    instrumented code); frozen into a plain dict by
    :meth:`SpanTracer.end`.  Usable as a context manager when obtained
    from :meth:`SpanTracer.span`.
    """

    __slots__ = ("name", "span_id", "parent_id", "trace_id",
                 "t0", "t1", "cpu0", "cpu1", "status",
                 "attrs", "counters", "_tracer")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str],
                 trace_id: str, t0: float, cpu0: float,
                 attrs: Dict, tracer: "SpanTracer") -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.t0 = t0
        self.t1: Optional[float] = None
        self.cpu0 = cpu0
        self.cpu1: Optional[float] = None
        self.status = "open"
        self.attrs: Dict = attrs
        self.counters: Dict = {}
        self._tracer = tracer

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.end(
            self, status="error" if exc_type is not None else "ok")
        return False

    def to_dict(self) -> Dict:
        """The span as a flat JSON-ready dict (ledger/Pipe format)."""
        d = {
            "v": SPAN_SCHEMA,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "t0": self.t0,
            "t1": self.t1,
            "cpu0": self.cpu0,
            "cpu1": self.cpu1,
            "status": self.status,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.counters:
            d["counters"] = dict(self.counters)
        return d


class SpanTracer:
    """Records a tree of spans for one process's share of a trace.

    A tracer tracks an *open stack*: :meth:`begin` parents the new
    span under the innermost open span (or the inherited cross-process
    parent when the stack is empty), :meth:`end` pops it.  Finished
    spans accumulate in :meth:`export` order (by end time).

    Cross-process wiring: the parent engine calls :meth:`context` on
    its open point span and passes the resulting dict to the worker,
    which builds its tracer via :meth:`from_context`; the worker's
    spans then carry the same ``trace_id`` and parent under the
    parent's span id even though the two processes never share state.
    """

    __slots__ = ("enabled", "trace_id", "_parent_id", "_stack",
                 "_done", "_uid", "_next")

    def __init__(self, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None) -> None:
        self.enabled = True
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._parent_id = parent_id
        self._stack: List[Span] = []
        self._done: List[Dict] = []
        # Ids must be unique across workers (pid) AND across tracer
        # instances within one process (two tracers each start their
        # counter at 0, e.g. a parent and a from_context child built
        # for an in-process worker).
        self._uid = uuid.uuid4().hex[:6]
        self._next = 0

    # -- context propagation ------------------------------------------

    def context(self, span: Optional[Span] = None) -> Dict[str, str]:
        """Serializable propagation context: ``{"trace_id", "parent_id"}``
        naming ``span`` (default: the innermost open span) as the
        parent for spans recorded in another process."""
        parent = span.span_id if span is not None else self._current_id()
        ctx = {"trace_id": self.trace_id}
        if parent is not None:
            ctx["parent_id"] = parent
        return ctx

    @classmethod
    def from_context(cls, ctx: Optional[Dict]) -> "SpanTracer":
        """A tracer continuing the trace described by ``ctx`` (a
        :meth:`context` dict; ``None``/empty starts a fresh trace)."""
        ctx = ctx or {}
        return cls(trace_id=ctx.get("trace_id"),
                   parent_id=ctx.get("parent_id"))

    # -- recording ----------------------------------------------------

    def begin(self, name: str, **attrs) -> Span:
        """Open a span named ``name`` under the innermost open span."""
        sid = "%x-%s-%d" % (os.getpid(), self._uid, self._next)
        self._next += 1
        span = Span(name, sid, self._current_id(), self.trace_id,
                    time.time(), time.process_time(), attrs, self)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span] = None, status: str = "ok",
            **counters) -> None:
        """Close ``span`` (default: the innermost open span), stamping
        end times and merging ``counters``.  Any spans opened beneath
        it that are still open are closed with the same status first
        (a crashlike unwind never leaves dangling children)."""
        if span is None:
            if not self._stack:
                return
            span = self._stack[-1]
        while self._stack:
            top = self._stack.pop()
            self._finish(top, status, counters if top is span else None)
            if top is span:
                return
        # Not on the stack (already closed): ignore.

    def span(self, name: str, **attrs) -> Span:
        """Context-manager sugar: ``with tr.span("warmup"): ...``."""
        return self.begin(name, **attrs)

    def record(self, name: str, t0: float, t1: float, status: str = "ok",
               parent: Optional[str] = None, **attrs) -> None:
        """Synthesize an already-finished span from externally measured
        wall times (e.g. a parent-side span for a worker that died
        before exporting anything)."""
        sid = "%x-%s-%d" % (os.getpid(), self._uid, self._next)
        self._next += 1
        span = Span(name, sid, parent or self._current_id(),
                    self.trace_id, t0, 0.0, attrs, self)
        span.t1 = t1
        span.cpu0 = span.cpu1 = 0.0
        span.status = status
        self._done.append(span.to_dict())

    def close(self, status: str = "terminated") -> None:
        """Close every still-open span with ``status`` (shutdown/crash
        path; a clean run has nothing left open)."""
        while self._stack:
            self._finish(self._stack.pop(), status, None)

    # -- reading back -------------------------------------------------

    def export(self) -> List[Dict]:
        """All finished spans as dicts, in completion order (a copy)."""
        return list(self._done)

    def drain(self) -> List[Dict]:
        """Like :meth:`export`, but also clears the finished list —
        the engine uses this to attach each point's parent-side spans
        to exactly one ledger record."""
        out = self._done
        self._done = []
        return out

    # -- internals ----------------------------------------------------

    def _current_id(self) -> Optional[str]:
        if self._stack:
            return self._stack[-1].span_id
        return self._parent_id

    def _finish(self, span: Span, status: str,
                counters: Optional[Dict]) -> None:
        span.t1 = time.time()
        span.cpu1 = time.process_time()
        span.status = status
        if counters:
            span.counters.update(counters)
        self._done.append(span.to_dict())


def assemble_trees(spans: Iterable[Dict]) -> List[Dict]:
    """Reassemble flat span dicts into trees.

    Returns the root spans (those whose ``parent_id`` is absent or
    names no span in the input), each augmented with a ``children``
    list sorted by start time, recursively.  Input dicts are shallow-
    copied; the originals are not mutated.
    """
    by_id: Dict[str, Dict] = {}
    for s in spans:
        node = dict(s)
        node["children"] = []
        by_id[node["span_id"]] = node
    roots: List[Dict] = []
    for node in by_id.values():
        parent = by_id.get(node.get("parent_id") or "")
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    order = lambda n: (n.get("t0") or 0.0, n["span_id"])  # noqa: E731
    for node in by_id.values():
        node["children"].sort(key=order)
    roots.sort(key=order)
    return roots
