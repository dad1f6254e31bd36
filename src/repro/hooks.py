"""Instrumentation hook points shared by the simulation layers.

The timing model (``isa``/``asm``/``mem``/``rename``/``pipeline``/...)
carries optional observability hooks — an event tracer and a span
tracer — but must not depend on :mod:`repro.obs` at module level: the
obs package is presentation-side code, excluded from the semantics
source hash that keys the experiment result cache, and the lint
layering rule (L001, see ``docs/linting.md``) forbids upward imports
from the simulation layers.  This leaf module holds the
objects both sides need: the shared inert tracers instrumented code
defaults to, and the process-wide *current span tracer* slot that the
experiment engine activates around point execution so lower layers
(``repro.sampling``) can attach phase spans without ever importing
:mod:`repro.obs`.

:class:`NullTracer` is duck-type compatible with
:class:`repro.obs.trace.Tracer`, and :class:`NullSpanTracer` with
:class:`repro.obs.spans.SpanTracer`, for everything the simulation
layers touch.  :data:`NULL_TRACER` is the only "tracing off" state
there is.  Every instrumentation site guards with the ``enabled``
attribute, so the null objects' methods are never called on the hot
path (``tests/test_obs.py`` runs every machine model with
``NullTracer.emit`` made to raise); they exist only so stray
unguarded calls stay harmless.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class NullTracer:
    """Inert stand-in for ``repro.obs.trace.Tracer``.

    ``enabled`` is ``False`` forever and every method is a no-op.
    :data:`NULL_TRACER`, the single shared instance, is the only way
    tracing is off: a traced run gets a ``Tracer(path)``, every other
    run this object.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        #: Instrumentation sites check this before building any event.
        #: An instance slot rather than a class attribute: reading a
        #: slot is the cheaper of the two, and untraced runs read it
        #: several times per simulated instruction.  Never set it.
        self.enabled = False

    def emit(self, cycle: int, tid: int, kind: str, **fields) -> None:
        """Discard the event (tracing is off)."""

    def close(self) -> None:
        """Nothing to flush."""


#: Shared disabled tracer: the default for every instrumented object.
NULL_TRACER = NullTracer()


class _NullSpanHandle:
    """What :meth:`NullSpanTracer.span` yields: absorbs attribute
    writes (``span.counters.update(...)``) without recording anything,
    so an unguarded ``with sp.span(...)`` body stays harmless."""

    __slots__ = ()

    #: Shared empty-ish dicts would be mutated by callers; hand out
    #: fresh throwaways instead.
    @property
    def counters(self) -> Dict:
        return {}

    @property
    def attrs(self) -> Dict:
        return {}

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class NullSpanTracer:
    """Inert stand-in for :class:`repro.obs.spans.SpanTracer`.

    ``enabled`` is ``False`` forever; instrumentation sites guard with
    it (``sp = current_spans()`` / ``if sp.enabled:``) so the null
    tracer costs one attribute read per site when spans are off.
    """

    __slots__ = ()

    enabled: bool = False

    def begin(self, name: str, **attrs):
        """Discard the span start (span tracing is off)."""
        return _NULL_SPAN

    def end(self, span=None, status: str = "ok", **counters) -> None:
        """Nothing was started."""

    def span(self, name: str, **attrs):
        """A no-op context manager."""
        return _NULL_SPAN

    def record(self, name: str, t0: float, t1: float,
               status: str = "ok", parent: Optional[str] = None,
               **attrs) -> None:
        """Discard the synthesized span."""

    def export(self) -> List[Dict]:
        """No spans were recorded."""
        return []

    def drain(self) -> List[Dict]:
        """No spans were recorded."""
        return []

    def close(self, status: str = "terminated") -> None:
        """Nothing open."""


_NULL_SPAN = _NullSpanHandle()

#: Shared disabled span tracer (the default "current" tracer).
NULL_SPANS = NullSpanTracer()

_current_spans = NULL_SPANS


def current_spans():
    """The span tracer active in this process (:data:`NULL_SPANS`
    unless an engine/CLI activated a live one around execution)."""
    return _current_spans


def set_current_spans(spans) -> object:
    """Install ``spans`` (``None`` → :data:`NULL_SPANS`) as the
    process-wide current span tracer; returns the previous tracer so
    callers can restore it."""
    global _current_spans
    previous = _current_spans
    _current_spans = spans if spans is not None else NULL_SPANS
    return previous
