"""The observability schema registry: every name the simulator emits.

Trace events (``tracer.emit(cycle, tid, kind, **fields)``) and spans
(``spans.begin``/``span``/``record``) are addressed by string names
scattered across the instrumentation sites.  This module is the
single authoritative list of those names — the machine-readable form
of the tables in ``docs/observability.md`` — so that tools (the
``repro trace`` viewer, the run ledger's readers, dashboards) can rely
on a closed vocabulary.  A run's counts are not named here: they are
the fields of :class:`~repro.pipeline.stats.SimStats`.

The lint schema rules (S001 and S003–S006, see ``docs/linting.md``)
enforce the registry in both directions: an emission site using a
name not listed here fails lint, and a registry entry no emission
site can produce is flagged as stale.  Names built at runtime
(f-strings, concatenation) must match a ``*`` wildcard entry
verbatim.

When you add an instrumentation site, add its name (and, for events,
its field set) here and to ``docs/observability.md`` in the same
change.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Trace event kinds -> the kind-specific field names an emission may
#: carry (``cycle``/``tid``/``kind`` are implicit on every event).
#: Fields are a permitted superset: an emission may omit fields but
#: may not invent new ones.
EVENTS: Dict[str, Tuple[str, ...]] = {
    # pipeline stage events (repro.pipeline.core)
    "fetch": ("seq", "pc", "asm"),
    "rename": ("seq",),
    "issue": ("seq",),
    "writeback": ("seq", "forwarded"),
    "commit": ("seq", "pc"),
    "mispredict": ("seq", "pc", "target"),
    "squash": ("seq",),
    # rename-table probes (repro.rename.vca)
    "tag_hit": ("laddr", "reg"),
    "tag_miss": ("laddr", "reg"),
    # VCA state traffic (repro.rename.vca)
    "spill": ("addr", "cause"),
    "fill": ("addr", "cause"),
    "victim": ("preg", "dirty", "laddr", "cause"),
    # memory hierarchy (repro.mem.hierarchy)
    "dl1": ("addr", "op", "write", "hit", "latency"),
    "port_conflict": ("n",),
    # conventional register windows (repro.windows.conventional)
    "wtrap": ("trap", "depth", "transfers"),
}

#: Span names (``spans.begin``/``span``/``record`` sites): the phase
#: vocabulary of the run ledger's span trees.  ``sweep``/``job`` root
#: a trace, ``point`` is one experiment point (possibly synthesized
#: parent-side for cached/crashed points), and the rest are the
#: execution phases hanging beneath it.
SPANS: Tuple[str, ...] = (
    "sweep",                 # one engine.run invocation (root)
    "job",                   # one service job (root; service layer)
    "point",                 # one experiment point
    "simulate",              # full-detail machine.run
    "fast_forward",          # the sampler's combined functional pass
    "seed",                  # build + state-seed one interval's machine
    "warmup",                # detailed (unmeasured) warmup interval
    "detailed",              # measured detailed interval
    "rse_round",             # one sampling round (fixed-count: one)
)
