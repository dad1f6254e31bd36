"""The observability schema registry: every name the simulator emits.

Trace events (``tracer.emit(cycle, tid, kind, **fields)``), metric
counters (``registry.inc``/``set``) and distributions
(``registry.dist``) are addressed by string names scattered across the
instrumentation sites.  This module is the single authoritative list
of those names — the machine-readable form of the tables in
``docs/observability.md`` — so that tools (the ``repro trace`` viewer,
`sweep --csv` consumers, dashboards) can rely on a closed vocabulary.

The lint schema rules (S001–S005, see ``docs/linting.md``) enforce the
registry in both directions: an emission site using a name not listed
here fails lint, and a registry entry no emission site can produce is
flagged as stale.  Names built at runtime (f-strings, concatenation)
are matched against ``*`` wildcards, e.g. ``dl1.miss.*`` covers
``dl1.miss.l2`` and ``dl1.miss.mem``.

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

#: Scalar counter names (``registry.inc`` / ``registry.set``).
#: ``*`` matches one dynamic name segment.
COUNTERS: Tuple[str, ...] = (
    # pipeline core
    "pipeline.cycles",
    "pipeline.committed",
    "pipeline.mispredicts",
    # DL1 / memory hierarchy
    "dl1.accesses",
    "dl1.port_rejections",
    "dl1.port_conflict_cycles",
    "dl1.miss.*",            # dl1.miss.l2 / dl1.miss.mem
    # rename-table probes
    "rename.tag_hit",
    "rename.tag_miss",
    # VCA spill/fill machinery
    "vca.spill.*",           # by cause: set_conflict/regfile_full/...
    "vca.fill.*",
    "vca.spills",
    "vca.fills",
    "vca.dead_drops",
    "vca.rsid_flush_stall_cycles",
    "regfile.allocs",
    "regfile.max_in_use",
    "astq.max_occupancy",
    # conventional register windows
    "windows.*",             # windows.overflow / windows.underflow
    # sweep engine progress
    "sweep.points.total",
    "sweep.points.*",        # by outcome status: done/failed/...
    # sampled simulation (repro.sampling.sampler)
    "sampling.intervals_total",
    "sampling.intervals_detailed",
    "sampling.detailed_instructions",
    "sampling.detailed_cycles",
    "sampling.est_cycles",
    "sampling.rse_rounds",       # adaptive convergence rounds run
    "sampling.intervals_added",  # intervals beyond the starting budget
    # functional decoded-block cache (repro.functional.blocks; set by
    # the sampler over the profiling + fast-forward passes)
    "functional.block_decodes",        # static blocks compiled (misses)
    "functional.block_replays",        # dynamic visits served (hits)
    "functional.block_step_fallback",  # per-instruction boundary steps
    # stage profiler (repro.obs.profile)
    "profile.*.seconds",
    "profile.*.calls",
    "profile.total_seconds",
    # simulation service (repro.service.scheduler)
    "service.jobs.submitted",
    "service.jobs.cancelled",
    "service.jobs.*",        # terminal status: done/failed
    "service.points.started",
    "service.points.*",      # terminal status: done/cached/failed/...
)

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
    "warmup",                # detailed (unmeasured) warmup interval
    "detailed",              # measured detailed interval
    "rse_round",             # one sampling round (fixed-count: one)
)

#: Distribution (histogram) names (``registry.dist``).
DISTS: Tuple[str, ...] = (
    "rename.stall_run_len",
    "pipeline.iq_occupancy",
    "pipeline.rob_occupancy",
    "astq.occupancy",
    "astq.issue_wait",
    "astq.fill_latency",
    "vca.spill_burst_len",
    "windows.trap_transfers",
    "sweep.point_seconds",
)
