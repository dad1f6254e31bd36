"""Per-stage profiling of the simulator's cycle loop.

:class:`StageProfile` wraps the pipeline's stage methods
(``_writeback`` … ``_fetch``) with ``perf_counter`` timers on a single
:class:`~repro.pipeline.core.Pipeline` *instance* — each run looks
the stages up through ``self`` once, when it starts, so a profile
attached before ``run()`` works without subclassing or touching the
hot path of unprofiled runs.

The timers answer "where does wall-clock time go *per simulated
cycle*": each stage's share of the measured stage time is converted
into an estimated cycle cost (``cycle_attribution``), so the shares
sum to the run's total cycle count and can be compared across
configurations whose absolute speeds differ.

:func:`profile_machine` is the one-call wrapper used by ``repro
profile`` and the tests: attach, run, detach.

Profiling is observational only: the wrapped stages run exactly the
code they would unprofiled, so :class:`~repro.pipeline.stats.SimStats`
are bit-identical with and without a profile attached.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

#: The pipeline stage methods timed, in the order ``step()`` calls
#: them within a cycle (writeback → commit → trap sequencer →
#: rename+dispatch → issue → fetch).
STAGES: Tuple[str, ...] = (
    "_writeback", "_commit", "_trap_sequencer", "_rename_dispatch",
    "_issue_stage", "_fetch",
)


def stage_label(method_name: str) -> str:
    """Public label for a stage method (``_issue_stage`` → ``issue``)."""
    name = method_name.lstrip("_")
    return name[:-len("_stage")] if name.endswith("_stage") else name


class StageProfile:
    """Wall-clock timers around one pipeline instance's stage methods.

    Usage::

        prof = StageProfile(machine)
        prof.attach()
        stats = machine.run()
        prof.detach()
        shares = prof.cycle_attribution(stats.cycles)

    ``seconds``/``calls`` are keyed by public stage label ("fetch",
    "issue", ...).  ``total_seconds`` is the wall time between
    ``attach`` and ``detach`` — it exceeds the stage-second sum by the
    per-cycle bookkeeping ``step()`` does outside any stage.
    """

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.total_seconds = 0.0
        self._originals: Dict[str, object] = {}
        self._t_attach = 0.0
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Install timing wrappers over the stage bound methods."""
        if self._attached:
            raise RuntimeError("profile already attached")
        perf = time.perf_counter
        for name in STAGES:
            bound = getattr(self.pipeline, name)
            label = stage_label(name)
            self.seconds[label] = 0.0
            self.calls[label] = 0
            self._originals[name] = bound
            setattr(self.pipeline, name,
                    self._make_timer(bound, label, perf))
        self._attached = True
        self._t_attach = perf()

    def _make_timer(self, bound, label: str, perf):
        seconds = self.seconds
        calls = self.calls

        def timed(now: int) -> None:
            t0 = perf()
            bound(now)
            seconds[label] += perf() - t0
            calls[label] += 1

        return timed

    def detach(self) -> None:
        """Restore the original bound methods; freeze ``total_seconds``."""
        if not self._attached:
            return
        self.total_seconds = time.perf_counter() - self._t_attach
        p = self.pipeline
        for name in self._originals:
            # attach() shadowed the class method with an instance
            # attribute; deleting it restores normal class lookup.
            delattr(p, name)
        self._originals.clear()
        self._attached = False

    # ------------------------------------------------------------------
    @property
    def stage_seconds_total(self) -> float:
        """Sum of time measured inside the wrapped stages."""
        return sum(self.seconds.values())

    def cycle_attribution(self, total_cycles: int) -> Dict[str, float]:
        """Estimated simulated-cycle cost per stage.

        Splits ``total_cycles`` proportionally to each stage's share
        of the measured stage time, so the returned values sum to
        ``total_cycles`` (up to float rounding).  This is the "which
        stage is the simulation paying for" view: a stage that takes
        60% of the wall clock is charged 60% of the cycles.
        """
        denom = self.stage_seconds_total
        if denom <= 0.0:
            return {label: 0.0 for label in self.seconds}
        return {label: total_cycles * secs / denom
                for label, secs in self.seconds.items()}

    def to_dict(self, total_cycles: Optional[int] = None) -> Dict:
        """JSON-friendly summary (stages ordered by pipeline order)."""
        attributed = (self.cycle_attribution(total_cycles)
                      if total_cycles is not None else None)
        stages = {}
        for name in STAGES:
            label = stage_label(name)
            entry = {"seconds": self.seconds.get(label, 0.0),
                     "calls": self.calls.get(label, 0)}
            if attributed is not None:
                entry["cycles_est"] = attributed[label]
            stages[label] = entry
        return {
            "total_seconds": self.total_seconds,
            "stage_seconds": self.stage_seconds_total,
            "stages": stages,
        }


def profile_machine(machine, stop_at_first_halt: bool = False):
    """Run ``machine`` with stage timers attached.

    Returns ``(stats, profile)`` where ``stats`` is the normal
    :class:`~repro.pipeline.stats.SimStats` of the run (bit-identical
    to an unprofiled run) and ``profile`` the detached
    :class:`StageProfile`.
    """
    prof = StageProfile(machine)
    prof.attach()
    try:
        stats = machine.run(stop_at_first_halt=stop_at_first_halt)
    finally:
        prof.detach()
    return stats, prof
