"""SimPoint-style interval sampling over the timing pipeline.

A workload is split into fixed-length instruction intervals on the
functional interpreter.  A handful of representative intervals is
selected — systematically (evenly spaced strata midpoints) or by
clustering basic-block vectors as SimPoint does — and only those are
simulated in the detailed timing model, each seeded from an
architectural checkpoint (``repro.sampling.checkpoint``) and warmed
(caches, branch predictor, VCA rename table) before measurement.
Whole-run :class:`~repro.pipeline.stats.SimStats` are then
extrapolated from the measured intervals by weighted per-instruction
rates, with per-metric relative standard errors reported alongside.

Two properties keep the estimates honest:

* **Exact event counts.** Instruction-mix totals (committed, loads,
  stores, calls, FP ops, conditional branches) come from the
  functional profiling pass, which executes every instruction — only
  *timing-dependent* metrics (cycles, misses, spills, mispredicts)
  are extrapolated.
* **Determinism.** Selection is purely arithmetic (or seeded
  clustering); repeated runs produce identical samples, checkpoints
  and estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asm.layout import WINDOW_STRIDE_BYTES, thread_window_base
from repro.asm.program import Program
from repro.config import MachineConfig
from repro.hooks import current_spans
from repro.functional.blocks import BBV_BUCKET, advance
from repro.functional.interp import FunctionalSim, FunctionalStats
from repro.models.factory import build_machine
from repro.pipeline.core import _ICACHE_BASE, Pipeline
from repro.pipeline.stats import SimStats, ThreadStats, count_fields

from .checkpoint import Checkpoint, CheckpointingSim, take_checkpoint
from .memfeat import MemCaptureCheckpointingSim, MemSketch, ReuseCollector

__all__ = ["SamplingConfig", "SamplingMeta", "SamplingError",
           "IntervalProfile", "profile_intervals",
           "profile_with_checkpoints", "select_intervals",
           "seed_machine", "run_sampled", "SAMPLING_MODES",
           "DEFAULT_RSE_METRICS"]

#: Representative-selection modes understood by
#: :func:`select_intervals`.
SAMPLING_MODES = ("systematic", "bbv", "bbv+mem")

#: Metrics whose relative standard error drives the adaptive loop by
#: default (overridable per run via ``rse_metrics``).
DEFAULT_RSE_METRICS = ("ipc", "spills", "fills")


class SamplingError(ValueError):
    """Raised for configurations sampling cannot serve (invalid
    :class:`SamplingConfig` knobs, multi-thread runs)."""


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of the sampled-simulation flow.

    Validated at construction: an invalid combination raises
    :class:`SamplingError` before any simulation runs.

    Attributes:
        interval_len: instructions per interval (positive).
        n_detailed: target number of detailed (representative)
            intervals; clamped to the interval count.
        mode: one of :data:`SAMPLING_MODES` — ``"systematic"`` (strata
            midpoints), ``"bbv"`` (SimPoint-like basic-block-vector
            clustering via
            :func:`repro.workloads.clustering.cluster_and_select`) or
            ``"bbv+mem"`` (BBVs plus memory signatures).
        warmup_insns: detailed-warmup prefix — instructions simulated
            in the timing model *before* each measured interval and
            excluded from its statistics.  State seeding restores the
            architectural and (approximately) the memory-system state,
            but occupancy state — pipeline fill, register-file
            pressure, window residency, spill steady state — only
            builds up by running; the prefix absorbs that transient.
        mem_weight: weight in [0, 1] of the memory-signature feature
            block in ``bbv+mem`` clustering (the BBV block gets
            ``1 - mem_weight``).
        rse_target: adaptive convergence mode when set — keep adding
            representative intervals until every metric in
            ``rse_metrics`` has relative standard error at or below
            this target, or ``max_detailed`` intervals have been
            simulated.  ``n_detailed`` becomes the *starting* budget.
        rse_metrics: metrics-of-interest for the adaptive loop (a
            non-empty subset of the reported error fields).
        max_detailed: hard cap on detailed intervals in adaptive mode.
    """

    interval_len: int = 2000
    n_detailed: int = 8
    mode: str = "systematic"
    warmup_insns: int = 500
    mem_weight: float = 0.5
    rse_target: Optional[float] = None
    rse_metrics: Tuple[str, ...] = DEFAULT_RSE_METRICS
    max_detailed: int = 64

    def __post_init__(self) -> None:
        if self.interval_len <= 0:
            raise SamplingError(f"interval_len must be positive, "
                                f"got {self.interval_len}")
        if self.mode not in SAMPLING_MODES:
            raise SamplingError(f"unknown sampling mode {self.mode!r} "
                                f"(expected one of {SAMPLING_MODES})")
        if not 0.0 <= self.mem_weight <= 1.0:
            raise SamplingError(f"mem_weight must be in [0, 1], "
                                f"got {self.mem_weight}")
        if self.rse_target is None:
            return
        if self.rse_target <= 0:
            raise SamplingError(f"rse_target must be positive, "
                                f"got {self.rse_target}")
        if not self.rse_metrics:
            raise SamplingError("rse_metrics must name at least one "
                                "metric")
        bad = [name for name in self.rse_metrics
               if name not in _ERROR_FIELDS]
        if bad:
            raise SamplingError(f"unknown rse metrics {bad} (expected a "
                                f"subset of {list(_ERROR_FIELDS)})")


@dataclass
class IntervalProfile:
    """Functional-pass profile of a workload split into intervals."""

    counts: List[int]                 # instructions per interval
    bbvs: List[Dict[int, int]]        # per-interval basic-block vectors
    total: FunctionalStats            # exact whole-run event counts
    #: Per-interval memory signatures (``None`` unless
    #: :func:`profile_with_checkpoints` ran with a capture collector).
    mem: Optional[List[MemSketch]] = None

    @property
    def n_intervals(self) -> int:
        return len(self.counts)


@dataclass
class SamplingMeta:
    """What the sampler did and how trustworthy the estimate is.

    ``errors`` maps metric names to *relative standard errors* of the
    weighted per-instruction rate (0.0 when every interval agrees or
    only one interval ran); ``speedup`` is estimated full-run cycles
    divided by detailed cycles actually simulated.

    Adaptive (``rse_target``) runs additionally carry ``rounds`` —
    one record per convergence round (``round``, ``requested``,
    ``added``, ``n_detailed``, ``max_rse``, ``errors``) —
    ``intervals_added`` (detailed intervals beyond the starting
    budget) and ``converged`` (whether the loop met the target rather
    than hitting the hard cap).
    """

    mode: str
    interval_len: int
    n_intervals: int
    n_detailed: int
    total_instructions: int
    detailed_instructions: int
    detailed_cycles: int
    est_cycles: int
    errors: Dict[str, float] = field(default_factory=dict)
    rse_target: Optional[float] = None
    rse_metrics: Tuple[str, ...] = ()
    rounds: List[Dict[str, object]] = field(default_factory=list)
    intervals_added: int = 0
    converged: bool = True

    @property
    def speedup(self) -> float:
        if not self.detailed_cycles:
            return 0.0
        return self.est_cycles / self.detailed_cycles

    def to_dict(self) -> Dict[str, object]:
        d = {
            "mode": self.mode,
            "interval_len": self.interval_len,
            "n_intervals": self.n_intervals,
            "n_detailed": self.n_detailed,
            "total_instructions": self.total_instructions,
            "detailed_instructions": self.detailed_instructions,
            "detailed_cycles": self.detailed_cycles,
            "est_cycles": self.est_cycles,
            "speedup": self.speedup,
            "errors": dict(self.errors),
        }
        if self.rse_target is not None:
            d["rse"] = {
                "target": self.rse_target,
                "metrics": list(self.rse_metrics),
                "rounds": [dict(r) for r in self.rounds],
                "intervals_added": self.intervals_added,
                "converged": self.converged,
            }
        return d


# ======================================================================
# profiling pass
# ======================================================================
def profile_intervals(program: Program, interval_len: int,
                      mode: str = "blocks") -> IntervalProfile:
    """Split a functional run into fixed-length intervals.

    The final interval may be short (the run rarely divides evenly);
    it still gets a BBV and is a legitimate representative.

    ``mode`` picks the functional engine (``blocks`` or the reference
    ``interp``).  Blocks mode runs each interval through
    :func:`~repro.functional.blocks.advance`, which replays decoded
    basic blocks and adds their precomputed bucket run-lengths; the
    counts, BBVs (including dict insertion order) and totals are
    bit-identical to the per-instruction loop, which
    ``tests/test_functional_blocks.py`` asserts.  The sampler itself
    profiles with :func:`profile_with_checkpoints`, which this pass is
    the reference for.
    """
    if interval_len <= 0:
        raise SamplingError(f"interval_len must be positive, "
                            f"got {interval_len}")
    sim = FunctionalSim(program, mode=mode)
    counts: List[int] = []
    bbvs: List[Dict[int, int]] = []
    while not sim.halted:
        start = sim.stats.instructions
        bbv: Dict[int, int] = {}
        if sim.mode != "interp":
            advance(sim, start + interval_len, bbv)
        else:
            while not sim.halted and \
                    sim.stats.instructions - start < interval_len:
                bucket = sim.pc // BBV_BUCKET
                bbv[bucket] = bbv.get(bucket, 0) + 1
                sim.step()
        counts.append(sim.stats.instructions - start)
        bbvs.append(bbv)
    return IntervalProfile(counts=counts, bbvs=bbvs, total=sim.stats)


def profile_with_checkpoints(program: Program, scfg: SamplingConfig,
                             collector: Optional[ReuseCollector] = None,
                             ) -> Tuple[IntervalProfile,
                                        List[Checkpoint]]:
    """The sampler's one functional pass: the interval profile *and* a
    checkpoint at every interval's warmup start
    (``max(0, start - warmup_insns)``).

    Any interval's checkpoint — warmup traces included — exists after
    this pass, so every round of :func:`run_sampled` simulates its
    representatives without re-running the functional tier.
    Checkpoint ``i`` is bit-identical to what a sequential
    :func:`~repro.sampling.checkpoint.fast_forward` to the same
    boundary takes, because capture covers the same contiguous prefix.

    The profile (counts, BBVs including insertion order, totals) is
    bit-identical to :func:`profile_intervals`: the extra stops at
    checkpoint positions split BBV accumulation mid-interval, which is
    associative over the split.  With a ``collector`` the pass also
    captures per-interval memory signatures (``profile.mem``) for
    ``bbv+mem`` selection; without one the simulator's memory hot path
    is untouched.
    """
    interval_len = scfg.interval_len
    warmup = scfg.warmup_insns
    sim = (MemCaptureCheckpointingSim(program, collector)
           if collector is not None else CheckpointingSim(program))
    counts: List[int] = []
    bbvs: List[Dict[int, int]] = []
    mem: Optional[List[MemSketch]] = \
        [] if collector is not None else None
    ckpts: List[Checkpoint] = []
    bbv: Dict[int, int] = {}
    while not sim.halted:
        pos = sim.stats.instructions
        ckpt_at = max(0, len(ckpts) * interval_len - warmup)
        if ckpt_at <= pos:
            ckpts.append(take_checkpoint(sim))
            continue
        boundary = (len(counts) + 1) * interval_len
        advance(sim, min(ckpt_at, boundary), bbv)
        pos = sim.stats.instructions
        if sim.halted or pos == boundary:
            counts.append(pos - len(counts) * interval_len)
            bbvs.append(bbv)
            bbv = {}
            if collector is not None:
                mem.append(collector.snapshot())
    profile = IntervalProfile(counts=counts, bbvs=bbvs,
                              total=sim.stats, mem=mem)
    return profile, ckpts


# ======================================================================
# representative selection
# ======================================================================
def select_intervals(profile: IntervalProfile, scfg: SamplingConfig,
                     ) -> Tuple[List[int], List[float]]:
    """Pick representative interval indices and their weights.

    Returns ``(reps, weights)`` with ``reps`` sorted ascending and
    ``sum(weights) == n_intervals``: each weight is the number of
    intervals the representative stands for — the nearest-interval
    rule for ``systematic`` strata midpoints, the cluster population
    for the clustered modes.
    """
    n = profile.n_intervals
    k = max(1, min(scfg.n_detailed, n))
    if scfg.mode != "systematic" and k > 1:
        return _select_clustered(_feature_matrix(profile, scfg), k)
    # Strata midpoints, ascending and distinct because k <= n.
    reps = [(2 * i + 1) * n // (2 * k) for i in range(k)]
    return reps, _weights_for(profile, reps, scfg)


def _bbv_matrix(bbvs: Sequence[Dict[int, int]]):
    """Row-normalised BBV feature matrix (intervals × buckets).

    Column order is first-appearance order of buckets, so the matrix —
    and everything clustered from it — is deterministic.
    """
    import numpy as np

    columns: Dict[int, int] = {}
    for bbv in bbvs:
        for bucket in bbv:
            if bucket not in columns:
                columns[bucket] = len(columns)
    matrix = np.zeros((len(bbvs), len(columns)))
    for i, bbv in enumerate(bbvs):
        for bucket, count in bbv.items():
            matrix[i, columns[bucket]] = count
    norms = matrix.sum(axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


def _feature_matrix(profile: IntervalProfile, scfg: SamplingConfig):
    """Clustering features of a clustered mode, one row per interval.

    ``bbv`` uses the row-normalised BBVs.  ``bbv+mem`` scales that
    block by ``1 - mem_weight`` and hstacks the memory-signature block
    scaled by ``mem_weight``.  Both blocks are per-row distributions
    (BBV rows sum to 1; sketch features are bin fractions plus a
    per-instruction line rate), so the weight split directly controls
    their influence on euclidean clustering distance.
    """
    import numpy as np

    bbv = _bbv_matrix(profile.bbvs)
    if scfg.mode == "bbv":
        return bbv
    if profile.mem is None:
        raise SamplingError(
            "'bbv+mem' selection needs memory signatures; profile "
            "the workload with a ReuseCollector")
    w = scfg.mem_weight
    mem = np.array([s.features(c) for s, c in
                    zip(profile.mem, profile.counts)]) * w
    return np.hstack([bbv * (1.0 - w), mem])


def _select_clustered(matrix, k: int) -> Tuple[List[int], List[float]]:
    """Cluster feature rows, take each cluster's medoid, weight by
    cluster population."""
    from repro.workloads.clustering import cluster_and_select

    result = cluster_and_select(matrix, k)
    labels = [int(x) for x in result.labels]
    reps = sorted(int(r) for r in result.representatives)
    return reps, [float(labels.count(labels[r])) for r in reps]


def _weights_for(profile: IntervalProfile, reps: Sequence[int],
                 scfg: SamplingConfig) -> List[float]:
    """Nearest-representative weights for an arbitrary representative
    set.

    Every interval is assigned to its nearest representative —
    interval distance for systematic, feature-space distance for the
    clustered modes, the first on ties — and each representative's
    weight is the number of intervals it stands for
    (``sum(weights) == n_intervals``, the invariant
    :func:`_extrapolate` relies on).  Adaptive rounds weight their
    union this way, since it matches no single clustering's medoid
    set.
    """
    if scfg.mode == "systematic":
        def nearest(j: int) -> int:
            return min(range(len(reps)), key=lambda i: abs(reps[i] - j))
    else:
        import numpy as np

        matrix = _feature_matrix(profile, scfg)
        rows = matrix[list(reps)]

        def nearest(j: int) -> int:
            return int(np.argmin(np.linalg.norm(rows - matrix[j],
                                                axis=1)))
    weights = [0.0] * len(reps)
    for j in range(profile.n_intervals):
        weights[nearest(j)] += 1.0
    return weights


# ======================================================================
# machine seeding + warmup
# ======================================================================
def seed_machine(machine: Pipeline, program: Program,
                 ckpt: Checkpoint) -> None:
    """Prepare a freshly built single-thread machine to run from
    ``ckpt``.

    Architectural state (required): memory image, rename-engine
    committed registers, fetch PC.  Microarchitectural state
    (advisory): cache blocks, branch history, return-address stack,
    VCA rename-table mappings.
    """
    hierarchy = machine.hierarchy
    hierarchy.memory.load_image(ckpt.memory_image(program))
    machine.engine.load_arch_state(0, ckpt)
    machine.enter_at(0, ckpt.pc)
    warm = ckpt.warmup
    # The code footprint: by mid-run the full run's IL1 is warm.
    il1 = hierarchy.il1
    il1.install(range(_ICACHE_BASE, _ICACHE_BASE + len(program.code) * 8,
                      il1.cfg.block_bytes))
    # The register-space window stack around the checkpoint depth
    # (the full run warmed deeper frames as calls pushed them).
    if program.windowed:
        base = thread_window_base(0)
        lo = base + max(0, ckpt.depth - 8) * WINDOW_STRIDE_BYTES
        hi = base + (ckpt.depth + 2) * WINDOW_STRIDE_BYTES
        hierarchy.warm(lo, hi)
    # Recently touched data, oldest first (install never counts
    # stats).  A block goes in as MRU on its first install and keeps
    # its place after that, so a warmed set is ordered by each
    # block's oldest touch in the trace, not its latest.  The traces
    # are bounded at capture (``WARMUP_WINDOW`` entries).
    hierarchy.l2.install(warm.mem)
    hierarchy.dl1.install(warm.mem)
    # The replay mirrors misprediction recovery, so the global history
    # follows the committed path as on the machine; otherwise it
    # diverges and trains the wrong gshare rows.
    predictor = machine.predictor
    predictor.replay(warm.branches)
    for addr in warm.ras[-16:]:
        predictor.ras.push(addr)


# ======================================================================
# measured-window extraction
# ======================================================================
def _measured_window(before: Dict, after: SimStats) -> SimStats:
    """Statistics of the measured interval alone.

    ``before`` is ``SimStats.to_dict()`` captured when the
    detailed-warmup prefix finished; ``after`` is the same machine's
    stats at the end of the measured interval.  Every count
    (:func:`~repro.pipeline.stats.count_fields`) is differenced; the
    levels keep the end-of-run value and the miss rate is recomputed.
    """
    window = SimStats(threads=[ThreadStats()])
    t = window.threads[0]
    _difference(window, before, after)
    _difference(t, before["threads"][0], after.threads[0])
    t.halted = after.threads[0].halted
    t.halted_at = window.cycles
    misses = sum(window.dl1_miss_breakdown.values())
    window.dl1_miss_rate = (misses / window.dl1_accesses
                            if window.dl1_accesses else 0.0)
    window.l2_miss_rate = after.l2_miss_rate
    window.max_regs_in_use = after.max_regs_in_use
    return window


def _difference(window, before: Dict, after) -> None:
    """Set each count of ``window`` to ``after``'s value less
    ``before``'s, leaving out per-kind entries that did not change."""
    for name in count_fields(type(window)):
        now = getattr(after, name)
        if isinstance(now, dict):
            into = getattr(window, name)
            for kind, n in now.items():
                d = n - before[name].get(kind, 0)
                if d:
                    into[kind] = d
        else:
            setattr(window, name, now - before[name])


# ======================================================================
# extrapolation
# ======================================================================
#: Metrics whose relative standard error is reported in the metadata.
_ERROR_FIELDS = ("ipc", "dl1_accesses", "spills", "fills",
                 "branch_mispredicts")


def _extrapolate(samples: List[SimStats], weights: List[float],
                 profile: IntervalProfile,
                 ) -> Tuple[SimStats, Dict[str, float]]:
    """Weighted per-instruction-rate extrapolation to a full run."""
    committed = [float(s.committed) for s in samples]
    wsum = sum(weights)
    wn = sum(w * n for w, n in zip(weights, committed))
    total = profile.total
    n_total = total.instructions

    def scale(vals: Sequence[float]) -> int:
        """Estimate a whole-run count from per-interval counts."""
        return int(round(n_total * sum(
            w * v for w, v in zip(weights, vals)) / wn))

    def rel_stderr(vals: Sequence[float]) -> float:
        """Relative standard error of the weighted mean rate."""
        rates = [v / n if n else 0.0 for v, n in zip(vals, committed)]
        if len(rates) < 2:
            return 0.0
        mean = sum(w * r for w, r in zip(weights, rates)) / wsum
        if mean <= 0:
            return 0.0
        var = sum(w * (r - mean) ** 2
                  for w, r in zip(weights, rates)) / wsum
        return math.sqrt(var / len(rates)) / mean

    est = SimStats(threads=[ThreadStats()])
    t = est.threads[0]
    _scale_counts(est, samples, scale)
    _scale_counts(t, [s.threads[0] for s in samples], scale)
    # Exact instruction-mix totals from the functional pass.
    t.committed = n_total
    t.loads = total.loads
    t.stores = total.stores
    t.calls = total.calls
    t.fp_ops = total.fp_ops
    t.cond_branches = total.cond_branches
    t.halted = True
    t.halted_at = est.cycles
    est.cond_branches = total.cond_branches
    # Ratio metrics: weighted totals, not averaged rates.
    accesses = sum(w * s.dl1_accesses
                   for w, s in zip(weights, samples))
    misses = sum(w * sum(s.dl1_miss_breakdown.values())
                 for w, s in zip(weights, samples))
    est.dl1_miss_rate = misses / accesses if accesses else 0.0
    est.l2_miss_rate = (sum(w * s.l2_miss_rate
                            for w, s in zip(weights, samples)) / wsum)
    est.max_regs_in_use = max(s.max_regs_in_use for s in samples)

    errors = {}
    for name in _ERROR_FIELDS:
        attr = "cycles" if name == "ipc" else name
        errors[name] = rel_stderr([getattr(s, attr) for s in samples])
    return est, errors


def _scale_counts(est, samples: Sequence, scale) -> None:
    """Set each count of ``est`` to ``scale`` of the samples' values;
    a per-kind dict gets each kind any sample has, in first-seen
    order, unless it scales to zero."""
    for name in count_fields(type(est)):
        into = getattr(est, name)
        if isinstance(into, dict):
            per = [getattr(s, name) for s in samples]
            for kind in dict.fromkeys(k for d in per for k in d):
                n = scale([d.get(kind, 0) for d in per])
                if n:
                    into[kind] = n
        else:
            setattr(est, name, scale([getattr(s, name) for s in samples]))


# ======================================================================
# the sampled run
# ======================================================================
def _simulate_interval(model: str, cfg: MachineConfig,
                       program: Program, scfg: SamplingConfig,
                       profile: IntervalProfile, idx: int, start: int,
                       ckpt: Checkpoint, sp,
                       ) -> Tuple[SimStats, int, int]:
    """Detailed simulation of one representative interval.

    Builds a machine and seeds it from ``ckpt`` (the ``seed`` span),
    runs the detailed-warmup prefix (``start - ckpt.instructions``
    instructions, excluded from the window) and measures the
    interval.  Returns ``(window_stats, cycles, instructions)`` where
    the latter two count everything actually simulated — warmup
    prefix included — i.e. the true detailed cost of the sample.
    """
    with sp.span("seed", interval=idx):
        machine = build_machine(model, cfg, [program])
        seed_machine(machine, program, ckpt)
    warm_n = start - ckpt.instructions
    before = None
    if warm_n:
        with sp.span("warmup", interval=idx):
            before = machine.run(commit_limit=warm_n).to_dict()
    with sp.span("detailed", interval=idx) as dsp:
        prof = None
        if sp.enabled:
            # Stage attribution rides on the detailed span; the
            # profile is observational only, so SimStats stay
            # bit-identical (tests/test_profile.py).
            from repro.obs.profile import StageProfile
            prof = StageProfile(machine)
            prof.attach()
        try:
            stats = machine.run(
                commit_limit=warm_n + profile.counts[idx])
        finally:
            if prof is not None:
                prof.detach()
                dsp.counters.update(
                    {f"profile.{lbl}.seconds": round(secs, 6)
                     for lbl, secs in prof.seconds.items()})
    cycles = stats.cycles
    instructions = stats.committed
    if before is not None:
        stats = _measured_window(before, stats)
    return stats, cycles, instructions


def run_sampled(model: str, cfg: MachineConfig, program: Program,
                scfg: Optional[SamplingConfig] = None
                ) -> Tuple[SimStats, SamplingMeta]:
    """Sampled detailed simulation of one single-thread workload.

    One functional pass (:func:`profile_with_checkpoints`) captures
    the interval profile and a checkpoint per interval.  Rounds then
    select representatives for the round's budget, detail-simulate
    **only the delta set** — representatives not simulated in an
    earlier round, so no interval is ever re-warmed or re-measured —
    and extrapolate.

    * **Fixed count** (``rse_target`` unset): exactly one round of
      ``n_detailed`` representatives, weighted by
      :func:`select_intervals`.
    * **Adaptive** (``rse_target`` set): the budget starts at
      ``n_detailed`` and grows geometrically (``k → k + max(1, k //
      2)``, capped at ``max_detailed``); each round re-weights the
      union of simulated representatives by :func:`_weights_for`.  The
      loop stops when every watched metric's relative standard error
      reaches ``rse_target``, or at the cap.

    Args:
        model: machine model name (``repro.models.factory.MODELS``).
        cfg: machine configuration (``n_threads`` must be 1).
        program: the assembled binary, in the model's ABI.
        scfg: sampling knobs; defaults to :class:`SamplingConfig`.

    Returns:
        ``(stats, meta)`` — extrapolated whole-run :class:`SimStats`
        plus :class:`SamplingMeta` describing the sample and its error
        estimates.
    """
    scfg = scfg if scfg is not None else SamplingConfig()
    if cfg.n_threads != 1:
        raise SamplingError("sampled simulation is single-threaded; "
                            f"got n_threads={cfg.n_threads}")
    adaptive = scfg.rse_target is not None
    # Phase spans land under whatever span tracer the engine/CLI
    # activated (the inert NULL_SPANS otherwise); all clock reads stay
    # inside the tracer, keeping this module deterministic (D002).
    sp = current_spans()
    collector = ReuseCollector() if scfg.mode == "bbv+mem" else None
    with sp.span("fast_forward"):
        profile, ckpts = profile_with_checkpoints(program, scfg,
                                                  collector)
    n = profile.n_intervals
    cap = max(1, min(scfg.max_detailed, n)) if adaptive else n
    k = max(1, min(scfg.n_detailed, cap))
    simulated: Dict[int, SimStats] = {}
    detailed_cycles = 0
    detailed_instructions = 0
    rounds: List[Dict[str, object]] = []
    converged = not adaptive
    while True:
        reps, weights = select_intervals(profile,
                                         replace(scfg, n_detailed=k))
        # ``max_detailed`` caps the *total* detailed intervals, not
        # just the per-round budget: later clusterings need not reuse
        # earlier medoids, so the union could otherwise overshoot.
        new = [idx for idx in reps if idx not in simulated]
        new = new[:cap - len(simulated)]
        with sp.span("rse_round", round=len(rounds) + 1, requested=k,
                     added=len(new)):
            for idx in new:
                stats, cycles, instructions = _simulate_interval(
                    model, cfg, program, scfg, profile, idx,
                    idx * scfg.interval_len, ckpts[idx], sp)
                simulated[idx] = stats
                detailed_cycles += cycles
                detailed_instructions += instructions
            # Fixed-count keeps the selection's own weights.  The
            # union of several rounds matches no single selection, so
            # adaptive runs weight it by nearest representative.
            if adaptive:
                reps = sorted(simulated)
                weights = _weights_for(profile, reps, scfg)
            est, errors = _extrapolate(
                [simulated[idx] for idx in reps], weights, profile)
        if not adaptive:
            break
        watched = {name: errors[name] for name in scfg.rse_metrics}
        max_rse = max(watched.values())
        rounds.append({
            "round": len(rounds) + 1,
            "requested": k,
            "added": len(new),
            "n_detailed": len(reps),
            "max_rse": max_rse,
            "errors": watched,
        })
        # A single sample has zero variance by construction; don't let
        # that count as convergence unless it IS the whole run.
        if max_rse <= scfg.rse_target and (len(reps) >= 2 or len(reps) == n):
            converged = True
            break
        if k >= cap:
            break
        k = min(cap, k + max(1, k // 2))

    meta = SamplingMeta(
        mode=scfg.mode,
        interval_len=scfg.interval_len,
        n_intervals=n,
        n_detailed=len(simulated),
        total_instructions=profile.total.instructions,
        detailed_instructions=detailed_instructions,
        detailed_cycles=detailed_cycles,
        est_cycles=est.cycles,
        errors=errors,
        rse_target=scfg.rse_target,
        rse_metrics=tuple(scfg.rse_metrics) if adaptive else (),
        rounds=rounds,
        intervals_added=(len(simulated) - rounds[0]["n_detailed"]
                         if adaptive else 0),
        converged=converged,
    )
    return est, meta
