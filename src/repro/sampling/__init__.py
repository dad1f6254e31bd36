"""Checkpointed sampled simulation (SimPoint-style).

Splits a workload into fixed-length instruction intervals on the fast
functional interpreter, simulates only representative intervals in the
detailed timing model — each seeded from an architectural checkpoint
and microarchitecturally warmed — and extrapolates whole-run
:class:`~repro.pipeline.stats.SimStats` with per-metric error
estimates.  See ``docs/sampling.md``.
"""

from .checkpoint import (
    Checkpoint, CheckpointingSim, WarmupTrace, fast_forward,
    take_checkpoint,
)
from .memfeat import MemCaptureCheckpointingSim, MemSketch, ReuseCollector
from .sampler import (
    DEFAULT_RSE_METRICS, SAMPLING_MODES, IntervalProfile,
    SamplingConfig, SamplingError, SamplingMeta, profile_intervals,
    profile_with_checkpoints, run_sampled, seed_machine,
    select_intervals,
)

__all__ = [
    "Checkpoint", "CheckpointingSim", "WarmupTrace", "fast_forward",
    "take_checkpoint", "IntervalProfile", "SamplingConfig",
    "SamplingError", "SamplingMeta", "profile_intervals",
    "profile_with_checkpoints", "run_sampled", "seed_machine",
    "select_intervals", "MemSketch", "ReuseCollector",
    "MemCaptureCheckpointingSim", "SAMPLING_MODES",
    "DEFAULT_RSE_METRICS",
]
