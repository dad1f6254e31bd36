"""Experiment drivers that regenerate every table and figure of the
paper's evaluation (Section 4), built on declarative sweep plans
(:mod:`repro.experiments.plan`) executed by pluggable serial/parallel
engines (:mod:`repro.experiments.engine`)."""

from .engine import (
    EngineError, ParallelEngine, PointOutcome, SerialEngine,
    SweepProgress, execute_plan,
)
from .plan import Point, SweepSpec, unique_points
from .report import render_series, render_table
from .runner import (
    RunResult, cache_dir, default_scale, path_ratio, path_ratios,
    run_point, source_hash,
)
from .store import ResultStore, SqliteStore, active_store
from .rw import (
    REG_SIZES, RW_MODELS, fig4_execution_time, fig4_plan,
    fig5_cache_accesses, fig5_plan, fig6_plan, fig6_single_port,
    rw_plan, rw_sweep,
)
from .smt import (
    SMT_SIZES, fig7_smt, fig8_smt_rw, sec43_cache_traffic,
    select_workloads, smt_plan, smt_speedup_series, vectors_plan,
)

__all__ = [
    "EngineError", "ParallelEngine", "PointOutcome", "SerialEngine",
    "SweepProgress", "execute_plan", "Point", "SweepSpec",
    "unique_points", "render_series", "render_table", "RunResult",
    "cache_dir", "default_scale", "path_ratio", "path_ratios",
    "run_point", "source_hash", "ResultStore", "SqliteStore",
    "active_store",
    "REG_SIZES", "RW_MODELS", "fig4_execution_time", "fig4_plan",
    "fig5_cache_accesses", "fig5_plan", "fig6_plan",
    "fig6_single_port", "rw_plan", "rw_sweep", "SMT_SIZES",
    "fig7_smt", "fig8_smt_rw", "sec43_cache_traffic",
    "select_workloads", "smt_plan", "smt_speedup_series",
    "vectors_plan",
]
