"""Register-window experiments: Figures 4, 5 and 6 (Section 4.1).

Each figure sweeps physical register file size from 64 (the number of
architectural registers) to 256 (architectural plus the reorder
buffer) across four machines: the non-windowed baseline, a
conventional trap-based register-window machine, an idealised window
machine, and VCA with windows.  Values are geometric means over the
Table 2 benchmark suite, normalized per-benchmark to the dual-port
baseline with 256 physical registers — exactly the paper's
normalisation.

Each figure is a declarative :class:`~repro.experiments.plan.SweepSpec`
(the (model × size × benchmark) grid, the normalisation-reference
points, and the figure's reduction), so any execution engine — serial
or parallel, with a ledger or not — can run it; the ``figN_*`` functions
remain the one-call convenience wrappers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import geomean
from repro.workloads.profiles import RW_BENCHMARKS

from .engine import SerialEngine, execute_plan
from .plan import Point, SweepSpec
from .runner import RunResult, default_scale, path_ratio

#: The four machines of Figures 4-6, in the paper's legend order.
RW_MODELS = ("baseline", "ideal-rw", "conventional-rw", "vca-rw")

#: Register-file sizes swept in Figures 4-6.
REG_SIZES = (64, 128, 192, 256)

Series = Dict[str, Dict[int, Optional[float]]]

Grid = Dict[Tuple[str, int], List[RunResult]]


def _accesses_per_work(r: RunResult) -> float:
    """DL1 accesses per flat-ABI-equivalent instruction."""
    ratio = 1.0
    if r.model != "baseline":
        ratio = path_ratio(r.benches[0])
    work = sum(r.committed) / ratio
    return r.dl1_accesses / work


def rw_plan(models: Sequence[str] = RW_MODELS,
            sizes: Sequence[int] = REG_SIZES,
            benches: Sequence[str] = RW_BENCHMARKS,
            dl1_ports: int = 2,
            scale: Optional[float] = None) -> SweepSpec:
    """The raw (model × size × benchmark) grid as a sweep plan."""
    scale = default_scale() if scale is None else scale
    return SweepSpec.build(
        f"rw-ports{dl1_ports}",
        axes={"model": tuple(models), "phys_regs": tuple(sizes),
              "bench": tuple(benches)},
        dl1_ports=dl1_ports, scale=scale)


def reference_points(benches: Sequence[str],
                     scale: float) -> List[Point]:
    """Per-benchmark normalisation references: the baseline at 256
    registers and two DL1 ports."""
    return [Point.run("baseline", (b,), 256, dl1_ports=2, scale=scale)
            for b in benches]


def _grid_from(outcomes, models: Sequence[str], sizes: Sequence[int],
               benches: Sequence[str], dl1_ports: int,
               scale: float) -> Grid:
    """Index an engine's outcome map back into the classic
    ``{(model, size): [RunResult per benchmark]}`` shape."""
    return {
        (model, size): [
            outcomes[Point.run(model, (b,), size, dl1_ports=dl1_ports,
                               scale=scale)].result()
            for b in benches]
        for model in models for size in sizes}


def rw_sweep(models: Sequence[str] = RW_MODELS,
             sizes: Sequence[int] = REG_SIZES,
             benches: Sequence[str] = RW_BENCHMARKS,
             dl1_ports: int = 2,
             scale: Optional[float] = None,
             engine=None) -> Grid:
    """All (model, size) points of the register-window study."""
    scale = default_scale() if scale is None else scale
    plan = rw_plan(models, sizes, benches, dl1_ports, scale)
    outcomes = (engine or SerialEngine()).run(plan.points())
    return _grid_from(outcomes, models, sizes, benches, dl1_ports, scale)


def _normalize(sweep: Grid, refs: List[RunResult], value_fn) -> Series:
    series: Series = {}
    for (model, size), results in sweep.items():
        col = series.setdefault(model, {})
        if any(r.unrunnable for r in results):
            col[size] = None
            continue
        ratios = [value_fn(r) / value_fn(ref)
                  for r, ref in zip(results, refs)]
        col[size] = geomean(ratios)
    return series


def _figure_plan(name: str, value_fn, benches: Sequence[str],
                 sizes: Sequence[int], dl1_ports: int,
                 scale: Optional[float],
                 with_ratios: bool = False) -> SweepSpec:
    """One Section 4.1 figure as a plan: grid + reference points, with
    a reduction to the figure's normalized series."""
    scale = default_scale() if scale is None else scale
    benches = tuple(benches)
    sizes = tuple(sizes)
    refs = reference_points(benches, scale)
    extra: List[Point] = list(refs)
    if with_ratios:
        # Path-length ratios (Table 2) used by the reduction; running
        # them as plan points parallelises and pre-caches them.
        extra.extend(Point.ratio(b) for b in benches)

    def reduce(outcomes) -> Series:
        sweep = _grid_from(outcomes, RW_MODELS, sizes, benches,
                           dl1_ports, scale)
        ref_results = [outcomes[p].result() for p in refs]
        return _normalize(sweep, ref_results, value_fn)

    grid = rw_plan(RW_MODELS, sizes, benches, dl1_ports, scale)
    return SweepSpec.build(name, axes=dict(grid.axes), extra=extra,
                           reduce=reduce, **dict(grid.base))


def fig4_plan(benches: Sequence[str] = RW_BENCHMARKS,
              sizes: Sequence[int] = REG_SIZES,
              scale: Optional[float] = None) -> SweepSpec:
    return _figure_plan("fig4", lambda r: r.cycles, benches, sizes,
                        dl1_ports=2, scale=scale)


def fig5_plan(benches: Sequence[str] = RW_BENCHMARKS,
              sizes: Sequence[int] = REG_SIZES,
              scale: Optional[float] = None) -> SweepSpec:
    return _figure_plan("fig5", _accesses_per_work, benches, sizes,
                        dl1_ports=2, scale=scale, with_ratios=True)


def fig6_plan(benches: Sequence[str] = RW_BENCHMARKS,
              sizes: Sequence[int] = REG_SIZES,
              scale: Optional[float] = None) -> SweepSpec:
    return _figure_plan("fig6", lambda r: r.cycles, benches, sizes,
                        dl1_ports=1, scale=scale)


def fig4_execution_time(benches: Sequence[str] = RW_BENCHMARKS,
                        sizes: Sequence[int] = REG_SIZES,
                        scale: Optional[float] = None,
                        engine=None) -> Series:
    """Figure 4: normalized execution time vs physical registers."""
    return execute_plan(fig4_plan(benches, sizes, scale), engine)


def fig5_cache_accesses(benches: Sequence[str] = RW_BENCHMARKS,
                        sizes: Sequence[int] = REG_SIZES,
                        scale: Optional[float] = None,
                        engine=None) -> Series:
    """Figure 5: normalized data-cache accesses vs physical registers."""
    return execute_plan(fig5_plan(benches, sizes, scale), engine)


def fig6_single_port(benches: Sequence[str] = RW_BENCHMARKS,
                     sizes: Sequence[int] = REG_SIZES,
                     scale: Optional[float] = None,
                     engine=None) -> Series:
    """Figure 6: single-DL1-port execution time, normalized to the
    dual-port baseline at 256 registers."""
    return execute_plan(fig6_plan(benches, sizes, scale), engine)
