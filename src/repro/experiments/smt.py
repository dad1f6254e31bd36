"""SMT experiments: Figures 7 and 8 and the Section 4.3 cache-traffic
comparison.

Workload construction follows Section 3.2: every benchmark is
characterised by a statistics vector from a single-thread baseline
run; candidate multithreaded workloads (all 253 pairs, and four-thread
combinations built from pairs of pairs) are clustered with PCA +
linkage clustering, and the workload nearest each cluster centroid is
simulated.  Speedups are weighted per the paper: each thread's IPC is
divided by the same benchmark's IPC running alone on the baseline with
256 physical registers.  Windowed binaries are converted to
flat-equivalent instruction counts through their Table 2 path-length
ratio so that speedups compare equal work.

Each study batches all of its simulation points — every series' grid,
the single-thread references, and the path-length ratios windowed
models need — into one engine run, so a parallel engine overlaps
everything; workload selection (which depends on the characterisation
vectors) is the only sequencing barrier.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import flat_equivalent, weighted_speedup
from repro.models import model_abi
from repro.workloads.clustering import (
    all_pairs, all_quads, cluster_and_select, workload_vector,
)
from repro.workloads.profiles import ALL_BENCHMARKS

from .engine import SerialEngine
from .plan import Point, SweepSpec
from .runner import default_scale, path_ratios

#: Register-file sizes swept in Figures 7-8.
SMT_SIZES = (64, 128, 192, 256, 320, 384, 448)

Series = Dict[str, Dict[int, Optional[float]]]

Workload = Tuple[str, ...]


def _workload_counts() -> Tuple[int, int, int]:
    """(1T, 2T, 4T) representative-workload counts.

    The paper simulates 43 two-thread and 127 four-thread cluster
    representatives of 100M instructions each; at our scale we default
    to fewer representatives (override with REPRO_SMT_K, e.g.
    ``REPRO_SMT_K=5,8,6``).
    """
    env = os.environ.get("REPRO_SMT_K")
    if env:
        k1, k2, k4 = (int(v) for v in env.split(","))
        return k1, k2, k4
    return 5, 6, 4


def vectors_plan(scale: Optional[float] = None) -> SweepSpec:
    """Single-thread characterisation runs (baseline, 256 regs) as a
    plan."""
    scale = default_scale() if scale is None else scale
    return SweepSpec.build(
        "smt-vectors", axes={"bench": ALL_BENCHMARKS},
        model="baseline", phys_regs=256, scale=scale)


def _ref_point(bench: str, scale: float) -> Point:
    return Point.run("baseline", (bench,), 256, scale=scale)


def benchmark_vectors(scale: Optional[float] = None, engine=None
                      ) -> Dict[str, np.ndarray]:
    """Single-thread characterisation vectors (baseline, 256 regs)."""
    scale = default_scale() if scale is None else scale
    outcomes = (engine or SerialEngine()).run(
        vectors_plan(scale).points())
    return {name: np.array(
                outcomes[_ref_point(name, scale)].result().stats_vector)
            for name in ALL_BENCHMARKS}


def select_workloads(n_threads: int, k: int,
                     scale: Optional[float] = None,
                     engine=None) -> List[Workload]:
    """Cluster candidate workloads and return the representatives."""
    vectors = benchmark_vectors(scale, engine)
    if n_threads == 1:
        candidates: List[Workload] = [(b,) for b in ALL_BENCHMARKS]
    elif n_threads == 2:
        candidates = [tuple(p) for p in all_pairs(ALL_BENCHMARKS)]
    elif n_threads == 4:
        pairs = all_pairs(ALL_BENCHMARKS)
        candidates = [tuple(q) for q in all_quads(pairs, limit=127)]
    else:
        raise ValueError("n_threads must be 1, 2 or 4")
    matrix = np.stack([
        workload_vector([vectors[b] for b in wl]) for wl in candidates])
    result = cluster_and_select(matrix, k)
    return [candidates[i] for i in result.representatives]


def smt_plan(model: str, workloads: Sequence[Workload],
             sizes: Sequence[int] = SMT_SIZES,
             scale: Optional[float] = None) -> SweepSpec:
    """One machine's (size × workload) speedup grid as a plan."""
    scale = default_scale() if scale is None else scale
    return SweepSpec.build(
        f"smt-{model}",
        axes={"phys_regs": tuple(sizes),
              "workload": tuple(tuple(w) for w in workloads)},
        model=model, scale=scale)


def _series_points(series: Dict[str, Tuple[str, Sequence[Workload]]],
                   sizes: Sequence[int], scale: float) -> List[Point]:
    """Every point a set of speedup series needs: the grids, the
    single-thread references, and path ratios for windowed models."""
    points: List[Point] = [_ref_point(b, scale) for b in ALL_BENCHMARKS]
    for model, workloads in series.values():
        points.extend(smt_plan(model, workloads, sizes, scale).points())
        if model_abi(model) == "windowed":
            points.extend(Point.ratio(b)
                          for wl in workloads for b in wl)
    return points


def _speedup_from(outcomes, model: str, workloads: Sequence[Workload],
                  sizes: Sequence[int], scale: float,
                  refs: Dict[str, float]) -> Dict[int, Optional[float]]:
    """Mean weighted speedup per size, from resolved outcomes; any
    unrunnable workload blanks the whole size (the paper's "No
    Baseline" regions)."""
    out: Dict[int, Optional[float]] = {}
    for size in sizes:
        results = [outcomes[Point.run(model, wl, size,
                                      scale=scale)].result()
                   for wl in workloads]
        if any(r.unrunnable for r in results):
            out[size] = None
            continue
        speedups = [weighted_speedup(r.thread_ipcs, path_ratios(r),
                                     [refs[b] for b in r.benches])
                    for r in results]
        out[size] = sum(speedups) / len(speedups)
    return out


def _speedup_series_batch(
        series: Dict[str, Tuple[str, Sequence[Workload]]],
        sizes: Sequence[int], scale: Optional[float],
        engine=None) -> Series:
    """Run every series' points in one engine batch, then reduce."""
    scale = default_scale() if scale is None else scale
    engine = engine or SerialEngine()
    outcomes = engine.run(_series_points(series, sizes, scale))
    refs = {b: outcomes[_ref_point(b, scale)].result().ipc
            for b in ALL_BENCHMARKS}
    return {label: _speedup_from(outcomes, model, workloads, sizes,
                                 scale, refs)
            for label, (model, workloads) in series.items()}


def smt_speedup_series(model: str, workloads: Sequence[Workload],
                       sizes: Sequence[int] = SMT_SIZES,
                       scale: Optional[float] = None,
                       engine=None) -> Dict[int, Optional[float]]:
    """Mean weighted speedup per register-file size for one machine."""
    return _speedup_series_batch({"series": (model, workloads)},
                                 sizes, scale, engine)["series"]


def fig7_smt(sizes: Sequence[int] = SMT_SIZES,
             scale: Optional[float] = None, engine=None) -> Series:
    """Figure 7: SMT weighted speedup, VCA vs baseline, 2T and 4T."""
    _, k2, k4 = _workload_counts()
    wl2 = select_workloads(2, k2, scale, engine)
    wl4 = select_workloads(4, k4, scale, engine)
    return _speedup_series_batch({
        "vca 2T": ("vca", wl2),
        "vca 4T": ("vca", wl4),
        "baseline 2T": ("baseline", wl2),
        "baseline 4T": ("baseline", wl4),
    }, sizes, scale, engine)


def fig8_smt_rw(sizes: Sequence[int] = SMT_SIZES,
                scale: Optional[float] = None, engine=None) -> Series:
    """Figure 8: register windows + SMT on VCA vs the non-windowed
    baseline, at 1, 2 and 4 threads."""
    k1, k2, k4 = _workload_counts()
    wl1 = select_workloads(1, k1, scale, engine)
    wl2 = select_workloads(2, k2, scale, engine)
    wl4 = select_workloads(4, k4, scale, engine)
    return _speedup_series_batch({
        "vca-rw 1T": ("vca-rw", wl1),
        "vca-rw 2T": ("vca-rw", wl2),
        "vca-rw 4T": ("vca-rw", wl4),
        "baseline 1T": ("baseline", wl1),
        "baseline 2T": ("baseline", wl2),
        "baseline 4T": ("baseline", wl4),
    }, sizes, scale, engine)


def sec43_cache_traffic(scale: Optional[float] = None,
                        engine=None) -> Dict[str, float]:
    """Section 4.3: data-cache accesses per unit of work for the
    four-thread machines the text compares.

    Returns accesses per flat-equivalent instruction for: the baseline
    with 448 registers, non-windowed VCA with 192 registers, and
    windowed VCA with 192 registers — the paper reports +24% for
    non-windowed VCA and 5% *fewer* accesses once windows are added.
    """
    scale = default_scale() if scale is None else scale
    engine = engine or SerialEngine()
    _, _, k4 = _workload_counts()
    wl4 = select_workloads(4, k4, scale, engine)

    machines = [("baseline 4T @448", "baseline", 448),
                ("vca 4T @192", "vca", 192),
                ("vca-rw 4T @192", "vca-rw", 192)]
    points = [Point.run(model, wl, size, scale=scale)
              for _, model, size in machines for wl in wl4]
    points += [Point.ratio(b) for wl in wl4 for b in wl]
    outcomes = engine.run(points)

    def apw(model: str, size: int) -> float:
        num = den = 0.0
        for wl in wl4:
            r = outcomes[Point.run(model, wl, size,
                                   scale=scale)].result()
            if r.unrunnable:
                raise RuntimeError(f"{model}@{size} unrunnable")
            num += r.dl1_accesses
            den += sum(flat_equivalent(r.committed, path_ratios(r)))
        return num / den

    return {label: apw(model, size) for label, model, size in machines}
