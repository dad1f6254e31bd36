"""Evaluation metrics (Sections 3.1-3.2), as pure functions of numbers.

Complete synthetic programs are simulated end-to-end, so execution
time is simply the cycle count — the CPI-times-path-length product the
paper computes falls out directly, including the windowed binaries'
shorter dynamic path.  Per-instruction quantities are another matter:
a windowed binary commits fewer instructions for the same work, so
Figure 5, Figures 7-8 and Section 4.3 compare flat-equivalent counts,
each thread's count divided by its windowed/flat path-length ratio
(1.0 for a flat binary; :func:`repro.experiments.runner.path_ratios`
gives a result's ratios).  SMT runs stop when the first thread
finishes (the paper stops when one thread commits its quota), and
per-thread IPCs are measured over that common window.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional aggregate for normalized
    execution times and speedups)."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def flat_equivalent(counts: Sequence[float],
                    ratios: Sequence[float]) -> List[float]:
    """Per-thread counts in flat-ABI-equivalent instructions: each
    count divided by its thread's path-length ratio."""
    return [c / r for c, r in zip(counts, ratios)]


def weighted_speedup(ipcs: Sequence[float], ratios: Sequence[float],
                     single_ipc: Sequence[float]) -> float:
    """Weighted speedup of a multithreaded run (Figures 7-8).

    The paper's weighted execution time sums each thread's SMT
    execution time relative to its single-threaded execution time; the
    plotted speedup is the equivalent sum of per-thread IPC ratios:
    each thread's flat-equivalent IPC over the IPC of the same
    benchmark running alone on the single-thread reference machine.
    """
    if not len(ipcs) == len(ratios) == len(single_ipc):
        raise ValueError("one ratio and one single-thread IPC per "
                         "thread required")
    return sum(ipc / ref
               for ipc, ref in zip(flat_equivalent(ipcs, ratios),
                                   single_ipc))
