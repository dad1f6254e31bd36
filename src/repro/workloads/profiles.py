"""Benchmark profiles: the knobs behind the synthetic SPEC CPU2000 suite.

The paper evaluates on SPEC CPU2000 binaries; those are unavailable
here, so each benchmark is replaced by a synthetic program generated
from a :class:`BenchmarkProfile` that pins down exactly the properties
the paper's results depend on:

* **call frequency and per-frame register pressure** — these determine
  the windowed/flat path-length ratio of Table 2.  For a function with
  ``L`` callee-saved locals, the flat ABI adds roughly ``2L + 4``
  instructions per activation, so a target ratio ``r`` at call
  interval ``I`` satisfies ``r = I / (I + 2L + 4)``; the per-benchmark
  ``call_interval``/``locals_*`` values below are solved from the
  ratios the paper reports and then jittered by the generator.
* **call-tree depth and recursion** — drive window working-set depth
  (VCA spill/fill behaviour, conventional-window overflow traps).
* **memory behaviour** — working-set size, access pattern and
  pointer-chasing fraction control cache miss rates and memory-level
  parallelism (the SMT workload axes).
* **branch behaviour and ILP mix** — control misprediction rates and
  issue-width utilisation.

The 15 profiles with ``table2_ratio`` set correspond to the rows of
Table 2 (benchmarks that call at least once every 500 instructions);
the remaining 8 round out the 23-benchmark pool from which the SMT
workloads of Sections 4.2-4.3 are drawn (23 choose 2 = 253 two-thread
combinations, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class BenchmarkProfile:
    """Generator knobs for one synthetic benchmark."""

    name: str
    fp: bool = False
    #: Set for Table 2 benchmarks: the paper's windowed/flat ratio.
    table2_ratio: Optional[float] = None
    #: Target windowed-ABI instructions between calls.
    call_interval: int = 200
    #: Callee-saved integer / FP locals per function.
    locals_int: int = 7
    locals_fp: int = 0
    #: Call-tree depth below main and functions per level.
    levels: int = 2
    fanout: int = 2
    #: Inner-loop trips per function activation.
    reps: int = 2
    #: Linear recursion depth triggered once per main iteration.
    recursion: int = 0
    #: Data working set in 8-byte words (power of two).
    working_set: int = 2048
    load_frac: float = 0.16
    store_frac: float = 0.07
    #: Fraction of body ops that are dependent-load pointer chases.
    chase_frac: float = 0.0
    fp_frac: float = 0.0
    branch_frac: float = 0.08
    #: Fraction of conditional branches that are data-dependent
    #: (hard to predict) rather than loop-structured.
    branch_random: float = 0.3
    #: Sequential (cache-friendly) or randomised array indexing.
    seq_stride: bool = True
    #: Independent ALU dependency chains; bounds sustainable IPC the
    #: way SPEC's serial dataflow does (INT ~2, FP higher).
    ilp: int = 2
    #: Fraction of loads whose address is computed from live chain
    #: values (``array[f(x)]``), putting load latency on the critical
    #: path the way real pointer/index code does.
    dep_load_frac: float = 0.4
    imul_frac: float = 0.02
    fdiv_frac: float = 0.0
    #: Dynamic windowed-ABI instruction budget per run.
    target_dynamic: int = 24_000

    def __post_init__(self) -> None:
        if self.working_set & (self.working_set - 1):
            raise ValueError("working_set must be a power of two")
        fracs = (self.load_frac + self.store_frac + self.chase_frac
                 + self.fp_frac + self.branch_frac + self.imul_frac
                 + self.fdiv_frac)
        if fracs > 0.95:
            raise ValueError("op fractions leave no room for ALU ops")


def _p(**kw) -> BenchmarkProfile:
    return BenchmarkProfile(**kw)


#: The Table 2 register-window suite (paper ratios in comments).
_RW_PROFILES = [
    _p(name="bzip2_graphic", table2_ratio=0.92, call_interval=113,
       locals_int=7, levels=2, reps=3, working_set=16384,
       load_frac=0.33, store_frac=0.18, branch_frac=0.07,
       branch_random=0.14, ilp=2),
    _p(name="crafty", table2_ratio=0.93, call_interval=395, locals_int=8,
       levels=3, reps=2, recursion=12, working_set=4096,
       load_frac=0.27, store_frac=0.075, branch_frac=0.12,
       branch_random=0.18, imul_frac=0.01, ilp=3),
    _p(name="eon_rushmeier", table2_ratio=0.94, call_interval=322,
       locals_int=5, locals_fp=4, fp=True, levels=3, reps=2,
       working_set=2048, load_frac=0.21, store_frac=0.105,
       fp_frac=0.22, branch_frac=0.05, branch_random=0.08, ilp=3),
    _p(name="gap", table2_ratio=0.91, call_interval=280, locals_int=8,
       levels=2, reps=3, recursion=20, working_set=16384,
       load_frac=0.3, store_frac=0.12, branch_frac=0.08,
       branch_random=0.12, ilp=2),
    _p(name="gcc_expr", table2_ratio=0.92, call_interval=290,
       locals_int=9, levels=3, fanout=3, reps=2, recursion=16,
       working_set=16384, load_frac=0.3, store_frac=0.135,
       branch_frac=0.11, branch_random=0.16, ilp=2),
    _p(name="gzip_graphic", table2_ratio=0.92, call_interval=95,
       locals_int=6, levels=2, reps=3, working_set=4096,
       load_frac=0.3, store_frac=0.165, branch_frac=0.08,
       branch_random=0.12, ilp=3),
    _p(name="parser", table2_ratio=0.92, call_interval=470,
       locals_int=7, levels=2, reps=2, recursion=28, working_set=8192,
       load_frac=0.3, store_frac=0.09, chase_frac=0.04,
       branch_frac=0.1, branch_random=0.16, ilp=2),
    _p(name="perlbmk_535", table2_ratio=0.85, call_interval=190,
       locals_int=10, levels=3, fanout=2, reps=2, recursion=14,
       working_set=8192, load_frac=0.27, store_frac=0.12,
       branch_frac=0.09, branch_random=0.14, ilp=2),
    _p(name="twolf", table2_ratio=0.99, call_interval=800,
       locals_int=7, levels=2, reps=4, working_set=4096,
       load_frac=0.3, store_frac=0.12, branch_frac=0.12,
       branch_random=0.18, ilp=2),
    _p(name="vortex_2", table2_ratio=0.82, call_interval=70,
       locals_int=11, levels=3, fanout=2, reps=2, working_set=16384,
       load_frac=0.3, store_frac=0.15, branch_frac=0.07,
       branch_random=0.1, ilp=2),
    _p(name="vpr_route", table2_ratio=0.90, call_interval=83,
       locals_int=8, levels=2, reps=3, working_set=16384,
       load_frac=0.3, store_frac=0.105, chase_frac=0.03,
       branch_frac=0.1, branch_random=0.14, ilp=2),
    _p(name="ammp", table2_ratio=0.98, fp=True, call_interval=320,
       locals_int=3, locals_fp=3, levels=2, reps=4, working_set=8192,
       load_frac=0.24, store_frac=0.09, fp_frac=0.3,
       branch_frac=0.04, branch_random=0.06, ilp=4),
    _p(name="equake", table2_ratio=0.94, fp=True, call_interval=180,
       locals_int=3, locals_fp=5, levels=2, reps=3, working_set=16384,
       load_frac=0.3, store_frac=0.12, fp_frac=0.28,
       branch_frac=0.04, branch_random=0.04, ilp=4),
    _p(name="mesa", table2_ratio=0.92, fp=True, call_interval=224,
       locals_int=4, locals_fp=4, levels=3, reps=2, working_set=8192,
       load_frac=0.24, store_frac=0.15, fp_frac=0.26,
       branch_frac=0.05, branch_random=0.08, ilp=3),
    _p(name="wupwise", table2_ratio=0.93, fp=True, call_interval=111,
       locals_int=2, locals_fp=6, levels=2, reps=3, working_set=8192,
       load_frac=0.27, store_frac=0.105, fp_frac=0.3,
       branch_frac=0.03, branch_random=0.04, ilp=4),
]

#: Call-sparse benchmarks completing the 23-benchmark SMT pool.
_SMT_EXTRA_PROFILES = [
    _p(name="mcf", call_interval=5000, locals_int=5, levels=1, reps=6,
       working_set=262144, load_frac=0.24, store_frac=0.05,
       chase_frac=0.14, branch_frac=0.08, branch_random=0.16,
       seq_stride=False, ilp=2),
    _p(name="art", fp=True, call_interval=5000, locals_int=3,
       locals_fp=4, levels=1, reps=6, working_set=32768,
       load_frac=0.26, store_frac=0.05, fp_frac=0.22,
       branch_frac=0.04, branch_random=0.06, seq_stride=False, ilp=3),
    _p(name="swim", fp=True, call_interval=6000, locals_int=2,
       locals_fp=6, levels=1, reps=6, working_set=16384,
       load_frac=0.22, store_frac=0.12, fp_frac=0.3,
       branch_frac=0.02, branch_random=0.02, ilp=5),
    _p(name="applu", fp=True, call_interval=4000, locals_int=3,
       locals_fp=5, levels=1, reps=5, working_set=16384,
       load_frac=0.2, store_frac=0.1, fp_frac=0.3, branch_frac=0.03,
       branch_random=0.04, fdiv_frac=0.01, ilp=4),
    _p(name="mgrid", fp=True, call_interval=6000, locals_int=2,
       locals_fp=5, levels=1, reps=6, working_set=16384,
       load_frac=0.24, store_frac=0.14, fp_frac=0.26,
       branch_frac=0.02, branch_random=0.02, ilp=5),
    _p(name="sixtrack", fp=True, call_interval=3000, locals_int=2,
       locals_fp=7, levels=1, reps=5, working_set=2048,
       load_frac=0.08, store_frac=0.04, fp_frac=0.45,
       branch_frac=0.03, branch_random=0.04, fdiv_frac=0.02, ilp=4),
    _p(name="facerec", fp=True, call_interval=2500, locals_int=3,
       locals_fp=5, levels=1, reps=5, working_set=8192,
       load_frac=0.2, store_frac=0.08, fp_frac=0.3, branch_frac=0.05,
       branch_random=0.08, ilp=4),
    _p(name="apsi", fp=True, call_interval=2500, locals_int=3,
       locals_fp=4, levels=1, reps=5, working_set=8192,
       load_frac=0.18, store_frac=0.09, fp_frac=0.26,
       branch_frac=0.07, branch_random=0.12, ilp=3),
]

#: Small diagnostic workloads for observability work (tracing and
#: count sanity checks).  They are runnable via ``repro run`` but deliberately
#: excluded from :data:`ALL_BENCHMARKS` so the paper's 23-benchmark SMT
#: pool (23 choose 2 = 253 pairs) is unchanged.
_DIAG_PROFILES = [
    # Call-saturated deep recursion: a torture test for the rename
    # path.  Nearly every window is live at once, so a VCA machine
    # spills and fills constantly — short traces show the full event
    # vocabulary (tag misses, victims, ASTQ traffic, window traps).
    _p(name="fib", call_interval=40, locals_int=6, levels=1, fanout=1,
       reps=1, recursion=24, working_set=512, load_frac=0.12,
       store_frac=0.05, branch_frac=0.1, branch_random=0.2, ilp=2,
       target_dynamic=8_000),
]

PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p for p in _RW_PROFILES + _SMT_EXTRA_PROFILES
    + _DIAG_PROFILES}

#: Table 2 rows: benchmark -> paper path-length ratio.
TABLE2_RATIOS: Dict[str, float] = {
    p.name: p.table2_ratio for p in _RW_PROFILES}

RW_BENCHMARKS: Tuple[str, ...] = tuple(p.name for p in _RW_PROFILES)
SMT_EXTRA_BENCHMARKS: Tuple[str, ...] = tuple(
    p.name for p in _SMT_EXTRA_PROFILES)
ALL_BENCHMARKS: Tuple[str, ...] = RW_BENCHMARKS + SMT_EXTRA_BENCHMARKS
DIAG_BENCHMARKS: Tuple[str, ...] = tuple(p.name for p in _DIAG_PROFILES)
