"""Performance guard for the functional interpreter's hot path.

Mirrors ``test_perf_cycle_loop.py`` for the functional layer.  Two
claims, checked together because the second is meaningless without
the first:

1. **Bit identity** — blocks mode (the decoded basic-block cache,
   ``repro.functional.blocks``) produces exactly the statistics and
   architectural state the per-instruction interpreter produces.  Any
   divergence — a miscounted ``int_ops``, a stale register binding, a
   dropped window frame — fails here before it can skew a sampled
   simulation.

2. **Speed** — blocks mode must execute at least ``SPEEDUP_FLOOR``
   times the instructions/sec of interp mode on the same workload,
   and both modes must clear pinned absolute floors.  The floors are
   set far below the measured values (interp ~470k i/s, blocks warm
   ~6.0M i/s, ~12.6x) so shared-runner timer noise cannot fail a
   genuinely fast tree.

The measured rates are printed, not recorded: the perf history in
``BENCH_perf.json`` holds ``python -m bench run --out`` results
appended by ``repro bench record``, whose ``functional.insts_per_s.*``
rows trend both modes.
"""

import time

import pytest

from repro.functional import FunctionalSim
from repro.workloads.generator import benchmark_program

#: blocks-mode i/s must be at least this multiple of interp-mode i/s.
SPEEDUP_FLOOR = 5.0
#: Absolute instructions/sec floors, pinned well below measured
#: values (best-of-5 on the tree that introduced blocks mode).
ABSOLUTE_FLOORS = {"functional-interp": 150_000.0,
                   "functional-blocks": 1_200_000.0}
TIMING_ROUNDS = 5
TIMING_BENCH = "fib"
TIMING_SCALE = 4.0


@pytest.mark.parametrize("bench,abi", [
    ("fib", "windowed"), ("fib", "flat"),
    ("gzip_graphic", "windowed"), ("twolf", "windowed"),
])
def test_blocks_bit_identical(bench, abi):
    prog = benchmark_program(bench, abi=abi, scale=1.0, seed=0)
    ref = FunctionalSim(prog, mode="interp")
    ref_stats = ref.run()
    sim = FunctionalSim(prog, mode="blocks")
    stats = sim.run()
    assert stats == ref_stats, (
        f"{bench}/{abi}: blocks-mode FunctionalStats diverged from "
        f"the interpreter")
    assert sim.save_state() == ref.save_state(), (
        f"{bench}/{abi}: blocks-mode architectural state diverged")


def _best_ips(mode):
    """Best-of-``TIMING_ROUNDS`` instructions/sec.  Each round builds
    a fresh :class:`FunctionalSim`, so the ``blocks`` rate includes
    first-visit decode; the program (and so its block table) is cached
    across rounds, and best-of keeps the warm rate."""
    best = 0.0
    instructions = 0
    for _ in range(TIMING_ROUNDS):
        prog = benchmark_program(TIMING_BENCH, abi="windowed",
                                 scale=TIMING_SCALE, seed=0)
        sim = FunctionalSim(prog, mode=mode)
        t0 = time.perf_counter()
        stats = sim.run()
        dt = time.perf_counter() - t0
        instructions = stats.instructions
        best = max(best, instructions / dt if dt else 0.0)
    return best, instructions


def test_functional_speedup():
    ips = {}
    for mode in ("interp", "blocks"):
        key = f"functional-{mode}"
        ips[key], instructions = _best_ips(mode)
        print(f"\n{key}: {instructions} instrs, best {ips[key]:,.0f} "
              f"i/s ({TIMING_BENCH}, scale {TIMING_SCALE})")
    ratio = ips["functional-blocks"] / ips["functional-interp"]
    print(f"blocks vs interp: {ratio:.2f}x")

    for key, floor in ABSOLUTE_FLOORS.items():
        assert ips[key] >= floor, (
            f"{key}: {ips[key]:,.0f} i/s is below the pinned floor "
            f"{floor:,.0f} i/s")
    assert ratio >= SPEEDUP_FLOOR, (
        f"blocks mode is only {ratio:.2f}x interp mode; floor is "
        f"{SPEEDUP_FLOOR}x")
