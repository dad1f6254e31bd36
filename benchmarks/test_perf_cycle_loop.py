"""Performance guard for the cycle-loop hot path.

Simulated cycles per wall-clock second must be at least
``SPEEDUP_FLOOR`` times the pinned pre-optimization baseline on the
recursive ``fib`` diagnostic and a generator workload
(``gzip_graphic``).  Baselines were measured best-of-5 on the tree at
commit 5a04113 and pinned slightly below the observed values so
ordinary timer noise cannot fail a genuinely fast tree.

A speedup is only a speedup if the results stay bit-identical; the
pinned ``SimStats`` digests that check it live in tier-1, in
``tests/test_timing_digests.py``.

The measured rates are printed, not recorded: the perf history in
``BENCH_perf.json`` holds ``python -m bench run --out`` results
appended by ``repro bench record``, whose ``pipeline.cycles_per_s.*``
rows trend every model's cycle loop.
"""

import time

from repro.config import MachineConfig
from repro.models.factory import build_machine, model_abi
from repro.workloads.generator import benchmark_program

#: Best-of-5 cycles/sec on the pre-optimization tree (commit 5a04113),
#: vca-rw, scale=4.0 — pinned ~5% below the measured 20915 / 13444 so
#: timer noise cannot produce a false failure.
BASELINE_CPS = {"fib": 20000.0, "gzip_graphic": 13000.0}
SPEEDUP_FLOOR = 1.5
TIMING_ROUNDS = 5
TIMING_SCALE = 4.0


def _machine(model, benches, scale):
    cfg = MachineConfig.baseline().with_(
        phys_regs=256, dl1_ports=2, n_threads=len(benches))
    abi = model_abi(model)
    progs = [benchmark_program(b, abi=abi, scale=scale, seed=0)
             for b in benches]
    return build_machine(model, cfg, progs)


def _best_cps(bench):
    best = 0.0
    cycles = 0
    for _ in range(TIMING_ROUNDS):
        m = _machine("vca-rw", [bench], TIMING_SCALE)
        t0 = time.perf_counter()
        stats = m.run()
        dt = time.perf_counter() - t0
        cycles = stats.cycles
        best = max(best, cycles / dt)
    return best, cycles


def test_cycle_loop_speedup():
    results = {}
    for bench, base in BASELINE_CPS.items():
        cps, cycles = _best_cps(bench)
        ratio = cps / base
        results[bench] = {"cycles": cycles, "cycles_per_sec": cps,
                          "baseline_cps": base, "speedup": ratio}
        print(f"\n{bench}: {cycles} cycles, best {cps:,.0f} c/s, "
              f"{ratio:.2f}x baseline")

    for bench, r in results.items():
        assert r["speedup"] >= SPEEDUP_FLOOR, (
            f"{bench}: {r['cycles_per_sec']:,.0f} c/s is only "
            f"{r['speedup']:.2f}x the pinned baseline "
            f"({r['baseline_cps']:,.0f} c/s); floor is "
            f"{SPEEDUP_FLOOR}x")
