"""Performance guard for the cycle-loop hot path.

Two claims, checked together because the second is meaningless
without the first:

1. **Bit identity** — the optimized simulator produces exactly the
   statistics the pre-optimization tree produced.  Six pinned SHA-256
   digests of ``SimStats.to_dict()`` cover the flat baseline, the
   conventional/ideal register-window models, single- and multi-thread
   VCA, and the early-halt SMT path.  Any behavioural drift — a
   skipped rename retry, a reordered port acquisition, a dropped stall
   counter — changes a digest and fails here before it can silently
   skew a figure.

2. **Speed** — simulated cycles per wall-clock second must be at
   least ``SPEEDUP_FLOOR`` times the pinned pre-optimization baseline
   on the recursive ``fib`` diagnostic and a generator workload
   (``gzip_graphic``).  Baselines were measured best-of-5 on the tree
   at commit 5a04113 and pinned slightly below the observed values so
   ordinary timer noise cannot fail a genuinely fast tree.

The measured rates are printed, not recorded: the perf history in
``BENCH_perf.json`` holds ``python -m bench run --out`` results
appended by ``repro bench record``, whose ``pipeline.cycles_per_s.*``
rows trend every model's cycle loop.
"""

import hashlib
import json
import time

import pytest

from repro.config import MachineConfig
from repro.models.factory import build_machine, model_abi
from repro.workloads.generator import benchmark_program

#: Digests of ``SimStats.to_dict()`` (metrics key removed) recorded on
#: the pre-optimization tree: (model, benches, stop_at_first_halt) →
#: (sha256[:16], cycles).  scale=1.0, phys_regs=256, dl1_ports=2.
GOLDEN_DIGESTS = {
    ("vca-rw", ("fib",), False): ("e32282efaa1d334f", 6175),
    ("vca-rw", ("gzip_graphic",), False): ("56fbb63135f041bb", 9752),
    ("baseline", ("fib",), False): ("6f5258ec057f0cc6", 5963),
    ("conventional-rw", ("fib",), False): ("7f890e1e95ca2dbc", 27084),
    ("vca-rw", ("fib", "gzip_graphic"), True): ("9c603598da2a155f", 5705),
    ("ideal-rw", ("gzip_graphic",), False): ("53c9f810d2d393b2", 9669),
}

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


def _digest(model, benches, stop):
    stats = _machine(model, benches, 1.0).run(stop_at_first_halt=stop)
    d = stats.to_dict()
    d.pop("metrics", None)
    h = hashlib.sha256(
        json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]
    return h, stats.cycles


@pytest.mark.parametrize("model,benches,stop",
                         sorted(GOLDEN_DIGESTS, key=str))
def test_stats_bit_identical(model, benches, stop):
    want_hash, want_cycles = GOLDEN_DIGESTS[(model, benches, stop)]
    got_hash, got_cycles = _digest(model, list(benches), stop)
    assert got_cycles == want_cycles, (
        f"{model}/{'+'.join(benches)}: cycle count drifted "
        f"{want_cycles} -> {got_cycles}")
    assert got_hash == want_hash, (
        f"{model}/{'+'.join(benches)}: SimStats digest drifted "
        f"{want_hash} -> {got_hash} (same cycle count — a secondary "
        f"counter changed; diff stats.to_dict() against the pinned "
        f"tree)")


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
