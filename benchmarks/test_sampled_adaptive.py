"""Adaptive (RSE-convergence) sampling acceptance gate.

Extends ``test_sampled_accuracy.py`` to the ``--sample-rse`` flow.
Three claims, pinned on ``fib`` and ``gzip_graphic`` across three
machine configurations (the spill-free 256-register baseline, its
single-ported DL1 variant, and a 128-register spill-heavy machine):

1. **Convergence** — the adaptive loop reports convergence and its
   final relative standard error on IPC is at or below the requested
   target: 0.5% on ``gzip_graphic`` (47 intervals at scale 4), 2% on
   ``fib`` (whose 5 intervals floor the achievable RSE near 1%).
2. **Accuracy** — the converged estimate lands within ``TOLERANCE``
   (5%) of the full-detail run's IPC, spills and fills, so the
   statistical stopping rule is not converging to a biased answer.
3. **Cost** — reaching the same target with fixed-count escalation
   (run a budget, check the error, re-run bigger — the only strategy
   available without the adaptive mode, and one that re-simulates
   every interval each attempt) costs measurably more detailed cycles
   than the adaptive loop, which re-uses checkpoints and simulates
   only each round's delta set.  The cycle counts are exact, so the
   floor is a pinned check rather than a timing; the perf history's
   ``sampling.detailed_cycles.*`` rows (``python -m bench run``,
   recorded by ``repro bench record``) trend the sampler's cost.

Everything here is deterministic (pinned generator seed 0, no timers
in the selection or stopping rule), so drift means the sampler or the
machinery it seeds changed — not noise.

Reference values at the time of pinning: gzip_graphic converges in 2
rounds at 4/47 intervals with IPC RSE 0.37% (4,124 detailed cycles vs
5,158 for fixed escalation, 1.25x); fib converges in 1 round at 2/5
intervals with IPC RSE 0.93%.
"""

import pytest

from repro.config import MachineConfig
from repro.models.factory import build_machine, model_abi
from repro.sampling import SamplingConfig, run_sampled
from repro.workloads.generator import benchmark_program

MODEL = "vca-rw"
TOLERANCE = 0.05
#: Absolute slack for event counts whose full-run value is near zero
#: (matches ``test_sampled_accuracy.py``).
COUNT_SLACK = 100
#: The headline RSE target the acceptance gate demonstrates.
RSE_TARGET = 0.005
#: Fixed-escalation cycles must exceed adaptive cycles by this factor.
REDUCTION_FLOOR = 1.05


def _machine(phys_regs: int, dl1_ports: int) -> MachineConfig:
    return MachineConfig.baseline().with_(
        phys_regs=phys_regs, dl1_ports=dl1_ports, n_threads=1)


def _adaptive_scfg(target: float) -> SamplingConfig:
    """Small starting budget, BBV selection, geometric growth to 32."""
    return SamplingConfig(n_detailed=2, mode="bbv", rse_target=target,
                          rse_metrics=("ipc",), max_detailed=32)


def _pair(bench, scale, cfg, scfg):
    """(full SimStats, sampled SimStats, SamplingMeta) from
    identically generated programs."""
    abi = model_abi(MODEL)
    full = build_machine(
        MODEL, cfg,
        [benchmark_program(bench, abi=abi, scale=scale, seed=0)]).run()
    sampled, meta = run_sampled(
        MODEL, cfg,
        benchmark_program(bench, abi=abi, scale=scale, seed=0), scfg)
    return full, sampled, meta


def _assert_close(name, full, sampled):
    slack = max(TOLERANCE * full, COUNT_SLACK)
    assert abs(sampled - full) <= slack, (
        f"{name}: sampled {sampled} vs full {full} "
        f"(> {TOLERANCE:.0%} off, slack {slack:.0f})")


#: bench, scale, (phys_regs, dl1_ports), RSE target.  fib runs on the
#: spill-heavy 128-register machine so adaptive spill/fill accuracy is
#: exercised where the counts are large (~1.8k spills); gzip_graphic
#: varies the DL1 port count instead, which changes the timing the
#: estimate extrapolates without flooring its achievable RSE.
CASES = [
    ("fib", 1.0, (256, 2), 0.02),
    ("fib", 1.0, (128, 2), 0.02),
    ("gzip_graphic", 4.0, (256, 2), RSE_TARGET),
    ("gzip_graphic", 4.0, (256, 1), RSE_TARGET),
]


@pytest.mark.parametrize("bench,scale,machine,target", CASES)
def test_adaptive_converges_within_tolerance(bench, scale, machine,
                                             target):
    full, sampled, meta = _pair(bench, scale, _machine(*machine),
                                _adaptive_scfg(target))
    assert meta.converged, (
        f"{bench}{machine}: adaptive loop hit the cap without "
        f"reaching {target:.2%}; rounds: {meta.rounds}")
    assert meta.errors["ipc"] <= target
    assert meta.rse_target == target
    assert meta.rounds[-1]["n_detailed"] == meta.n_detailed

    full_ipc = full.committed / full.cycles
    sampled_ipc = sampled.committed / sampled.cycles
    err = abs(sampled_ipc - full_ipc) / full_ipc
    assert err <= TOLERANCE, (
        f"{bench}{machine}: adaptive IPC {sampled_ipc:.4f} vs full "
        f"{full_ipc:.4f} ({err:.2%} > {TOLERANCE:.0%}); "
        f"sample: {meta.n_detailed}/{meta.n_intervals} intervals")
    _assert_close(f"{bench}{machine} spills", full.spills,
                  sampled.spills)
    _assert_close(f"{bench}{machine} fills", full.fills, sampled.fills)
    # The extrapolation carries the functional pass's exact totals.
    assert sampled.committed == full.committed


def test_adaptive_cheaper_than_fixed_escalation():
    """The cost claim, on the headline configuration: adaptive reaches
    ``RSE_TARGET`` in measurably fewer detailed cycles than escalating
    fixed budgets to the same error, because round N+1 simulates only
    the delta set on restored checkpoints instead of starting over."""
    bench, scale, cfg = "gzip_graphic", 4.0, _machine(256, 2)
    abi = model_abi(MODEL)

    _, _, meta = _pair(bench, scale, cfg, _adaptive_scfg(RSE_TARGET))
    assert meta.converged and meta.errors["ipc"] <= RSE_TARGET
    assert len(meta.rounds) >= 2, (
        "converged on the starting budget; the delta-set comparison "
        "needs at least one growth round")
    assert meta.n_detailed < meta.n_intervals  # a genuine subsample

    # Fixed-count escalation: same starting budget and growth rule as
    # the adaptive loop, but each attempt is an independent fixed-count
    # run that re-simulates all its intervals from scratch.
    fixed_cycles = 0
    fixed_meta = None
    k = 2
    while True:
        _, fixed_meta = run_sampled(
            MODEL, cfg,
            benchmark_program(bench, abi=abi, scale=scale, seed=0),
            SamplingConfig(n_detailed=k, mode="bbv"))
        fixed_cycles += fixed_meta.detailed_cycles
        if fixed_meta.errors["ipc"] <= RSE_TARGET or k >= 32:
            break
        k = min(32, k + max(1, k // 2))
    assert fixed_meta.errors["ipc"] <= RSE_TARGET, (
        f"fixed escalation never reached {RSE_TARGET:.2%}; cannot "
        f"compare costs")
    reduction = fixed_cycles / meta.detailed_cycles
    print(f"\nadaptive {meta.detailed_cycles} vs fixed escalation "
          f"{fixed_cycles} detailed cycles: {reduction:.2f}x fewer "
          f"(rse {meta.errors['ipc']:.2%}, "
          f"{meta.n_detailed}/{meta.n_intervals} intervals)")

    assert reduction >= REDUCTION_FLOOR, (
        f"adaptive simulated {meta.detailed_cycles} detailed cycles "
        f"vs {fixed_cycles} for fixed escalation — only "
        f"{reduction:.2f}x fewer (floor {REDUCTION_FLOOR}x)")
