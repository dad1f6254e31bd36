"""Per-layer probes: timed calls into each layer's public functions.

Run in their own fresh interpreter (``bench.units`` with a ``probes``
request) once per traced run.  Each probe is independent of the
workload being traced, so every traced run reports the same set.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.config import MachineConfig
from repro.experiments.engine import ParallelEngine
from repro.experiments.runner import run_point
from repro.experiments.smt import select_workloads
from repro.functional import FunctionalSim
from repro.hooks import set_current_spans
from repro.models import build_machine, model_abi
from repro.obs.profile import STAGES, profile_machine, stage_label
from repro.obs.spans import SpanTracer
from repro.sampling import (
    SamplingConfig, profile_intervals, profile_with_checkpoints,
)
from repro.workloads import benchmark_program, build_benchmark

from bench.spec import POINT_TIMEOUT, WORKERS, sample_params

#: Pipeline configurations probed: name -> (model, hardware threads).
PIPELINES = {
    "baseline": ("baseline", 1), "ideal-rw": ("ideal-rw", 1),
    "conventional-rw": ("conventional-rw", 1), "vca-rw": ("vca-rw", 1),
    "vca-2t": ("vca", 2), "vca-4t": ("vca", 4), "vca-rw-4t": ("vca-rw", 4),
}
#: Models whose stage shares are reported.  Only conventional-rw ever
#: calls the trap sequencer, so only its share of that stage exists.
PROFILED = ("baseline", "vca-rw", "conventional-rw")


def _machine(model: str, benches: Tuple[str, ...], scale: float,
             phys_regs: int):
    abi = model_abi(model)
    programs = [benchmark_program(b, abi, thread=i, scale=scale)
                for i, b in enumerate(benches)]
    return build_machine(model, MachineConfig.baseline(phys_regs=phys_regs),
                         programs)


def _seconds(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def pipeline_probe(spec: dict) -> Dict[str, float]:
    """Detailed-model speed per configuration (median of ``repeats``
    unprofiled runs) and, for two models, each stage's share of the
    cycle loop's wall time."""
    out: Dict[str, float] = {}
    for name, (model, threads) in PIPELINES.items():
        benches = {1: (spec["bench"],), 2: tuple(spec["smt2"]),
                   4: tuple(spec["smt4"])}[threads]
        scale = spec["scale"] if threads == 1 else spec["smt_scale"]
        rates = []
        for _ in range(spec["repeats"]):
            machine = _machine(model, benches, scale, spec["phys_regs"])
            t0 = time.perf_counter()
            # Multithreaded runs stop at the first halt, as run_point does.
            stats = machine.run(stop_at_first_halt=threads > 1)
            dt = time.perf_counter() - t0
            rates.append((stats.cycles / dt,
                          sum(t.committed for t in stats.threads) / dt))
        out[f"pipeline.cycles_per_s.{name}"] = statistics.median(
            r[0] for r in rates)
        out[f"pipeline.insts_per_s.{name}"] = statistics.median(
            r[1] for r in rates)
    for model in PROFILED:
        profiles = []
        for _ in range(spec["repeats"]):
            machine = _machine(model, (spec["bench"],), spec["scale"],
                               spec["phys_regs"])
            profiles.append(profile_machine(machine)[1])
        # The run of median length, so its shares sum to exactly 1.
        profiles.sort(key=lambda p: p.total_seconds)
        prof = profiles[len(profiles) // 2]
        for stage in STAGES:
            label = stage_label(stage)
            if prof.calls[label]:
                out[f"pipeline.stage_share.{label}.{model}"] = (
                    prof.seconds[label] / prof.total_seconds)
        out[f"pipeline.outside_stage_share.{model}"] = (
            1.0 - prof.stage_seconds_total / prof.total_seconds)
    return out


def functional_probe(spec: dict) -> Dict[str, float]:
    """Functional instructions per second for each execution path,
    repeating runs until ``min_seconds`` have been measured."""
    abi = model_abi("vca-rw")
    warm = benchmark_program(spec["bench"], abi, scale=spec["scale"])
    FunctionalSim(warm, mode="blocks").run()

    def fresh():
        return build_benchmark(spec["bench"],
                               scale=spec["scale"]).assemble(abi)

    paths = {"interp": (lambda: warm, "interp"),
             "blocks": (lambda: warm, "blocks"),
             # A freshly built Program, so block decoding is timed too.
             "blocks_cold": (fresh, "blocks")}
    out = {}
    for name, (program, mode) in paths.items():
        insts = 0
        seconds = 0.0
        while seconds < spec["min_seconds"]:
            sim = FunctionalSim(program(), mode=mode)
            t0 = time.perf_counter()
            insts += sim.run().instructions
            seconds += time.perf_counter() - t0
        out[f"functional.insts_per_s.{name}"] = insts / seconds
    return out


def sampling_probe(spec: dict, errors: List[str]) -> Dict[str, float]:
    """Each sampling method once, in process, with its phase spans
    recorded; plus a timed call of each method's profiling pass on a
    freshly built program."""
    model, bench = spec["model"], spec["bench"]
    abi = model_abi(model)
    out: Dict[str, float] = {}
    for method in ("fixed", "adaptive"):
        params = sample_params(spec[method])
        program = build_benchmark(bench, scale=spec["scale"]).assemble(abi)
        scfg = SamplingConfig(interval_len=params["sample_interval"],
                              n_detailed=params["sample_count"],
                              mode=params["sample_mode"])
        if method == "fixed":
            out["sampling.profile_s.fixed"] = _seconds(
                lambda: profile_intervals(program, scfg.interval_len))
        else:
            out["sampling.profile_s.adaptive"] = _seconds(
                lambda: profile_with_checkpoints(program, scfg))
        tracer = SpanTracer()
        previous = set_current_spans(tracer)
        try:
            t0 = time.perf_counter()
            result = run_point(model, (bench,), spec["phys_regs"],
                               scale=spec["scale"], use_cache=False,
                               sample=True, **params)
            point_s = time.perf_counter() - t0
        finally:
            set_current_spans(previous)
        phases = {"fast_forward": 0.0, "warmup": 0.0, "detailed": 0.0}
        for span in tracer.export():
            if span["name"] in phases:
                phases[span["name"]] += span["t1"] - span["t0"]
        for phase, total in phases.items():
            if total > point_s:
                errors.append(f"sampling {method}: {phase} spans total "
                              f"{total:.3f}s > point {point_s:.3f}s")
        if method == "fixed":
            out["sampling.fast_forward_s.fixed"] = phases["fast_forward"]
            out["sampling.detailed_cycles_per_s"] = (
                result.sample_detailed_cycles
                / (phases["warmup"] + phases["detailed"]))
        else:
            out["sampling.rse_rounds.adaptive"] = result.sample_rse_rounds
        out[f"sampling.warmup_s.{method}"] = phases["warmup"]
        out[f"sampling.detailed_s.{method}"] = phases["detailed"]
        out[f"sampling.detailed_share.{method}"] = (
            phases["detailed"] / point_s)
        out[f"sampling.detailed_cycles.{method}"] = (
            result.sample_detailed_cycles)
    return out


def build_probe(spec: dict) -> Dict[str, float]:
    """Program assembly, machine construction, and SMT workload
    selection on a warm store."""
    abi = model_abi(spec["model"])
    program = benchmark_program(spec["bench"], abi, scale=spec["scale"])
    cfg = MachineConfig.baseline(phys_regs=128)
    builds = [_seconds(lambda: build_benchmark(
                  spec["bench"], scale=spec["scale"]).assemble(abi))
              for _ in range(spec["repeats"])]
    machines = [_seconds(lambda: build_machine(spec["model"], cfg,
                                               [program]))
                for _ in range(spec["repeats"])]
    engine = ParallelEngine(workers=WORKERS, timeout=POINT_TIMEOUT)
    select_workloads(4, spec["select_k"], spec["select_scale"], engine)
    return {
        "workloads.program_build_ms": statistics.median(builds) * 1000.0,
        "models.build_machine_ms": statistics.median(machines) * 1000.0,
        "workloads.select_workloads_s": _seconds(lambda: select_workloads(
            4, spec["select_k"], spec["select_scale"], engine)),
    }


def run_probes(spec: dict) -> Dict[str, object]:
    """Every probe; a probe that raises counts as one failed operation."""
    errors: List[str] = []
    layers: Dict[str, float] = {}
    probes = [("pipeline", pipeline_probe), ("functional", functional_probe),
              ("sampling", lambda s: sampling_probe(s, errors)),
              ("build", build_probe)]
    for name, probe in probes:
        try:
            layers.update(probe(spec[name]))
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            errors.append(f"{name} probe: {type(exc).__name__}: {exc}")
    return {"attempted": len(probes), "failed": len(errors),
            "errors": errors, "layers": layers}
