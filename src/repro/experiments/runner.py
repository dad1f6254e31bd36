"""Experiment execution with content-addressed result caching.

Every figure in the paper is a sweep over (machine model, physical
register count, cache ports, workload); sweeps share many points, so
results are cached keyed by the run parameters *and a hash of the
package source* — any code change invalidates stale results
automatically.  Storage itself lives in the repository layer
(:mod:`repro.experiments.store`): one sqlite3 store, at
``REPRO_STORE`` or ``results.sqlite`` under :func:`cache_dir`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro.asm.program import Program
from repro.config import MachineConfig
from repro.hooks import current_spans
from repro.functional import measure_path_length
from repro.models import build_machine, model_abi
from repro.rename.base import UnrunnableConfigError
from repro.workloads import build_benchmark
from repro.workloads.generator import benchmark_program

from .store import active_store

_DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".repro_cache"


def cache_dir() -> Path:
    """Result-cache directory (it holds the default result store).

    ``REPRO_CACHE_DIR`` is re-read on every call (rather than once at
    import) so engine workers — which may be spawned with a different
    environment — and tests that re-point the cache always agree with
    their environment.
    """
    return Path(os.environ.get("REPRO_CACHE_DIR", _DEFAULT_CACHE_DIR))


#: Package-relative source paths excluded from the cache-invalidation
#: hash: presentation and orchestration layers whose code cannot change
#: what a simulation computes.  Editing a CLI help string or the sweep
#: engine must not invalidate every cached simulation result.
HASH_EXCLUDE: Tuple[str, ...] = (
    "obs",
    "cli",
    "lint",
    "service",
    "experiments/report.py",
    "experiments/plan.py",
    "experiments/engine.py",
    "experiments/benchdiff.py",
    "experiments/store.py",
)

_source_hash: Optional[str] = None


def hashed_source_files() -> List[Path]:
    """The source files whose content keys the result cache."""
    root = Path(repro.__file__).parent
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if any(rel == ex or rel.startswith(ex + "/") for ex in HASH_EXCLUDE):
            continue
        out.append(path)
    return out


def source_hash() -> str:
    """Hash of the semantics-bearing package sources
    (cache-invalidation key)."""
    global _source_hash
    if _source_hash is None:
        h = hashlib.sha1()
        for path in hashed_source_files():
            h.update(path.read_bytes())
        _source_hash = h.hexdigest()[:16]
    return _source_hash


@dataclass(frozen=True)
class RunResult:
    """Serializable record of one timing-simulation run.

    ``stats`` is the run's whole :meth:`SimStats.to_dict` record and
    ``sampling`` the whole :meth:`SamplingMeta.to_dict` record (empty
    for full-detail runs); the scalar fields are the headline numbers
    sweeps, reports and digests read without decoding them.
    """

    model: str
    benches: Tuple[str, ...]
    phys_regs: int
    dl1_ports: int
    scale: float
    cycles: int = 0
    committed: Tuple[int, ...] = ()
    thread_ipcs: Tuple[float, ...] = ()
    dl1_accesses: int = 0
    spills: int = 0
    fills: int = 0
    stats_vector: Tuple[float, ...] = ()
    unrunnable: bool = False
    sampled: bool = False
    sample_intervals: int = 0
    sample_detailed: int = 0
    sample_detailed_cycles: int = 0
    # Adaptive-convergence counters (zero for fixed-count runs).
    sample_rse_rounds: int = 0
    sample_intervals_added: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)
    sampling: Dict[str, Any] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return sum(self.committed) / self.cycles if self.cycles else 0.0

    @property
    def dl1_per_instr(self) -> float:
        c = sum(self.committed)
        return self.dl1_accesses / c if c else 0.0


def _cache_key(**params) -> str:
    blob = json.dumps({"src": source_hash(), **params}, sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()


def _cache_load(key: str) -> Optional[dict]:
    """Load one entry from the active result store; anything
    unreadable — missing, truncated/corrupt, a non-object payload — is
    a miss (the caller recomputes and rewrites it)."""
    return active_store().load(key)


def _cache_store(key: str, payload: dict) -> None:
    """Atomically publish one entry through the active result store.

    Concurrent writers of the same key (parallel sweep workers, or two
    sweep invocations sharing a store) are safe: the write is one
    atomic sqlite upsert, so readers only ever observe a complete
    entry; last writer wins, and both writers produce the same payload
    anyway.
    """
    active_store().store(key, payload, source_hash=source_hash())


def result_from_dict(d: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from its JSON form."""
    d = dict(d)
    for k in ("benches", "committed", "thread_ipcs", "stats_vector"):
        if k in d:
            d[k] = tuple(d[k])
    return RunResult(**d)


def _cache_load_result(key: str) -> Optional[RunResult]:
    """Cached :class:`RunResult` for ``key``, or ``None`` on any kind
    of miss (including a schema-mismatched entry from stale code)."""
    cached = _cache_load(key)
    if cached is None:
        return None
    try:
        return result_from_dict(cached)
    except (TypeError, ValueError):
        return None


def run_key(model: str, benches: Sequence[str], phys_regs: int,
            dl1_ports: int = 2, scale: float = 1.0, sample: bool = False,
            sample_interval: int = 2000, sample_count: int = 8,
            sample_mode: str = "systematic",
            sample_rse: Optional[float] = None,
            sample_rse_metrics: Sequence[str] = (),
            sample_max: int = 64,
            sample_mem_weight: float = 0.5,
            seed: Optional[int] = None) -> str:
    """The cache key of one :func:`run_point` configuration.

    A parameter joins the key only when it can change the result, so
    equal results share one key: ``seed`` only when set, the
    ``sample_*`` parameters only with ``sample``, ``sample_mem_weight``
    only under ``bbv+mem`` (the only mode that reads it), and the
    adaptive ``sample_rse``, ``sample_rse_metrics`` and ``sample_max``
    only when ``sample_rse`` is set.
    """
    params = dict(model=model, benches=tuple(benches),
                  phys_regs=phys_regs, dl1_ports=dl1_ports, scale=scale)
    if seed is not None:
        params.update(seed=seed)
    if sample:
        params.update(sample=True, sample_interval=sample_interval,
                      sample_count=sample_count, sample_mode=sample_mode)
        if sample_mode == "bbv+mem":
            params.update(sample_mem_weight=sample_mem_weight)
        if sample_rse is not None:
            params.update(sample_rse=sample_rse,
                          sample_rse_metrics=tuple(sample_rse_metrics),
                          sample_max=sample_max)
    return _cache_key(**params)


def sampling_config(sample_interval: int = 2000, sample_count: int = 8,
                    sample_mode: str = "systematic",
                    sample_rse: Optional[float] = None,
                    sample_rse_metrics: Sequence[str] = (),
                    sample_max: int = 64,
                    sample_mem_weight: float = 0.5):
    """The :class:`~repro.sampling.SamplingConfig` of a point's
    ``sample_*`` parameters; raises
    :class:`~repro.sampling.SamplingError` on an invalid value."""
    from repro.sampling import DEFAULT_RSE_METRICS, SamplingConfig
    return SamplingConfig(
        interval_len=sample_interval, n_detailed=sample_count,
        mode=sample_mode, mem_weight=sample_mem_weight,
        rse_target=sample_rse,
        rse_metrics=tuple(sample_rse_metrics) or DEFAULT_RSE_METRICS,
        max_detailed=sample_max)


def point_inputs(model: str, benches: Sequence[str], phys_regs: int,
                 dl1_ports: int = 2, scale: float = 1.0,
                 seed: Optional[int] = None
                 ) -> Tuple[List[Program], MachineConfig]:
    """The programs and the machine configuration of one point: one
    ``model``-ABI program per benchmark (hardware thread), and the
    Table 1 machine at ``phys_regs`` registers and ``dl1_ports`` DL1
    ports.  :func:`run_point` simulates exactly these, and ``repro
    profile`` times them."""
    abi = model_abi(model)
    programs = [benchmark_program(name, abi, thread=i, scale=scale,
                                  seed=seed)
                for i, name in enumerate(benches)]
    cfg = MachineConfig.baseline(phys_regs=phys_regs,
                                 dl1_ports=dl1_ports)
    return programs, cfg


def run_point(model: str, benches: Sequence[str], phys_regs: int,
              dl1_ports: int = 2, scale: float = 1.0,
              use_cache: bool = True, sample: bool = False,
              sample_interval: int = 2000, sample_count: int = 8,
              sample_mode: str = "systematic",
              sample_rse: Optional[float] = None,
              sample_rse_metrics: Sequence[str] = (),
              sample_max: int = 64,
              sample_mem_weight: float = 0.5,
              seed: Optional[int] = None,
              tracer=None) -> RunResult:
    """Simulate one configuration (cached under :func:`run_key`).

    ``benches`` holds one benchmark name per hardware thread, and
    ``seed`` perturbs their generation.  Configurations the machine
    cannot operate at (e.g. a conventional machine without enough
    registers) return a result flagged ``unrunnable`` rather than
    raising, so sweeps can chart the paper's "No Baseline" regions.

    With ``sample`` the run goes through checkpointed sampled
    simulation (``repro.sampling``, single-thread only) configured by
    :func:`sampling_config`; otherwise the ``sample_*`` parameters are
    ignored.  ``tracer`` (see :mod:`repro.obs`) traces the live
    machine; pass it with ``use_cache=False``, so the run simulates and
    its traced record is not stored.
    """
    benches = tuple(benches)
    if sample and len(benches) != 1:
        raise ValueError(f"sampled runs are single-threaded; got "
                         f"benches={benches}")
    key = run_key(model, benches, phys_regs, dl1_ports, scale,
                  sample=sample, sample_interval=sample_interval,
                  sample_count=sample_count, sample_mode=sample_mode,
                  sample_rse=sample_rse,
                  sample_rse_metrics=sample_rse_metrics,
                  sample_max=sample_max,
                  sample_mem_weight=sample_mem_weight, seed=seed)
    if use_cache:
        cached = _cache_load_result(key)
        if cached is not None:
            return cached

    programs, cfg = point_inputs(model, benches, phys_regs, dl1_ports,
                                 scale, seed)
    smeta = None
    try:
        if sample:
            from repro.sampling import run_sampled
            scfg = sampling_config(sample_interval, sample_count,
                                   sample_mode, sample_rse,
                                   sample_rse_metrics, sample_max,
                                   sample_mem_weight)
            stats, smeta = run_sampled(model, cfg.with_(n_threads=1),
                                       programs[0], scfg)
        else:
            machine = build_machine(model, cfg, programs, tracer=tracer)
            # The span tracer holds the clocks; this module stays
            # deterministic (D002) and only names the phase.
            sp = current_spans()
            with sp.span("simulate", model=model):
                stats = machine.run(stop_at_first_halt=len(benches) > 1)
    except UnrunnableConfigError:
        result = RunResult(model=model, benches=benches,
                           phys_regs=phys_regs, dl1_ports=dl1_ports,
                           scale=scale, unrunnable=True,
                           sampled=sample)
        if use_cache:
            _cache_store(key, asdict(result))
        return result

    from repro.workloads.clustering import benchmark_vector
    vector = tuple(float(v) for v in benchmark_vector(stats)) \
        if len(benches) == 1 else ()
    sample_fields = {}
    if smeta is not None:
        sample_fields = dict(
            sampled=True,
            sample_intervals=smeta.n_intervals,
            sample_detailed=smeta.n_detailed,
            sample_detailed_cycles=smeta.detailed_cycles,
            sample_rse_rounds=(len(smeta.rounds)
                               if smeta.rse_target is not None else 0),
            sample_intervals_added=smeta.intervals_added,
            sampling=smeta.to_dict())
    result = RunResult(
        model=model, benches=benches, phys_regs=phys_regs,
        dl1_ports=dl1_ports, scale=scale, cycles=stats.cycles,
        committed=tuple(t.committed for t in stats.threads),
        thread_ipcs=tuple(stats.thread_ipc(i)
                          for i in range(len(benches))),
        dl1_accesses=stats.dl1_accesses, spills=stats.spills,
        fills=stats.fills, stats_vector=vector,
        stats=stats.to_dict(), **sample_fields)
    if use_cache:
        _cache_store(key, asdict(result))
    return result


def path_ratio(bench: str, use_cache: bool = True) -> float:
    """Windowed/flat dynamic path-length ratio of one benchmark
    (functional simulation; cached)."""
    key = _cache_key(kind="path_ratio", bench=bench)
    if use_cache:
        cached = _cache_load(key)
        if cached is not None and isinstance(cached.get("ratio"), float):
            return cached["ratio"]
    ratio = measure_path_length(lambda: build_benchmark(bench)).ratio
    if use_cache:
        _cache_store(key, {"ratio": ratio})
    return ratio


def path_ratios(result: RunResult) -> List[float]:
    """Per-thread path-length ratios of ``result``'s binaries:
    :func:`path_ratio` of each benchmark for a windowed-ABI model, 1.0
    for a flat one (as :func:`~repro.models.model_abi` reports it)."""
    if model_abi(result.model) == "flat":
        return [1.0] * len(result.benches)
    return [path_ratio(b) for b in result.benches]


def default_scale() -> float:
    """Workload scale factor; REPRO_SCALE trades fidelity for speed."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))
