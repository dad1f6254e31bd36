"""Pinned digests of sampled results.

Every sampling method — fixed-count ``systematic``, ``bbv`` and
``bbv+mem`` selection, a non-default detailed-warmup prefix, and the
adaptive convergence loop over ``bbv`` and ``systematic`` — hashes
``stats.to_dict()`` plus ``meta.to_dict()`` from :func:`run_sampled`
on three workloads at small scale.  A refactor of the sampling driver
that changes any sampled estimate, error, round trail or cost figure
changes a digest and fails here.

The same pins hold for a sampled :class:`Point` run through the
engine: its stored ``RunResult`` carries the whole stats and
metadata records as ``stats`` and ``sampling``.
"""

import hashlib
import json

import pytest

from repro.config import MachineConfig
from repro.experiments.engine import SerialEngine
from repro.experiments.plan import Point
from repro.models import model_abi
from repro.sampling import SamplingConfig, run_sampled
from repro.workloads.generator import benchmark_program

pytest.importorskip("numpy")  # clustered selection

MODEL = "vca-rw"
SCALE = 0.5
BENCHES = ("fib", "gzip_graphic", "twolf")

FIXED = {
    "systematic": dict(interval_len=1000, n_detailed=3),
    "bbv": dict(interval_len=1000, n_detailed=3, mode="bbv"),
    "bbv+mem": dict(interval_len=1000, n_detailed=3, mode="bbv+mem",
                    mem_weight=0.7),
}
ADAPTIVE = {
    "adaptive-bbv": dict(interval_len=1000, n_detailed=2, mode="bbv",
                         rse_target=0.02, rse_metrics=("ipc",),
                         max_detailed=6),
    "adaptive-systematic": dict(interval_len=1000, n_detailed=2,
                                rse_target=0.02, rse_metrics=("ipc",),
                                max_detailed=6),
}
CASES = {(name, bench): kw
         for name, kw in {**FIXED, **ADAPTIVE}.items()
         for bench in BENCHES}
CASES["warmup-200", "twolf"] = dict(interval_len=1000, n_detailed=3,
                                    warmup_insns=200)

#: sha256[:16] of the sampled stats and metadata per (case, bench);
#: vca-rw, 256 registers, scale 0.5.
PINS = {
    ("adaptive-bbv", "fib"): "a4546d51324c1c5d",
    ("adaptive-bbv", "gzip_graphic"): "052d9237a97fec8e",
    ("adaptive-bbv", "twolf"): "6ad934e830828002",
    ("adaptive-systematic", "fib"): "feef40ba164df3cb",
    ("adaptive-systematic", "gzip_graphic"): "db3c7d1189ef419c",
    ("adaptive-systematic", "twolf"): "18f52344f82b0f98",
    ("bbv", "fib"): "c5a5ec33852ada6a",
    ("bbv", "gzip_graphic"): "1c4210993fac38ff",
    ("bbv", "twolf"): "70e9e6deb5d99fb6",
    ("bbv+mem", "fib"): "b3b310831e46dccc",
    ("bbv+mem", "gzip_graphic"): "ad52340cf8653b69",
    ("bbv+mem", "twolf"): "aa9372256e831099",
    ("systematic", "fib"): "517150af40ac7a6e",
    ("systematic", "gzip_graphic"): "2884baa84b9cc15a",
    ("systematic", "twolf"): "71278ece57ef929d",
    ("warmup-200", "twolf"): "67ff291b880888c0",
}


def _digest(bench, kw):
    program = benchmark_program(bench, model_abi(MODEL), thread=0,
                                scale=SCALE)
    cfg = MachineConfig.baseline(phys_regs=256)
    stats, meta = run_sampled(MODEL, cfg, program, SamplingConfig(**kw))
    blob = json.dumps({"stats": stats.to_dict(),
                       "meta": meta.to_dict()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case,bench", sorted(CASES))
def test_sampled_result_digest(case, bench):
    assert _digest(bench, CASES[case, bench]) == PINS[case, bench]


#: ``SamplingConfig`` field → the :class:`Point` field that sets it.
_POINT_FIELDS = {"interval_len": "sample_interval",
                 "n_detailed": "sample_count", "mode": "sample_mode",
                 "mem_weight": "sample_mem_weight",
                 "rse_target": "sample_rse",
                 "rse_metrics": "sample_rse_metrics",
                 "max_detailed": "sample_max"}


def _engine_digest(bench, kw):
    point = Point(model=MODEL, benches=(bench,), phys_regs=256,
                  scale=SCALE, sample=True,
                  **{_POINT_FIELDS[k]: v for k, v in kw.items()})
    result = SerialEngine(use_cache=False).run([point])[point].result()
    blob = json.dumps({"stats": result.stats, "meta": result.sampling},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case,bench", sorted(
    k for k in CASES if set(CASES[k]) <= set(_POINT_FIELDS)))
def test_engine_point_record_digest(case, bench):
    assert _engine_digest(bench, CASES[case, bench]) == PINS[case, bench]
