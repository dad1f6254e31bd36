"""Pinned digests of sampled results.

Every sampling method — fixed-count ``systematic``, ``bbv`` and
``bbv+mem`` selection, a non-default detailed-warmup prefix, and the
adaptive convergence loop over ``bbv`` and ``systematic`` — hashes
``stats.to_dict()`` plus ``meta.to_dict()`` from :func:`run_sampled`
on three workloads at small scale.  A refactor of the sampling driver
that changes any sampled estimate, error, round trail or cost figure
changes a digest and fails here.

A second set pins fixed ``systematic`` and adaptive ``bbv`` on twolf
for every other model, and for vca-rw at 64 and 128 registers, so each
rename engine's ``load_arch_state`` and a VCA table under register
pressure are seeded under a pin too.

The same pins hold for a sampled :class:`Point` run through the
engine: its stored ``RunResult`` carries the whole stats and
metadata records as ``stats`` and ``sampling``.
"""

import functools
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
    ("adaptive-bbv", "fib"): "d4c154dd0d7b52a2",
    ("adaptive-bbv", "gzip_graphic"): "60e29a5c53db9d89",
    ("adaptive-bbv", "twolf"): "2ef570f93b775a44",
    ("adaptive-systematic", "fib"): "441504caebc5a906",
    ("adaptive-systematic", "gzip_graphic"): "891af3e55fec7b3b",
    ("adaptive-systematic", "twolf"): "5c1c80cdbd60ba35",
    ("bbv", "fib"): "d069064bcc96f940",
    ("bbv", "gzip_graphic"): "d57afd4cb01bbc5c",
    ("bbv", "twolf"): "a4f2cac8c6d80f93",
    ("bbv+mem", "fib"): "53861ccceb78b9ef",
    ("bbv+mem", "gzip_graphic"): "dcd5bd5f4ea28ab8",
    ("bbv+mem", "twolf"): "04b2a6c5f9038ac1",
    ("systematic", "fib"): "cbaaec6c7c9d10b5",
    ("systematic", "gzip_graphic"): "6c004bfa182276ac",
    ("systematic", "twolf"): "abfa8ef8052b2fed",
    ("warmup-200", "twolf"): "10ec9282b974ea9a",
}


#: sha256[:16] per (model, registers, case) on twolf at scale 0.5.
MODEL_PINS = {
    ("baseline", 256, "adaptive-bbv"): "0ed1b0260d29bcdc",
    ("baseline", 256, "systematic"): "b8a842014d55f0f3",
    ("conventional-rw", 256, "adaptive-bbv"): "42450d86ee8fd26b",
    ("conventional-rw", 256, "systematic"): "b43d2b1f4732f86c",
    ("ideal-rw", 256, "adaptive-bbv"): "400af0c94be8250c",
    ("ideal-rw", 256, "systematic"): "ffe3f94329218c16",
    ("vca", 256, "adaptive-bbv"): "ba48ca9f04ce32a3",
    ("vca", 256, "systematic"): "5faf69e8a8892d5e",
    ("vca-rw", 64, "adaptive-bbv"): "3d50030584b7cfe6",
    ("vca-rw", 64, "systematic"): "fb35f01ddf157410",
    ("vca-rw", 128, "adaptive-bbv"): "747973c068dc0030",
    ("vca-rw", 128, "systematic"): "d01df62c90e203de",
}


@functools.lru_cache(maxsize=None)
def _sampled(case, bench, model=MODEL, regs=256):
    """``(stats, meta)`` of one pinned case as dicts, run once per
    session."""
    program = benchmark_program(bench, model_abi(model), thread=0,
                                scale=SCALE)
    cfg = MachineConfig.baseline(phys_regs=regs)
    stats, meta = run_sampled(model, cfg, program,
                              SamplingConfig(**CASES[case, bench]))
    return stats.to_dict(), meta.to_dict()


def _digest(case, bench, model=MODEL, regs=256):
    stats, meta = _sampled(case, bench, model, regs)
    blob = json.dumps({"stats": stats, "meta": meta}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case,bench", sorted(CASES))
def test_sampled_result_digest(case, bench):
    assert _digest(case, bench) == PINS[case, bench]


@pytest.mark.parametrize("model,regs,case", sorted(MODEL_PINS))
def test_model_sampled_digest(model, regs, case):
    assert _digest(case, "twolf", model, regs) \
        == MODEL_PINS[model, regs, case]


def test_adaptive_rounds_each_add_an_interval():
    """In every pinned adaptive case each recorded round simulates at
    least one new interval, and no round follows one that reached the
    ``max_detailed`` cap: a budget whose selection is all simulated
    already records nothing."""
    cases = [(case, bench, MODEL, 256) for case, bench in PINS
             if case in ADAPTIVE]
    cases += [(case, "twolf", model, regs)
              for model, regs, case in MODEL_PINS if case in ADAPTIVE]
    for case, bench, model, regs in sorted(cases):
        _stats, meta = _sampled(case, bench, model, regs)
        cap = min(CASES[case, bench]["max_detailed"],
                  meta["n_intervals"])
        rounds = [(r["n_detailed"], r["added"])
                  for r in meta["rse"]["rounds"]]
        where = (case, bench, model, regs, rounds)
        assert rounds and all(added >= 1 for _, added in rounds), where
        assert all(n < cap for n, _ in rounds[:-1]), where


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
