"""Pinned digests of the functional tier's products.

``tests/test_functional_blocks.py`` compares the block cache with the
reference interpreter; these pins hold both sides to fixed values, so
a refactor that changes both the same way still fails here.  Each pin
is sha256[:16] of a canonical JSON dump of one product:

* ``pwc`` / ``pwc-mem`` — :func:`profile_with_checkpoints` without and
  with a :class:`ReuseCollector`: the interval counts, the BBVs in
  insertion order, the totals, the memory sketches and every
  checkpoint's ``to_dict()``;
* ``intervals`` — :func:`profile_intervals`;
* ``run`` — :meth:`FunctionalSim.run`'s stats and the final
  ``save_state()``.

The last two are run in both functional modes against one pin, since
the modes are bit-identical by contract.  Workloads: fib, gzip_graphic
and twolf, flat and windowed, at scale 0.2.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.functional import FUNCTIONAL_MODES, FunctionalSim
from repro.sampling import (
    ReuseCollector, SamplingConfig, profile_intervals,
    profile_with_checkpoints,
)
from repro.workloads.generator import benchmark_program

SCALE = 0.2
BENCHES = ("fib", "gzip_graphic", "twolf")
ABIS = ("flat", "windowed")
#: Interval and warmup lengths that put checkpoint stops mid-interval.
SCFG = SamplingConfig(interval_len=600, warmup_insns=250)

#: sha256[:16] per (product, bench, abi).
PINS = {
    ("intervals", "fib", "flat"): "4aee36ac0b4812be",
    ("intervals", "fib", "windowed"): "5ed37095b031c6e0",
    ("intervals", "gzip_graphic", "flat"): "d6700685bec67106",
    ("intervals", "gzip_graphic", "windowed"): "04d667a2ca4c562a",
    ("intervals", "twolf", "flat"): "3a88c816cdb8a235",
    ("intervals", "twolf", "windowed"): "3951d76c2a12ad0a",
    ("pwc", "fib", "flat"): "68db2cc57c808070",
    ("pwc", "fib", "windowed"): "3b6fc42fcc9b5509",
    ("pwc", "gzip_graphic", "flat"): "1cfd2a8f556b80b7",
    ("pwc", "gzip_graphic", "windowed"): "3387af0afd434c94",
    ("pwc", "twolf", "flat"): "93b837ede5d89320",
    ("pwc", "twolf", "windowed"): "f8ccbf74eb50ed2a",
    ("pwc-mem", "fib", "flat"): "c12acf9479c1d426",
    ("pwc-mem", "fib", "windowed"): "98f316d8f32db35e",
    ("pwc-mem", "gzip_graphic", "flat"): "ae032375d3105de3",
    ("pwc-mem", "gzip_graphic", "windowed"): "1241b55d28fb0658",
    ("pwc-mem", "twolf", "flat"): "1890cab979fa5565",
    ("pwc-mem", "twolf", "windowed"): "50321630035d2906",
    ("run", "fib", "flat"): "b1234c5f2cfe985a",
    ("run", "fib", "windowed"): "8034b9c25eb530ef",
    ("run", "gzip_graphic", "flat"): "c6f4536a6e5029a7",
    ("run", "gzip_graphic", "windowed"): "66412186a7a7deb8",
    ("run", "twolf", "flat"): "599d7e2b2334efa9",
    ("run", "twolf", "windowed"): "9930f084cef414a6",
}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _program(bench, abi):
    return benchmark_program(bench, abi, thread=0, scale=SCALE)


def _profile_dict(profile):
    return {
        "counts": profile.counts,
        "bbvs": [list(bbv.items()) for bbv in profile.bbvs],
        "total": dataclasses.asdict(profile.total),
        "mem": None if profile.mem is None else [
            {"reuse": list(s.reuse), "lines": sorted(s.lines),
             "accesses": s.accesses} for s in profile.mem],
    }


def _pwc(bench, abi, collector):
    profile, ckpts = profile_with_checkpoints(_program(bench, abi), SCFG,
                                              collector)
    return _digest({"profile": _profile_dict(profile),
                    "checkpoints": [c.to_dict() for c in ckpts]})


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("abi", ABIS)
def test_profile_with_checkpoints_digest(bench, abi):
    assert _pwc(bench, abi, None) == PINS["pwc", bench, abi]
    assert (_pwc(bench, abi, ReuseCollector())
            == PINS["pwc-mem", bench, abi])


@pytest.mark.parametrize("mode", FUNCTIONAL_MODES)
@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("abi", ABIS)
def test_profile_intervals_digest(mode, bench, abi):
    profile = profile_intervals(_program(bench, abi), SCFG.interval_len,
                                mode=mode)
    assert (_digest(_profile_dict(profile))
            == PINS["intervals", bench, abi])


@pytest.mark.parametrize("mode", FUNCTIONAL_MODES)
@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("abi", ABIS)
def test_run_digest(mode, bench, abi):
    sim = FunctionalSim(_program(bench, abi), mode=mode)
    stats = sim.run()
    assert (_digest({"stats": dataclasses.asdict(stats),
                     "state": sim.save_state()})
            == PINS["run", bench, abi])
