"""Pinned digests of full-detail timing results.

Each pin is sha256[:16] of ``SimStats.to_dict()``.  Any behavioural
drift in the timing model — a skipped rename retry, a reordered port
acquisition, a dropped stall counter — changes a digest and fails here
before it can silently skew a figure.

* ``GOLDEN_DIGESTS``: six configurations at 256 registers and two DL1
  ports covering the flat baseline, the conventional/ideal
  register-window models, single- and multi-thread VCA and the
  early-halt SMT path.
* ``MATRIX``: every machine model at 64/128/256 registers with one
  and two DL1 ports on ``perlbmk_535`` (fills, spills, window traps
  and port contention), plus 2- and 4-thread SMT runs at 192 and 448
  registers.  A configuration the machine refuses is pinned as
  ``"unrunnable"``.
"""

import hashlib
import json

import pytest

from repro.config import MachineConfig
from repro.experiments.runner import run_point
from repro.models.factory import build_machine, model_abi
from repro.rename.base import UnrunnableConfigError
from repro.workloads.generator import benchmark_program

#: Digests of ``SimStats.to_dict()`` recorded on
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

#: (model, phys_regs, dl1_ports) → pin; ``perlbmk_535`` at scale 0.25.
_SINGLE = {
    ("baseline", 64, 1): "unrunnable",
    ("baseline", 64, 2): "unrunnable",
    ("baseline", 128, 1): "46a70c0b48cd9ca5",
    ("baseline", 128, 2): "54b17fbae482de8d",
    ("baseline", 256, 1): "053ace367c76ef5a",
    ("baseline", 256, 2): "b4693181beecf10a",
    ("conventional-rw", 64, 1): "unrunnable",
    ("conventional-rw", 64, 2): "unrunnable",
    ("conventional-rw", 128, 1): "6ea4ce84e7407f05",
    ("conventional-rw", 128, 2): "3c37b2ce0f1761bc",
    ("conventional-rw", 256, 1): "5f72c64fb2533562",
    ("conventional-rw", 256, 2): "136cb522c2df8c44",
    ("ideal-rw", 64, 1): "d203a351e55acc20",
    ("ideal-rw", 64, 2): "02b4efe28475b0c7",
    ("ideal-rw", 128, 1): "8ab6a379a478dccd",
    ("ideal-rw", 128, 2): "1955630268b8f0cc",
    ("ideal-rw", 256, 1): "ff8ea0e205d64467",
    ("ideal-rw", 256, 2): "b60a48c9ec8f9de9",
    ("vca", 64, 1): "2436cffef10f66bf",
    ("vca", 64, 2): "152452c4d98f1332",
    ("vca", 128, 1): "cbf4c490d7d8344f",
    ("vca", 128, 2): "6cd462d07f0bacf5",
    ("vca", 256, 1): "e84a14a3e34ecb9d",
    ("vca", 256, 2): "0aec3d06542df29d",
    ("vca-rw", 64, 1): "482a31790191a2de",
    ("vca-rw", 64, 2): "47491a2bc04e3e83",
    ("vca-rw", 128, 1): "f69788b307367160",
    ("vca-rw", 128, 2): "e82ad3a3a3a0b2e7",
    ("vca-rw", 256, 1): "9135de39a762fa75",
    ("vca-rw", 256, 2): "8ebc42768bad6eaa",
}

#: Thread count → workload of the SMT runs.
_SMT_WORKLOADS = {2: ("gzip_graphic", "twolf"),
                  4: ("gzip_graphic", "crafty", "twolf", "parser")}
#: (model, threads, phys_regs) → pin; two DL1 ports, scale 0.1.
_SMT = {
    ("baseline", 2, 192): "7265154ebd8b0802",
    ("baseline", 2, 448): "7265154ebd8b0802",
    ("baseline", 4, 192): "unrunnable",
    ("baseline", 4, 448): "1e8039c80b4f9d87",
    ("vca", 2, 192): "72bd64149c69a645",
    ("vca", 2, 448): "72bd64149c69a645",
    ("vca", 4, 192): "0cc93f210e2ef305",
    ("vca", 4, 448): "dea58bd12af7e53b",
    ("vca-rw", 4, 192): "c49003628dc21bad",
    ("vca-rw", 4, 448): "28ceaaa10a3e15de",
}

#: (model, benches, phys_regs, dl1_ports, scale) → sha256[:16] or
#: ``"unrunnable"``, recorded on the tree before this file existed.
MATRIX = {
    **{(model, ("perlbmk_535",), regs, ports, 0.25): pin
       for (model, regs, ports), pin in _SINGLE.items()},
    **{(model, _SMT_WORKLOADS[n], regs, 2, 0.1): pin
       for (model, n, regs), pin in _SMT.items()},
}


def stats_digest(stats_dict):
    """sha256[:16] of one ``SimStats.to_dict()``."""
    return hashlib.sha256(
        json.dumps(stats_dict, sort_keys=True).encode()).hexdigest()[:16]


def _machine(model, benches, scale):
    cfg = MachineConfig.baseline().with_(
        phys_regs=256, dl1_ports=2, n_threads=len(benches))
    abi = model_abi(model)
    progs = [benchmark_program(b, abi=abi, scale=scale, seed=0)
             for b in benches]
    return build_machine(model, cfg, progs)


def _digest(model, benches, stop):
    stats = _machine(model, benches, 1.0).run(stop_at_first_halt=stop)
    return stats_digest(stats.to_dict()), stats.cycles


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


@pytest.mark.parametrize("model,benches,stop",
                         sorted(GOLDEN_DIGESTS, key=str))
def test_run_point_record_matches_golden(model, benches, stop):
    """``RunResult.stats`` is the run's whole ``SimStats`` record."""
    want_hash, want_cycles = GOLDEN_DIGESTS[(model, benches, stop)]
    result = run_point(model, benches, 256, seed=0, use_cache=False)
    assert result.cycles == want_cycles
    assert stats_digest(result.stats) == want_hash


def _matrix_digest(model, benches, phys_regs, dl1_ports, scale):
    abi = model_abi(model)
    progs = [benchmark_program(b, abi, thread=i, scale=scale)
             for i, b in enumerate(benches)]
    cfg = MachineConfig.baseline(phys_regs=phys_regs,
                                 dl1_ports=dl1_ports)
    try:
        stats = build_machine(model, cfg, progs).run(
            stop_at_first_halt=len(benches) > 1)
    except UnrunnableConfigError:
        return "unrunnable"
    return stats_digest(stats.to_dict())


@pytest.mark.parametrize("case", sorted(MATRIX, key=str),
                         ids=lambda c: f"{c[0]}-{'+'.join(c[1])}"
                                       f"@{c[2]}r{c[3]}p")
def test_matrix_digest(case):
    assert _matrix_digest(*case) == MATRIX[case]
