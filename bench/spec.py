"""Workload and probe parameters, and the benchmark's fixed constants.

Sizes were chosen on a 2-core host so that one unit of each workload
(a fresh interpreter doing the workload once from an empty store)
takes 4-7 s, and a ``--seconds 25`` run holds four to six units whose
median discards one caught by a short slowdown of the host.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Repository root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Every engine and every service runs this many workers.  A constant,
#: not the host's CPU count, so numbers stay comparable across hosts.
WORKERS = 2
#: Per-point timeout (seconds) of every engine and service.
POINT_TIMEOUT = 120
#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 0
#: A run does at least this many units, then more while it is expected
#: to end nearer to ``--seconds`` with another one than without.
MIN_UNITS = 2

RW_MODELS = ("baseline", "ideal-rw", "conventional-rw", "vca-rw")

#: Table 2's fifteen benchmarks, spelled out rather than read from
#: ``repro.workloads.RW_BENCHMARKS`` so that a benchmark added to the
#: suite changes no pinned workload.
TABLE2_BENCHES = (
    "bzip2_graphic", "crafty", "eon_rushmeier", "gap", "gcc_expr",
    "gzip_graphic", "parser", "perlbmk_535", "twolf", "vortex_2",
    "vpr_route", "ammp", "equake", "mesa", "wupwise")

WORKLOADS = {
    "figures-rw": {
        "kind": "figures-rw",
        "table2": TABLE2_BENCHES,
        "benches": ("gzip_graphic", "vortex_2"),
        "sizes": (64, 128, 192, 256),
        "scale": 0.25,
    },
    "figures-smt": {
        "kind": "figures-smt",
        "smt_k": (1, 1, 1),
        # Every other SMT size, keeping the 192 and 448 that section 4.3
        # compares.
        "sizes": (64, 192, 320, 448),
        "scale": 0.05,
    },
    "sampled-sweep": {
        "kind": "sampled-sweep",
        "models": ("baseline", "vca-rw"),
        "sizes": (256,),
        "benches": ("gzip_graphic", "twolf", "perlbmk_535", "vortex_2"),
        "scale": 8.0,
        "fixed": {"sample_mode": "systematic", "sample_interval": 2000,
                  "sample_count": 8},
        "adaptive": {"sample_mode": "bbv", "sample_interval": 2000,
                     "sample_count": 4, "sample_rse": 0.02,
                     "sample_rse_metrics": ("ipc",), "sample_max": 12},
    },
    "service-roundtrip": {
        "kind": "service",
        "benches": ("crafty", "gzip_graphic", "equake", "applu"),
        "models": RW_MODELS,
        "sizes": (128, 256),
        "scale": 0.5,
        "resubmit": 1,
        "poll": 0.05,
    },
}

#: In-process layer probes, run once per traced run.
PROBES = {
    "pipeline": {
        "bench": "gzip_graphic", "scale": 0.5, "smt_scale": 0.25,
        "smt2": ("gzip_graphic", "twolf"),
        "smt4": ("gzip_graphic", "twolf", "crafty", "gap"),
        "phys_regs": 128, "repeats": 3,
    },
    "functional": {"bench": "gzip_graphic", "scale": 8.0,
                   "min_seconds": 0.3},
    "sampling": {"model": "vca-rw", "bench": "twolf", "phys_regs": 256,
                 "scale": 16.0,
                 "fixed": WORKLOADS["sampled-sweep"]["fixed"],
                 "adaptive": WORKLOADS["sampled-sweep"]["adaptive"]},
    "build": {"bench": "gzip_graphic", "model": "vca-rw", "scale": 0.25,
              "repeats": 5, "select_scale": 0.05, "select_k": 2},
    "service": {
        "kind": "service", "benches": ("gzip_graphic",),
        "models": ("baseline", "vca-rw"), "sizes": (128, 256),
        "scale": 0.25, "resubmit": 1, "poll": 0.05,
    },
}


def load_benchmark_json() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    """Pinned output digests, keyed by workload name."""
    return json.loads((ROOT / "bench" / "pins.json").read_text())


def sample_params(params: dict) -> dict:
    """A spec's sampling parameters as ``Point``/``run_point`` take them
    (a JSON round trip turns the metric tuple into a list)."""
    out = dict(params)
    if "sample_rse_metrics" in out:
        out["sample_rse_metrics"] = tuple(out["sample_rse_metrics"])
    return out
