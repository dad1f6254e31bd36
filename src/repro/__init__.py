"""repro — a reproduction of *How to Fake 1000 Registers* (MICRO 2005).

The package implements the Virtual Context Architecture (VCA): an
out-of-order processor whose physical register file is managed as a
cache of a memory-mapped logical register space, providing unified,
cheap support for register windows and simultaneous multithreading.

Layers (bottom-up):

* :mod:`repro.isa` / :mod:`repro.asm` — the VRISC ISA, program builder
  and the flat/windowed ABI lowerings.
* :mod:`repro.functional` — instruction-accurate interpreter (golden
  model, path-length measurement).
* :mod:`repro.mem`, :mod:`repro.frontend` — cache hierarchy with port
  arbitration; branch prediction.
* :mod:`repro.rename` — conventional renaming plus the paper's
  contribution: the VCA rename engine, physical-register state machine,
  RSID translation table and ASTQ.
* :mod:`repro.windows` — conventional (trap-based) and ideal
  register-window machines used as comparison points.
* :mod:`repro.pipeline` / :mod:`repro.models` — the cycle-level
  out-of-order core and the four machine models of the paper.
* :mod:`repro.workloads` — synthetic SPEC-like benchmark suite and the
  SMT workload-clustering methodology.
* :mod:`repro.analysis` — the evaluation metrics (geomean,
  flat-equivalent work, weighted speedup) that every figure uses.
"""

from repro.config import CacheConfig, MachineConfig

__version__ = "1.0.0"

__all__ = [
    "CacheConfig", "MachineConfig", "__version__",
]
