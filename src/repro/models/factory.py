"""Machine-model factory: wires a rename engine, memory hierarchy and
pipeline together for each of the paper's four machines.

======================  =====================  ===========  ============
model name              rename engine          ABI          paper role
======================  =====================  ===========  ============
``baseline``            conventional           flat         non-windowed baseline
``conventional-rw``     expanded file + traps  windowed     conventional register windows
``ideal-rw``            VCA in ideal mode      windowed     lower bound
``vca``                 VCA                    flat         VCA for SMT (Section 4.2)
``vca-rw``              VCA                    windowed     VCA register windows
======================  =====================  ===========  ============
"""

from __future__ import annotations

from typing import Sequence

from repro.asm.program import Program
from repro.config import MachineConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.pipeline.core import Pipeline
from repro.rename.base import RenameEngine
from repro.rename.conventional import ConventionalRename
from repro.rename.vca import VcaRename
from repro.windows.conventional import ConventionalWindowRename
from repro.windows.ideal import IdealWindowRename

#: model name -> the ABI (``flat``/``windowed``) its binaries use
MODELS = {
    "baseline": "flat",
    "conventional-rw": "windowed",
    "ideal-rw": "windowed",
    "vca": "flat",
    "vca-rw": "windowed",
}


def model_abi(model: str) -> str:
    """The ABI (``flat``/``windowed``) a model's binaries must use."""
    return MODELS[model]


def build_engine(model: str, cfg: MachineConfig,
                 hierarchy: MemoryHierarchy) -> RenameEngine:
    """Construct the rename engine for ``model``.

    Raises :class:`repro.rename.base.UnrunnableConfigError` when the
    configuration cannot operate (e.g. a conventional machine without
    more physical than architectural registers).
    """
    if model == "baseline":
        return ConventionalRename(cfg, hierarchy)
    if model == "conventional-rw":
        return ConventionalWindowRename(cfg, hierarchy)
    if model == "ideal-rw":
        return IdealWindowRename(cfg, hierarchy)
    if model in ("vca", "vca-rw"):
        return VcaRename(cfg, hierarchy)
    raise ValueError(f"unknown model {model!r}; choose from {sorted(MODELS)}")


def build_machine(model: str, cfg: MachineConfig,
                  programs: Sequence[Program],
                  tracer=None) -> Pipeline:
    """A ready-to-run pipeline for ``model`` and ``programs``.

    Every program's ABI must match the model; the config's
    ``n_threads`` is set to the number of programs.  ``tracer`` (see
    :mod:`repro.obs`) traces the whole machine; it defaults to off.
    """
    abi = MODELS[model]
    cfg = cfg.with_(n_threads=len(programs))
    for p in programs:
        if p.abi != abi:
            raise ValueError(
                f"model {model!r} needs {abi}-ABI binaries; got "
                f"{p.abi!r} for {p.name or 'program'}")
    hierarchy = MemoryHierarchy(cfg)
    engine = build_engine(model, cfg, hierarchy)
    return Pipeline(cfg, list(programs), engine, hierarchy,
                    tracer=tracer)
