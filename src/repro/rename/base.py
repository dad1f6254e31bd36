"""Rename-engine interface shared by the four machine models."""

from __future__ import annotations

import abc
from collections import Counter
from typing import Callable, Optional, TYPE_CHECKING

from repro.config import MachineConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.hooks import NULL_TRACER

from .regfile import PhysRegFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asm.program import Program
    from repro.pipeline.dyninst import DynInst


class UnrunnableConfigError(Exception):
    """The machine cannot operate at this register-file size — e.g. a
    conventional machine whose physical registers do not strictly
    exceed its architectural registers (Section 4)."""


class TrapRequest:
    """A register-window overflow/underflow pending on a conventional
    window machine (consumed by the pipeline's trap sequencer)."""

    __slots__ = ("tid", "kind", "din", "window_depth")

    def __init__(self, tid: int, kind: str, din: "DynInst",
                 window_depth: int) -> None:
        self.tid = tid
        self.kind = kind            # "overflow" or "underflow"
        self.din = din
        self.window_depth = window_depth


class RenameEngine(abc.ABC):
    """Maps architectural operands to physical registers.

    The pipeline drives the engine in-order: ``try_rename`` for each
    instruction leaving the front end (False = stall, retry next
    cycle), ``on_commit`` in program order, and ``on_squash`` in
    youngest-first order during misprediction recovery.
    """

    #: True for VCA: the paper charges one extra rename pipeline stage.
    extra_rename_stage = False

    def __init__(self, cfg: MachineConfig,
                 hierarchy: MemoryHierarchy) -> None:
        self.cfg = cfg
        self.hierarchy = hierarchy
        self.regfile = PhysRegFile(cfg.phys_regs)
        self.stalls = Counter()
        #: Pending window trap, if any (conventional windows only).
        self.trap_request: Optional[TrapRequest] = None
        #: Observability hooks; inert until :meth:`attach_obs`.
        self.trace = NULL_TRACER
        self.clock: Callable[[], int] = lambda: 0

    # -- observability ----------------------------------------------------
    def attach_obs(self, tracer, clock: Callable[[], int]) -> None:
        """Wire the tracer and a cycle source in."""
        self.trace = tracer
        self.clock = clock

    # -- per-cycle ----------------------------------------------------------
    def begin_cycle(self) -> None:
        """Reset per-cycle port/budget counters."""

    # -- main interface ----------------------------------------------------
    @abc.abstractmethod
    def init_thread(self, tid: int, program: "Program") -> None:
        """Establish the thread's initial architectural state."""

    @abc.abstractmethod
    def try_rename(self, d: "DynInst") -> bool:
        """Rename ``d``; False means a structural stall (retry later)."""

    @abc.abstractmethod
    def on_commit(self, d: "DynInst") -> None:
        """Update committed state when ``d`` retires."""

    @abc.abstractmethod
    def on_squash(self, d: "DynInst") -> None:
        """Undo ``d``'s rename effects (called youngest-first)."""

    @abc.abstractmethod
    def arch_value(self, tid: int, reg: int) -> float:
        """Architectural register value with the machine drained."""

    def load_arch_state(self, tid: int, state) -> None:
        """Seed thread ``tid``'s architectural state from a checkpoint.

        Called by the sampling layer (``repro.sampling``) on a freshly
        built machine, after :meth:`init_thread` and before the first
        cycle, with a :class:`repro.sampling.Checkpoint`-like object
        exposing ``reg_value(r)``, ``frames``, ``depth`` and
        ``windowed``.  Engines must install the values wherever their
        committed state lives (map table, backing memory, register
        space) so that a detailed run entered mid-program computes
        exactly what the full run would, and may pre-populate lookup
        structures (the VCA rename table) to shorten the cold-start
        transient.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoint seeding")

    # -- optional hooks -------------------------------------------------------
    @property
    def astq(self):
        """The engine's ASTQ, or None (conventional machines)."""
        return None

    @property
    def busy(self) -> bool:
        """True while background work (spills/fills) is outstanding."""
        return False

    def cancel_trap(self) -> None:
        self.trap_request = None
