"""Architectural checkpoints taken on the functional interpreter.

A :class:`Checkpoint` is everything the ISA defines at an instruction
boundary — PC, the 64 architectural registers, the register-window
frame stack and the memory *delta* against the program's static data
image — plus enough execution history (recent memory addresses,
conditional-branch outcomes, the live return-address stack) to warm a
timing machine's caches and predictor before detailed simulation
resumes mid-program.

The split mirrors SimPoint-style samplers: architectural state is
*required* for correctness (the detailed run must compute the same
values the full run would), while the warmup trace is *advisory* — it
only reduces cold-start bias in the timing statistics.

Checkpoints are JSON-serialisable (:meth:`Checkpoint.to_dict` /
:meth:`Checkpoint.from_dict`) so they can be written to disk and
reused across processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.asm.program import Program
from repro.functional.blocks import advance
from repro.functional.interp import FunctionalSim
from repro.isa.registers import is_windowed, window_slot

__all__ = [
    "Checkpoint", "WarmupTrace", "CheckpointingSim", "fast_forward",
    "take_checkpoint", "WARMUP_WINDOW",
]

#: Bound of the captured memory-address and branch-outcome windows.
WARMUP_WINDOW = 4096


@dataclass(frozen=True)
class WarmupTrace:
    """Recent execution history captured alongside a checkpoint.

    Attributes:
        mem: data addresses touched most recently, oldest first
            (loads and stores both — warming only installs blocks, so
            the access direction is irrelevant).
        branches: ``(pc, taken)`` outcomes of the most recent
            conditional branches, oldest first, for predictor replay.
        ras: live return addresses (deepest call first) so the timing
            machine's return-address stack starts aligned with the
            program's call depth.
    """

    mem: Tuple[int, ...] = ()
    branches: Tuple[Tuple[int, bool], ...] = ()
    ras: Tuple[int, ...] = ()


@dataclass
class Checkpoint:
    """Architectural state snapshot at an instruction boundary.

    Attributes:
        pc: next instruction index to execute.
        instructions: dynamic instruction count at the boundary (how
            far the functional machine had run when the snapshot was
            taken).
        windowed: whether the program uses the windowed ABI.
        regs: the 64 flat architectural register values.  For windowed
            programs these are the *globals* view; windowed registers
            live in :attr:`frames`.
        frames: register-window frame stack, ``frames[-1]`` current.
            Flat-ABI checkpoints carry the interpreter's single frame
            untouched.
        mem_delta: memory words that differ from the program's static
            data image.  Keys are byte addresses.
        halted: whether the snapshot was taken after ``HALT``.
        warmup: advisory :class:`WarmupTrace` (empty if capture was
            disabled).
    """

    pc: int
    instructions: int
    windowed: bool
    regs: List[float]
    frames: List[List[float]]
    mem_delta: Dict[int, float]
    halted: bool = False
    warmup: WarmupTrace = field(default_factory=WarmupTrace)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Register-window depth (0 = entry frame only)."""
        return len(self.frames) - 1

    def reg_value(self, r: int) -> float:
        """Architectural value of register ``r`` at the boundary."""
        if r == 31:
            return 0
        if self.windowed and is_windowed(r):
            return self.frames[-1][window_slot(r)]
        return self.regs[r]

    def memory_image(self, program: Program) -> Dict[int, float]:
        """Full memory contents: static data image plus the delta."""
        image = dict(program.data)
        image.update(self.mem_delta)
        return image

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (addresses become string keys)."""
        return {
            "schema": "repro.checkpoint",
            "schema_version": 1,
            "pc": self.pc,
            "instructions": self.instructions,
            "windowed": self.windowed,
            "halted": self.halted,
            "regs": list(self.regs),
            "frames": [list(f) for f in self.frames],
            "mem_delta": {str(a): v for a, v in self.mem_delta.items()},
            "warmup": {
                "mem": list(self.warmup.mem),
                "branches": [[pc, bool(t)] for pc, t in
                             self.warmup.branches],
                "ras": list(self.warmup.ras),
            },
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Checkpoint":
        """Inverse of :meth:`to_dict`."""
        w = d.get("warmup", {})
        warmup = WarmupTrace(
            mem=tuple(w.get("mem", ())),
            branches=tuple((pc, bool(t)) for pc, t in
                           w.get("branches", ())),
            ras=tuple(w.get("ras", ())),
        )
        return cls(
            pc=d["pc"],
            instructions=d["instructions"],
            windowed=d["windowed"],
            halted=d.get("halted", False),
            regs=list(d["regs"]),
            frames=[list(f) for f in d["frames"]],
            mem_delta={int(a): v for a, v in d["mem_delta"].items()},
            warmup=warmup,
        )

    # ------------------------------------------------------------------
    def restore(self, program: Program) -> FunctionalSim:
        """Build a functional interpreter resumed at this boundary.

        The returned simulator's :attr:`~FunctionalSim.stats` start at
        zero — they describe the *resumed* execution, not the skipped
        prefix.
        """
        sim = FunctionalSim(program)
        sim.load_state({
            "pc": self.pc,
            "halted": self.halted,
            "regs": list(self.regs),
            "frames": [list(f) for f in self.frames],
            "mem": self.memory_image(program),
        })
        return sim


class CheckpointingSim(FunctionalSim):
    """Functional interpreter that records a bounded warmup trace.

    Memory accesses are captured by overriding the interpreter's
    read/write hooks, and branch outcomes and the return-address stack
    by overriding :meth:`step`; in blocks mode the compiled terminators
    capture the same outcomes because :attr:`_cap` is set.  So every
    driver — :meth:`run`, :func:`fast_forward`, the sampler's pass —
    records the same trace.  The capture windows are deques bounded at
    :data:`WARMUP_WINDOW` entries so arbitrarily long fast-forwards
    stay O(window).
    """

    _cap = True

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        self.mem_trace: Deque[int] = deque(maxlen=WARMUP_WINDOW)
        self.branch_trace: Deque[Tuple[int, bool]] = deque(
            maxlen=WARMUP_WINDOW)
        self.ras_trace: List[int] = []

    def read_mem(self, addr: int) -> float:
        self.mem_trace.append(addr)
        return super().read_mem(addr)

    def write_mem(self, addr: int, v: float) -> None:
        self.mem_trace.append(addr)
        super().write_mem(addr, v)

    def step(self) -> None:
        pc = self.pc
        super().step()
        ins = self.program.code[pc]
        if ins.is_branch:
            if ins.is_cond_branch:
                self.branch_trace.append((pc, self.pc != pc + 1))
            elif ins.is_call:
                self.ras_trace.append(pc + 1)
            elif ins.is_ret and self.ras_trace:
                self.ras_trace.pop()

    def warmup_trace(self) -> WarmupTrace:
        """Freeze the current capture windows into a trace."""
        return WarmupTrace(mem=tuple(self.mem_trace),
                           branches=tuple(self.branch_trace),
                           ras=tuple(self.ras_trace))


def fast_forward(sim: FunctionalSim, n: int) -> int:
    """Execute up to ``n`` instructions; returns how many actually ran.

    Stops early at ``HALT``.  In blocks mode the bounded run goes
    through the decoded basic-block cache (:func:`advance`): whole
    blocks are replayed and the final partial block is stepped per
    instruction, so the stop boundary — and a
    :class:`CheckpointingSim`'s captured traces — are bit-identical to
    interp mode, which steps every instruction.
    """
    if sim.mode != "interp":
        start = sim.stats.instructions
        advance(sim, start + n)
        return sim.stats.instructions - start
    done = 0
    while done < n and not sim.halted:
        sim.step()
        done += 1
    return done


def take_checkpoint(sim: FunctionalSim) -> Checkpoint:
    """Snapshot ``sim`` (checkpointing or plain) at its current
    instruction boundary; memory is delta-compressed against the
    program's static data segment."""
    base = sim.program.data
    delta = {a: v for a, v in sim.mem.items() if base.get(a, 0) != v}
    warmup = (sim.warmup_trace() if isinstance(sim, CheckpointingSim)
              else WarmupTrace())
    return Checkpoint(
        pc=sim.pc,
        instructions=sim.stats.instructions,
        windowed=sim.windowed,
        halted=sim.halted,
        regs=list(sim.regs),
        frames=[list(f) for f in sim.frames],
        mem_delta=delta,
        warmup=warmup,
    )
