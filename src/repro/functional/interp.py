"""Fast functional (instruction-accurate) VRISC interpreter.

Two roles, both taken from the paper's methodology (Section 3.1):

* measuring complete-program dynamic path lengths for the windowed and
  flat binaries (Table 2), exactly as the authors did with "fast
  functional simulation"; and
* providing the golden architectural state that the detailed timing
  models are validated against in the test suite.

Under the windowed ABI the interpreter keeps an unbounded stack of
register frames: ``CALL`` pushes a fresh frame, ``RET`` pops it, and
windowed register accesses resolve against the top frame.  Globals live
in a single frame shared by all activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.asm.program import Program
from repro.isa.opcodes import Op
from repro.isa.registers import is_windowed, window_slot
from repro.isa.registers import SP_REG, WINDOW_REGS

MASK64 = (1 << 64) - 1
SIGN64 = 1 << 63

#: Execution modes of :class:`FunctionalSim`.  ``interp`` is the
#: per-instruction ``step()`` loop — the golden model; ``blocks``
#: replays decoded basic blocks (``repro.functional.blocks``) and is
#: the default, being bit-identical to ``interp``
#: (``tests/test_functional_blocks.py``).
FUNCTIONAL_MODES = ("interp", "blocks")


def to_signed(v: int) -> int:
    """Interpret a 64-bit value as two's-complement signed."""
    return v - (1 << 64) if v & SIGN64 else v


@dataclass
class FunctionalStats:
    """Dynamic-execution statistics for one functional run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    calls: int = 0
    rets: int = 0
    cond_branches: int = 0
    taken_branches: int = 0
    fp_ops: int = 0
    int_ops: int = 0
    max_call_depth: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores

    @property
    def call_interval(self) -> float:
        """Average dynamic instructions between calls."""
        if not self.calls:
            return float("inf")
        return self.instructions / self.calls


class FunctionalError(RuntimeError):
    """Raised on architecturally impossible events (bad PC, ret with an
    empty window stack, ...)."""


class FunctionalSim:
    """Interpret a :class:`Program` to completion.

    Args:
        program: the assembled binary.
        mode: execution mode (:data:`FUNCTIONAL_MODES`).  Both modes
            are architecturally bit-identical; ``blocks`` runs
            :meth:`run` through the decoded basic-block cache.
    """

    #: Whether this class records branch outcomes and the return
    #: address stack.  The compiled block terminators check it;
    #: ``CheckpointingSim`` sets it and captures in its ``step()``.
    _cap = False

    def __init__(self, program: Program, mode: str = "blocks") -> None:
        if mode not in FUNCTIONAL_MODES:
            raise ValueError(
                f"unknown functional mode {mode!r} "
                f"(expected one of {', '.join(FUNCTIONAL_MODES)})")
        self.program = program
        self.mem: Dict[int, float] = dict(program.data)
        self.stats = FunctionalStats()
        self.halted = False
        self.pc = program.entry
        self.mode = mode
        # Epoch of the mutable state objects below; load_state bumps
        # it so the block executor rebinds (repro.functional.blocks).
        self._epoch = 0
        self._binding = None

        self.regs: List[float] = [0] * 64
        self.regs[SP_REG] = program.stack_top
        self.windowed = program.windowed
        # Window frame stack; only used by the windowed ABI.
        self.frames: List[List[float]] = [[0] * WINDOW_REGS]

    # -- register access ---------------------------------------------------
    def read_reg(self, r: int) -> float:
        if r == 31:
            return 0
        if self.windowed and is_windowed(r):
            return self.frames[-1][window_slot(r)]
        return self.regs[r]

    def write_reg(self, r: int, v: float) -> None:
        if r == 31:
            return
        if self.windowed and is_windowed(r):
            self.frames[-1][window_slot(r)] = v
        else:
            self.regs[r] = v

    @property
    def call_depth(self) -> int:
        return len(self.frames) - 1

    # -- architectural snapshots -------------------------------------------
    def save_state(self) -> Dict[str, object]:
        """Deep-copied architectural state at an instruction boundary.

        Everything the ISA defines — PC, registers, the window frame
        stack and memory — but not :attr:`stats`, which describe the
        path executed so far rather than the machine state.  The
        checkpointed-sampling layer (``repro.sampling``) builds its
        compact checkpoint format on top of this.
        """
        return {
            "pc": self.pc,
            "halted": self.halted,
            "regs": list(self.regs),
            "frames": [list(f) for f in self.frames],
            "mem": dict(self.mem),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Install a :meth:`save_state` snapshot (stats untouched).

        Replacing ``regs``/``frames``/``mem`` invalidates any cached
        execution binding: the block executor closes over the old
        objects, so the epoch bump forces it to rebind.
        """
        self.pc = state["pc"]
        self.halted = state["halted"]
        self.regs = list(state["regs"])
        self.frames = [list(f) for f in state["frames"]]
        self.mem = dict(state["mem"])
        self._epoch += 1
        self._binding = None

    # -- memory access ----------------------------------------------------
    def read_mem(self, addr: int) -> float:
        if addr % 8:
            raise FunctionalError(f"unaligned load at {addr:#x}")
        return self.mem.get(addr, 0)

    def write_mem(self, addr: int, v: float) -> None:
        if addr % 8:
            raise FunctionalError(f"unaligned store at {addr:#x}")
        self.mem[addr] = v

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 50_000_000) -> FunctionalStats:
        """Execute until ``HALT``; returns the statistics."""
        if self.mode != "interp":
            from repro.functional.blocks import run_blocks
            return run_blocks(self, max_instructions)
        while not self.halted:
            if self.stats.instructions >= max_instructions:
                raise FunctionalError(
                    f"exceeded {max_instructions} instructions "
                    f"(runaway program?)")
            self.step()
        return self.stats

    def step(self) -> None:
        """Execute one instruction."""
        program = self.program
        if not 0 <= self.pc < len(program.code):
            raise FunctionalError(f"PC {self.pc} out of range")
        ins = program.code[self.pc]
        st = self.stats
        st.instructions += 1
        op = ins.op
        next_pc = self.pc + 1
        rr = self.read_reg

        if op is Op.ADD:
            self.write_reg(ins.rd, (int(rr(ins.rs1)) + int(rr(ins.rs2))) & MASK64)
        elif op is Op.ADDI:
            self.write_reg(ins.rd, (int(rr(ins.rs1)) + ins.imm) & MASK64)
        elif op is Op.SUB:
            self.write_reg(ins.rd, (int(rr(ins.rs1)) - int(rr(ins.rs2))) & MASK64)
        elif op is Op.SUBI:
            self.write_reg(ins.rd, (int(rr(ins.rs1)) - ins.imm) & MASK64)
        elif op is Op.MUL:
            self.write_reg(ins.rd, (int(rr(ins.rs1)) * int(rr(ins.rs2))) & MASK64)
        elif op is Op.MULI:
            self.write_reg(ins.rd, (int(rr(ins.rs1)) * ins.imm) & MASK64)
        elif op is Op.AND:
            self.write_reg(ins.rd, int(rr(ins.rs1)) & int(rr(ins.rs2)))
        elif op is Op.ANDI:
            self.write_reg(ins.rd, int(rr(ins.rs1)) & ins.imm)
        elif op is Op.OR:
            self.write_reg(ins.rd, int(rr(ins.rs1)) | int(rr(ins.rs2)))
        elif op is Op.ORI:
            self.write_reg(ins.rd, int(rr(ins.rs1)) | ins.imm)
        elif op is Op.XOR:
            self.write_reg(ins.rd, int(rr(ins.rs1)) ^ int(rr(ins.rs2)))
        elif op is Op.XORI:
            self.write_reg(ins.rd, int(rr(ins.rs1)) ^ ins.imm)
        elif op is Op.SLL:
            self.write_reg(ins.rd,
                           (int(rr(ins.rs1)) << (int(rr(ins.rs2)) & 63)) & MASK64)
        elif op is Op.SLLI:
            self.write_reg(ins.rd, (int(rr(ins.rs1)) << (ins.imm & 63)) & MASK64)
        elif op is Op.SRL:
            self.write_reg(ins.rd, int(rr(ins.rs1)) >> (int(rr(ins.rs2)) & 63))
        elif op is Op.SRLI:
            self.write_reg(ins.rd, int(rr(ins.rs1)) >> (ins.imm & 63))
        elif op is Op.CMPEQ:
            self.write_reg(ins.rd, int(rr(ins.rs1) == rr(ins.rs2)))
        elif op is Op.CMPEQI:
            self.write_reg(ins.rd, int(int(rr(ins.rs1)) == ins.imm))
        elif op is Op.CMPLT:
            self.write_reg(ins.rd,
                           int(to_signed(int(rr(ins.rs1))) < to_signed(int(rr(ins.rs2)))))
        elif op is Op.CMPLTI:
            self.write_reg(ins.rd, int(to_signed(int(rr(ins.rs1))) < ins.imm))
        elif op is Op.CMPLE:
            self.write_reg(ins.rd,
                           int(to_signed(int(rr(ins.rs1))) <= to_signed(int(rr(ins.rs2)))))
        elif op is Op.LDI:
            self.write_reg(ins.rd, ins.imm & MASK64)
        elif op is Op.LD or op is Op.FLD:
            st.loads += 1
            self.write_reg(ins.rd, self.read_mem(int(rr(ins.rs1)) + ins.imm))
        elif op is Op.ST or op is Op.FST:
            st.stores += 1
            self.write_mem(int(rr(ins.rs1)) + ins.imm, rr(ins.rs2))
        elif op is Op.BEQ:
            st.cond_branches += 1
            if int(rr(ins.rs1)) == 0:
                st.taken_branches += 1
                next_pc = ins.target
        elif op is Op.BNE:
            st.cond_branches += 1
            if int(rr(ins.rs1)) != 0:
                st.taken_branches += 1
                next_pc = ins.target
        elif op is Op.BLT:
            st.cond_branches += 1
            if to_signed(int(rr(ins.rs1))) < 0:
                st.taken_branches += 1
                next_pc = ins.target
        elif op is Op.BGE:
            st.cond_branches += 1
            if to_signed(int(rr(ins.rs1))) >= 0:
                st.taken_branches += 1
                next_pc = ins.target
        elif op is Op.FBEQ:
            st.cond_branches += 1
            if rr(ins.rs1) == 0.0:
                st.taken_branches += 1
                next_pc = ins.target
        elif op is Op.FBNE:
            st.cond_branches += 1
            if rr(ins.rs1) != 0.0:
                st.taken_branches += 1
                next_pc = ins.target
        elif op is Op.BR:
            next_pc = ins.target
        elif op is Op.CALL:
            st.calls += 1
            if self.windowed:
                self.frames.append([0] * WINDOW_REGS)
                st.max_call_depth = max(st.max_call_depth, self.call_depth)
            next_pc = ins.target
            # RA is written in the (possibly new) top frame.
            self.write_reg(ins.rd, self.pc + 1)
        elif op is Op.RET:
            st.rets += 1
            next_pc = int(rr(ins.rs1))
            if self.windowed:
                if len(self.frames) == 1:
                    raise FunctionalError("RET with empty window stack")
                self.frames.pop()
        elif op is Op.JMP:
            next_pc = int(rr(ins.rs1))
        elif op is Op.FADD:
            st.fp_ops += 1
            self.write_reg(ins.rd, rr(ins.rs1) + rr(ins.rs2))
        elif op is Op.FSUB:
            st.fp_ops += 1
            self.write_reg(ins.rd, rr(ins.rs1) - rr(ins.rs2))
        elif op is Op.FMUL:
            st.fp_ops += 1
            self.write_reg(ins.rd, rr(ins.rs1) * rr(ins.rs2))
        elif op is Op.FDIV:
            st.fp_ops += 1
            d = rr(ins.rs2)
            self.write_reg(ins.rd, rr(ins.rs1) / d if d else 0.0)
        elif op is Op.FCMPLT:
            st.fp_ops += 1
            self.write_reg(ins.rd, 1.0 if rr(ins.rs1) < rr(ins.rs2) else 0.0)
        elif op is Op.FCMPEQ:
            st.fp_ops += 1
            self.write_reg(ins.rd, 1.0 if rr(ins.rs1) == rr(ins.rs2) else 0.0)
        elif op is Op.FMOV:
            st.fp_ops += 1
            self.write_reg(ins.rd, rr(ins.rs1))
        elif op is Op.ITOF:
            st.fp_ops += 1
            self.write_reg(ins.rd, float(to_signed(int(rr(ins.rs1)))))
        elif op is Op.FTOI:
            st.fp_ops += 1
            v = rr(ins.rs1)
            try:
                self.write_reg(ins.rd, int(v) & MASK64)
            except (OverflowError, ValueError):  # inf/nan -> zero
                self.write_reg(ins.rd, 0)
        elif op is Op.NOP:
            pass
        elif op is Op.HALT:
            self.halted = True
        else:  # pragma: no cover - exhaustive dispatch
            raise FunctionalError(f"unimplemented opcode {op}")

        if op.name[0] not in "F" and not ins.is_mem and not ins.is_branch:
            st.int_ops += 1
        if not self.halted:
            if next_pc is None:
                raise FunctionalError(f"unresolved target at pc {self.pc}")
            self.pc = next_pc
