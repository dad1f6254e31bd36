"""Conventional register renaming: per-thread map table + free list.

This is the paper's baseline.  Every thread's complete architectural
state (64 registers) is resident in the physical register file at all
times, so the machine "cannot operate unless the number of physical
registers is strictly greater than the number of architectural
registers needed" (Section 4.2) — 64 per thread.
"""

from __future__ import annotations

from typing import Dict, List

from repro.asm.program import Program
from repro.config import MachineConfig
from repro.isa.registers import N_ARCH_REGS, SP_REG
from repro.mem.hierarchy import MemoryHierarchy

from .base import RenameEngine, UnrunnableConfigError
from .regfile import PhysReg


class ConventionalRename(RenameEngine):
    """Flat-ABI conventional rename engine (baseline and SMT baseline)."""

    def __init__(self, cfg: MachineConfig,
                 hierarchy: MemoryHierarchy) -> None:
        super().__init__(cfg, hierarchy)
        arch_needed = N_ARCH_REGS * cfg.n_threads
        if cfg.phys_regs <= arch_needed:
            raise UnrunnableConfigError(
                f"conventional rename needs > {arch_needed} physical "
                f"registers for {cfg.n_threads} thread(s); have "
                f"{cfg.phys_regs}")
        self.maps: Dict[int, List[PhysReg]] = {}

    # ------------------------------------------------------------------
    def init_thread(self, tid: int, program: Program) -> None:
        regs = []
        for arch in range(N_ARCH_REGS):
            p = self.regfile.alloc()
            if p is None:  # pragma: no cover - guarded by constructor
                raise UnrunnableConfigError("free list exhausted at reset")
            p.ready = True
            p.committed = True
            p.value = program.stack_top if arch == SP_REG else 0
            regs.append(p)
        self.maps[tid] = regs

    def load_arch_state(self, tid: int, state) -> None:
        """Overwrite the committed map-table values with a checkpoint's.

        The flat model keeps all 64 architectural registers resident,
        so seeding is a straight value overwrite of the mappings that
        :meth:`init_thread` installed.
        """
        regs = self.maps[tid]
        for arch in range(N_ARCH_REGS):
            regs[arch].value = state.reg_value(arch)

    # ------------------------------------------------------------------
    def try_rename(self, d) -> bool:
        ins = d.instr
        m = self.maps[d.tid]
        dest = ins.dest()
        pdst = None
        if dest is not None:
            pdst = self.regfile.alloc()
            if pdst is None:
                self.stalls["no_preg"] += 1
                return False
        if ins.rs1 is not None and ins.rs1 != 31:
            d.p_rs1 = m[ins.rs1]
        if ins.rs2 is not None and ins.rs2 != 31:
            d.p_rs2 = m[ins.rs2]
        if dest is not None:
            d.prev_pdst = m[dest]
            d.dest_key = (d.tid, dest)
            pdst.ready = False
            m[dest] = pdst
            d.pdst = pdst
        return True

    def on_commit(self, d) -> None:
        if d.pdst is not None:
            d.pdst.committed = True
            self.regfile.free(d.prev_pdst)

    def on_squash(self, d) -> None:
        if d.pdst is not None:
            _, dest = d.dest_key
            self.maps[d.tid][dest] = d.prev_pdst
            self.regfile.free(d.pdst)

    def arch_value(self, tid: int, reg: int) -> float:
        if reg == 31:
            return 0
        return self.maps[tid][reg].value
