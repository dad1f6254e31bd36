"""Conventional register-window machine (Section 4.1).

The logical register file is expanded to hold multiple contiguous
register windows — the maximum number that fit in the physical
register file while leaving at least 64 rename registers.  Window
overflow (a call when every window is occupied) and underflow (a
return to a non-resident window) trap: the pipeline drains, delays
``window_trap_cycles`` (10) cycles to model the OS handler, and then
bursts load/store transfers that save the departing window's dirty
registers or restore an entire incoming window.  This reproduces the
"bursty sequences of loads and stores" whose pipeline impact the paper
contrasts with VCA's incremental single-register spills and fills.

Window save/restore traffic uses the same per-depth backing addresses
as VCA's register space, so both machines pressure the data cache with
a comparable footprint.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple, Union

from repro.asm.layout import WINDOW_STRIDE_BYTES, thread_window_base
from repro.asm.program import Program
from repro.config import MachineConfig
from repro.isa.registers import (
    GLOBAL_REGS, SP_REG, WINDOW_REGS, WINDOWED_REGS, global_slot,
    is_windowed, window_slot,
)
from repro.mem.hierarchy import MemoryHierarchy
from repro.rename.base import RenameEngine, TrapRequest, UnrunnableConfigError
from repro.rename.regfile import PhysReg

N_GLOBALS = len(GLOBAL_REGS)


def max_windows(phys_regs: int, min_rename: int) -> int:
    """Windows that fit while leaving ``min_rename`` rename registers."""
    return (phys_regs - min_rename - N_GLOBALS) // WINDOW_REGS


#: A trap transfer: (memory address, is_write, payload).  The payload
#: is the stored value for writes and the destination logical-file
#: index for reads.
Transfer = Tuple[int, bool, Union[float, int]]


class ConventionalWindowRename(RenameEngine):
    """Expanded-logical-file renaming with trap-based window handling."""

    def __init__(self, cfg: MachineConfig,
                 hierarchy: MemoryHierarchy) -> None:
        super().__init__(cfg, hierarchy)
        if cfg.n_threads != 1:
            raise UnrunnableConfigError(
                "the conventional window machine is single-threaded "
                "(the paper evaluates it only in Section 4.1)")
        self.n_windows = max_windows(cfg.phys_regs,
                                     cfg.window_min_rename_regs)
        if self.n_windows < 1:
            raise UnrunnableConfigError(
                f"no register window fits in {cfg.phys_regs} physical "
                f"registers with {cfg.window_min_rename_regs} rename "
                f"registers reserved")
        self.n_logical = N_GLOBALS + self.n_windows * WINDOW_REGS
        self.map: List[PhysReg] = []
        self.depth = 0              # speculative call depth
        self.resident_lo = 0        # oldest resident window depth
        #: Windowed registers written since each depth became resident.
        self.dirty: Dict[int, Set[int]] = {0: set()}
        self.overflows = 0
        self.underflows = 0

    # ------------------------------------------------------------------
    def lindex(self, reg: int, depth: int) -> int:
        """Logical-file index of ``reg`` in the window at ``depth``."""
        if is_windowed(reg):
            return (N_GLOBALS + (depth % self.n_windows) * WINDOW_REGS
                    + window_slot(reg))
        return global_slot(reg)

    def _backing_addr(self, depth: int, reg: int) -> int:
        return (thread_window_base(0) + depth * WINDOW_STRIDE_BYTES
                + window_slot(reg) * 8)

    def init_thread(self, tid: int, program: Program) -> None:
        if not program.windowed:
            raise ValueError("conventional window machine needs the "
                             "windowed ABI")
        for _ in range(self.n_logical):
            p = self.regfile.alloc()
            p.ready = True
            p.committed = True
            self.map.append(p)
        self.map[global_slot(SP_REG)].value = program.stack_top

    def load_arch_state(self, tid: int, state) -> None:
        """Seed mid-program state: resident windows plus backing store.

        Every checkpointed frame — including the resident ones — is
        written to its backing-store address, so a later underflow trap
        restores exactly the values the full run would have saved.  As
        many of the deepest windows as fit are made resident (the
        steady state a call-heavy full run converges to), each with an
        empty dirty set: memory already agrees with the registers, so
        the first overflow after the seed saves only registers written
        since.
        """
        write_word = self.hierarchy.write_word
        for d, frame in enumerate(state.frames):
            for r in WINDOWED_REGS:
                write_word(self._backing_addr(d, r),
                           frame[window_slot(r)])
        for r in GLOBAL_REGS:
            self.map[global_slot(r)].value = state.reg_value(r)
        depth = state.depth
        self.depth = depth
        self.resident_lo = max(0, depth - self.n_windows + 1)
        self.dirty = {}
        for d in range(self.resident_lo, depth + 1):
            frame = state.frames[d]
            for r in WINDOWED_REGS:
                self.map[self.lindex(r, d)].value = frame[window_slot(r)]
            self.dirty[d] = set()

    # ------------------------------------------------------------------
    def try_rename(self, d) -> bool:
        ins = d.instr
        # Overflow traps BEFORE the call renames: the departing
        # window's committed values must be saved before the call's
        # RA destination remaps a (possibly aliasing) window slot.
        if ins.is_call and self.depth + 1 - self.resident_lo >= self.n_windows:
            if self.trap_request is None:
                self.trap_request = TrapRequest(d.tid, "overflow", d,
                                                self.resident_lo)
            self.stalls["window_trap"] += 1
            return False
        if self.trap_request is not None and self.trap_request.din is d:
            self.trap_request = None  # condition cleared by a squash

        if ins.is_call:
            self.depth += 1
            d.ctx_delta = 1
        # Return sources read the pre-shift window; a call's RA
        # destination lands in the new window.
        src_depth = self.depth - 1 if ins.is_call else self.depth
        if ins.rs1 is not None and ins.rs1 != 31:
            d.p_rs1 = self.map[self.lindex(ins.rs1, src_depth)]
        if ins.rs2 is not None and ins.rs2 != 31:
            d.p_rs2 = self.map[self.lindex(ins.rs2, src_depth)]
        dest = ins.dest()
        if dest is not None:
            pdst = self.regfile.alloc()
            if pdst is None:
                if ins.is_call:
                    self.depth -= 1
                    d.ctx_delta = 0
                self.stalls["no_preg"] += 1
                return False
            lidx = self.lindex(dest, self.depth)
            d.prev_pdst = self.map[lidx]
            d.dest_key = (lidx, self.depth)
            pdst.ready = False
            self.map[lidx] = pdst
            d.pdst = pdst
        if ins.is_ret:
            self.depth -= 1
            d.ctx_delta = -1
            if self.depth < self.resident_lo:
                # Underflow traps AFTER the return renames: the return
                # must read its (current-window) RA before the restore
                # overwrites aliasing window slots.  The pipeline
                # stalls rename behind this instruction, drains, then
                # runs the restore.
                self.stalls["window_trap"] += 1
                self.trap_request = TrapRequest(d.tid, "underflow", d,
                                                self.depth)
        return True

    def on_commit(self, d) -> None:
        ins = d.instr
        if ins.is_call:
            # A fresh activation: its window starts clean.  This runs
            # before the RA write below so RA stays dirty.
            self.dirty[d.dest_key[1]] = set()
        if d.pdst is not None:
            d.pdst.committed = True
            self.regfile.free(d.prev_pdst)
            _, depth = d.dest_key
            dest = ins.dest()
            if is_windowed(dest):
                self.dirty.setdefault(depth, set()).add(dest)

    def on_squash(self, d) -> None:
        if d.pdst is not None:
            lidx, _ = d.dest_key
            self.map[lidx] = d.prev_pdst
            self.regfile.free(d.pdst)
        if d.ctx_delta:
            self.depth -= d.ctx_delta
        if self.trap_request is not None and self.trap_request.din is d:
            self.trap_request = None

    # -- trap sequencing (driven by the pipeline) -------------------------
    def build_trap_transfers(self, req: TrapRequest) -> List[Transfer]:
        """Compute the burst of loads/stores for a drained trap and
        update the resident-window bookkeeping.

        Must be called with the pipeline drained (all older
        instructions committed), so every value read is architectural.
        """
        if req.kind == "overflow":
            self.overflows += 1
            depth = self.resident_lo
            regs = sorted(self.dirty.get(depth, set()))
            self.resident_lo += 1
            self._obs_trap("overflow", depth, len(regs))
            return [(self._backing_addr(depth, r), True,
                     self.map[self.lindex(r, depth)].value) for r in regs]
        self.underflows += 1
        self._obs_trap("underflow", req.window_depth, len(WINDOWED_REGS))
        depth = req.window_depth
        # Restore the entire incoming window (the paper's trap refills
        # a full window); never-saved registers load dead values.
        self.resident_lo = depth
        self.dirty[depth] = set()  # in sync with memory after restore
        return [(self._backing_addr(depth, r), False,
                 self.lindex(r, depth)) for r in WINDOWED_REGS]

    def _obs_trap(self, kind: str, depth: int, transfers: int) -> None:
        tr = self.trace
        if tr.enabled:
            tr.emit(self.clock(), 0, "wtrap", trap=kind, depth=depth,
                    transfers=transfers)

    def apply_trap_load(self, lidx: int, value: float) -> None:
        """Write a trap-restored value into the logical register."""
        self.map[lidx].value = value

    def arch_value(self, tid: int, reg: int) -> float:
        if reg == 31:
            return 0
        return self.map[self.lindex(reg, self.depth)].value
