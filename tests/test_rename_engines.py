"""Behavioural tests of the rename engines driven directly (no
pipeline): conventional, conventional-window, and VCA."""

import pytest

from repro.asm import ProgramBuilder
from repro.config import MachineConfig
from repro.isa import Instruction, Op, RA_REG, SP_REG
from repro.isa.instruction import make_call, make_ret
from repro.mem.hierarchy import MemoryHierarchy
from repro.models import build_engine
from repro.pipeline.dyninst import DynInst
from repro.rename.base import UnrunnableConfigError
from repro.rename.conventional import ConventionalRename
from repro.rename.vca import VcaRename
from repro.windows.conventional import ConventionalWindowRename, max_windows


def tiny_program(abi="flat"):
    pb = ProgramBuilder()
    m = pb.function("main", is_main=True)
    m.halt()
    return pb.assemble(abi)


def make_engine(model="vca", phys_regs=256, abi=None, **over):
    cfg = MachineConfig.baseline(phys_regs=phys_regs, **over)
    h = MemoryHierarchy(cfg)
    eng = build_engine(model, cfg, h)
    default_abi = {"baseline": "flat", "vca": "flat"}.get(model, "windowed")
    eng.init_thread(0, tiny_program(abi or default_abi))
    return eng


def dyn(instr, seq=0, tid=0, pc=0):
    return DynInst(seq, tid, pc, instr)


class TestConventional:
    def test_needs_more_phys_than_arch(self):
        cfg = MachineConfig.baseline(phys_regs=64)
        with pytest.raises(UnrunnableConfigError):
            ConventionalRename(cfg, MemoryHierarchy(cfg))

    def test_initial_state_consumes_arch_regs(self):
        eng = make_engine("baseline", phys_regs=80)
        assert eng.regfile.n_in_use == 64
        assert eng.arch_value(0, SP_REG) > 0

    def test_rename_allocates_and_remaps(self):
        eng = make_engine("baseline", phys_regs=80)
        d = dyn(Instruction(Op.ADDI, rd=5, rs1=5, imm=1))
        assert eng.try_rename(d)
        assert d.pdst is not None and d.prev_pdst is not None
        assert d.p_rs1 is d.prev_pdst
        assert not d.pdst.ready

    def test_commit_frees_previous(self):
        eng = make_engine("baseline", phys_regs=80)
        free0 = eng.regfile.n_free
        d = dyn(Instruction(Op.ADDI, rd=5, rs1=5, imm=1))
        eng.try_rename(d)
        assert eng.regfile.n_free == free0 - 1
        eng.on_commit(d)
        assert eng.regfile.n_free == free0

    def test_squash_restores_mapping(self):
        eng = make_engine("baseline", phys_regs=80)
        prev = eng.maps[0][5]
        d = dyn(Instruction(Op.ADDI, rd=5, rs1=5, imm=1))
        eng.try_rename(d)
        eng.on_squash(d)
        assert eng.maps[0][5] is prev

    def test_stall_when_free_list_empty(self):
        eng = make_engine("baseline", phys_regs=66)
        d1 = dyn(Instruction(Op.ADDI, rd=1, rs1=1, imm=1), seq=0)
        d2 = dyn(Instruction(Op.ADDI, rd=2, rs1=2, imm=1), seq=1)
        d3 = dyn(Instruction(Op.ADDI, rd=3, rs1=3, imm=1), seq=2)
        assert eng.try_rename(d1) and eng.try_rename(d2)
        assert not eng.try_rename(d3)
        assert eng.stalls["no_preg"] == 1


class TestVca:
    def test_first_source_read_generates_fill(self):
        eng = make_engine("vca")
        d = dyn(Instruction(Op.ADDI, rd=1, rs1=SP_REG, imm=8))
        assert eng.try_rename(d)
        assert eng.fills_generated == 1
        assert d.p_rs1 is not None and not d.p_rs1.ready
        # The fill holds one reference, the consumer another.
        assert d.p_rs1.refcount == 2

    def test_cached_source_hit_no_fill(self):
        eng = make_engine("vca")
        d1 = dyn(Instruction(Op.ADDI, rd=1, rs1=SP_REG, imm=8), seq=0)
        d2 = dyn(Instruction(Op.ADDI, rd=2, rs1=SP_REG, imm=16), seq=1)
        eng.try_rename(d1)
        eng.try_rename(d2)
        assert eng.fills_generated == 1          # second read combines
        assert d1.p_rs1 is d2.p_rs1

    def test_dest_requires_no_fill(self):
        eng = make_engine("vca")
        d = dyn(Instruction(Op.LDI, rd=1, imm=5))
        assert eng.try_rename(d)
        assert eng.fills_generated == 0
        assert d.prev_pdst is None

    def test_commit_dest_becomes_committed_dirty(self):
        eng = make_engine("vca")
        d = dyn(Instruction(Op.LDI, rd=1, imm=5))
        eng.try_rename(d)
        d.pdst.ready = True
        eng.on_commit(d)
        assert d.pdst.committed and d.pdst.dirty and not d.pdst.pinned

    def test_overwrite_frees_previous_without_spill(self):
        eng = make_engine("vca")
        d1 = dyn(Instruction(Op.LDI, rd=1, imm=5), seq=0)
        d2 = dyn(Instruction(Op.LDI, rd=1, imm=6), seq=1)
        eng.try_rename(d1)
        eng.on_commit(d1)
        eng.try_rename(d2)
        assert d2.prev_pdst is d1.pdst
        in_use = eng.regfile.n_in_use
        eng.on_commit(d2)
        assert eng.spills_generated == 0          # dead value, no spill
        assert eng.regfile.n_in_use == in_use - 1

    def test_squash_restores_previous_mapping(self):
        eng = make_engine("vca")
        d1 = dyn(Instruction(Op.LDI, rd=1, imm=5), seq=0)
        d2 = dyn(Instruction(Op.LDI, rd=1, imm=6), seq=1)
        eng.try_rename(d1)
        eng.on_commit(d1)
        eng.try_rename(d2)
        eng.on_squash(d2)
        d3 = dyn(Instruction(Op.ADDI, rd=2, rs1=1, imm=0), seq=2)
        eng.try_rename(d3)
        assert d3.p_rs1 is d1.pdst                # mapping restored

    def test_squash_unwinds_window_shift(self):
        eng = make_engine("vca", abi="windowed")
        eng.contexts[0].windowed_abi = True
        base = eng.contexts[0].window_base
        call = dyn(make_call(10), seq=0)
        eng.try_rename(call)
        assert eng.contexts[0].window_base == base + 512
        eng.on_squash(call)
        assert eng.contexts[0].window_base == base

    def test_call_dest_lands_in_new_window(self):
        eng = make_engine("vca", abi="windowed")
        ctx = eng.contexts[0]
        call = dyn(make_call(10), seq=0)
        eng.try_rename(call)
        # RA's current laddr (new window) maps to the call's dest.
        key = eng._key_for(ctx.laddr(RA_REG), [])
        assert eng.table.lookup(key) is call.pdst

    def test_ret_source_read_in_old_window(self):
        eng = make_engine("vca", abi="windowed")
        ctx = eng.contexts[0]
        call = dyn(make_call(10), seq=0)
        eng.try_rename(call)
        ra_preg = call.pdst
        ret = dyn(make_ret(), seq=1)
        eng.try_rename(ret)
        assert ret.p_rs1 is ra_preg
        assert ctx.depth == 0

    def test_pressure_spills_lru_dirty_value(self):
        eng = make_engine("vca", phys_regs=8, vca_protect_cycles=0)
        # Write 9 distinct logical registers; committing each one.
        for i in range(9):
            eng.begin_cycle()
            d = dyn(Instruction(Op.LDI, rd=1 + (i % 20), imm=i), seq=i)
            assert eng.try_rename(d), f"stalled at {i}"
            d.pdst.ready = True
            eng.on_commit(d)
        assert eng.spills_generated >= 1

    def test_rename_port_budget(self):
        eng = make_engine("vca")
        # Establish the source registers as cached values first (one
        # per cycle, so fills never throttle the interesting cycle).
        for i in range(10):
            eng.begin_cycle()
            d = dyn(Instruction(Op.LDI, rd=20 + i, imm=i), seq=i)
            assert eng.try_rename(d)
            d.pdst.ready = True
            eng.on_commit(d)
        eng.begin_cycle()
        renamed = 0
        for i in range(8):
            d = dyn(Instruction(Op.ADD, rd=1 + i, rs1=20 + i, rs2=29),
                    seq=100 + i)
            if not eng.try_rename(d):
                break
            renamed += 1
        # 8 ports; 3 distinct registers per instruction (reads of r29
        # combine within an instruction, not across) -> 2 per cycle.
        assert renamed < 4
        assert eng.stalls["rename_ports"] >= 1

    def test_failed_rename_leaves_no_side_effects(self):
        eng = make_engine("vca", phys_regs=8, vca_protect_cycles=0)
        # Exhaust registers with pinned dests (uncommitted).
        held = []
        i = 0
        while True:
            d = dyn(Instruction(Op.LDI, rd=1 + (i % 20), imm=i), seq=i)
            if not eng.try_rename(d):
                break
            held.append(d)
            i += 1
        snapshot = (eng.regfile.n_free, eng.table.occupancy,
                    eng.fills_generated)
        d = dyn(Instruction(Op.ADD, rd=21, rs1=22, rs2=23), seq=99)
        assert not eng.try_rename(d)
        assert (eng.regfile.n_free, eng.table.occupancy,
                eng.fills_generated) == snapshot
        assert d.pdst is None and d.p_rs1 is None

    def test_arch_value_roundtrip_through_memory(self):
        eng = make_engine("vca")
        d = dyn(Instruction(Op.LDI, rd=7, imm=1234))
        eng.try_rename(d)
        d.pdst.value = 1234
        d.pdst.ready = True
        eng.on_commit(d)
        assert eng.arch_value(0, 7) == 1234


class TestConventionalWindows:
    def test_window_count_formula(self):
        assert max_windows(128, 64) == 1
        assert max_windows(192, 64) == 2
        assert max_windows(256, 64) == 3
        assert max_windows(64, 64) <= 0

    def test_unrunnable_when_no_window_fits(self):
        cfg = MachineConfig.baseline(phys_regs=64)
        with pytest.raises(UnrunnableConfigError):
            ConventionalWindowRename(cfg, MemoryHierarchy(cfg))

    def test_smt_rejected(self):
        cfg = MachineConfig.baseline(phys_regs=256, n_threads=2)
        with pytest.raises(UnrunnableConfigError):
            ConventionalWindowRename(cfg, MemoryHierarchy(cfg))

    def test_overflow_trap_requested(self):
        eng = make_engine("conventional-rw", phys_regs=128)  # 1 window
        call = dyn(make_call(10), seq=0)
        assert not eng.try_rename(call)
        assert eng.trap_request is not None
        assert eng.trap_request.kind == "overflow"

    def test_underflow_traps_after_rename(self):
        eng = make_engine("conventional-rw", phys_regs=256)  # 3 windows
        for i in range(2):
            c = dyn(make_call(10), seq=i)
            assert eng.try_rename(c)
            eng.on_commit(c)
        # Overflow the first window out, then return past it.
        c = dyn(make_call(10), seq=2)
        assert not eng.try_rename(c)
        transfers = eng.build_trap_transfers(eng.trap_request)
        eng.cancel_trap()
        assert all(t[1] for t in transfers)       # all writes (saves)
        assert eng.try_rename(c)
        eng.on_commit(c)
        for i in range(3, 6):
            r = dyn(make_ret(), seq=i)
            assert eng.try_rename(r), f"ret {i}"
            if eng.trap_request is not None:
                assert eng.trap_request.kind == "underflow"
                loads = eng.build_trap_transfers(eng.trap_request)
                eng.cancel_trap()
                assert all(not t[1] for t in loads)   # full-window loads
                assert len(loads) == 46
            eng.on_commit(r)

    def test_dirty_tracking_limits_saves(self):
        eng = make_engine("conventional-rw", phys_regs=128)
        # Window 0 has no committed writes yet: overflow saves nothing.
        call = dyn(make_call(10), seq=0)
        assert not eng.try_rename(call)
        transfers = eng.build_trap_transfers(eng.trap_request)
        eng.cancel_trap()
        assert transfers == []


class TestDeadWindowExtension:
    """The paper's Section 6 future-work extension: reclaim a returned
    window's registers without spilling (they are architecturally
    dead under the fresh-window ABI)."""

    def _machine(self, hint):
        from repro.models import build_machine
        from repro.workloads.generator import benchmark_program
        prog = benchmark_program("perlbmk_535", "windowed")
        cfg = MachineConfig.baseline(phys_regs=96,
                                     vca_dead_window_hint=hint)
        return build_machine("vca-rw", cfg, [prog]), prog

    def test_reduces_spills_without_changing_results(self):
        base_machine, prog = self._machine(False)
        base = base_machine.run()
        hint_machine, _ = self._machine(True)
        hinted = hint_machine.run()
        assert hint_machine.engine.dead_drops > 0
        assert hinted.spills < base.spills
        assert (hint_machine.hierarchy.read_word(prog.data_base)
                == base_machine.hierarchy.read_word(prog.data_base))

    def test_off_by_default(self):
        eng = make_engine("vca")
        assert not eng.cfg.vca_dead_window_hint
        assert eng.dead_drops == 0
