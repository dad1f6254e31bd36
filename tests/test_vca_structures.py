"""Unit tests for the VCA support structures: rename table, RSID
translation table, ASTQ, and thread contexts."""

import pytest

from repro.asm.layout import WINDOW_STRIDE_BYTES
from repro.config import MachineConfig
from repro.isa.registers import RA_REG, SP_REG
from repro.mem.hierarchy import MemoryHierarchy
from repro.rename.astq import ASTQ
from repro.rename.context import ThreadContext
from repro.rename.regfile import PhysRegFile
from repro.rename.rsid import RsidTable
from repro.rename.table import VcaRenameTable


class TestRenameTable:
    def make(self, n_sets=8, assoc=2, regs=16):
        rf = PhysRegFile(regs)
        return VcaRenameTable(n_sets, assoc, rf), rf

    def test_set_and_lookup(self):
        t, rf = self.make()
        p = rf.alloc()
        t.set_mapping((0, 5), p)
        assert t.lookup((0, 5)) is p
        assert p.in_table

    def test_replace_same_key_unmaps_old(self):
        t, rf = self.make()
        a, b = rf.alloc(), rf.alloc()
        t.set_mapping((0, 5), a)
        t.set_mapping((0, 5), b)
        assert t.lookup((0, 5)) is b
        assert not a.in_table and b.in_table

    def test_set_capacity_enforced(self):
        t, rf = self.make(n_sets=1, assoc=2)
        keys = [(0, 0), (0, 1), (0, 2)]
        t.set_mapping(keys[0], rf.alloc())
        t.set_mapping(keys[1], rf.alloc())
        assert not t.has_room(keys[2])
        with pytest.raises(RuntimeError, match="set full"):
            t.set_mapping(keys[2], rf.alloc())

    def test_remove(self):
        t, rf = self.make()
        p = rf.alloc()
        t.set_mapping((0, 3), p)
        t.remove((0, 3))
        assert t.lookup((0, 3)) is None
        assert not p.in_table

    def test_victim_requires_cached_state(self):
        t, rf = self.make(n_sets=1, assoc=2)
        p = rf.alloc()
        p.refcount = 1       # pinned: not evictable
        t.set_mapping((0, 0), p)
        assert t.find_set_victim((0, 1)) is None
        p.refcount = 0
        p.committed = True
        assert t.find_set_victim((0, 1))[1] is p

    def test_victim_lru_order(self):
        t, rf = self.make(n_sets=1, assoc=2)
        a, b = rf.alloc(), rf.alloc()
        for p in (a, b):
            p.committed = True
        rf.now = 10
        rf.touch(a)
        rf.now = 20
        rf.touch(b)
        t.set_mapping((0, 0), a)
        t.set_mapping((0, 1), b)
        rf.now = 100
        assert t.find_global_victim()[1] is a

    def test_victim_exclusion(self):
        t, rf = self.make(n_sets=1, assoc=2)
        a = rf.alloc()
        a.committed = True
        t.set_mapping((0, 0), a)
        rf.now = 1000
        assert t.find_global_victim(exclude=a) is None

    def test_victim_recency_protection(self):
        t, rf = self.make()
        a = rf.alloc()
        a.committed = True
        rf.now = 100
        rf.touch(a)
        t.set_mapping((0, 0), a)
        rf.now = 120
        assert t.find_global_victim(min_age=64) is None
        rf.now = 200
        assert t.find_global_victim(min_age=64)[1] is a

    def test_window_frames_do_not_alias_one_set(self):
        """Frames are a whole number of sets apart; the index hash must
        spread consecutive window frames across different sets."""
        t, _ = self.make(n_sets=64, assoc=2)
        frame_words = WINDOW_STRIDE_BYTES // 8
        sets = {id(t._set_of((3, depth * frame_words)))
                for depth in range(16)}
        assert len(sets) > 8

    def test_entries_for_rsid(self):
        t, rf = self.make()
        t.set_mapping((1, 0), rf.alloc())
        t.set_mapping((2, 1), rf.alloc())
        assert len(t.entries_for_rsid(1)) == 1
        assert t.occupancy == 2


class TestRsidTable:
    def test_miss_then_install(self):
        r = RsidTable(4, 16)
        assert r.lookup(100) is None
        rsid = r.install(100)
        assert r.lookup(100) == rsid
        assert r.misses == 1

    def test_split(self):
        r = RsidTable(4, 16)
        upper, woff = r.split(0x2_4528)
        assert upper == 0x2
        assert woff == 0x4528 >> 3

    def test_capacity_and_eviction(self):
        r = RsidTable(2, 16)
        a = r.install(1)
        r.install(2)
        assert not r.has_free
        with pytest.raises(RuntimeError):
            r.install(3)
        assert r.lru_victim() == a
        r.evict(a)
        assert r.has_free
        r.install(3)

    def test_lru_updated_by_lookup(self):
        r = RsidTable(2, 16)
        a = r.install(1)
        b = r.install(2)
        r.lookup(1)
        assert r.lru_victim() == b

    def test_double_install_rejected(self):
        r = RsidTable(4, 16)
        r.install(9)
        with pytest.raises(RuntimeError):
            r.install(9)

    def test_evict_unused_rejected(self):
        r = RsidTable(4, 16)
        with pytest.raises(RuntimeError):
            r.evict(0)


class TestAstq:
    def make(self, size=4, writes=2):
        cfg = MachineConfig.baseline()
        h = MemoryHierarchy(cfg)
        rf = PhysRegFile(8)
        return ASTQ(size, writes, h, rf), h, rf

    def test_write_budget_per_cycle(self):
        q, h, rf = self.make()
        q.begin_instruction()
        assert q.can_write(2)
        q.push_spill(0x100, 1)
        q.push_spill(0x108, 2)
        q.begin_instruction()
        assert not q.can_write(1)     # budget spent by another instr
        q.begin_cycle()
        q.begin_instruction()
        assert q.can_write(1)

    def test_first_instruction_may_burst(self):
        q, h, rf = self.make(size=4, writes=2)
        q.begin_cycle()
        q.begin_instruction()
        for i in range(4):
            assert q.can_write(1)
            q.push_spill(0x100 + 8 * i, i)

    def test_capacity_blocks_second_instruction(self):
        q, h, rf = self.make(size=2, writes=4)
        q.begin_instruction()
        q.push_spill(0x100, 1)
        q.push_spill(0x108, 2)
        q.begin_cycle()
        q.begin_instruction()
        assert not q.can_write(1)

    def test_spill_data_lands_at_issue(self):
        q, h, rf = self.make()
        q.begin_instruction()
        q.push_spill(0x100, 42)
        q.issue_head(now=0)
        assert h.read_word(0x100) == 42

    def test_fill_pins_and_completes(self):
        q, h, rf = self.make()
        h.write_word(0x200, 7)
        p = rf.alloc()
        q.begin_instruction()
        q.push_fill(0x200, p)
        assert p.refcount == 1        # the outstanding fill pins it
        q.issue_head(now=0)
        woken = []
        q.tick(now=400, wakeup=woken.append)  # past the cold-miss latency
        assert p.value == 7 and p.ready and p.committed and not p.dirty
        assert p.from_fill
        assert p.refcount == 0
        assert woken == [p]

    def test_fill_to_doomed_register_discards(self):
        q, h, rf = self.make()
        p = rf.alloc()
        q.begin_instruction()
        q.push_fill(0x200, p)
        p.doomed = True
        q.issue_head(now=0)
        q.tick(now=400, wakeup=lambda r: (_ for _ in ()).throw(
            AssertionError("doomed fill must not wake")))
        assert rf.n_free == 8         # freed on completion

    def test_unpush_rolls_back(self):
        q, h, rf = self.make()
        p = rf.alloc()
        q.begin_instruction()
        op = q.push_fill(0x200, p)
        q.unpush(op)
        assert p.refcount == 0
        assert not q.queue

    def test_fifo_order(self):
        q, h, rf = self.make()
        q.begin_instruction()
        q.push_spill(0x100, 1)
        p = rf.alloc()
        q.push_fill(0x100, p)
        q.issue_head(now=0)           # the spill issues first
        q.issue_head(now=0)
        q.tick(now=400, wakeup=lambda r: None)
        assert p.value == 1           # fill observed the spilled data

    def test_head_age(self):
        q, h, rf = self.make()
        q.begin_cycle()
        q.begin_instruction()
        q.push_spill(0x100, 1)
        for _ in range(5):
            q.begin_cycle()
        assert q.head_age() == 5


class TestThreadContext:
    def test_flat_context_never_moves(self):
        ctx = ThreadContext(0, windowed_abi=False)
        base = ctx.laddr(RA_REG)
        ctx.push_window()
        assert ctx.laddr(RA_REG) == base

    def test_windowed_push_pop(self):
        ctx = ThreadContext(0, windowed_abi=True)
        a = ctx.laddr(RA_REG)
        ctx.push_window()
        b = ctx.laddr(RA_REG)
        assert b == a + WINDOW_STRIDE_BYTES
        ctx.pop_window()
        assert ctx.laddr(RA_REG) == a

    def test_globals_unaffected_by_windows(self):
        ctx = ThreadContext(0, windowed_abi=True)
        sp = ctx.laddr(SP_REG)
        ctx.push_window()
        assert ctx.laddr(SP_REG) == sp

    def test_unwind(self):
        ctx = ThreadContext(0, windowed_abi=True)
        a = ctx.laddr(RA_REG)
        ctx.push_window()
        ctx.unwind(1)
        assert ctx.laddr(RA_REG) == a and ctx.depth == 0

    def test_threads_have_disjoint_spaces(self):
        a = ThreadContext(0, True)
        b = ThreadContext(1, True)
        assert a.laddr(RA_REG) != b.laddr(RA_REG)
        assert a.laddr(SP_REG) != b.laddr(SP_REG)

    def test_depth_tracking(self):
        ctx = ThreadContext(0, windowed_abi=True)
        for _ in range(5):
            ctx.push_window()
        ctx.pop_window()
        assert ctx.depth == 4 and ctx.max_depth == 5
