"""The Virtual Context Architecture rename engine (Section 2).

Renaming is the two-stage process of Section 2.1.1: a register index
is combined with the thread's context base pointer to form a logical
register memory address, which is then looked up in a tagged,
set-associative rename table.  A source miss allocates a physical
register and generates a *fill*; allocation with no free registers
evicts the LRU unpinned committed register, generating a *spill* if
the value is dirty.  Spills and fills flow through the ASTQ
(Section 2.2.2), and addresses are compressed through the RSID
translation table (Section 2.2.1) before indexing the rename table.

Structural limits modelled per Section 3: 8 rename-table ports per
cycle with same-register reads combined; at most two ASTQ writes per
cycle; a 4-entry ASTQ.  Exhausting any of these delays the instruction
to the next cycle.

Misprediction recovery follows the commit-table philosophy of
Section 2.1.3: the pipeline squashes youngest-first and each squashed
instruction restores the previous mapping of its destination, which
reconstructs exactly the state the Pentium-4-style retirement-map walk
would produce.

``ideal=True`` turns the engine into the paper's idealised
register-window machine: spills and fills are instantaneous and
traffic-free, the rename table is unbounded and untagged, and no extra
rename stage is charged.  This provides the lower-bound curve of
Figures 4-6 while sharing all bookkeeping with the real engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.asm.layout import WINDOW_STRIDE_BYTES
from repro.asm.program import Program
from repro.config import MachineConfig
from repro.isa.registers import (
    GLOBAL_REGS, N_ARCH_REGS, SP_REG, WINDOW_REGS,
)
from repro.mem.hierarchy import MemoryHierarchy

from .astq import ASTQ
from .base import RenameEngine
from .context import ThreadContext
from .regfile import PhysReg
from .rsid import RsidTable
from .table import VcaRenameTable

#: A journal entry is a tagged tuple, undone by ``_undo_all``.  Tagged
#: tuples replace the earlier per-entry undo closures: rename journals
#: are created and discarded for every renamed instruction, and tuple
#: construction is several times cheaper than closure allocation.
Undo = Tuple


class VcaRename(RenameEngine):
    """VCA renaming for flat or windowed binaries, 1-N threads."""

    def __init__(self, cfg: MachineConfig, hierarchy: MemoryHierarchy,
                 ideal: bool = False) -> None:
        super().__init__(cfg, hierarchy)
        self.ideal = ideal
        self.extra_rename_stage = not ideal
        if ideal:
            # Unbounded, conflict-free table; no RSID compression.
            self.table = VcaRenameTable(1, 1 << 30, self.regfile)
            self.rsid: Optional[RsidTable] = None
            self._astq: Optional[ASTQ] = None
        else:
            self.table = VcaRenameTable(cfg.vca_table_sets,
                                        cfg.effective_vca_assoc,
                                        self.regfile)
            self.rsid = RsidTable(cfg.rsid_entries, cfg.rsid_offset_bits)
            self._astq = ASTQ(cfg.astq_size, cfg.astq_writes_per_cycle,
                              hierarchy, self.regfile)
        self.contexts: Dict[int, ThreadContext] = {}
        self._ports_used = 0
        self._rename_ports = cfg.vca_rename_ports
        #: The rename probe's translation of each logical address it
        #: has seen: ``laddr -> (rsid, table key, table set)``, valid
        #: while the address's register space keeps its RSID (cleared
        #: whenever an RSID is evicted).
        self._probes: Dict[int, Tuple[int, Tuple[int, int], dict]] = {}
        #: Scratch journal reused across try_rename calls (its entries
        #: never escape the call).
        self._journal: List[Undo] = []
        self._dead_hint = cfg.vca_dead_window_hint
        #: Eviction protection window (cycles); 0 for the ideal engine.
        self._protect_age = 0 if ideal else cfg.vca_protect_cycles
        #: RSID whose register space is being flushed, or None.
        self._flush_rsid: Optional[int] = None
        self._flush_entries: List[Tuple[Tuple[int, int], PhysReg]] = []
        self.fills_generated = 0
        self.spills_generated = 0
        #: Registers reclaimed spill-free by the dead-window extension.
        self.dead_drops = 0

    # -- observability -------------------------------------------------------
    def _obs_spill(self, addr: int, cause: str) -> None:
        tr = self.trace
        if tr.enabled:
            tr.emit(self.clock(), -1, "spill", addr=addr, cause=cause)

    def _obs_fill(self, addr: int, cause: str) -> None:
        tr = self.trace
        if tr.enabled:
            tr.emit(self.clock(), -1, "fill", addr=addr, cause=cause)

    # -- plumbing ------------------------------------------------------------
    @property
    def astq(self) -> Optional[ASTQ]:
        return self._astq

    @property
    def busy(self) -> bool:
        return self._astq is not None and self._astq.busy

    def begin_cycle(self) -> None:
        self._ports_used = 0
        self.regfile.now += 1
        if self._astq is not None:
            self._astq.begin_cycle()
        if self._flush_rsid is not None:
            self._advance_rsid_flush()

    # -- initialisation ---------------------------------------------------------
    def init_thread(self, tid: int, program: Program) -> None:
        ctx = ThreadContext(tid, windowed_abi=program.windowed)
        self.contexts[tid] = ctx
        # Initial architectural state lives in the memory-mapped
        # register space; the first read of SP fills it from memory.
        self.hierarchy.memory.load_image(
            {ctx.laddr(SP_REG): program.stack_top})
        # Warm the hot part of the register space (global frame plus
        # the first window frames) along with the rest of the
        # warm-start state, so short runs do not pay the cold-miss
        # transient the paper's 5M-instruction warmup absorbs.
        self.hierarchy.warm(ctx.global_base, ctx.global_base + 256)
        self.hierarchy.warm(ctx.window_base,
                            ctx.window_base + 8 * 512)

    def load_arch_state(self, tid: int, state) -> None:
        """Seed the register space and warm the rename table.

        VCA's committed state *is* the memory-mapped register space, so
        seeding writes every checkpointed register value there and — for
        the windowed ABI — moves the context's window pointer to the
        checkpoint's call depth.  The hot context (globals plus the
        current window frame) is then pre-mapped into the rename table
        as clean committed entries, removing the cold-start fill burst
        a mid-program entry would otherwise pay.
        """
        ctx = self.contexts[tid]
        write_word = self.hierarchy.write_word
        if ctx.windowed_abi:
            for _ in range(state.depth):
                ctx.push_window()
            base0 = ctx.window_base - state.depth * WINDOW_STRIDE_BYTES
            for d, frame in enumerate(state.frames):
                fb = base0 + d * WINDOW_STRIDE_BYTES
                for slot in range(WINDOW_REGS):
                    write_word(fb + slot * 8, frame[slot])
            seed_regs = GLOBAL_REGS
        else:
            seed_regs = range(N_ARCH_REGS)
        for r in seed_regs:
            if r != 31:
                write_word(ctx.laddr(r), state.reg_value(r))
        self._warm_table(ctx)

    def _warm_table(self, ctx: ThreadContext) -> None:
        """Pre-map the current context into the rename table (clean,
        committed, fill-sourced entries), respecting associativity,
        RSID capacity and the free list — any shortage just ends the
        warmup early."""
        hot: List[int] = []
        if ctx.windowed_abi:
            hot.extend(ctx.laddr(r) for r in GLOBAL_REGS if r != 31)
            hot.extend(ctx.window_base + slot * 8
                       for slot in range(WINDOW_REGS))
        else:
            hot.extend(ctx.laddr(r) for r in range(N_ARCH_REGS)
                       if r != 31)
        for laddr in hot:
            if self.rsid is not None:
                upper, _woff, rs = self.rsid.split_lookup(laddr)
                if rs is None and not self.rsid.has_free:
                    break
            key = self._key_for(laddr, None)
            if key is None:  # pragma: no cover - excluded by the guard
                break
            sset = self.table._set_of(key)
            if key in sset or len(sset) >= self.table.assoc:
                continue
            p = self.regfile.alloc()
            if p is None:
                break
            p.laddr = laddr
            p.value = self.hierarchy.read_word(laddr)
            p.ready = True
            p.committed = True
            p.dirty = False
            p.from_fill = True
            self.table.set_mapping(key, p)

    # -- key handling ----------------------------------------------------------
    def _key_for(self, laddr: int,
                 journal: Optional[List[Undo]]) -> Optional[Tuple[int, int]]:
        """RSID-compressed rename-table key for ``laddr``.

        Returns None when translation requires an RSID replacement,
        which first flushes the victim register space (rename stalls
        until the flush drains).
        """
        rsid = self.rsid
        if rsid is None:
            return (0, laddr >> 3)
        upper, woff, rs = rsid.split_lookup(laddr)
        if rs is None:
            if rsid.has_free:
                rs = rsid.install(upper)
                if journal is not None:
                    journal.append(("rsid", rs))
            else:
                self._start_rsid_flush()
                return None
        return (rs, woff)

    def _start_rsid_flush(self) -> None:
        if self._flush_rsid is not None:
            return
        victim = self.rsid.lru_victim()
        self._flush_rsid = victim
        self._flush_entries = self.table.entries_for_rsid(victim)

    def _advance_rsid_flush(self) -> None:
        """Drain the pending RSID flush: spill/unmap that register
        space's entries a few per cycle, then release the RSID.

        The entry list is recomputed every cycle because commits and
        squashes continue while rename is stalled and may replace or
        restore mappings in the victim space.
        """
        budget = (self.cfg.astq_writes_per_cycle
                  if self._astq is not None else 1 << 30)
        entries = self.table.entries_for_rsid(self._flush_rsid)
        blocked = False
        for key, reg in entries:
            if budget <= 0 or reg.pinned or not reg.committed:
                blocked = True  # retry next cycle
                continue
            if reg.dirty:
                if self._astq is not None and not self._astq.can_write(1):
                    blocked = True
                    continue
                self._spill(reg)
                budget -= 1
            self.table.remove(key)
            self.regfile.free(reg)
        if not blocked and not self.table.entries_for_rsid(self._flush_rsid):
            self.rsid.evict(self._flush_rsid)
            self._probes.clear()
            self.rsid.flushes += 1
            self._flush_rsid = None

    # -- spill / fill ------------------------------------------------------------
    def _spill(self, reg: PhysReg, cause: str = "rsid_flush") -> None:
        self.spills_generated += 1
        self._obs_spill(reg.laddr, cause)
        if self.ideal:
            self.hierarchy.write_word(reg.laddr, reg.value)
        else:
            self._astq.push_spill(reg.laddr, reg.value)

    def _fill(self, reg: PhysReg, laddr: int) -> None:
        self.fills_generated += 1
        self._obs_fill(laddr, "src_miss")
        if self.ideal:
            reg.value = self.hierarchy.read_word(laddr)
            reg.ready = True
            reg.committed = True
            reg.dirty = False
            reg.from_fill = True
        else:
            reg.ready = False
            self._astq.push_fill(laddr, reg)

    # -- allocation --------------------------------------------------------------
    def _evict(self, key: Tuple[int, int], reg: PhysReg,
               journal: List[Undo], cause: str = "evict") -> bool:
        """Reclaim a cached register: spill if dirty, unmap, free."""
        tr = self.trace
        if tr.enabled:
            tr.emit(self.clock(), -1, "victim", preg=reg.idx,
                    dirty=reg.dirty, laddr=reg.laddr, cause=cause)
        if reg.dirty:
            if self._astq is not None and not self._astq.can_write(1):
                self.stalls["astq_full"] += 1
                return False
            if self.ideal:
                self.hierarchy.write_word(reg.laddr, reg.value)
                self.spills_generated += 1
            else:
                op = self._astq.push_spill(reg.laddr, reg.value)
                self.spills_generated += 1
                journal.append(("unpush", op))
            self._obs_spill(reg.laddr, cause)
        snapshot = (reg.value, reg.ready, reg.committed, reg.dirty,
                    reg.laddr, reg.from_fill, reg.last_use)
        self.table.remove(key)
        self.regfile.free(reg)
        journal.append(("evict", reg, key, snapshot))
        return True

    def _alloc(self, key: Tuple[int, int], journal: List[Undo],
               exclude: Optional[PhysReg] = None,
               sset: Optional[dict] = None) -> Optional[PhysReg]:
        """A free physical register plus a free way for ``key``.

        ``exclude`` shields the destination's previous mapping: it is
        out of the rename table only after ``set_mapping`` runs, so
        without the shield the global LRU scan could evict and
        reallocate the very register recovery needs as ``prev_pdst``.
        ``sset`` lets the caller pass ``key``'s already-probed table
        set to avoid re-deriving it (the rename hot path).  A caller
        that may still fail after the allocation journals the returned
        register as ``("unfree", p)``.
        """
        min_age = self._protect_age
        if sset is None:
            sset = self.table._set_of(key)
        if key not in sset and len(sset) >= self.table.assoc:
            victim = self.table.find_set_victim(key, exclude, min_age)
            if victim is None:
                self.stalls["set_conflict"] += 1
                return None
            if not self._evict(*victim, journal, cause="set_conflict"):
                return None
        p = self.regfile.alloc()
        if p is None:
            victim = self.table.find_global_victim(exclude, min_age)
            if victim is None:
                self.stalls["no_preg"] += 1
                return None
            if not self._evict(*victim, journal, cause="regfile_full"):
                return None
            p = self.regfile.alloc()
            if p is None:  # the evicted way was in our (full) set
                self.stalls["no_preg"] += 1
                return None
        return p

    # -- rename proper ------------------------------------------------------------
    def try_rename(self, d) -> bool:
        if self._flush_rsid is not None:
            self.stalls["rsid_flush"] += 1
            return False
        astq = self._astq
        if astq is not None:
            # ASTQ.begin_instruction, inlined (runs per rename attempt).
            astq._writes_at_instr_start = astq._writes_this_cycle
            astq._queue_at_instr_start = len(astq.queue)
        journal = self._journal
        if journal:
            journal.clear()
        ports = self._ports_used
        if self._rename_inner(d, journal):
            return True
        # Roll back.  The operand references and the port budget are
        # not journaled: each reference is on d.p_rs1/d.p_rs2, and is
        # dropped before the journal unwinds past its allocation.
        p = d.p_rs1
        if p is not None:
            p.refcount -= 1
        p = d.p_rs2
        if p is not None:
            p.refcount -= 1
        self._undo_all(journal)
        self._ports_used = ports
        d.p_rs1 = d.p_rs2 = d.pdst = d.prev_pdst = None
        d.dest_key = None
        d.ctx_delta = 0
        return False

    def _undo_all(self, journal: List[Undo]) -> None:
        """Roll back a failed rename, youngest journal entry first."""
        table = self.table
        regfile = self.regfile
        for entry in reversed(journal):
            tag = entry[0]
            if tag == "unfree":
                regfile.unfree(entry[1])
            elif tag == "unmap":
                table.remove(entry[1])
            elif tag == "unpush":
                self._astq.unpush(entry[1])
            elif tag == "evict":
                _, reg, key, snapshot = entry
                p = regfile.alloc()
                assert p is reg, "rollback out of order"
                (reg.value, reg.ready, reg.committed, reg.dirty,
                 reg.laddr, reg.from_fill, reg.last_use) = snapshot
                table.set_mapping(key, reg)
            elif tag == "rsid":
                self.rsid.evict(entry[1])
                self._probes.clear()
            elif tag == "pop":
                entry[1].pop_window()
            else:  # "push"
                entry[1].push_window()

    def _rename_inner(self, d, journal: List[Undo]) -> bool:
        ins = d.instr
        ctx = self.contexts[d.tid]
        gbase = ctx.global_base
        wbase = ctx.window_base
        # Logical addresses from the interned operand views: the
        # windowed/slot-offset classification is static per instruction
        # and was computed once at assembly.  Unrolled for the 0/1/2
        # source arities rather than a comprehension.
        vsrcs = ins.vca_srcs
        if not vsrcs:
            src_laddrs = ()
        elif len(vsrcs) == 1:
            s0 = vsrcs[0]
            src_laddrs = ((wbase if s0[1] else gbase) + s0[2],)
        else:
            s0 = vsrcs[0]
            s1 = vsrcs[1]
            src_laddrs = ((wbase if s0[1] else gbase) + s0[2],
                          (wbase if s1[1] else gbase) + s1[2])

        # A call enters the new window before its destination (the
        # return-address register) is renamed; a return renames its
        # source in the current window and pops afterwards.
        windowed_abi = ctx.windowed_abi
        if ins.is_call and windowed_abi:
            ctx.push_window()
            d.ctx_delta = 1
            journal.append(("pop", ctx))
            wbase = ctx.window_base
        vdest = ins.vca_dest
        if vdest is None:
            dest_laddr = None
        else:
            dest_laddr = (wbase if vdest[0] else gbase) + vdest[1]
        if ins.is_ret and windowed_abi:
            # Remember the departing frame for the dead-window
            # extension (returns have no destination, so dest_key is
            # free to carry it).
            d.dest_key = ("retframe", ctx.window_base)
            ctx.pop_window()
            d.ctx_delta = -1
            journal.append(("push", ctx))

        ideal = self.ideal
        # Rename-table port budget: reads of the same register combine.
        # try_rename restores the budget if the rename fails.
        if not ideal:
            need = len(src_laddrs)
            if need == 2 and src_laddrs[0] == src_laddrs[1]:
                need = 1
            if dest_laddr is not None and dest_laddr not in src_laddrs:
                need += 1
            used = self._ports_used
            if used and used + need > self._rename_ports:
                self.stalls["rename_ports"] += 1
                return False
            self._ports_used = used + need

        observed = self.trace.enabled
        rf_now = self.regfile.now
        # Rename runs for every fetched instruction (and re-runs on
        # every stalled retry), so the RSID translation and the tagged
        # rename-table probe are inlined here: a seen address's key and
        # table set come from _probes, and only its RSID LRU stamp is
        # taken, as RsidTable.split_lookup would.
        probes_get = self._probes.get
        rsid_tab = self.rsid
        if rsid_tab is not None:
            rsid_tick = rsid_tab._tick
            rsid_last = rsid_tab._last_use

        # Sources: lookup, filling on miss.
        if vsrcs:
            rs1 = ins.rs1
            first = True
            for (reg, _windowed, _off), laddr in zip(vsrcs, src_laddrs):
                probe = probes_get(laddr)
                if probe is None:
                    probe = self._translate(laddr, journal)
                    if probe is None:
                        return False
                elif rsid_tab is not None:
                    rsid_last[probe[0]] = rsid_tick()
                _, key, sset = probe
                p = sset.get(key)
                if observed:
                    self._obs_probe(d, laddr, reg, p is not None)
                if p is None:
                    p = self._fill_miss(key, laddr, sset, journal)
                    if p is None:
                        return False
                p.refcount += 1
                p.last_use = rf_now
                if first and reg == rs1:
                    d.p_rs1 = p
                else:
                    d.p_rs2 = p
                first = False

        # Destination.  Nothing after its allocation can fail, so it
        # is not journaled.
        if dest_laddr is not None:
            probe = probes_get(dest_laddr)
            if probe is None:
                probe = self._translate(dest_laddr, journal)
                if probe is None:
                    return False
            elif rsid_tab is not None:
                rsid_last[probe[0]] = rsid_tick()
            _, key, sset = probe
            prev = sset.get(key)  # not a probe: no tag_hit/tag_miss
            p = self._alloc(key, journal, exclude=prev, sset=sset)
            if p is None:
                return False
            p.laddr = dest_laddr
            p.ready = False
            p.committed = False
            p.refcount = 1
            # set_mapping, inlined: _alloc guaranteed a way, and the
            # entry at ``key`` (prev) is shielded from eviction, so it
            # is still the displaced mapping.
            if prev is not None:
                prev.in_table = False
            sset[key] = p
            p.in_table = True
            d.pdst = p
            d.prev_pdst = prev
            d.dest_key = key
        return True

    def _translate(self, laddr: int, journal: List[Undo]):
        """The rename probe's cold path: translate ``laddr`` through the
        RSID table (installing an RSID if one is free) and remember the
        result in ``_probes``.  Returns ``(rsid, key, table set)``, or
        None when an RSID flush must run first (a stall)."""
        key = self._key_for(laddr, journal)
        if key is None:
            self.stalls["rsid_flush"] += 1
            return None
        probe = (key[0], key, self.table._set_of(key))
        self._probes[laddr] = probe
        return probe

    def _obs_probe(self, d, laddr: int, reg: int, hit: bool) -> None:
        """Trace one rename-table probe (called only while tracing)."""
        self.trace.emit(self.clock(), d.tid,
                        "tag_hit" if hit else "tag_miss",
                        laddr=laddr, reg=reg)

    def _fill_miss(self, key: Tuple[int, int], laddr: int, sset: dict,
                   journal: List[Undo]) -> Optional[PhysReg]:
        """A source that missed in the rename table: allocate a
        register, map it and queue its fill, journaling each step.
        None means a stall."""
        astq = self._astq
        if astq is not None and not astq.can_write(1):
            self.stalls["astq_full"] += 1
            return None
        p = self._alloc(key, journal, sset=sset)
        if p is None:
            return None
        journal.append(("unfree", p))
        p.laddr = laddr
        p.committed = False
        self.table.set_mapping(key, p)
        journal.append(("unmap", key))
        self._fill(p, laddr)
        if astq is not None:
            journal.append(("unpush", astq.queue[-1]))
        return p

    # -- retire / recover -----------------------------------------------------------
    def on_commit(self, d) -> None:
        regfile = self.regfile
        # References are counted per operand use, so a register feeding
        # both sources is unpinned twice.  PhysRegFile.unpin is inlined
        # here (drop a reference, free when doomed and unreferenced):
        # commit runs it for every operand of every instruction.
        p1 = d.p_rs1
        if p1 is not None:
            p1.refcount -= 1
            if p1.doomed and p1.refcount == 0:
                regfile.free(p1)
        p2 = d.p_rs2
        if p2 is not None:
            p2.refcount -= 1
            if p2.doomed and p2.refcount == 0:
                regfile.free(p2)
        p = d.pdst
        if p is not None:
            p.committed = True
            p.dirty = True
            p.from_fill = False
            p.refcount -= 1
            if p.doomed and p.refcount == 0:
                regfile.free(p)
            prev = d.prev_pdst
            if prev is not None:
                prev.doomed = True
                if not prev.pinned:
                    regfile.free(prev)
        if (self._dead_hint and d.ctx_delta == -1
                and d.instr.is_ret):
            self._drop_dead_window(d.dest_key[1])

    def _drop_dead_window(self, frame_base: int) -> None:
        """Section 6 extension: a committed return makes the departing
        window architecturally dead (the ABI gives every activation a
        fresh window), so its cached registers are reclaimed without
        spilling — "avoid spilling dead values to memory and reclaim
        dead registers preferentially over live but inactive ones".

        Registers still pinned (e.g. by an in-flight fill) are left
        alone; they are rare and die through the normal paths.
        """
        hi = frame_base + WINDOW_STRIDE_BYTES
        for key, reg in list(self.table.entries()):
            if (reg.laddr is not None and frame_base <= reg.laddr < hi
                    and reg.cached):
                self.table.remove(key)
                self.regfile.free(reg)
                self.dead_drops += 1

    def on_squash(self, d) -> None:
        if d.pdst is not None:
            p = d.pdst
            p.refcount -= 1
            if d.prev_pdst is not None:
                self.table.set_mapping(d.dest_key, d.prev_pdst)
            else:
                self.table.remove(d.dest_key)
            self.regfile.free(p)
        if d.p_rs1 is not None:
            self.regfile.unpin(d.p_rs1)
        if d.p_rs2 is not None:
            self.regfile.unpin(d.p_rs2)
        if d.ctx_delta:
            self.contexts[d.tid].unwind(d.ctx_delta)

    # -- inspection ----------------------------------------------------------------
    def arch_value(self, tid: int, reg: int) -> float:
        if reg == 31:
            return 0
        laddr = self.contexts[tid].laddr(reg)
        if self.rsid is None:
            key = (0, laddr >> 3)
        else:
            upper, woff = self.rsid.split(laddr)
            rs = self.rsid.lookup(upper)
            if rs is None:  # space not resident: the value is in memory
                return self.hierarchy.read_word(laddr)
            key = (rs, woff)
        p = self.table.lookup(key)
        if p is not None:
            return p.value
        # An evicted committed value whose spill has not issued yet
        # lives in the ASTQ, not memory; forward from the youngest
        # matching pending spill, store-queue style.  Issued spills
        # write memory at issue time, so in-flight entries are already
        # visible through read_word.
        astq = self._astq
        if astq is not None:
            for op in reversed(astq.queue):
                if op.kind == "spill" and op.addr == laddr:
                    return op.value
        return self.hierarchy.read_word(laddr)
