"""The cycle-level out-of-order superscalar core.

One :class:`Pipeline` models the Table 1 machine: a four-wide fetch /
rename / issue / commit pipeline with a 128-entry instruction queue, a
192-entry reorder buffer, a hybrid branch predictor, a load/store
queue with store-to-load forwarding, and the three-level cache
hierarchy with DL1 port arbitration.  The register-rename engine is
pluggable (conventional, conventional windows, ideal windows, VCA) —
per the paper, VCA's changes are confined to the rename stage.

Stage ordering within a cycle: writeback completions (including ASTQ
spill/fill completions), commit, the window-trap sequencer, rename +
dispatch, issue (program loads/stores first, then ASTQ operations on
leftover DL1 ports per Section 2.2.2), and finally fetch.

Speculation is modelled faithfully: wrong-path instructions rename,
execute and access the data cache (the misspeculation traffic visible
in Figure 5) until the mispredicted branch resolves, at which point
younger instructions are squashed youngest-first and the rename engine
restores its committed mappings — equivalent to the Pentium-4-style
retirement-map recovery of Section 2.1.3.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional

from repro.asm.program import Program
from repro.config import MachineConfig
from repro.frontend.branch import HybridPredictor
from repro.isa.instruction import CTRL_BR, CTRL_CALL, CTRL_COND, CTRL_RET
from repro.mem.hierarchy import MemoryHierarchy
from repro.hooks import NULL_TRACER
from repro.rename.base import RenameEngine

from .alu import _build_exec
from .dyninst import DynInst
from .stats import SimStats, ThreadStats


class SimulationError(RuntimeError):
    """The timing model reached an architecturally impossible state."""


class DeadlockError(SimulationError):
    """No instruction committed for an implausibly long time."""


#: Pseudo address base for instruction-cache accesses.
_ICACHE_BASE = 0x2000_0000

#: Cycles without a commit before the deadlock detector fires.
_DEADLOCK_WINDOW = 200_000

#: ASTQ head age (cycles) after which it outranks program loads.
_ASTQ_AGE_PRIORITY = 8

#: Fetch-buffer capacity in instructions (fetch stalls beyond this).
_FETCH_BUFFER = 16

#: Maximum retired/dropped DynInst instances kept for recycling.
_DYNINST_POOL = 512

_SEQ_KEY = attrgetter("seq")


class ThreadState:
    """Fetch-side state of one hardware thread."""

    __slots__ = ("tid", "program", "stats", "next_pc", "fetch_halted",
                 "halted")

    def __init__(self, tid: int, program: Program,
                 stats: ThreadStats) -> None:
        self.tid = tid
        self.program = program
        self.stats = stats
        self.next_pc = program.entry
        self.fetch_halted = False
        self.halted = False

    def icount(self):
        """ICOUNT's fetch priority: instructions in flight (fetched,
        and neither committed nor squashed), then the thread id."""
        s = self.stats
        return s.fetched - s.committed - s.squashed, self.tid


class Pipeline:
    """Out-of-order timing model around a pluggable rename engine."""

    def __init__(self, cfg: MachineConfig, programs: List[Program],
                 engine: RenameEngine,
                 hierarchy: MemoryHierarchy,
                 tracer=None) -> None:
        if len(programs) != cfg.n_threads:
            raise ValueError("one program per hardware thread required")
        self.cfg = cfg
        self.engine = engine
        self.hierarchy = hierarchy
        #: Observability: event tracer (inert by default), shared with
        #: the engine and the caches.
        self.trace = tracer if tracer is not None else NULL_TRACER
        clock = lambda: self.cycle  # noqa: E731 - shared cycle source
        engine.attach_obs(self.trace, clock)
        hierarchy.attach_obs(self.trace, clock)
        self.predictor = HybridPredictor()
        self.stats = SimStats(threads=[ThreadStats() for _ in programs])
        self.threads = [ThreadState(i, p, self.stats.threads[i])
                        for i, p in enumerate(programs)]
        for t in self.threads:
            hierarchy.memory.load_image(t.program.data)
            hierarchy.warm(t.program.data_base, t.program.data_end)
            engine.init_thread(t.tid, t.program)

        self.cycle = 0
        self._seq = 0
        self._last_commit = 0
        #: Optional callable invoked with each DynInst as it commits,
        #: in program order (per thread).  Used by the differential
        #: co-simulation tests to compare the commit stream against the
        #: functional interpreter; None (the default) costs nothing on
        #: the hot path.
        self.commit_hook = None

        # Per-thread front-end queues: (ready_cycle, DynInst) in fetch
        # order.  Keeping them separate prevents one register- or
        # ROB-starved thread from head-of-line-blocking its siblings
        # at rename, as per-thread decode queues do in real SMT cores.
        self.front: List[deque] = [deque() for _ in programs]
        # Per-thread reorder buffers (statically partitioned shares);
        # commit is in-order within a thread and independent across
        # threads, like separate per-thread commit pointers.
        self.rob: List[deque] = [deque() for _ in programs]
        self._rename_rr = 0
        self._commit_rr = 0
        # Rename and commit visit the threads round-robin: order ``rr``
        # starts at thread ``rr``.
        n = len(programs)
        self._rr_orders = [tuple((rr + i) % n for i in range(n))
                           for rr in range(n)]
        self.iq_count = 0
        self.lsq_count = 0
        self._ready: List = []          # heap of (seq, DynInst)
        self._waiters: Dict[int, List[DynInst]] = {}
        # Per-thread in-flight stores, program order (LSQ store half).
        self._stores: List[List[DynInst]] = [[] for _ in programs]
        # Loads with a computed address awaiting LSQ clearance or a port.
        self._pending_loads: List[DynInst] = []
        # Loads blocked by an older store whose address is unknown,
        # parked under that store's seq until it executes.
        self._parked: Dict[int, List[DynInst]] = {}
        self._wheel: Dict[int, List] = {}

        self._latency = {
            "int": 1,
            "imul": cfg.int_mult_latency,
            "fp": cfg.fp_add_latency,
            "fpmul": cfg.fp_mul_latency,
            "fdiv": cfg.fp_div_latency,
        }
        # Fetch-to-rename distance; VCA pays one extra rename stage
        # (Figure 1, stage R2), the ideal machine does not.
        self._front_latency = (cfg.pipeline_depth - 3
                               + (1 if engine.extra_rename_stage else 0))
        # The front queue holds both in-transit front-end stage latches
        # (width x front-latency instructions) and the fetch buffer
        # proper; only the latter is bounded, so the ceiling must not
        # penalise deeper front ends.
        self._front_cap = _FETCH_BUFFER + cfg.width * self._front_latency
        self._n_threads = cfg.n_threads
        # Per-cycle constants, bound once instead of per stage call.
        self._width = cfg.width
        self._int_alus = cfg.int_alus
        self._fp_units = cfg.fp_units
        self._dl1_ports = hierarchy.dl1_ports
        self._il1_access = hierarchy.il1.access
        self._halted_count = 0
        self._astq = engine.astq
        # Retired/dropped DynInst instances recycled by fetch; only
        # instructions guaranteed unreferenced (committed, or dropped
        # before rename) ever enter the pool.
        self._pool: List[DynInst] = []
        # _pending_loads is kept seq-sorted lazily: appends mark the
        # list dirty instead of re-sorting per instruction.
        self._loads_dirty = False
        # SMT shares the ROB in static per-thread partitions (Raasch &
        # Reinhardt, the paper's own workload-methodology citation,
        # found partitioning best): one stalled thread cannot balloon
        # into the whole window and starve its siblings' rename.
        # Squashed instructions leave their ROB at once, so a thread's
        # share in use is the length of its ROB.
        self._rob_share = cfg.rob_size // cfg.n_threads
        # Window-trap sequencer state.
        self._trap_phase: Optional[str] = None
        self._trap_until = 0
        self._trap_transfers: List = []
        self._trap_outstanding = 0

    # ==================================================================
    # driving
    # ==================================================================
    def run(self, stop_at_first_halt: bool = False,
            commit_limit: Optional[int] = None) -> SimStats:
        """Simulate until completion; returns the statistics.

        Args:
            stop_at_first_halt: finish when any thread halts (SMT
                methodology runs).
            commit_limit: stop once at least this many instructions
                have committed in total — the sampled-simulation
                partial-interval mode.  The loop tests the limit at
                cycle granularity, so the final count may exceed it by
                up to one commit group.
        """
        n_threads = self._n_threads
        max_cycles = self.cfg.max_cycles
        stats = self.stats
        step = self._stepper()
        while True:
            halted = self._halted_count
            if halted and (stop_at_first_halt or halted == n_threads):
                break
            if commit_limit is not None and \
                    stats.committed >= commit_limit:
                break
            step()
            cycle = self.cycle
            if cycle > max_cycles:
                raise DeadlockError(
                    f"exceeded max_cycles={max_cycles}")
            if cycle - self._last_commit > _DEADLOCK_WINDOW:
                raise DeadlockError(
                    f"no commit since cycle {self._last_commit} "
                    f"(now {cycle}); rename stalls: "
                    f"{dict(self.engine.stalls)}")
        return self.finalize()

    def enter_at(self, tid: int, pc: int) -> None:
        """Point thread ``tid``'s fetch at ``pc`` before the first cycle.

        Part of checkpoint seeding (``repro.sampling``): the machine is
        built normally, the rename engine's architectural state is
        overwritten via :meth:`RenameEngine.load_arch_state`, and fetch
        is redirected here so detailed simulation begins mid-program.
        Only legal on a machine that has not simulated yet.
        """
        if self.cycle or self._seq:
            raise SimulationError(
                "enter_at() requires a freshly built machine")
        t = self.threads[tid]
        if not 0 <= pc < len(t.program.code):
            raise SimulationError(
                f"checkpoint PC {pc} outside program code "
                f"(0..{len(t.program.code) - 1})")
        t.next_pc = pc

    def finalize(self) -> SimStats:
        """Collect end-of-run statistics."""
        s = self.stats
        s.cycles = self.cycle
        s.rename_stalls = self.engine.stalls
        dl1 = self.hierarchy.dl1.stats
        s.dl1_accesses = dl1.accesses
        s.dl1_breakdown = dict(dl1.by_kind)
        s.dl1_miss_breakdown = dict(dl1.miss_by_kind)
        s.dl1_port_conflict_cycles = self.hierarchy.dl1_ports.conflict_cycles
        s.dl1_miss_rate = dl1.miss_rate
        s.l2_miss_rate = self.hierarchy.l2.stats.miss_rate
        s.max_regs_in_use = self.engine.regfile.max_in_use
        astq = self.engine.astq
        if astq is not None:
            s.spills = astq.spills
            s.fills = astq.fills
        else:
            s.spills = getattr(self.engine, "spills_generated", 0)
            s.fills = getattr(self.engine, "fills_generated", 0)
        s.window_overflows = getattr(self.engine, "overflows", 0)
        s.window_underflows = getattr(self.engine, "underflows", 0)
        rsid = getattr(self.engine, "rsid", None)
        if rsid is not None:
            s.rsid_flushes = rsid.flushes
        return s

    # ==================================================================
    # one cycle
    # ==================================================================
    def step(self) -> None:
        """Simulate one cycle."""
        self._stepper()()

    def _stepper(self):
        """A function that simulates one cycle, for :meth:`run` to call
        once per cycle.

        Each stage is a separate method, looked up through ``self``
        here, once per run rather than once per cycle: the profiler
        (repro.obs.profile) wraps the stage bound methods on one
        instance before the run starts, without subclassing.  Untraced,
        the memory side's per-cycle reset is just the DL1 port
        arbiter's, so that is bound directly.
        """
        hierarchy = self.hierarchy
        engine = self.engine
        reset_ports = (hierarchy.begin_cycle if self.trace.enabled
                       else hierarchy.dl1_ports.begin_cycle)
        engine_begin = engine.begin_cycle
        writeback = self._writeback
        commit = self._commit
        trap_sequencer = self._trap_sequencer
        rename_dispatch = self._rename_dispatch
        issue = self._issue_stage
        fetch = self._fetch

        def step() -> None:
            now = self.cycle
            reset_ports()
            engine_begin()
            writeback(now)
            commit(now)
            if (self._trap_phase is not None
                    or engine.trap_request is not None):
                trap_sequencer(now)
            rename_dispatch(now)
            issue(now)
            fetch(now)
            self.cycle = now + 1

        return step

    def _writeback(self, now: int) -> None:
        """Drain this cycle's completion events and tick the ASTQ.

        Each event is a ``(handler, argument)`` pair: a bound
        ``_complete_*`` method and what it completes.
        """
        events = self._wheel.pop(now, None)
        if events is not None:
            for handler, arg in events:
                handler(arg)
        astq = self._astq
        if astq is not None and astq.in_flight:
            astq.tick(now, self._wakeup)

    def _issue_stage(self, now: int) -> None:
        """ASTQ head promotion, program issue, leftover-port ASTQ issue."""
        astq = self._astq
        if astq is None:
            self._issue(now)
            return
        # An ASTQ head that has starved behind program memory traffic
        # is promoted ahead of this cycle's loads (see ASTQ.head_age).
        ports = self._dl1_ports
        if astq.queue and astq.head_age() > _ASTQ_AGE_PRIORITY:
            if ports.try_acquire():
                astq.issue_head(now)
        self._issue(now)
        while astq.queue and ports.free:
            ports.try_acquire()
            astq.issue_head(now)

    # ==================================================================
    # fetch
    # ==================================================================
    def _fetch(self, now: int) -> None:
        front = self.front
        cap = self._front_cap
        if self._n_threads == 1:
            t = self.threads[0]
            if t.fetch_halted or t.halted or len(front[0]) >= cap:
                return
        else:
            eligible = [t for t in self.threads
                        if not t.fetch_halted and not t.halted
                        and len(front[t.tid]) < cap]
            if not eligible:
                return
            # ICOUNT: fetch for the thread with the fewest in-flight
            # instructions.
            t = min(eligible, key=ThreadState.icount)
        tid = t.tid
        code = t.program.code
        n_code = len(code)
        pc = t.next_pc
        self._il1_access(_ICACHE_BASE + pc * 8, write=False, kind="ifetch")
        predictor = self.predictor
        tr_on = self.trace.enabled
        ready_at = now + self._front_latency
        pool = self._pool
        enqueue = front[tid].append
        first_seq = seq = self._seq
        for _ in range(self._width):
            if pc >= n_code:
                # Wrong-path fetch ran off the program (no PC is ever
                # negative); wait for the redirect from the mispredicted
                # branch.
                t.fetch_halted = True
                break
            ins = code[pc]
            if pool:
                d = pool.pop()
                d.reinit(seq, tid, pc, ins)
            else:
                d = DynInst(seq, tid, pc, ins)
            seq += 1
            if tr_on:
                self.trace.emit(now, tid, "fetch", seq=d.seq, pc=pc,
                                asm=ins.disassemble())
            enqueue((ready_at, d))
            kind = ins.ctrl_kind
            if kind:
                next_pc = pc + 1
                if kind == CTRL_COND:
                    taken, cp = predictor.predict(pc)
                    d.pred_cp = cp
                    d.pred_taken = taken
                    if taken:
                        next_pc = ins.target
                elif kind == CTRL_BR:
                    d.pred_cp = predictor.checkpoint(pc)
                    next_pc = ins.target
                elif kind == CTRL_CALL:
                    d.pred_cp = predictor.checkpoint(pc)
                    predictor.ras.push(pc + 1)
                    next_pc = ins.target
                else:  # RET / JMP
                    d.pred_cp = predictor.checkpoint(pc)
                    if kind == CTRL_RET:
                        next_pc = predictor.ras.pop()
                    # JMP falls through to pc+1 (always mispredicts).
                if next_pc != pc + 1:
                    # Taken-predicted control: redirect next cycle.
                    # Every other instruction keeps the pc + 1
                    # prediction reinit gave it.
                    d.pred_next_pc = pc = next_pc
                    break
            elif ins.is_halt:
                t.fetch_halted = True
                pc += 1
                break
            pc += 1
        t.next_pc = pc
        t.stats.fetched += seq - first_seq
        self._seq = seq

    # ==================================================================
    # rename + dispatch
    # ==================================================================
    def _rename_dispatch(self, now: int) -> None:
        engine = self.engine
        if self._trap_phase is not None or engine.trap_request is not None:
            # A window trap is pending or in progress: rename stalls
            # (for an underflow, behind the already-renamed return).
            return
        n = self._n_threads
        rr = self._rename_rr
        self._rename_rr = rr + 1 if rr + 1 < n else 0
        front = self.front
        if n == 1:
            q = front[0]
            # Nothing rename-ready: skip the per-cycle local binds.
            if not q or q[0][0] > now:
                return
        cfg = self.cfg
        budget = self._width
        iq_size = cfg.iq_size
        lsq_size = cfg.lsq_size
        rob_share = self._rob_share
        rob = self.rob
        try_rename = engine.try_rename
        waiters = self._waiters
        tr_on = self.trace.enabled
        # The IQ and LSQ occupancy counts live in locals until the stage
        # ends; a full IQ or LSQ, or a window trap, ends it for every
        # thread (budget = 0).
        iq_count = self.iq_count
        lsq_count = self.lsq_count
        for tid in self._rr_orders[rr]:
            queue = front[tid]
            robq = rob[tid]
            while budget and queue:
                ready_at, d = queue[0]
                if ready_at > now:
                    break
                if d.squashed:
                    queue.popleft()
                    continue
                ins = d.instr
                if len(robq) >= rob_share:
                    engine.stalls["rob_full"] += 1
                    break
                simple = ins.is_simple
                if not simple and iq_count >= iq_size:
                    engine.stalls["iq_full"] += 1
                    budget = 0
                    break
                if ins.is_mem and lsq_count >= lsq_size:
                    engine.stalls["lsq_full"] += 1
                    budget = 0
                    break
                if not try_rename(d):
                    break
                queue.popleft()
                if tr_on:
                    self.trace.emit(now, tid, "rename", seq=d.seq)
                robq.append(d)
                budget -= 1
                if simple:
                    d.done = True
                else:
                    # Dispatch into the IQ (and the LSQ): wait on each
                    # source register that is not ready yet.
                    unready = 0
                    p = d.p_rs1
                    if p is not None and not p.ready:
                        w = waiters.get(p.idx)
                        if w is None:
                            waiters[p.idx] = [d]
                        else:
                            w.append(d)
                        unready = 1
                    p = d.p_rs2
                    if p is not None and not p.ready:
                        w = waiters.get(p.idx)
                        if w is None:
                            waiters[p.idx] = [d]
                        else:
                            w.append(d)
                        unready += 1
                    d.n_unready = unready
                    d.in_iq = True
                    iq_count += 1
                    if ins.is_mem:
                        lsq_count += 1
                        if ins.is_store:
                            self._stores[tid].append(d)
                    if not unready:
                        heappush(self._ready, (d.seq, d))
                if engine.trap_request is not None:
                    # Underflow: stall rename behind this return.
                    budget = 0
                    break
            if not budget:
                break
        self.iq_count = iq_count
        self.lsq_count = lsq_count

    def _wakeup(self, preg) -> None:
        waiters = self._waiters.pop(preg.idx, None)
        if not waiters:
            return
        ready = self._ready
        for d in waiters:
            if d.squashed:
                continue
            d.n_unready -= 1
            if d.n_unready == 0 and d.in_iq and not d.issued:
                heappush(ready, (d.seq, d))

    # ==================================================================
    # issue + execute
    # ==================================================================
    def _issue(self, now: int) -> None:
        if self._pending_loads:
            self._service_pending_loads(now)
        ready = self._ready
        if not ready:
            return
        budget = self._width
        int_slots = self._int_alus
        fp_slots = self._fp_units
        deferred = None
        tr_on = self.trace.enabled
        wheel = self._wheel
        latencies = self._latency
        complete_exec = self._complete_exec
        while budget and ready:
            _, d = heappop(ready)
            if d.squashed or d.issued:
                continue
            ins = d.instr
            if ins.is_fp_unit:
                if fp_slots == 0:
                    if deferred is None:
                        deferred = []
                    deferred.append(d)
                    continue
                fp_slots -= 1
            else:
                if int_slots == 0:
                    if deferred is None:
                        deferred = []
                    deferred.append(d)
                    continue
                int_slots -= 1
            d.issued = True
            d.in_iq = False
            if tr_on:
                self.trace.emit(now, d.tid, "issue", seq=d.seq)
            # Loads/stores take one AGU cycle; the cache access follows.
            latency = 1 if ins.is_mem else latencies[ins.latency_class]
            when = now + latency
            slot = wheel.get(when)
            if slot is None:
                wheel[when] = [(complete_exec, d)]
            else:
                slot.append((complete_exec, d))
            budget -= 1
        self.iq_count -= self._width - budget  # one per issued
        if deferred:
            for d in deferred:
                heappush(ready, (d.seq, d))

    def _complete_exec(self, d: DynInst) -> None:
        if d.squashed:
            return
        ins = d.instr
        fn = ins.exec_fn
        if fn is None:
            fn = ins.exec_fn = _build_exec(ins)
        p1 = d.p_rs1
        p2 = d.p_rs2
        res = fn(p1.value if p1 is not None else 0,
                 p2.value if p2 is not None else 0, d.pc)
        if ins.is_load:
            d.mem_addr = res
            loads = self._pending_loads
            if loads and loads[-1].seq > d.seq:
                self._loads_dirty = True
            loads.append(d)
            return
        if ins.is_store:
            d.mem_addr, d.store_val = res
            d.done = True  # the data-cache write happens at commit
            parked = self._parked.pop(d.seq, None)
            if parked is not None:
                # Wake the loads this store's unknown address blocked:
                # they rescan the store queue in this cycle's issue.
                self._pending_loads += parked
                self._loads_dirty = True
            if self.trace.enabled:
                self.trace.emit(self.cycle, d.tid, "writeback", seq=d.seq)
            return
        is_branch = ins.is_branch
        if is_branch:
            result, taken, target = res
        else:
            result = res
        pdst = d.pdst
        if pdst is not None:
            pdst.value = result
            pdst.ready = True
            self._wakeup(pdst)
        d.done = True
        if self.trace.enabled:
            self.trace.emit(self.cycle, d.tid, "writeback", seq=d.seq)
        if is_branch:
            d.actual_taken = taken
            d.actual_target = target
            if target != d.pred_next_pc:
                self._recover(d)

    # -- loads ------------------------------------------------------------
    def _service_pending_loads(self, now: int) -> None:
        loads = self._pending_loads
        if not loads:
            return
        if self._loads_dirty:
            # Loads must be considered oldest-first; sorting lazily here
            # replaces the per-append sort of the naive implementation.
            loads.sort(key=_SEQ_KEY)
            self._loads_dirty = False
        # Each load resolves against the LSQ (an older store with an
        # unknown address blocks it; an address match forwards the
        # store's data) and otherwise arbitrates for a DL1 port.  A
        # store's address and data are written in the same
        # ``_complete_exec`` call that marks it done, so a store whose
        # address is known always has its data.
        #
        # * A blocked load leaves this list: it is parked under the
        #   blocking store's seq in ``_parked``, and that store's
        #   ``_complete_exec`` puts it back, so the load rescans in the
        #   cycle the address becomes known.  Until then the outcome
        #   cannot change: dispatch is program-ordered, so no store
        #   older than the load can appear, and resolved addresses
        #   never change.  ``_recover`` drops a squashed store's list
        #   (its parked loads are younger, so squashed too).
        # * Once a scan proves no older store can match (``lsq_clear``),
        #   that holds for the load's lifetime: only the DL1 port
        #   arbitration needs retrying.
        still: List[DynInst] = []
        keep = still.append
        stores_by_tid = self._stores
        parked = self._parked
        wheel = self._wheel
        hierarchy = self.hierarchy
        try_acquire = hierarchy.dl1_ports.try_acquire
        complete_load = self._complete_load
        complete_forward = self._complete_forward
        fwd_slot = None
        for d in loads:
            if d.squashed:
                continue
            d_addr = d.mem_addr
            if not d.lsq_clear:
                d_seq = d.seq
                match = None
                blocked = False
                for st in reversed(stores_by_tid[d.tid]):
                    if st.seq > d_seq or st.squashed:
                        continue
                    st_addr = st.mem_addr
                    if st_addr is None:
                        blocked = True  # older store address unknown
                        break
                    if st_addr == d_addr:
                        match = st
                        break
                if blocked:
                    parked.setdefault(st.seq, []).append(d)
                    continue
                if match is not None:
                    d.result = match.store_val
                    if fwd_slot is None:
                        when = now + 1
                        fwd_slot = wheel.get(when)
                        if fwd_slot is None:
                            fwd_slot = wheel[when] = []
                    fwd_slot.append((complete_forward, d))
                    continue
                d.lsq_clear = True
            if try_acquire():
                latency = hierarchy.dl1_access(d_addr, write=False,
                                               kind="load")
                d.result = hierarchy.read_word(d_addr)
                when = now + latency
                slot = wheel.get(when)
                if slot is None:
                    wheel[when] = [(complete_load, d)]
                else:
                    slot.append((complete_load, d))
            else:
                keep(d)  # no port; retry next cycle
        self._pending_loads = still

    def _complete_forward(self, d: DynInst) -> None:
        self._complete_load(d, from_forward=True)

    def _complete_trap_load(self, transfer) -> None:
        lidx, addr = transfer
        self._trap_outstanding -= 1
        self.engine.apply_trap_load(lidx, self.hierarchy.read_word(addr))

    def _complete_load(self, d: DynInst, from_forward: bool = False) -> None:
        if d.squashed:
            return
        if d.pdst is not None:
            d.pdst.value = d.result
            d.pdst.ready = True
            self._wakeup(d.pdst)
        d.done = True
        tr = self.trace
        if tr.enabled:
            tr.emit(self.cycle, d.tid, "writeback", seq=d.seq,
                    forwarded=from_forward)

    # ==================================================================
    # commit
    # ==================================================================
    def _commit(self, now: int) -> None:
        n = self._n_threads
        rr = self._commit_rr
        self._commit_rr = rr + 1 if rr + 1 < n else 0
        rob = self.rob
        budget = self._width
        if n == 1:
            if rob[0]:
                self._commit_thread(now, 0, budget)
            return
        for tid in self._rr_orders[rr]:
            if rob[tid]:
                budget = self._commit_thread(now, tid, budget)
                if not budget:
                    break

    def _commit_thread(self, now: int, tid: int, budget: int) -> int:
        """Commit up to ``budget`` of thread ``tid``'s oldest
        instructions; returns the budget left."""
        rob = self.rob[tid]
        t = self.stats.threads[tid]
        engine = self.engine
        on_commit = engine.on_commit
        pool_append = self._pool.append
        # The window-trap sequencer may still hold a reference to a
        # committed instruction (a conventional underflow's trap
        # request pins the committed return until the trap fires or
        # is cancelled), so that one is not recycled.
        req = engine.trap_request
        pinned = req.din if req is not None else None
        tr_on = self.trace.enabled
        hook = self.commit_hook
        start = budget
        while budget and rob:
            d = rob[0]
            if not d.done:
                break
            ins = d.instr
            if ins.is_store:
                if not self._dl1_ports.try_acquire():
                    break  # no store port this cycle; retry
                hierarchy = self.hierarchy
                hierarchy.dl1_access(d.mem_addr, write=True, kind="store")
                hierarchy.write_word(d.mem_addr, d.store_val)
                stores = self._stores[tid]
                if not stores or stores[0] is not d:  # pragma: no cover
                    raise SimulationError("store commit out of LSQ order")
                stores.pop(0)
            if ins.is_mem:
                self.lsq_count -= 1
            on_commit(d)
            d.committed = True
            if hook is not None:
                hook(d)
            if tr_on:
                self.trace.emit(now, tid, "commit", seq=d.seq, pc=d.pc)
            if ins.is_cond_branch:
                self.stats.cond_branches += 1
                t.cond_branches += 1
                self.predictor.train(d.pred_cp, d.actual_taken,
                                     d.pred_taken)
            if ins.is_fp_unit:
                t.fp_ops += 1
            if ins.is_load:
                t.loads += 1
            elif ins.is_store:
                t.stores += 1
            elif ins.is_call:
                t.calls += 1
            elif ins.is_halt:
                th = self.threads[tid]
                th.halted = True
                th.fetch_halted = True
                t.halted = True
                t.halted_at = now
                self._halted_count += 1
            rob.popleft()
            budget -= 1
            if d is not pinned:
                pool_append(d)
        if budget != start:
            t.committed += start - budget
            self._last_commit = now
            # Keep the pool bounded (recycling only saves allocations).
            pool = self._pool
            if len(pool) > _DYNINST_POOL:
                del pool[_DYNINST_POOL:]
        return budget

    # ==================================================================
    # misprediction recovery
    # ==================================================================
    def _recover(self, branch: DynInst) -> None:
        self.stats.branch_mispredicts += 1
        tid = branch.tid
        seq = branch.seq
        t = self.threads[tid]
        tr = self.trace
        if tr.enabled:
            tr.emit(self.cycle, tid, "mispredict", seq=seq, pc=branch.pc,
                    target=branch.actual_target)

        # Drop not-yet-renamed wrong-path instructions from the front
        # end (youngest-first, rewinding their speculative history).
        dropped = []
        kept = deque()
        for entry in self.front[tid]:
            d = entry[1]
            if d.seq > seq:
                d.squashed = True
                self.stats.threads[tid].squashed += 1
                if tr.enabled:
                    tr.emit(self.cycle, tid, "squash", seq=d.seq)
                dropped.append(d)
            else:
                kept.append(entry)
        self.front[tid] = kept
        for d in reversed(dropped):
            if d.instr.is_cond_branch:
                self.predictor.undo_spec(d.pred_cp)
        # Front-dropped instructions never renamed or dispatched, so no
        # other structure references them: recycle immediately.  ROB
        # victims below stay out of the pool — they may still sit in
        # the ready heap, waiter lists or the event wheel.  An overflow
        # trap request pins its (not yet renamed) call, so that one
        # stays out too: the trap sequencer must still observe its
        # squashed flag to cancel the trap.
        pool = self._pool
        req = self.engine.trap_request
        pinned = req.din if req is not None else None
        for d in dropped:
            if len(pool) >= _DYNINST_POOL:
                break
            if d is not pinned:
                pool.append(d)

        # Squash renamed wrong-path instructions youngest-first so the
        # rename engine can restore prior mappings in order.
        victims = [d for d in self.rob[tid] if d.seq > seq]
        for d in reversed(victims):
            d.squashed = True
            if tr.enabled:
                tr.emit(self.cycle, tid, "squash", seq=d.seq)
            if d.instr.is_cond_branch:
                self.predictor.undo_spec(d.pred_cp)
            self.engine.on_squash(d)
            if d.in_iq:
                d.in_iq = False
                self.iq_count -= 1
            if d.instr.is_mem:
                self.lsq_count -= 1
                if d.instr.is_store:
                    self._parked.pop(d.seq, None)
            self.stats.threads[tid].squashed += 1
        if victims:
            self.rob[tid] = deque(d for d in self.rob[tid]
                                  if not d.squashed)
            st = self._stores[tid]
            if st:
                self._stores[tid] = [s for s in st if not s.squashed]

        # Repair the predictor and redirect fetch.
        ins = branch.instr
        self.predictor.recover(branch.pred_cp, branch.actual_taken,
                               was_cond=ins.is_cond_branch)
        if ins.is_call:
            self.predictor.ras.push(branch.pc + 1)
        elif ins.is_ret:
            self.predictor.ras.pop()
        t.next_pc = branch.actual_target
        t.fetch_halted = False

    # ==================================================================
    # conventional register-window trap sequencing (Section 4.1)
    # ==================================================================
    def _trap_sequencer(self, now: int) -> None:
        req = self.engine.trap_request
        if self._trap_phase is None:
            if req is None:
                return
            if req.din.squashed:
                self.engine.cancel_trap()
                return
            if any(self.rob):
                return  # serialise: wait for the pipeline to drain
            self._trap_phase = "delay"
            self._trap_until = now + self.cfg.window_trap_cycles
            return
        self.stats.window_trap_cycles += 1
        if self._trap_phase == "delay":
            if req is not None and req.din.squashed:
                self.engine.cancel_trap()
                self._trap_phase = None
                return
            if now < self._trap_until:
                return
            self._trap_transfers = list(
                self.engine.build_trap_transfers(req))
            self.engine.cancel_trap()
            self._trap_phase = "transfer"
        if self._trap_phase == "transfer":
            while self._trap_transfers and self.hierarchy.dl1_ports.try_acquire():
                addr, is_write, payload = self._trap_transfers.pop(0)
                latency = self.hierarchy.dl1_access(addr, write=is_write,
                                                    kind="wtrap")
                if is_write:
                    # Saves drain through the write buffer; the trap
                    # handler does not wait for them.
                    self.hierarchy.write_word(addr, payload)
                else:
                    self._trap_outstanding += 1
                    self._wheel.setdefault(now + latency, []).append(
                        (self._complete_trap_load, (payload, addr)))
            if not self._trap_transfers and self._trap_outstanding == 0:
                self._trap_phase = None
