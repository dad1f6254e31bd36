"""Property-based tests (hypothesis) on core data structures and
whole-machine invariants."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asm import ProgramBuilder
from repro.config import MachineConfig
from repro.functional import MASK64, FunctionalSim, to_signed
from repro.isa import Instruction, Op
from repro.mem import Cache, PortArbiter
from repro.config import CacheConfig
from repro.frontend import HybridPredictor, ReturnAddressStack
from repro.mem.hierarchy import MemoryHierarchy
from repro.models import build_engine
from repro.pipeline.alu import execute
from repro.pipeline.dyninst import DynInst
from repro.rename.regfile import PhysReg, PhysRegFile
from repro.rename.rsid import RsidTable
from repro.rename.table import VcaRenameTable

u64 = st.integers(min_value=0, max_value=MASK64)
small = st.integers(min_value=0, max_value=1 << 20)


class TestAluVsFunctional:
    """The two independent execution implementations must agree."""

    RR_OPS = [Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SLL,
              Op.SRL, Op.CMPEQ, Op.CMPLT, Op.CMPLE]

    @given(op=st.sampled_from(RR_OPS), a=u64, b=u64)
    @settings(max_examples=200)
    def test_int_rr_semantics_match(self, op, a, b):
        ins = Instruction(op, rd=1, rs1=2, rs2=3)
        res = execute(ins, a, b, pc=0).result

        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.li(2, a)
        m.li(3, b)
        m.emit(op, 1, 2, 3)
        m.halt()
        sim = FunctionalSim(pb.assemble("flat"))
        sim.run()
        assert sim.read_reg(1) == res

    @given(a=u64)
    def test_to_signed_roundtrip(self, a):
        assert to_signed(a) & MASK64 == a

    @given(a=u64, imm=st.integers(min_value=0, max_value=1 << 15))
    def test_addi_subi_inverse(self, a, imm):
        add = execute(Instruction(Op.ADDI, rd=1, rs1=2, imm=imm),
                      a, 0, 0).result
        back = execute(Instruction(Op.SUBI, rd=1, rs1=2, imm=imm),
                       add, 0, 0).result
        assert back == a


class TestCacheProperties:
    @given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 16),
                          min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_accounting_consistent(self, addrs):
        c = Cache("t", CacheConfig(1024, 2, 64, 1), mem_latency=10)
        for a in addrs:
            c.access(a & ~7, write=bool(a & 8))
        assert c.stats.hits + c.stats.misses == c.stats.accesses
        assert c.stats.accesses == len(addrs)

    @given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 14),
                          min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_second_access_always_hits(self, addrs):
        c = Cache("t", CacheConfig(1 << 15, 4, 64, 1), mem_latency=10)
        # Cache is larger than the address range: after a first touch,
        # nothing is ever evicted.
        for a in addrs:
            c.access(a & ~7, write=False)
        before = c.stats.misses
        for a in addrs:
            c.access(a & ~7, write=False)
        assert c.stats.misses == before


def _install_one(cache, addr):
    """Per-address reference for :meth:`Cache.install`."""
    block = addr >> cache._block_shift
    idx = block & cache._set_mask
    tag = block >> (cache._set_mask.bit_length())
    ways = cache._sets[idx]
    for entry in ways:
        if entry[0] == tag:
            return
    if len(ways) >= cache.cfg.assoc:
        ways.pop()
    ways.insert(0, [tag, False])


class TestBulkInstall:
    """``Cache.install`` over a sequence leaves every set as installing
    one address at a time does: tags, dirty bits and MRU order."""

    @given(assoc=st.sampled_from([1, 2, 4]),
           touched=st.lists(st.tuples(st.integers(0, 4095), st.booleans()),
                            max_size=40),
           addrs=st.lists(st.integers(0, 4095), max_size=200))
    @settings(max_examples=100)
    def test_matches_per_address_installs(self, assoc, touched, addrs):
        # 8 sets over 64 blocks: each set sees more blocks than ways.
        cfg = CacheConfig(512 * assoc, assoc, 64, 1)
        bulk, ref = (Cache("t", cfg, mem_latency=10) for _ in range(2))
        for c in (bulk, ref):
            # Some resident dirty blocks, which installs must keep.
            for a, write in touched:
                c.access(a, write=write)
        # Runs of one block exercise the repeated-address path.
        addrs = [a for a in addrs for _ in range(1 + a % 3)]
        bulk.install(addrs)
        for a in addrs:
            _install_one(ref, a)
        assert bulk._sets == ref._sets
        assert bulk.stats == ref.stats


def _replay_one_by_one(p, outcomes):
    """Per-branch reference for :meth:`HybridPredictor.replay`: the
    predict/train/recover sequence the machine itself would run."""
    for pc, taken in outcomes:
        predicted, cp = p.predict(pc)
        p.train(cp, taken, predicted)
        if predicted != taken:
            p.recover(cp, taken, True)


def _predictor_state(p):
    return (p.local_hist, p.local_ctr, p.gshare_ctr, p.chooser, p.ghist,
            p.ras._stack, p.ras.sp, p.predictions, p.mispredictions)


#: A few base pcs plus multiples of 1024 and 4096, so branches alias in
#: the local (1024-entry) and the global (4096-entry) tables.
_aliasing_pcs = st.builds(lambda base, k: base + 1024 * k,
                          st.integers(0, 7), st.integers(0, 9))
_outcomes = st.lists(st.tuples(st.one_of(_aliasing_pcs,
                                         st.integers(0, 1 << 16)),
                               st.booleans()), max_size=400)


class TestPredictorReplay:
    @given(prefix=_outcomes, stream=_outcomes,
           ras=st.lists(small, max_size=20))
    @settings(max_examples=100,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_predict_train_recover(self, prefix, stream, ras):
        bulk, ref = HybridPredictor(), HybridPredictor()
        for p in (bulk, ref):
            # Start both from the same trained state and a live RAS.
            _replay_one_by_one(p, prefix)
            for a in ras:
                p.ras.push(a)
        bulk.replay(stream)
        _replay_one_by_one(ref, stream)
        assert _predictor_state(bulk) == _predictor_state(ref)


class TestRegfileProperties:
    @given(ops=st.lists(st.sampled_from(["alloc", "free", "pin",
                                         "unpin"]),
                        min_size=1, max_size=300))
    @settings(max_examples=100)
    def test_free_list_never_corrupts(self, ops):
        rf = PhysRegFile(8)
        live = []
        pinned = []
        for op in ops:
            if op == "alloc":
                p = rf.alloc()
                if p is not None:
                    live.append(p)
            elif op == "free":
                frees = [p for p in live if not p.pinned]
                if frees:
                    live.remove(frees[-1])
                    rf.free(frees[-1])
            elif op == "pin" and live:
                p = live[0]
                p.refcount += 1
                pinned.append(p)
            elif op == "unpin" and pinned:
                rf.unpin(pinned.pop())
            rf.check_invariants()
        assert rf.n_free + rf.n_in_use == 8


    @given(ops=st.lists(st.sampled_from(["alloc", "use", "free",
                                         "unfree"]),
                        min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_alloc_returns_a_reset_register(self, ops):
        # alloc() resets only the fields free() and unfree() leave
        # stale, so whatever a register went through, it must come
        # back as PhysReg.reset() leaves it.
        fields = ("value", "ready", "committed", "dirty", "refcount",
                  "laddr", "doomed", "in_table", "from_fill")
        fresh = [getattr(PhysReg(0), f) for f in fields]
        rf = PhysRegFile(4)
        live = []
        for op in ops:
            rf.now += 1
            if op == "alloc":
                p = rf.alloc()
                if p is not None:
                    assert [getattr(p, f) for f in fields] == fresh
                    assert p.last_use == rf.now and not p.is_free
                    live.append(p)
            elif op == "use" and live:
                p = live[-1]
                p.value, p.ready, p.committed, p.dirty = 2.5, True, True, True
                p.laddr, p.doomed, p.from_fill = 64, True, True
            elif op == "free" and live:
                rf.free(live.pop(0))
            elif op == "unfree" and live:
                rf.unfree(live.pop())


def _scan_victim(sets, regfile, exclude, min_age):
    """Per-entry reference for the rename table's victim searches: the
    least recently used cached register, the first in set order then
    insertion order on a tie."""
    horizon = regfile.now - min_age
    best = None
    for s in sets:
        for k, reg in s.items():
            if reg is exclude or reg.last_use > horizon:
                continue
            if reg.cached and (best is None
                               or reg.last_use < best[1].last_use):
                best = k, reg
    return best


class TestRenameTableVictims:
    @given(entries=st.lists(st.tuples(
               st.integers(0, 63), st.integers(0, 6),
               st.sampled_from([True, True, True, False]),
               st.sampled_from([0, 0, 0, 1, 2]),
               st.sampled_from([False, False, False, True])),
               max_size=60),
           now=st.integers(0, 8), min_age=st.integers(0, 3),
           exclude_at=st.integers(0, 40))
    @settings(max_examples=200)
    def test_victims_match_an_entry_scan(self, entries, now, min_age,
                                         exclude_at):
        # Few distinct stamps and mostly cached values, so most
        # searches break a tie between candidates.
        rf = PhysRegFile(64)
        t = VcaRenameTable(8, 4, rf)
        for woff, last_use, committed, refcount, doomed in entries:
            key = (woff % 3, woff)
            if not t.has_room(key):
                continue
            p = rf.alloc()
            p.last_use, p.committed = last_use, committed
            p.refcount, p.doomed = refcount, doomed
            t.set_mapping(key, p)
        rf.now = now
        regs = [r for _, r in t.entries()]
        exclude = regs[exclude_at] if exclude_at < len(regs) else None
        assert (t.find_global_victim(exclude, min_age)
                == _scan_victim(t._sets, rf, exclude, min_age))
        for key in {k for k, _ in t.entries()}:
            assert (t.find_set_victim(key, exclude, min_age)
                    == _scan_victim([t._set_of(key)], rf, exclude,
                                    min_age))


class TestRsidProperties:
    @given(uppers=st.lists(st.integers(min_value=0, max_value=50),
                           min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_translation_is_a_partial_bijection(self, uppers):
        r = RsidTable(8, 16)
        for u in uppers:
            rsid = r.lookup(u)
            if rsid is None:
                if not r.has_free:
                    r.evict(r.lru_victim())
                rsid = r.install(u)
            assert r.lookup(u) == rsid
        # No two live uppers share an RSID.
        live = [x for x in r._upper_of if x is not None]
        assert len(live) == len(set(live))


class TestRasProperties:
    @given(depth=st.integers(min_value=2, max_value=16),
           pushes=st.lists(small, min_size=1, max_size=12))
    def test_lifo_within_capacity(self, depth, pushes):
        ras = ReturnAddressStack(depth)
        kept = pushes[-depth:]
        for a in pushes:
            ras.push(a)
        for a in reversed(kept):
            assert ras.pop() == a


class TestPortProperties:
    @given(n=st.integers(min_value=1, max_value=8),
           tries=st.integers(min_value=0, max_value=20))
    def test_grants_bounded_by_ports(self, n, tries):
        p = PortArbiter(n)
        granted = sum(p.try_acquire() for _ in range(tries))
        assert granted == min(n, tries)


class TestVcaEngineProperties:
    """Random rename/commit/squash interleavings preserve the register
    file's structural invariants and the committed architectural
    state's recoverability."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_interleaving_keeps_invariants(self, seed):
        rng = random.Random(seed)
        cfg = MachineConfig.baseline(phys_regs=24, vca_protect_cycles=0)
        h = MemoryHierarchy(cfg)
        eng = build_engine("vca", cfg, h)

        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.halt()
        eng.init_thread(0, pb.assemble("flat"))

        in_flight = []
        committed_values = {}
        seq = 0
        for step in range(120):
            eng.begin_cycle()
            action = rng.random()
            if action < 0.5:
                reg = rng.randrange(1, 12)
                d = DynInst(seq, 0, 0,
                            Instruction(Op.ADDI, rd=reg,
                                        rs1=rng.randrange(1, 12),
                                        imm=step))
                seq += 1
                if eng.try_rename(d):
                    d.pdst.value = step
                    d.pdst.ready = True
                    in_flight.append(d)
            elif action < 0.8 and in_flight:
                d = in_flight.pop(0)          # oldest commits
                eng.on_commit(d)
                committed_values[d.instr.rd] = d.pdst.value
            elif in_flight:
                d = in_flight.pop()           # youngest squashes
                eng.on_squash(d)
            eng.regfile.check_invariants()
            if eng.astq is not None:
                eng.astq.tick(step + 400, lambda r: None)

        # Drain: commit everything left, then check committed state.
        for d in in_flight:
            eng.on_commit(d)
            committed_values[d.instr.rd] = d.pdst.value
        for reg, value in committed_values.items():
            assert eng.arch_value(0, reg) == value
