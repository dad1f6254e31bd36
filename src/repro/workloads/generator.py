"""Synthetic benchmark generator.

Turns a :class:`~repro.workloads.profiles.BenchmarkProfile` into a
complete VRISC program: a ``main`` driving a call tree of worker
functions (plus an optional recursive chain), each with callee-saved
locals, array traffic, floating-point chains, and a controlled mix of
predictable and data-dependent branches.  The same builder is lowered
to both ABIs, so the windowed and flat binaries compute identical
results by construction — the property the paper obtains by
recompiling SPEC with a modified gcc.

Generation is deterministic per (profile, thread): programs for
different hardware threads are identical up to their address-space
placement.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional

from repro.asm.builder import FunctionBuilder, ProgramBuilder
from repro.asm.program import Program

from .profiles import PROFILES, BenchmarkProfile

#: Windowed integer registers available as locals (RA=25 excluded).
_INT_POOL = [r for r in range(8, 30) if r != 25]
#: Windowed FP registers available as locals.
_FP_POOL = list(range(40, 64))
#: Caller-saved scratch (never live across calls).
_S1, _S2, _S3, _S4, _S5 = 1, 2, 3, 4, 5
_FS1 = 33

#: Static instructions per inner-loop body.  Small bodies re-execute
#: often, so predictor tables and caches warm up the way they would
#: over the paper's 100M-instruction windows.
_STATIC_BLOCK = 48


class _Ctx:
    """Per-function emission state."""

    def __init__(self, f: FunctionBuilder, rng: random.Random,
                 profile: BenchmarkProfile, int_base: int,
                 fp_base: Optional[int], ws_mask: int) -> None:
        self.f = f
        self.rng = rng
        self.profile = profile
        self.int_base = int_base
        self.fp_base = fp_base
        self.ws_mask = ws_mask
        self.addr_valid = False      # r1 holds a valid array address
        self.fp_addr_valid = False   # r2 holds a valid FP-array address
        self.ops = 0                 # instructions emitted (approx.)
        # Role registers, assigned by the caller.
        self.acc = 0
        self.idx = 0
        self.base = 0
        self.ctr = 0
        self.chase = 0
        self.fbase = 0
        self.gen: List[int] = []     # generic integer locals
        self.fgen: List[int] = []    # generic FP locals
        self._label_seq = 0

    def label(self, hint: str) -> str:
        self._label_seq += 1
        return f"{hint}{self._label_seq}"


def _seed_for(name: str, salt: int = 0,
              seed: Optional[int] = None) -> int:
    """RNG seed for one generator stream.

    ``seed`` (the user's ``--seed``) perturbs every stream of a
    program together; ``None`` keeps the historical default streams,
    so existing benchmarks and cached results are unchanged.
    """
    base = zlib.crc32(name.encode()) ^ (salt * 0x9E3779B9)
    if seed is not None:
        base ^= zlib.crc32(seed.to_bytes(8, "little", signed=True))
    return base


class BenchmarkBuilder:
    """Builds one benchmark program from a profile."""

    def __init__(self, profile: BenchmarkProfile, thread: int = 0,
                 scale: float = 1.0, seed: Optional[int] = None) -> None:
        self.profile = profile
        self.thread = thread
        self.scale = scale
        self.seed = seed

    # ------------------------------------------------------------------
    def _rng(self, name: str, salt: int = 0) -> random.Random:
        """A fresh, explicitly seeded per-stream RNG.

        Every byte of randomness in a generated benchmark flows
        through one of these instances, seeded from ``(name, salt,
        --seed)`` — never the shared module-level ``random`` state —
        so program generation is reproducible regardless of what else
        the process has done (determinism lint rule D001).
        """
        return random.Random(_seed_for(name, salt, seed=self.seed))

    def build(self) -> ProgramBuilder:
        p = self.profile
        rng = self._rng(p.name)
        pb = ProgramBuilder(thread=self.thread, name=p.name)
        self.out_addr = pb.alloc(1)
        ws = p.working_set
        self.int_arr = pb.alloc(ws)
        self.fp_arr = pb.alloc(ws) if (p.fp or p.fp_frac) else None
        if p.chase_frac or not p.seq_stride:
            arr_rng = self._rng(p.name, 1)
            for i in range(ws):
                pb.word(self.int_arr + i * 8, arr_rng.randrange(ws))

        # Worker call tree, leaves at the deepest level.
        tree: List[List[str]] = []
        for level in range(p.levels):
            n = 1 if level == 0 else min(p.fanout, 1 + rng.randrange(2))
            tree.append([f"{p.name}_l{level}_{i}" for i in range(n)])
        costs = {}
        calls = {}
        for level in range(p.levels - 1, -1, -1):
            children = tree[level + 1] if level + 1 < p.levels else []
            for fname in tree[level]:
                my_children = children if children else []
                c, k = self._emit_worker(pb, rng, fname, my_children,
                                         costs, calls)
                costs[fname] = c
                calls[fname] = k
        if p.recursion:
            rc = self._emit_recursive(pb, rng)
            costs["__rec"] = rc * p.recursion + 4
            calls["__rec"] = p.recursion

        # main: the outer loop.
        per_iter = 2  # loop bookkeeping
        for fname in tree[0]:
            per_iter += 3 + costs[fname]
        if p.recursion:
            per_iter += 2 + costs["__rec"]
        iters = max(1, int(p.target_dynamic * self.scale / per_iter))

        main = pb.function("main", is_main=True)
        acc, ctr = 8, 9
        main.li(acc, 0)
        main.li(ctr, iters)
        main.label("outer")
        for fname in tree[0]:
            main.mov(0, acc)
            main.call(fname)
            main.add(acc, acc, 0)
        if p.recursion:
            main.li(0, p.recursion)
            main.call(f"{p.name}_rec")
            main.add(acc, acc, 0)
        main.subi(ctr, ctr, 1)
        main.bne(ctr, "outer")
        main.li(_S1, self.out_addr)
        main.st(acc, _S1, 0)
        main.halt()
        return pb

    # ------------------------------------------------------------------
    def _setup_ctx(self, f: FunctionBuilder, rng: random.Random,
                   n_int: int, n_fp: int, reserve_gen: int = 0) -> _Ctx:
        """Allocate role/generic locals and emit their initialisation."""
        p = self.profile
        ctx = _Ctx(f, rng, p, self.int_arr,
                   self.fp_arr, p.working_set - 1)
        need_chase = p.chase_frac > 0
        n_roles = 4 + (1 if need_chase else 0) + (1 if self.fp_arr else 0)
        n_int = max(n_int, n_roles + reserve_gen)
        ints = _INT_POOL[:n_int]
        ctx.acc, ctx.idx, ctx.base, ctx.ctr = ints[0], ints[1], ints[2], ints[3]
        rest = ints[4:]
        if need_chase:
            ctx.chase, rest = rest[0], rest[1:]
        if self.fp_arr:
            ctx.fbase, rest = rest[0], rest[1:]
        ctx.gen = list(rest)
        ctx.fgen = _FP_POOL[:n_fp]

        f.mov(ctx.acc, 0)                     # arg in r0
        f.li(ctx.idx, rng.randrange(1, 64))
        f.li(ctx.base, self.int_arr)
        if need_chase:
            f.li(ctx.chase, rng.randrange(p.working_set))
        if self.fp_arr:
            f.li(ctx.fbase, self.fp_arr)
        for g in ctx.gen:
            f.li(g, rng.randrange(1, 1 << 16))
        for i, fg in enumerate(ctx.fgen):
            src = ctx.gen[i % len(ctx.gen)] if ctx.gen else ctx.acc
            f.itof(fg, src)
        ctx.ops = 4 + len(ctx.gen) + len(ctx.fgen) + (1 if need_chase else 0) \
            + (1 if self.fp_arr else 0)
        return ctx

    def _emit_worker(self, pb: ProgramBuilder, rng: random.Random,
                     fname: str, children: List[str], costs, calls):
        """One worker function; returns (dyn_cost, dyn_calls)."""
        p = self.profile
        f = pb.function(fname)
        # Each function gets its own stream so parameter changes in one
        # function never reshuffle its siblings (keeps tuning stable).
        rng = self._rng(fname, 2)
        n_int = max(4, p.locals_int + rng.randrange(-1, 2))
        n_fp = max(0, p.locals_fp + (rng.randrange(-1, 2) if p.locals_fp else 0))
        ctx = self._setup_ctx(f, rng, n_int, n_fp)
        init_ops = ctx.ops

        # Per-rep block size targets the profile's call interval.
        call_ops = 3 * len(children)
        child_cost = sum(costs[c] for c in children)
        blk = max(8, p.call_interval - call_ops - 3
                  if children else p.call_interval // 2)
        blk = max(8, int(blk * rng.uniform(0.8, 1.2)))

        reps = max(1, p.reps + rng.randrange(-1, 2))
        f.li(ctx.ctr, reps)
        f.label("rep")
        ctx.ops = 0
        self._emit_looped_block(ctx, blk)
        rep_body = ctx.ops
        for child in children:
            f.mov(0, ctx.acc)
            f.call(child)
            f.add(ctx.acc, ctx.acc, 0)
            ctx.addr_valid = ctx.fp_addr_valid = False
        f.subi(ctx.ctr, ctx.ctr, 1)
        f.bne(ctx.ctr, "rep")
        # Fold every chain into the return value so all computed work
        # reaches the program checksum.
        for g in ctx.gen:
            f.add(ctx.acc, ctx.acc, g)
        if ctx.fgen:
            f.ftoi(_S1, ctx.fgen[0])
            f.add(ctx.acc, ctx.acc, _S1)
        f.mov(0, ctx.acc)
        f.ret()

        per_rep = rep_body + call_ops + child_cost + 2
        cost = init_ops + 1 + reps * per_rep + 4
        n_calls = reps * sum(1 + calls[c] for c in children)
        return cost, n_calls

    def _emit_recursive(self, pb: ProgramBuilder,
                        rng: random.Random) -> int:
        """Linear recursion exercising deep window stacks; returns the
        approximate dynamic cost per recursion level."""
        p = self.profile
        f = pb.function(f"{p.name}_rec")
        rng = self._rng(p.name, 3)
        f.cmplti(_S1, 0, 1)
        f.bne(_S1, "base")
        n_int = max(5, p.locals_int)
        ctx = self._setup_ctx(f, rng, n_int, min(p.locals_fp, 2),
                              reserve_gen=1)
        # The depth counter must not be touched by block ops.
        depth_reg = ctx.gen.pop(0)
        f.mov(depth_reg, 0)
        per_level_blk = max(8, p.call_interval // 3)
        ctx.ops = 0
        self._emit_looped_block(ctx, per_level_blk)
        body = ctx.ops
        f.subi(0, depth_reg, 1)
        f.call(f"{p.name}_rec")
        f.add(0, 0, ctx.acc)
        f.ret()
        f.label("base")
        f.li(0, 1)
        f.ret()
        return 4 + (ctx.ops - body) + body + 4

    # ------------------------------------------------------------------
    def _emit_looped_block(self, ctx: _Ctx, n_ops: int) -> None:
        """Emit ~``n_ops`` dynamic instructions as a compact inner loop.

        Folding the block into a loop keeps the static footprint small
        so each branch site and load site executes many times —
        matching the steady-state behaviour of a long-running
        benchmark rather than cold one-shot code.  The loop counter
        lives in a scratch register (no calls occur inside).
        """
        start = ctx.ops
        static = max(12, int(_STATIC_BLOCK * ctx.rng.uniform(0.8, 1.2)))
        trips = max(1, round(n_ops / (static + 2)))
        if trips == 1:
            self._emit_block(ctx, n_ops)
            return
        f = ctx.f
        loop = ctx.label("blk")
        f.li(_S5, trips)
        f.label(loop)
        ctx.ops = 0
        self._emit_block(ctx, static)
        body = ctx.ops
        f.subi(_S5, _S5, 1)
        f.bne(_S5, loop)
        ctx.ops = start + 1 + trips * (body + 2)

    def _emit_block(self, ctx: _Ctx, n_ops: int) -> None:
        """Emit roughly ``n_ops`` instructions of profile-shaped work."""
        p = ctx.profile
        rng = ctx.rng
        f = ctx.f
        kinds = ["load", "store", "chase", "fp", "branch", "imul",
                 "fdiv", "alu"]
        base_w = [p.load_frac, p.store_frac, p.chase_frac, p.fp_frac,
                  p.branch_frac, p.imul_frac, p.fdiv_frac, 0.0]
        alu_w = max(0.05, 1.0 - sum(base_w))
        weights = base_w[:-1] + [alu_w]
        while ctx.ops < n_ops:
            kind = rng.choices(kinds, weights)[0]
            getattr(self, f"_op_{kind}")(ctx)

    # -- individual op emitters --------------------------------------------
    def _refresh_addr(self, ctx: _Ctx, fp: bool) -> None:
        f = ctx.f
        if ctx.profile.seq_stride:
            f.addi(ctx.idx, ctx.idx, 1)
            ctx.ops += 1
        else:
            f.muli(ctx.idx, ctx.idx, 25173)
            f.addi(ctx.idx, ctx.idx, 13849)
            ctx.ops += 2
        reg = _S2 if fp else _S1
        f.andi(reg, ctx.idx, ctx.ws_mask)
        f.slli(reg, reg, 3)
        f.add(reg, ctx.fbase if fp else ctx.base, reg)
        ctx.ops += 3
        if fp:
            ctx.fp_addr_valid = True
        else:
            ctx.addr_valid = True

    def _op_load(self, ctx: _Ctx) -> None:
        f = ctx.f
        use_fp = bool(ctx.fgen) and ctx.rng.random() < 0.5 and ctx.fbase
        if use_fp:
            if not ctx.fp_addr_valid or ctx.rng.random() < 0.25:
                self._refresh_addr(ctx, fp=True)
            f.fld(_FS1, _S2, 8 * ctx.rng.randrange(8))
            fa = ctx.rng.choice(ctx.fgen)
            f.fadd(fa, fa, _FS1)
        else:
            # Loaded values feed the ALU dependency chains, putting
            # load latency on the critical path as in real code.
            regs = ctx.gen + [ctx.acc]
            chains = regs[:max(1, ctx.profile.ilp)]
            ctx.chain_next = (getattr(ctx, "chain_next", 0) + 1) % len(chains)
            chain = chains[ctx.chain_next]
            if ctx.rng.random() < ctx.profile.dep_load_frac:
                # Address computed from a live chain value: the load
                # serialises behind the computation (array[f(x)]).
                f.andi(_S3, chain, ctx.ws_mask)
                f.slli(_S3, _S3, 3)
                f.add(_S3, ctx.base, _S3)
                f.ld(_S3, _S3, 0)
                ctx.ops += 3
            else:
                if not ctx.addr_valid or ctx.rng.random() < 0.25:
                    self._refresh_addr(ctx, fp=False)
                f.ld(_S3, _S1, 8 * ctx.rng.randrange(8))
            f.add(chain, chain, _S3)
        ctx.ops += 2

    def _op_store(self, ctx: _Ctx) -> None:
        f = ctx.f
        use_fp = bool(ctx.fgen) and ctx.rng.random() < 0.5 and ctx.fbase
        if use_fp:
            if not ctx.fp_addr_valid or ctx.rng.random() < 0.25:
                self._refresh_addr(ctx, fp=True)
            f.fst(ctx.rng.choice(ctx.fgen), _S2, 8 * ctx.rng.randrange(8))
        else:
            if not ctx.addr_valid or ctx.rng.random() < 0.25:
                self._refresh_addr(ctx, fp=False)
            f.st(self._pick_reg(ctx), _S1, 8 * ctx.rng.randrange(8))
        ctx.ops += 1

    def _op_chase(self, ctx: _Ctx) -> None:
        """Dependent-load pointer chase (serialises on load latency)."""
        f = ctx.f
        f.andi(_S1, ctx.chase, ctx.ws_mask)
        f.slli(_S1, _S1, 3)
        f.add(_S1, ctx.base, _S1)
        f.ld(ctx.chase, _S1, 0)
        f.add(ctx.acc, ctx.acc, ctx.chase)
        ctx.addr_valid = False
        ctx.ops += 5

    def _op_fp(self, ctx: _Ctx) -> None:
        f = ctx.f
        if not ctx.fgen:
            return self._op_alu(ctx)
        chains = ctx.fgen[:max(1, ctx.profile.ilp)]
        ctx.fchain_next = (getattr(ctx, "fchain_next", 0) + 1) % len(chains)
        fa = chains[ctx.fchain_next]
        fb = ctx.rng.choice(ctx.fgen)
        r = ctx.rng.random()
        if r < 0.55:
            f.fadd(fa, fa, fb)
        elif r < 0.8:
            f.fsub(fa, fa, fb)
        else:
            f.fmul(fa, fa, fb)
        ctx.ops += 1

    def _op_fdiv(self, ctx: _Ctx) -> None:
        f = ctx.f
        if not ctx.fgen:
            return self._op_alu(ctx)
        fa = ctx.rng.choice(ctx.fgen)
        fb = ctx.rng.choice(ctx.fgen)
        f.fdiv(fa, fa, fb)
        ctx.ops += 1

    def _op_imul(self, ctx: _Ctx) -> None:
        f = ctx.f
        reg = ctx.rng.choice(ctx.gen + [ctx.acc])
        f.muli(reg, reg, ctx.rng.choice((3, 5, 7, 9)))
        ctx.ops += 1

    def _op_branch(self, ctx: _Ctx) -> None:
        f = ctx.f
        skip = ctx.label("sk")
        if ctx.rng.random() < ctx.profile.branch_random:
            # Data-dependent: chain registers absorb loaded data and
            # ALU mixing, so their low bits are effectively random.
            regs = ctx.gen + [ctx.acc]
            n_chains = min(len(regs), max(1, ctx.profile.ilp))
            src = regs[ctx.rng.randrange(n_chains)]
            f.andi(_S4, src, 1)
            f.beq(_S4, skip)
        else:
            # Loop-structured: strongly biased, easy to predict.
            f.andi(_S4, ctx.idx, 15)
            f.bne(_S4, skip)
        filler = ctx.rng.choice(ctx.gen + [ctx.acc])
        f.xori(filler, filler, ctx.rng.randrange(1, 255))
        f.label(skip)
        ctx.ops += 3

    def _pick_reg(self, ctx: _Ctx) -> int:
        """A source register with realistic (Zipf-like) heat: mostly
        the hot chain registers, occasionally a cold local.  Keeping
        most locals cold is what lets VCA park them in memory — real
        code concentrates its traffic on a few registers too."""
        regs = ctx.gen + [ctx.acc]
        hot = regs[:max(1, ctx.profile.ilp)]
        if ctx.rng.random() < 0.75:
            return ctx.rng.choice(hot)
        return ctx.rng.choice(regs)

    def _op_alu(self, ctx: _Ctx) -> None:
        f = ctx.f
        # Destinations rotate over `ilp` chain registers so dataflow
        # forms long dependency chains (bounding ILP like real code);
        # idx is excluded so index-based branches stay predictable.
        regs = ctx.gen + [ctx.acc]
        chains = regs[:max(1, ctx.profile.ilp)]
        ctx.chain_next = (getattr(ctx, "chain_next", 0) + 1) % len(chains)
        ra = chains[ctx.chain_next]
        rb = self._pick_reg(ctx)
        r = ctx.rng.random()
        if r < 0.45:
            f.add(ra, ra, rb)
        elif r < 0.7:
            f.xor(ra, ra, rb)
        elif r < 0.85:
            f.sub(ra, ra, rb)
        else:
            f.addi(ra, ra, ctx.rng.randrange(1, 64))
        ctx.ops += 1


def build_benchmark(name: str, thread: int = 0, scale: float = 1.0,
                    seed: Optional[int] = None) -> ProgramBuilder:
    """A fresh :class:`ProgramBuilder` for benchmark ``name``."""
    return BenchmarkBuilder(PROFILES[name], thread=thread,
                            scale=scale, seed=seed).build()


_PROGRAM_CACHE: dict = {}


def benchmark_program(name: str, abi: str, thread: int = 0,
                      scale: float = 1.0,
                      seed: Optional[int] = None) -> Program:
    """An assembled (cached) benchmark binary.

    Programs are immutable once assembled, so sharing across runs is
    safe; the cache keeps repeated sweeps cheap.
    """
    key = (name, abi, thread, scale, seed)
    prog = _PROGRAM_CACHE.get(key)
    if prog is None:
        prog = build_benchmark(name, thread=thread, scale=scale,
                               seed=seed).assemble(abi)
        _PROGRAM_CACHE[key] = prog
    return prog


def forget_programs() -> None:
    """Empty this process's program cache."""
    _PROGRAM_CACHE.clear()
