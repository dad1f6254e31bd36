"""The IL1/DL1/L2/DRAM hierarchy of Table 1, plus the DL1 port arbiter."""

from __future__ import annotations

from typing import Callable

from repro.config import MachineConfig
from repro.hooks import NULL_TRACER

from .cache import Cache
from .memory import MainMemory
from .ports import PortArbiter


class MemoryHierarchy:
    """Owns the caches, the flat backing memory and the DL1 ports.

    Timing and data are deliberately separate: ``dl1_access`` returns
    the latency a load/store/spill/fill observes, while reads and
    writes of actual values go straight to :attr:`memory`.
    """

    def __init__(self, cfg: MachineConfig) -> None:
        self.cfg = cfg
        self.memory = MainMemory()
        self.l2 = Cache("l2", cfg.l2, next_level=None,
                        mem_latency=cfg.mem_latency)
        self.dl1 = Cache("dl1", cfg.dl1, next_level=self.l2)
        self.il1 = Cache("il1", cfg.il1, next_level=self.l2)
        self.dl1_ports = PortArbiter(cfg.dl1_ports)
        #: Observability hooks; inert until :meth:`attach_obs`.
        self.trace = NULL_TRACER
        self.metrics = None
        self.clock: Callable[[], int] = lambda: 0
        self._traced_rejections = 0

    def attach_obs(self, tracer, metrics,
                   clock: Callable[[], int]) -> None:
        """Wire the tracer/metrics registry and a cycle source in."""
        self.trace = tracer
        self.metrics = metrics
        self.clock = clock

    def begin_cycle(self) -> None:
        tr = self.trace
        if tr.enabled:
            # One aggregate port-contention event per conflicted cycle
            # (emitted at the start of the next, when the count is
            # final) keeps trace volume proportional to contention.
            rej = self.dl1_ports.rejections
            if rej != self._traced_rejections:
                tr.emit(self.clock(), -1, "port_conflict",
                        n=rej - self._traced_rejections)
                self._traced_rejections = rej
        self.dl1_ports.begin_cycle()

    def warm(self, lo: int, hi: int) -> None:
        """Pre-install ``[lo, hi)`` into L2 and DL1 (warm start; see
        :meth:`repro.mem.cache.Cache.install`)."""
        block = self.dl1.cfg.block_bytes
        blocks = range(lo & ~(block - 1), hi, block)
        self.l2.install(blocks)
        self.dl1.install(blocks)

    # -- timing -----------------------------------------------------------
    def dl1_access(self, addr: int, write: bool, kind: str) -> int:
        """Access the data cache; returns observed latency in cycles.

        The caller must already hold a DL1 port for this cycle.
        """
        latency = self.dl1.access(addr, write=write, kind=kind)
        tr = self.trace
        if tr.enabled:
            tr.emit(self.clock(), -1, "dl1", addr=addr, op=kind,
                    write=write, hit=latency == self.dl1.cfg.hit_latency,
                    latency=latency)
        return latency

    # -- data ---------------------------------------------------------------
    def read_word(self, addr: int) -> float:
        return self.memory.read(addr & ~7)

    def write_word(self, addr: int, value: float) -> None:
        self.memory.write(addr & ~7, value)

    # -- metrics ------------------------------------------------------------
    @property
    def data_cache_accesses(self) -> int:
        """Total DL1 accesses: the metric of Figure 5 / Section 4.3."""
        return self.dl1.stats.accesses

    def access_breakdown(self) -> dict:
        return dict(self.dl1.stats.by_kind)
