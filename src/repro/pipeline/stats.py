"""Simulation statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Tuple


@dataclass
class ThreadStats:
    """Per-hardware-thread counters."""

    committed: int = 0
    halted_at: int = 0          # cycle the thread's HALT committed
    halted: bool = False
    fetched: int = 0
    squashed: int = 0
    loads: int = 0
    stores: int = 0
    calls: int = 0
    fp_ops: int = 0
    cond_branches: int = 0

    def ipc(self, cycles: int) -> float:
        return self.committed / cycles if cycles else 0.0


_COMMITTED = attrgetter("committed")

#: Fields of :class:`SimStats` and :class:`ThreadStats` that are not
#: plain counts: the levels a run holds at its end, the DL1 miss rate
#: derived from other counts, and the per-thread records.
_NOT_COUNTS = ("max_regs_in_use", "l2_miss_rate", "halted", "halted_at",
               "dl1_miss_rate", "threads")


def count_fields(cls) -> Tuple[str, ...]:
    """The count fields of ``cls``: each int field and per-kind count
    dict, which a sampled run differences between two points of a run
    and scales to the whole run.  A count added to a stats class
    reaches sampled runs through this alone."""
    return tuple(f.name for f in fields(cls) if f.name not in _NOT_COUNTS)


@dataclass
class SimStats:
    """Machine-wide counters for one timing-simulation run: the one
    per-run count record every run, sampled run, stored result and
    export carries."""

    cycles: int = 0
    threads: List[ThreadStats] = field(default_factory=list)
    branch_mispredicts: int = 0
    cond_branches: int = 0
    spills: int = 0
    fills: int = 0
    window_overflows: int = 0
    window_underflows: int = 0
    window_trap_cycles: int = 0
    rename_stalls: Counter = field(default_factory=Counter)
    dl1_accesses: int = 0
    dl1_breakdown: Dict[str, int] = field(default_factory=dict)
    dl1_miss_breakdown: Dict[str, int] = field(default_factory=dict)
    dl1_port_conflict_cycles: int = 0
    dl1_miss_rate: float = 0.0
    l2_miss_rate: float = 0.0
    rsid_flushes: int = 0
    max_regs_in_use: int = 0

    @property
    def committed(self) -> int:
        # A sampled run tests this every cycle: map() keeps it in C.
        return sum(map(_COMMITTED, self.threads))

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def thread_ipc(self, tid: int) -> float:
        """IPC of one thread over the measured window."""
        t = self.threads[tid]
        window = t.halted_at if t.halted else self.cycles
        return t.committed / window if window else 0.0

    @property
    def dl1_accesses_per_instr(self) -> float:
        return self.dl1_accesses / self.committed if self.committed else 0.0

    @property
    def mispredict_rate(self) -> float:
        if not self.cond_branches:
            return 0.0
        return self.branch_mispredicts / self.cond_branches

    def summary(self) -> str:
        """Human-readable one-run report."""
        def row(label: str, value, extra: str = "") -> str:
            # A fixed label column plus an explicit separator before
            # any annotation keeps the report aligned (and readable)
            # however wide the counts get.
            text = f"{label:<22}{value}"
            return f"{text}  {extra}" if extra else text

        lines = [
            row("cycles", self.cycles),
            row("committed", self.committed),
            row("IPC", f"{self.ipc:.3f}"),
            row("DL1 accesses", self.dl1_accesses,
                f"({self.dl1_accesses_per_instr:.3f}/instr)"),
            row("DL1 breakdown", self.dl1_breakdown),
            row("DL1 miss rate", f"{self.dl1_miss_rate:.4f}"),
            row("branch mispredicts", self.branch_mispredicts,
                f"(rate {self.mispredict_rate:.4f})"),
            row("spills / fills", f"{self.spills} / {self.fills}"),
            row("window traps", f"{self.window_overflows} ov / "
                                f"{self.window_underflows} un"),
            row("rsid flushes", self.rsid_flushes),
            row("max regs in use", self.max_regs_in_use),
            row("rename stalls", dict(self.rename_stalls)),
        ]
        for i, t in enumerate(self.threads):
            lines.append(f"thread {i}: committed={t.committed} "
                         f"ipc={self.thread_ipc(i):.3f} "
                         f"halted={t.halted}")
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict:
        """One JSON-safe schema for exports, artifacts and tests.

        Contains every stored field (``threads`` as a list of dicts,
        ``rename_stalls`` as a plain dict) plus the derived headline
        rates; :meth:`from_dict` ignores the derived keys.
        """
        d = asdict(self)
        d["rename_stalls"] = dict(self.rename_stalls)
        d["ipc"] = self.ipc
        d["committed_total"] = self.committed
        d["mispredict_rate"] = self.mispredict_rate
        d["dl1_accesses_per_instr"] = self.dl1_accesses_per_instr
        return d

    #: Derived keys present in :meth:`to_dict` but not stored.
    _DERIVED = ("ipc", "committed_total", "mispredict_rate",
                "dl1_accesses_per_instr")

    @classmethod
    def from_dict(cls, d: Dict) -> "SimStats":
        """Inverse of :meth:`to_dict` (round-trip safe)."""
        known = {f.name for f in fields(cls)}
        kw = {k: v for k, v in d.items()
              if k in known and k not in ("threads", "rename_stalls")}
        kw["threads"] = [ThreadStats(**t) for t in d.get("threads", [])]
        kw["rename_stalls"] = Counter(d.get("rename_stalls", {}))
        return cls(**kw)
