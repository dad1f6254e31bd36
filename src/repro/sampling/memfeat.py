"""Memory-signature interval features for representative selection.

Basic-block vectors describe *control flow*; two intervals executing
the same loop over different working sets look identical to BBV
clustering even though their cache behaviour — the spill/fill traffic
that is VCA's headline metric — differs completely.  Following
"Improving the Representativeness of Simulation Intervals for the
Cache Memory System" (PAPERS.md), each interval therefore also gets a
compact memory signature harvested from the same functional pass:

* a **bounded reuse-distance sketch** — an LRU stack of at most
  ``cap`` cache lines; each access records the number of distinct
  lines touched since the line's previous access, bucketed into
  log2 histogram bins (plus a cold/evicted bin), and
* the **touched-line set** of the interval, whose cardinality
  separates streaming intervals from resident ones.

The collector is *stateful across intervals* (like the warmup trace:
reuse distances legitimately cross interval boundaries) and
:meth:`ReuseCollector.snapshot` cuts a per-interval
:class:`MemSketch` delta.  Because sketches are deltas of one
continuous pass, :meth:`MemSketch.merge` is exact: merging two
adjacent interval sketches equals the single sketch of the
concatenated trace (``tests/test_functional_blocks.py`` proves this
with hypothesis).

Capture is strictly opt-in.  The decoded-block replay path
(``repro.functional.blocks``) routes all memory traffic through the
simulator's *bound* ``read_mem``/``write_mem`` methods, so installing
a capturing subclass is enough to observe every access — and a plain
:class:`~repro.sampling.checkpoint.CheckpointingSim` pays nothing,
keeping the sampler's functional pass at full speed when the feature
is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.asm.program import Program

from .checkpoint import CheckpointingSim

__all__ = ["MemSketch", "ReuseCollector", "MemCaptureCheckpointingSim",
           "n_buckets"]


def n_buckets(cap: int) -> int:
    """Reuse-distance bins for an LRU stack of ``cap`` lines: log2 bins
    for distances ``0..cap-1`` plus one cold/evicted bin."""
    return (cap - 1).bit_length() + 2


@dataclass(frozen=True)
class MemSketch:
    """One interval's memory signature (a delta of the collector).

    Attributes:
        reuse: reuse-distance histogram; ``reuse[d.bit_length()]``
            counts accesses at LRU stack distance ``d``, and the last
            bin counts cold or beyond-``cap`` accesses.
        lines: cache lines touched during the interval (bounded by
            the interval's distinct-line count, not the trace length).
        accesses: memory accesses in the interval.
    """

    reuse: Tuple[int, ...]
    lines: FrozenSet[int]
    accesses: int

    @property
    def touched(self) -> int:
        """Touched-line-set cardinality."""
        return len(self.lines)

    def merge(self, other: "MemSketch") -> "MemSketch":
        """Sketch of the concatenation of two adjacent intervals.

        Exact (not approximate) because sketches are deltas of one
        stateful collector: histograms add, touched sets union.
        """
        if len(self.reuse) != len(other.reuse):
            raise ValueError(
                f"cannot merge sketches with {len(self.reuse)} and "
                f"{len(other.reuse)} bins (different caps)")
        return MemSketch(
            reuse=tuple(a + b for a, b in zip(self.reuse, other.reuse)),
            lines=self.lines | other.lines,
            accesses=self.accesses + other.accesses)

    def features(self, instructions: int) -> List[float]:
        """Clustering feature row: the reuse histogram as a
        distribution over bins, plus touched lines per instruction."""
        total = self.accesses if self.accesses else 1
        row = [c / total for c in self.reuse]
        row.append(len(self.lines) / max(1, instructions))
        return row


class ReuseCollector:
    """Bounded LRU stack-distance collector, one per profiling pass.

    ``touch`` is O(cap) worst case (a list scan), which only runs when
    capture is enabled; the capture-off replay path never sees it.
    """

    __slots__ = ("cap", "line_bytes", "_stack", "_hist", "_lines",
                 "_accesses")

    def __init__(self, cap: int = 256, line_bytes: int = 64) -> None:
        if cap <= 0:
            raise ValueError(f"sketch cap must be positive, got {cap}")
        if line_bytes <= 0:
            raise ValueError(f"line_bytes must be positive, "
                             f"got {line_bytes}")
        self.cap = cap
        self.line_bytes = line_bytes
        self._stack: List[int] = []     # LRU order, most recent last
        self._hist = [0] * n_buckets(cap)
        self._lines = set()
        self._accesses = 0

    @property
    def resident(self) -> int:
        """Lines currently on the LRU stack (≤ ``cap`` always)."""
        return len(self._stack)

    def touch(self, addr: int) -> None:
        """Record one memory access (load or store alike)."""
        line = addr // self.line_bytes
        stack = self._stack
        try:
            i = stack.index(line)
        except ValueError:
            self._hist[-1] += 1          # cold, or evicted past cap
        else:
            d = len(stack) - 1 - i
            self._hist[d.bit_length()] += 1
            del stack[i]
        stack.append(line)
        if len(stack) > self.cap:
            del stack[0]
        self._lines.add(line)
        self._accesses += 1

    def snapshot(self) -> MemSketch:
        """Cut the current interval's sketch and start the next one.

        The LRU stack carries over (reuse distances cross interval
        boundaries); the histogram and touched set reset.
        """
        sketch = MemSketch(reuse=tuple(self._hist),
                           lines=frozenset(self._lines),
                           accesses=self._accesses)
        self._hist = [0] * len(self._hist)
        self._lines = set()
        self._accesses = 0
        return sketch


class MemCaptureCheckpointingSim(CheckpointingSim):
    """Checkpointing interpreter that also feeds a collector — the
    engine of the sampler's functional pass in ``bbv+mem`` mode.

    Blocks mode binds ``read_mem``/``write_mem`` once per epoch, so
    the override captures replayed blocks too.
    """

    def __init__(self, program: Program,
                 collector: ReuseCollector) -> None:
        super().__init__(program)
        self.collector = collector

    def read_mem(self, addr: int) -> float:
        self.collector.touch(addr)
        return super().read_mem(addr)

    def write_mem(self, addr: int, v: float) -> None:
        self.collector.touch(addr)
        super().write_mem(addr, v)
