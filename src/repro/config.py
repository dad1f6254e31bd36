"""Machine configuration for the VCA reproduction.

The defaults encode Table 1 of the paper ("Baseline processor
parameters") plus the VCA-specific structures described in Sections 2
and 3: the tagged set-associative rename table, the RSID translation
table, and the architectural state transfer queue (ASTQ).

All timing experiments in :mod:`repro` are parameterised by a single
:class:`MachineConfig` instance; the four machine models of the paper
(baseline, conventional register windows, ideal register windows, and
VCA) are selected by model name (:mod:`repro.models.factory`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    assoc: int
    block_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.block_bytes):
            raise ValueError("cache size must be a multiple of assoc*block")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.block_bytes)


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description.

    The zero-argument constructor yields the paper's Table 1 baseline
    with 256 physical registers; use :meth:`baseline` or
    :func:`dataclasses.replace` for variants.
    """

    # --- Table 1: baseline processor parameters -------------------
    width: int = 4                     # machine width (fetch/rename/issue/commit)
    iq_size: int = 128                 # instruction queue entries
    rob_size: int = 192                # reorder buffer entries
    lsq_size: int = 64                 # load/store queue entries
    pipeline_depth: int = 8            # fetch to execute, cycles (Table 1)
    dl1_ports: int = 2                 # shared read/write data-cache ports
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 64, 3))
    il1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 64, 1))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 4, 64, 15))
    mem_latency: int = 250             # cycles
    phys_regs: int = 256

    # --- threads --------------------------------------------------
    n_threads: int = 1

    # --- VCA structures (Sections 2.2 and 3) -----------------------
    #: Sets in the tagged rename table ("64 entries per way").
    vca_table_sets: int = 64
    #: Associativity; 0 means "per Table note": 3/5/6 ways for 1/2/4
    #: threads respectively.
    vca_table_assoc: int = 0
    #: Rename-table ports per cycle (paper: 8; reads of the same
    #: register are combined).
    vca_rename_ports: int = 8
    #: ASTQ entries (paper: 4 suffice).
    astq_size: int = 4
    #: Spill/fill operations written into the ASTQ per cycle (paper: 2).
    astq_writes_per_cycle: int = 2
    #: Entries in the RSID translation table (Section 2.2.1 example: 16).
    rsid_entries: int = 16
    #: Low-order register-address bits covered by one register space
    #: (Fig. 3: a 16-bit register-space offset -> 64 KiB spaces).
    rsid_offset_bits: int = 16
    #: Replacement recency floor in cycles: cached registers used more
    #: recently than this are never chosen as spill victims (rename
    #: stalls instead).  This keeps the live working set resident
    #: rather than cycling it through memory when in-flight demand
    #: spikes; 0 disables the protection (pure LRU) for ablation.
    vca_protect_cycles: int = 64
    #: Dead-value extension (the paper's Section 6 future work): when
    #: a return commits under the windowed ABI, the departing window's
    #: registers are architecturally dead — every activation starts
    #: with a fresh window — so their cached physical registers are
    #: reclaimed immediately without spilling.  Off by default to
    #: match the paper's evaluated design.
    vca_dead_window_hint: bool = False

    # --- functional-unit pool --------------------------------------
    int_alus: int = 4
    int_mult_latency: int = 7
    fp_units: int = 2
    fp_add_latency: int = 4
    fp_mul_latency: int = 4
    fp_div_latency: int = 12

    # --- conventional register windows (Section 4.1) ---------------
    #: Cycles of pipeline delay modelling the overflow/underflow trap.
    window_trap_cycles: int = 10
    #: Minimum rename registers the conventional-window machine must
    #: leave after carving logical windows out of the physical file.
    window_min_rename_regs: int = 64

    # --- safety / harness -------------------------------------------
    max_cycles: int = 50_000_000

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.n_threads not in (1, 2, 4, 8):
            raise ValueError("n_threads must be 1, 2, 4 or 8")
        if self.pipeline_depth < 4:
            raise ValueError("pipeline_depth must be >= 4 (fetch..execute)")
        if self.phys_regs < 1:
            raise ValueError("phys_regs must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, phys_regs: int = 256, **overrides) -> "MachineConfig":
        """The Table 1 baseline machine with ``phys_regs`` registers."""
        return cls(phys_regs=phys_regs, **overrides)

    def with_(self, **overrides) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    @property
    def effective_vca_assoc(self) -> int:
        """Rename-table associativity after the per-thread-count rule.

        Section 3: associativity of 3, 5, or 6 (192, 320, or 384
        entries) for one, two, and four threads respectively.
        """
        if self.vca_table_assoc:
            return self.vca_table_assoc
        return {1: 3, 2: 5, 4: 6, 8: 8}[self.n_threads]
