"""Hybrid branch prediction (Table 1) and the return-address stack.

The direction predictor is a 21264-style tournament: a per-branch
local-history predictor and a gshare global predictor arbitrated by a
chooser.  Global history is updated speculatively at prediction time
and repaired from a per-branch checkpoint on misprediction recovery.

Direct targets (``BR``, ``CALL`` and conditional branches) are encoded
in the instruction, so no BTB is needed; returns are predicted with a
return-address stack whose top-of-stack is checkpointed per branch.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


def _ctr_update(table: List[int], idx: int, taken: bool) -> None:
    """Saturating 2-bit counter update."""
    v = table[idx]
    if taken:
        if v < 3:
            table[idx] = v + 1
    elif v > 0:
        table[idx] = v - 1


class PredictorCheckpoint:
    """State needed to repair the predictor after a squash.

    A plain slotted class: fetch builds one per control instruction,
    so construction cost is on the cycle loop.  Treat it as
    read-only."""

    __slots__ = ("ghist", "ras_sp", "ras_top", "local_idx", "local_hist",
                 "gshare_idx", "chooser_idx", "used_local")

    def __init__(self, ghist: int, ras_sp: int, ras_top: int,
                 local_idx: int, local_hist: int, gshare_idx: int,
                 chooser_idx: int, used_local: bool) -> None:
        self.ghist = ghist
        self.ras_sp = ras_sp
        self.ras_top = ras_top
        self.local_idx = local_idx
        self.local_hist = local_hist
        self.gshare_idx = gshare_idx
        self.chooser_idx = chooser_idx
        self.used_local = used_local


class ReturnAddressStack:
    """Circular return-address stack (16 entries)."""

    def __init__(self, depth: int = 16) -> None:
        self.depth = depth
        self._stack = [0] * depth
        self._sp = 0

    @property
    def sp(self) -> int:
        return self._sp

    @property
    def top(self) -> int:
        return self._stack[(self._sp - 1) % self.depth]

    def push(self, addr: int) -> None:
        self._stack[self._sp % self.depth] = addr
        self._sp += 1

    def pop(self) -> int:
        addr = self.top
        self._sp -= 1
        return addr

    def restore(self, sp: int, top: int) -> None:
        self._sp = sp
        self._stack[(sp - 1) % self.depth] = top


class HybridPredictor:
    """Tournament direction predictor with speculative global history."""

    LOCAL_ENTRIES = 1024
    LOCAL_HIST_BITS = 10
    GLOBAL_ENTRIES = 4096
    GHIST_BITS = 12

    def __init__(self) -> None:
        self.local_hist = [0] * self.LOCAL_ENTRIES
        self.local_ctr = [1] * (1 << self.LOCAL_HIST_BITS)
        self.gshare_ctr = [1] * self.GLOBAL_ENTRIES
        self.chooser = [2] * self.GLOBAL_ENTRIES  # start favouring gshare
        self.ghist = 0
        self.ras = ReturnAddressStack()
        self.predictions = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------
    def checkpoint(self, pc: int = 0) -> PredictorCheckpoint:
        """Snapshot for a non-conditional control instruction."""
        li = pc % self.LOCAL_ENTRIES
        ghist = self.ghist
        ras = self.ras
        return PredictorCheckpoint(
            ghist, ras.sp, ras.top, li, self.local_hist[li],
            (pc ^ ghist) % self.GLOBAL_ENTRIES, pc % self.GLOBAL_ENTRIES,
            False)

    def predict(self, pc: int):
        """Predict a conditional branch at ``pc``.

        Returns ``(taken, checkpoint)``; speculatively updates global
        and local history.
        """
        self.predictions += 1
        li = pc % self.LOCAL_ENTRIES
        lh = self.local_hist[li]
        ghist = self.ghist
        gi = (pc ^ ghist) % self.GLOBAL_ENTRIES
        ci = pc % self.GLOBAL_ENTRIES
        use_local = self.chooser[ci] < 2
        if use_local:
            taken = self.local_ctr[lh] >= 2
        else:
            taken = self.gshare_ctr[gi] >= 2
        ras = self.ras
        cp = PredictorCheckpoint(ghist, ras.sp, ras.top, li, lh, gi, ci,
                                 use_local)
        self._spec_update(li, taken)
        return taken, cp

    def _spec_update(self, local_idx: int, taken: bool) -> None:
        mask = (1 << self.GHIST_BITS) - 1
        self.ghist = ((self.ghist << 1) | int(taken)) & mask
        lmask = (1 << self.LOCAL_HIST_BITS) - 1
        self.local_hist[local_idx] = (
            (self.local_hist[local_idx] << 1) | int(taken)) & lmask

    # ------------------------------------------------------------------
    def train(self, cp: PredictorCheckpoint, taken: bool,
              predicted: bool) -> None:
        """Train the tables when a conditional branch commits."""
        local_taken = self.local_ctr[cp.local_hist] >= 2
        gshare_taken = self.gshare_ctr[cp.gshare_idx] >= 2
        _ctr_update(self.local_ctr, cp.local_hist, taken)
        _ctr_update(self.gshare_ctr, cp.gshare_idx, taken)
        if local_taken != gshare_taken:
            # Chooser moves toward whichever component was right.
            _ctr_update(self.chooser, cp.chooser_idx, local_taken != taken)
        if predicted != taken:
            self.mispredictions += 1

    def undo_spec(self, cp: PredictorCheckpoint) -> None:
        """Rewind one squashed branch's speculative local-history
        update.  Called youngest-first for every squashed conditional
        branch so wrong-path pollution of per-branch histories does
        not persist (global history is rewound wholesale by the
        mispredicted branch's own :meth:`recover`)."""
        self.local_hist[cp.local_idx] = cp.local_hist

    def recover(self, cp: PredictorCheckpoint, taken: bool,
                was_cond: bool) -> None:
        """Repair speculative history after a misprediction squash.

        ``taken`` is the branch's actual direction; histories are
        rewound to the checkpoint and re-applied with the truth.
        """
        self.ghist = cp.ghist
        self.ras.restore(cp.ras_sp, cp.ras_top)
        if was_cond:
            self.local_hist[cp.local_idx] = cp.local_hist
            self._spec_update(cp.local_idx, taken)

    def replay(self, outcomes: Iterable[Tuple[int, bool]]) -> None:
        """Warm the tables from committed ``(pc, taken)`` outcomes,
        oldest first.

        Leaves the state of :meth:`predict` then :meth:`train` per
        branch, followed by :meth:`recover` with the true direction
        whenever the prediction was wrong: the counters, chooser and
        ``predictions``/``mispredictions`` move as on the machine, and
        both histories follow the committed path.  The return-address
        stack is left as it was, as recovery restores it.  No
        checkpoint is built.
        """
        local_hist = self.local_hist
        local_ctr = self.local_ctr
        gshare_ctr = self.gshare_ctr
        chooser = self.chooser
        n_local = self.LOCAL_ENTRIES
        n_global = self.GLOBAL_ENTRIES
        gmask = (1 << self.GHIST_BITS) - 1
        lmask = (1 << self.LOCAL_HIST_BITS) - 1
        ghist = self.ghist
        n = wrong = 0
        for pc, taken in outcomes:
            n += 1
            li = pc % n_local
            lh = local_hist[li]
            gi = (pc ^ ghist) % n_global
            lc = local_ctr[lh]
            gc = gshare_ctr[gi]
            local_taken = lc >= 2
            predicted = local_taken
            if local_taken != (gc >= 2):
                # The components disagree: the chooser picks one, then
                # moves toward whichever was right.
                ci = pc % n_global
                c = chooser[ci]
                if c >= 2:
                    predicted = not local_taken
                if local_taken != taken:
                    if c < 3:
                        chooser[ci] = c + 1
                elif c > 0:
                    chooser[ci] = c - 1
            if taken:
                if lc < 3:
                    local_ctr[lh] = lc + 1
                if gc < 3:
                    gshare_ctr[gi] = gc + 1
                ghist = ((ghist << 1) | 1) & gmask
                local_hist[li] = ((lh << 1) | 1) & lmask
            else:
                if lc > 0:
                    local_ctr[lh] = lc - 1
                if gc > 0:
                    gshare_ctr[gi] = gc - 1
                ghist = (ghist << 1) & gmask
                local_hist[li] = (lh << 1) & lmask
            if predicted != taken:
                wrong += 1
        self.ghist = ghist
        self.predictions += n
        self.mispredictions += wrong

    @property
    def mispredict_rate(self) -> float:
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions
