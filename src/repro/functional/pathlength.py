"""Path-length measurement (Table 2 methodology).

Section 3.1: "we measured the number of instructions required to
execute both versions of each benchmark to completion using fast
functional simulation"; the windowed/flat dynamic-instruction ratio is
then used to convert CPI into execution time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.functional.interp import FunctionalSim, FunctionalStats


@dataclass(frozen=True)
class PathLengthResult:
    """Dynamic path lengths of the two ABI lowerings of one benchmark."""

    flat: FunctionalStats
    windowed: FunctionalStats

    @property
    def ratio(self) -> float:
        """Windowed-to-flat dynamic instruction ratio (Table 2)."""
        return self.windowed.instructions / self.flat.instructions

    @property
    def mem_op_ratio(self) -> float:
        """Windowed-to-flat memory-operation ratio."""
        return self.windowed.mem_ops / self.flat.mem_ops


def measure_path_length(builder_factory) -> PathLengthResult:
    """Assemble and functionally execute both ABIs of one benchmark.

    Args:
        builder_factory: zero-argument callable returning a fresh
            :class:`~repro.asm.builder.ProgramBuilder`; it is invoked
            twice because assembly consumes the builder's layout.
    """
    flat = FunctionalSim(builder_factory().assemble("flat")).run()
    windowed = FunctionalSim(builder_factory().assemble("windowed")).run()
    return PathLengthResult(flat=flat, windowed=windowed)
