"""Functional (instruction-accurate) simulation."""

from .interp import (
    FUNCTIONAL_MODES, MASK64, FunctionalError, FunctionalSim,
    FunctionalStats, to_signed,
)
from .blocks import BlockTable, advance, block_table, run_blocks
from .pathlength import PathLengthResult, measure_path_length

__all__ = [
    "FUNCTIONAL_MODES", "MASK64", "FunctionalError", "FunctionalSim",
    "FunctionalStats", "to_signed",
    "BlockTable", "advance", "block_table", "run_blocks",
    "PathLengthResult", "measure_path_length",
]
