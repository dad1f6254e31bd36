"""The paper's evaluation metrics, as pure functions of numbers."""

from .metrics import flat_equivalent, geomean, weighted_speedup

__all__ = ["flat_equivalent", "geomean", "weighted_speedup"]
