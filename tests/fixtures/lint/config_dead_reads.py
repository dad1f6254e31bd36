"""Golden NEGATIVE example: config knobs only dead code reads (C001).

Installed as ``fakepkg/config.py`` beside a consumer that reads
``cfg.issue``, ``self.cfg.rate`` and ``other.lanes``/``other.front``.
``width`` and ``ports`` count as read through the ``issue`` property
and ``rate`` through ``self.cfg``.  ``depth`` is read only by
``front``, a property no config receiver reads, and ``lanes`` only by
``__post_init__`` validation and through a receiver that is not a
config.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    width: int = 4
    ports: int = 2
    rate: int = 1
    depth: int = 8   # C001: only the unread ``front`` reads it
    lanes: int = 1   # C001: only validation and ``other.lanes`` read it

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")

    @property
    def issue(self) -> int:
        return self.width * self.ports

    @property
    def front(self) -> int:
        return self.depth
