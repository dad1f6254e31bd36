"""Golden NEGATIVE example for L003: imports the module never reads.

``json`` and ``Dict`` are bound and never read; ``os`` is read
through an attribute chain, ``List`` only inside a string annotation,
``Sequence`` is re-exported through ``__all__``, and the
``__future__`` import binds nothing.
"""

from __future__ import annotations

import json  # L003
import os
from typing import Dict, List, Sequence  # L003 (Dict)

__all__ = ["Sequence", "cwd"]


def cwd(parts: "List[str]") -> str:
    return os.path.join(os.getcwd(), *parts)
