"""Helpers shared by the CLI command families."""

from __future__ import annotations

import sys


def engine_from(args):
    """Build the execution engine the flags ask for (None → serial)."""
    workers = getattr(args, "workers", 0) or 0
    timeout = getattr(args, "timeout", None)
    use_cache = not getattr(args, "no_cache", False)
    if workers > 1:
        from repro.experiments.engine import ParallelEngine
        return ParallelEngine(workers=workers, timeout=timeout,
                              use_cache=use_cache)
    from repro.experiments.engine import SerialEngine
    return SerialEngine(use_cache=use_cache)


def open_ledger(path: str, command: str):
    """A run ledger appending to ``path`` for this invocation
    (``command`` names it when there is no argv to quote)."""
    from repro.experiments.runner import source_hash
    from repro.obs import RunLedger
    return RunLedger(path, command=" ".join(sys.argv[1:]) or command,
                     config_hash=source_hash())


def emit_series(series, title, args) -> int:
    from repro.experiments.report import render_series
    print(render_series(title, "phys regs", series))
    if getattr(args, "csv", None):
        from repro.experiments.export import write_series_csv
        out = write_series_csv(args.csv, "phys_regs", series)
        print(f"\n(wrote {out})")
    return 0
