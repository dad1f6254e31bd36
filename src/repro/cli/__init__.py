"""Command-line interface: ``python -m repro <command>``.

One package, one module per command family; each module exposes a
``register(sub)`` that attaches its subcommands, and
:func:`build_parser` composes them into the single ``repro`` parser:

* :mod:`~repro.cli.runcmd` — ``list``, ``run``, ``profile``,
  ``disasm``: simulate or inspect one configuration.
* :mod:`~repro.cli.figures` — ``table2``, ``fig4``–``fig8``,
  ``sec43``, and the general ``sweep`` runner (parallel workers,
  ledgers, ``--resume``, ``--store``).
* :mod:`~repro.cli.obscmd` — ``trace``, ``top``, ``report``,
  ``bench diff``: the observability surfaces.
* :mod:`~repro.cli.servicecmd` — ``serve``, ``submit``, ``jobs``,
  ``fetch``, ``store``: the simulation service and its sqlite result
  store (see ``docs/service.md``).
* :mod:`~repro.cli.lintcmd` — ``lint``, the static-analysis gate.

The entry point is unchanged: ``repro``/``python -m repro`` call
:func:`main` here exactly as they did when this was one module.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.models import MODELS
from repro.workloads import PROFILES

from . import figures, lintcmd, obscmd, runcmd, servicecmd
# Re-exported for backwards compatibility: these helpers were public
# enough to be imported from ``repro.cli`` before the package split.
from .common import emit_series, engine_from
from .obscmd import _in_cycle_range, _parse_cycle_range  # noqa: F401

__all__ = ["build_parser", "main", "engine_from", "emit_series"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'How to Fake 1000 Registers' "
                    "(MICRO 2005)")
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (runcmd, figures, obscmd, servicecmd, lintcmd):
        family.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    benches = list(getattr(args, "bench_pos", None) or [])
    benches += getattr(args, "bench", None) or []
    for bench in benches:
        # PROFILES (not ALL_BENCHMARKS) so the diagnostic workloads
        # are runnable without joining the experiment pool.
        if bench not in PROFILES:
            parser.error(f"unknown benchmark {bench!r}; "
                         f"see `python -m repro list`")
    for model in getattr(args, "models", None) or []:
        if model not in MODELS:
            parser.error(f"unknown model {model!r}; "
                         f"see `python -m repro list`")
    if getattr(args, "resume", False) and not args.ledger:
        # The ledger is the only resume source; without one a resume
        # would silently re-run every point.
        parser.error("--resume needs --ledger")
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
