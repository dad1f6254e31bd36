"""Command-line interface: ``python -m repro <command>``.

One package, one module per command family; each module exposes a
``register(sub)`` that attaches its subcommands, and
:func:`build_parser` composes them into the single ``repro`` parser:

* :mod:`~repro.cli.runcmd` — ``list``, ``run``, ``profile``,
  ``disasm``: simulate or inspect one configuration.
* :mod:`~repro.cli.figures` — ``table2``, ``fig4``–``fig8``,
  ``sec43``, and the general ``sweep`` runner (parallel workers,
  ledgers, ``--store``).
* :mod:`~repro.cli.obscmd` — ``trace``, ``top``, ``report``,
  ``bench record``/``bench diff``: the observability surfaces.
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

from repro.experiments.engine import EngineError
from repro.models import MODELS
from repro.workloads import PROFILES

from . import figures, lintcmd, obscmd, runcmd, servicecmd

__all__ = ["build_parser", "main"]


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
    try:
        return args.fn(args)
    except EngineError as exc:
        # A command that reduces outcomes (the figures) asked for a
        # failed point's result: one line, as `repro sweep` prints it.
        from repro.experiments.report import render_failure
        print(f"repro {args.command}: {render_failure(exc.outcome)}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
