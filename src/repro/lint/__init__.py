"""simlint: simulator-aware static analysis for the repro tree.

Stdlib-``ast`` rules that encode the invariants this repository's
results rest on — see ``docs/linting.md`` for the catalog and
rationale:

* **D001–D004 determinism** — no ambient randomness, wall-clock
  reads, set-iteration order, or ``id()`` values in the semantics-
  bearing modules (the same file set ``source_hash`` keys the result
  cache with).
* **L001–L002 layering** — the module-level import graph stays a DAG
  and never points from simulation semantics up into ``obs``,
  ``experiments`` or the CLI.
* **H001–H002 hot-path hygiene** — pooled classes declare
  ``__slots__`` and their pool-reset method reassigns every slot.
* **S001–S005 schema** — every emitted trace/metric name appears in
  ``repro.obs.schema``, and vice versa.
* **C001 coverage** — every config field is read through a config
  receiver (``cfg``/``config``) somewhere.
* **E001** — no unannotated broad ``except`` handlers.
* **K001–K003 lock discipline** — shared mutable attributes of
  lock-owning classes stay under the lock, lock acquisition order is
  globally consistent, and no blocking call happens while a lock is
  held (``docs/concurrency.md`` has the execution-context model).
* **F001–F002 fork safety** — no lock/connection/thread/socket
  crosses a ``Process(...)`` boundary, and fork-reachable code never
  reuses a pre-fork module-level resource.
* **X001–X003 resource lifecycle** — started threads have a join
  path from teardown, locally opened files/connections close on all
  CFG paths, ``self``-attached resources close in
  ``close()``/``stop()``/``shutdown()``.

Run it as ``repro lint`` (``--json``, ``--rules``, ``--root``); any
finding fails it.  The one way to accept a finding is in place, with
``# lint: disable=ID`` on its line, ``# lint: allow-broad-except`` at
an intended isolation boundary, or ``# lint: skip-file``.
"""

from .cli import default_config, find_repo_root, lint_main
from .core import (
    Finding, LintConfig, LintContext, Rule, SourceFile, default_rules,
    lint_tree, rule_catalog,
)
from .execctx import ProgramIndex, program_index
from .flow import CFG, FunctionInfo, build_cfg, collect_function

__all__ = [
    "CFG", "Finding", "FunctionInfo", "LintConfig", "LintContext",
    "ProgramIndex", "Rule", "SourceFile", "build_cfg",
    "collect_function", "default_config", "default_rules",
    "find_repo_root", "lint_main", "lint_tree", "program_index",
    "rule_catalog",
]
