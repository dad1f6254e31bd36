#!/usr/bin/env python3
"""Shared entry point for the repository's static CI checks.

Runs, in order:

* ``lint`` — ``repro lint`` (the simulator-aware static analysis
  suite, every rule family, ``docs/linting.md``); any finding fails
  it.
* ``docs`` — ``tools/check_docs.py`` (links, orphan pages, fenced
  doctests, ``docs/cli.md`` flag rows and line anchors over
  README.md, ROADMAP.md and docs/).

Usage::

    python tools/ci_checks.py            # every check
    python tools/ci_checks.py lint       # one check by name

Exit status is non-zero if any selected check fails; every selected
check runs even after an earlier failure, so one CI job reports all
of them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))


def check_lint() -> int:
    from repro.cli import main
    return main(["lint"])


def check_docs() -> int:
    import check_docs
    return check_docs.main()


CHECKS = {
    "lint": check_lint,
    "docs": check_docs,
}


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or \
        list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(f"ci_checks: unknown check(s) {unknown}; "
              f"available: {sorted(CHECKS)}", file=sys.stderr)
        return 2
    failed = []
    for name in names:
        print(f"== {name} ==")
        if CHECKS[name]() != 0:
            failed.append(name)
    if failed:
        print(f"ci_checks: FAILED: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print(f"ci_checks: OK ({', '.join(names)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
