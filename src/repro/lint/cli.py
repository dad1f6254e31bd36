"""The ``repro lint`` subcommand driver.

Exit codes: 0 — clean; 1 — any finding (a ``# lint:`` pragma at the
finding's line is the one way to accept it); the argument parser
itself raises for usage errors as usual.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .core import LintConfig, lint_tree, rule_catalog


def find_repo_root(start: Path) -> Optional[Path]:
    """Nearest ancestor that looks like the repository checkout."""
    for p in (start, *start.parents):
        if (p / "README.md").is_file() and (p / "docs").is_dir():
            return p
    return None


def default_config(package_root: Optional[Path] = None) -> LintConfig:
    """The configuration ``repro lint`` runs with.

    With no argument it lints the installed ``repro`` package; pass a
    directory to lint another package laid out the same way (used by
    the test suite to prove the gate fails on injected violations).
    """
    if package_root is None:
        import repro
        package_root = Path(repro.__file__).parent
    package_root = Path(package_root).resolve()
    return LintConfig(package_root=package_root,
                      package_name=package_root.name,
                      repo_root=find_repo_root(package_root))


def lint_main(args) -> int:
    """Entry point for the parsed ``repro lint`` namespace."""
    if args.rules:
        for rule_id, summary in rule_catalog().items():
            print(f"{rule_id}  {summary}")
        return 0

    cfg = default_config(Path(args.root) if args.root else None)
    findings = lint_tree(cfg)
    if args.paths:
        wanted = [p.rstrip("/") for p in args.paths]
        findings = [f for f in findings
                    if any(f.path == w or f.path.startswith(w + "/")
                           for w in wanted)]

    if args.json:
        print(json.dumps({"findings": [f.to_dict() for f in findings]},
                         indent=2))
    else:
        for f in findings:
            print(f.render())
        print(f"lint: {len(findings)} finding(s)")
    return 1 if findings else 0
