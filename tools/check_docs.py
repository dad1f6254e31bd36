#!/usr/bin/env python3
"""Documentation checker: dead links, orphan pages, fenced doctests,
CLI flag rows, line-number anchors.

Five checks over ``README.md`` and the ``docs/*.md`` pages, all
enforced by ``tests/test_docs.py`` and the CI ``docs`` job:

1. **Links** — every relative markdown link target must exist on
   disk (resolved against the linking file's directory; ``#fragment``
   suffixes are stripped).  External (``http``/``https``/``mailto``)
   and pure-anchor links are skipped.
2. **Orphans** — every ``docs/*.md`` page must be reachable from
   ``docs/index.md`` by following relative links (breadth-first), so
   a new page cannot silently fall outside the documentation tree.
3. **Doctests** — every fenced ```` ```python ```` block containing
   ``>>>`` examples is executed with the standard :mod:`doctest`
   machinery, so documentation examples cannot silently rot.
4. **CLI flags** — every ``| `--flag` ...`` table row in
   ``docs/cli.md`` names an option some subcommand of
   ``repro.cli.build_parser()`` accepts, and every accepted option
   except ``--help`` has such a row, so a deleted flag cannot linger
   in the reference and a new one cannot go undocumented.
5. **Line anchors** — no ``file.py:NNN`` anchor outside fenced code
   blocks.  Line numbers go stale with any edit above them; prose
   names the symbol and its file instead.

Stdlib only; run as ``python tools/check_docs.py`` from anywhere in
the repo (exit status 1 on any failure).
"""

from __future__ import annotations

import argparse
import doctest
import re
import sys
from pathlib import Path
from typing import List, Set, Tuple

#: Inline markdown links/images: ``[text](target)`` — the target up to
#: the first whitespace or closing paren (titles are not used here).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced python code blocks.
FENCE_RE = re.compile(r"^```python\s*\n(.*?)^```\s*$",
                      re.MULTILINE | re.DOTALL)
_EXTERNAL = ("http://", "https://", "mailto:")
#: A flag-reference table row: ``| `--flag ...` | meaning |``.
FLAG_ROW_RE = re.compile(r"^\|\s*`(--[\w-]+)", re.MULTILINE)
#: A line-number anchor into a Python file: ``engine.py:447``.
ANCHOR_RE = re.compile(r"[\w/.-]*\.py:\d+")


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def doc_files(root: Path) -> List[Path]:
    """The files under check: the README plus every docs page."""
    return [root / "README.md"] + sorted((root / "docs").glob("*.md"))


def check_links(path: Path) -> List[str]:
    """Dead-relative-link errors in one markdown file (empty = clean)."""
    errors = []
    text = path.read_text()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        if not (path.parent / rel).exists():
            line = text.count("\n", 0, match.start()) + 1
            errors.append(f"{path.name}:{line}: dead link -> {target}")
    return errors


def check_line_anchors(path: Path) -> List[str]:
    """Line-anchor errors in one markdown file, fenced code blocks
    excepted (empty = clean)."""
    errors = []
    fenced = False
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            errors += [f"{path.name}:{n}: line anchor {m.group(0)}; "
                       f"name the symbol and its file instead"
                       for m in ANCHOR_RE.finditer(line)]
    return errors


def check_orphans(root: Path) -> List[str]:
    """Orphan-page errors: ``docs/*.md`` files no chain of relative
    links from ``docs/index.md`` reaches (empty = clean)."""
    docs = root / "docs"
    index = docs / "index.md"
    if not index.exists():
        return [f"missing documentation index: {index}"]
    seen = {index.resolve()}
    frontier = [index]
    while frontier:
        page = frontier.pop()
        for match in LINK_RE.finditer(page.read_text()):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            linked = (page.parent / rel).resolve()
            if (linked.suffix == ".md" and linked.exists()
                    and linked not in seen):
                seen.add(linked)
                frontier.append(linked)
    return [f"{p.name}: orphan page (not reachable from "
            f"docs/index.md)"
            for p in sorted(docs.glob("*.md"))
            if p.resolve() not in seen]


def run_doctests(path: Path) -> Tuple[int, List[str]]:
    """Execute the ``>>>`` examples in ``path``'s python fences.

    Returns ``(examples_run, failures)`` where each failure is a
    human-readable report.  Blocks without ``>>>`` (illustrative
    snippets) are skipped.
    """
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False,
                                   optionflags=doctest.ELLIPSIS)
    text = path.read_text()
    total = 0
    failures: List[str] = []
    for i, match in enumerate(FENCE_RE.finditer(text)):
        block = match.group(1)
        if ">>>" not in block:
            continue
        lineno = text.count("\n", 0, match.start())
        test = parser.get_doctest(block, {}, f"{path.name}[{i}]",
                                  str(path), lineno)
        if not test.examples:
            continue
        total += len(test.examples)
        out: List[str] = []
        result = runner.run(test, out=out.append)
        if result.failed:
            failures.append("".join(out))
    return total, failures


def parser_flags(parser: argparse.ArgumentParser) -> Set[str]:
    """Every ``--option`` ``parser`` or any of its subparsers
    accepts."""
    flags: Set[str] = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings
                     if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def check_cli_flags(root: Path) -> List[str]:
    """Flag-row errors in ``docs/cli.md`` against the ``repro``
    parser, in both directions (empty = clean)."""
    from repro.cli import build_parser

    documented = set(FLAG_ROW_RE.findall(
        (root / "docs" / "cli.md").read_text()))
    accepted = parser_flags(build_parser())
    return ([f"cli.md: {flag} has a row but no command accepts it"
             for flag in sorted(documented - accepted)]
            + [f"cli.md: {flag} is accepted but has no row"
               for flag in sorted(accepted - documented - {"--help"})])


def main() -> int:
    root = repo_root()
    # Doc examples import repro; make src/ importable when the repo
    # is not pip-installed (CI runs this script directly).
    src = root / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))

    files = doc_files(root)
    missing = [f for f in files if not f.exists()]
    if missing:
        for f in missing:
            print(f"missing documentation file: {f}", file=sys.stderr)
        return 1

    ok = True
    n_links = n_examples = 0
    for err in check_orphans(root) + check_cli_flags(root):
        ok = False
        print(err, file=sys.stderr)
    for f in files:
        errors = check_links(f) + check_line_anchors(f)
        n_links += len(LINK_RE.findall(f.read_text()))
        for err in errors:
            ok = False
            print(err, file=sys.stderr)
        ran, failures = run_doctests(f)
        n_examples += ran
        for report in failures:
            ok = False
            print(f"{f.name}: doctest failure\n{report}",
                  file=sys.stderr)
    status = "OK" if ok else "FAILED"
    print(f"docs check {status}: {len(files)} files, "
          f"{n_links} links, {n_examples} doctest examples")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
