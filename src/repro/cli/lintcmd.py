"""The lint family: ``repro lint`` (see ``docs/linting.md``)."""

from __future__ import annotations


def _cmd_lint(args) -> int:
    # Lazy: the lint machinery is never needed on the simulation path.
    from repro.lint import lint_main
    return lint_main(args)


def register(sub) -> None:
    """Attach the ``lint`` subcommand to the parser."""
    ln = sub.add_parser(
        "lint", help="simulator-aware static analysis of the source "
                     "tree (see docs/linting.md)")
    ln.add_argument("paths", nargs="*", metavar="PATH",
                    help="report only findings under these "
                         "repo-relative paths")
    ln.add_argument("--json", action="store_true",
                    help="machine-readable findings on stdout")
    ln.add_argument("--rules", action="store_true",
                    help="print the rule catalog and exit")
    ln.add_argument("--root", metavar="DIR", default=None,
                    help="package directory to lint "
                         "(default: the installed repro package)")
    ln.set_defaults(fn=_cmd_lint)
