"""Documentation health: links resolve, doctest examples run, the
CLI reference's flag rows match the parser, and no prose cites a
``file.py:NNN`` line anchor.

Thin pytest wrapper over ``tools/check_docs.py`` (the same checks the
CI ``docs`` job runs standalone), plus coverage of the checker's own
failure detection so a broken checker cannot pass vacuously.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402


class TestRepoDocs:
    def test_expected_pages_exist(self):
        files = {f.name for f in check_docs.doc_files(REPO)}
        assert {"README.md", "index.md", "architecture.md", "vca.md",
                "experiments.md", "observability.md"} <= files

    def test_no_dead_links(self):
        errors = [e for f in check_docs.doc_files(REPO)
                  for e in check_docs.check_links(f)]
        assert errors == []

    def test_doctest_examples_pass(self):
        ran_total = 0
        for f in check_docs.doc_files(REPO):
            ran, failures = check_docs.run_doctests(f)
            ran_total += ran
            assert failures == [], f"{f.name}: {failures[0]}"
        # The docs must keep at least some executable examples —
        # otherwise this test silently checks nothing.
        assert ran_total >= 4

    def test_index_links_every_docs_page(self):
        index = (REPO / "docs" / "index.md").read_text()
        for page in sorted((REPO / "docs").glob("*.md")):
            if page.name == "index.md":
                continue
            assert f"({page.name})" in index, (
                f"docs/index.md does not link {page.name}")

    def test_no_orphan_pages(self):
        assert check_docs.check_orphans(REPO) == []

    def test_cli_flag_rows_match_the_parser(self):
        assert check_docs.check_cli_flags(REPO) == []

    def test_no_line_anchors(self):
        errors = [e for f in check_docs.doc_files(REPO)
                  for e in check_docs.check_line_anchors(f)]
        assert errors == []


class TestCheckerCatchesBreakage:
    def test_dead_link_detected(self, tmp_path):
        f = tmp_path / "page.md"
        f.write_text("See [missing](no/such/file.md) and "
                     "[ok](https://example.com).")
        errors = check_docs.check_links(f)
        assert len(errors) == 1
        assert "no/such/file.md" in errors[0]

    def test_line_anchor_detected_outside_fences(self, tmp_path):
        f = tmp_path / "page.md"
        f.write_text("See `engine.py:447` and `Worker` in `engine.py`.\n"
                     "```\nTraceback: src/repro/x.py:12\n```\n"
                     "Port `:5000` is not an anchor.\n")
        errors = check_docs.check_line_anchors(f)
        assert len(errors) == 1
        assert errors[0].startswith("page.md:1:")
        assert "engine.py:447" in errors[0]

    def test_fragments_and_anchors_skipped(self, tmp_path):
        (tmp_path / "other.md").write_text("x")
        f = tmp_path / "page.md"
        f.write_text("[a](other.md#sec) [b](#local-anchor)")
        assert check_docs.check_links(f) == []

    def test_failing_doctest_detected(self, tmp_path):
        f = tmp_path / "page.md"
        f.write_text("```python\n>>> 1 + 1\n3\n\n```\n")
        ran, failures = check_docs.run_doctests(f)
        assert ran == 1
        assert len(failures) == 1

    def test_non_doctest_fences_skipped(self, tmp_path):
        f = tmp_path / "page.md"
        f.write_text("```python\nx = 1  # illustrative only\n```\n")
        ran, failures = check_docs.run_doctests(f)
        assert ran == 0 and failures == []

    def test_orphan_page_detected(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "index.md").write_text("[a](reached.md)")
        # Transitively reached pages are fine; lonely.md is not.
        (docs / "reached.md").write_text("[b](also.md#frag)")
        (docs / "also.md").write_text("no links")
        (docs / "lonely.md").write_text("nobody links me")
        errors = check_docs.check_orphans(tmp_path)
        assert len(errors) == 1 and "lonely.md" in errors[0]

    def test_stale_and_missing_flag_rows_detected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "cli.md").write_text(
            "| Flag | Meaning |\n|------|---------|\n"
            "| `--ledger PATH` | kept |\n| `--resume` | deleted |\n")
        errors = check_docs.check_cli_flags(tmp_path)
        assert ("cli.md: --resume has a row but no command accepts it"
                in errors)
        assert "cli.md: --no-cache is accepted but has no row" in errors
        assert not any("--ledger" in e or "--help" in e for e in errors)

    def test_missing_index_detected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        errors = check_docs.check_orphans(tmp_path)
        assert len(errors) == 1 and "index" in errors[0]
