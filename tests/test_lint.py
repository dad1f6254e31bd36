"""simlint: golden-fixture positives/negatives per rule family, the
framework mechanics (pragmas, CLI), and the meta-test that the live
tree lints clean."""

import json
import subprocess
import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.lint import LintConfig, default_config, lint_tree, rule_catalog

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def make_pkg(tmp_path, files, **overrides) -> LintConfig:
    """Materialise a synthetic ``fakepkg`` tree and a LintConfig for
    it (schema registries default to the real ``repro.obs.schema``)."""
    root = tmp_path / "fakepkg"
    root.mkdir(parents=True, exist_ok=True)
    (root / "__init__.py").write_text("")
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        d = p.parent
        while d != root:
            init = d / "__init__.py"
            if not init.exists():
                init.write_text("")
            d = d.parent
    defaults = dict(package_root=root, package_name="fakepkg",
                    repo_root=None, slots_modules=())
    defaults.update(overrides)
    return LintConfig(**defaults)


def rule_ids(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# determinism (D001-D004)
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_bad_fixture_trips_every_rule(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"gen.py": fixture("determinism_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"D001", "D002", "D003", "D004"}
        by_rule = {}
        for f in findings:
            by_rule.setdefault(f.rule, []).append(f)
        assert len(by_rule["D001"]) >= 4   # import, seed, randrange, Random()
        assert len(by_rule["D002"]) >= 2   # time.time, os.urandom
        assert len(by_rule["D003"]) == 2   # for-loop + comprehension
        assert len(by_rule["D004"]) == 2   # key=id + id()

    def test_good_fixture_is_clean(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"gen.py": fixture("determinism_good.py")})
        assert lint_tree(cfg) == []

    def test_excluded_modules_are_not_policed(self, tmp_path):
        # The same dirty code in an obs/ module (outside the semantics
        # hash) is none of the determinism rules' business.
        cfg = make_pkg(tmp_path,
                       {"obs/gen.py": fixture("determinism_bad.py")})
        assert not rule_ids(lint_tree(cfg)) & {"D001", "D002", "D003",
                                               "D004"}

    def test_semantics_set_shares_hash_exclude(self):
        from repro.experiments.runner import HASH_EXCLUDE
        assert LintConfig(package_root=REPO / "src" / "repro"
                          ).hash_exclude == HASH_EXCLUDE
        assert "lint" in HASH_EXCLUDE   # lint itself never keys the cache

    def test_findings_carry_location_and_hint(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"gen.py": fixture("determinism_bad.py")})
        f = [f for f in lint_tree(cfg) if f.rule == "D003"][0]
        assert f.path.endswith("gen.py") and f.line > 1 and f.hint
        assert "gen.py:" in f.render()


# ---------------------------------------------------------------------------
# layering and unused imports (L001-L003)
# ---------------------------------------------------------------------------

class TestLayering:
    def test_upward_import_is_flagged(self, tmp_path):
        cfg = make_pkg(tmp_path, {
            "pipeline/mod.py": fixture("layering_bad.py"),
            "obs/helpers.py": "NULL = None\n"})
        findings = [f for f in lint_tree(cfg) if f.rule == "L001"]
        assert len(findings) == 1
        assert "fakepkg.obs" in findings[0].message
        assert findings[0].path.endswith("pipeline/mod.py")

    def test_downward_and_lazy_imports_are_fine(self, tmp_path):
        cfg = make_pkg(tmp_path, {
            "pipeline/mod.py": fixture("layering_good.py"),
            "obs/helpers.py": "NULL = None\n",
            "config.py": "WIDTH = 4\n"})
        assert not rule_ids(lint_tree(cfg)) & {"L001", "L002"}

    def test_cycle_is_flagged(self, tmp_path):
        cfg = make_pkg(tmp_path, {
            "a.py": "import fakepkg.b\n",
            "b.py": "import fakepkg.a\n"})
        findings = [f for f in lint_tree(cfg) if f.rule == "L002"]
        assert len(findings) == 1
        assert "fakepkg.a -> fakepkg.b -> fakepkg.a" \
            in findings[0].message

    def test_relative_imports_resolve(self, tmp_path):
        # `from ..obs import helpers` from inside pipeline/ is the
        # same upward edge as the absolute spelling.
        cfg = make_pkg(tmp_path, {
            "pipeline/mod.py": "from ..obs import helpers\n",
            "obs/helpers.py": "NULL = None\n"})
        assert "L001" in rule_ids(lint_tree(cfg))

    def test_unused_import_l003(self, tmp_path):
        cfg = make_pkg(tmp_path, {
            "paths.py": fixture("unused_import_bad.py"),
            # A package __init__ imports to re-export: never L003.
            "sub/__init__.py": "import json\n"})
        findings = [f for f in lint_tree(cfg) if f.rule == "L003"]
        assert sorted(f.message for f in findings) == [
            "'Dict' is imported but never read",
            "'json' is imported but never read"]
        assert all(f.path.endswith("paths.py") for f in findings)


# ---------------------------------------------------------------------------
# hot-path hygiene (H001-H002)
# ---------------------------------------------------------------------------

class TestHotPath:
    def test_bad_fixture(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"pool.py": fixture("pooled_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"H001", "H002"}
        h2 = [f for f in findings if f.rule == "H002"][0]
        assert "result" in h2.message and "Stale" in h2.message

    def test_good_fixture_follows_helper_methods(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"pool.py": fixture("pooled_good.py")})
        assert lint_tree(cfg) == []

    def test_slots_required_module(self, tmp_path):
        cfg = make_pkg(
            tmp_path,
            {"pipeline/dyninst.py":
             "class Thing:\n    def __init__(self):\n"
             "        self.x = 1\n"},
            slots_modules=("pipeline/dyninst.py",))
        findings = [f for f in lint_tree(cfg) if f.rule == "H001"]
        assert len(findings) == 1 and "Thing" in findings[0].message


# ---------------------------------------------------------------------------
# trace/span schema (S001, S003-S006)
# ---------------------------------------------------------------------------

class TestSchema:
    def test_bad_fixture(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"instr.py": fixture("schema_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"S001", "S004", "S005"}
        s1 = [f for f in findings if f.rule == "S001"][0]
        assert "teleport" in s1.message
        s5 = [f for f in findings if f.rule == "S005"][0]
        assert "speed" in s5.message

    def test_good_fixture_with_wildcard_match(self, tmp_path):
        from repro.obs.schema import SPANS
        cfg = make_pkg(tmp_path,
                       {"instr.py": fixture("schema_good.py")},
                       spans=SPANS + ("phase.*",))
        assert lint_tree(cfg) == []

    def test_unregistered_span_name_s006(self, tmp_path):
        cfg = make_pkg(
            tmp_path,
            {"instr.py": "def f(sp):\n"
                         "    with sp.span('teleport'):\n"
                         "        pass\n"
                         "    sp.begin('point')\n"},
            events={}, spans=("point",))
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"S006"}
        assert "teleport" in findings[0].message

    def test_span_sites_recognised_by_receiver(self, tmp_path):
        # ``begin``/``record`` are common method names: only tracer-ish
        # receivers are policed, and dynamic names on them are S004.
        cfg = make_pkg(
            tmp_path,
            {"instr.py": "def f(conn, spans, which):\n"
                         "    conn.begin('transaction')\n"
                         "    spans.record('point', 0.0, 1.0)\n"
                         "    spans.begin(which)\n"},
            events={}, spans=("point",))
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"S004"}
        assert "span name" in findings[0].message

    def test_stale_span_entry_s003(self, tmp_path):
        cfg = make_pkg(
            tmp_path,
            {"obs/schema.py": "SPANS = ('point', 'ghost')\n",
             "instr.py": "def f(sp):\n"
                         "    sp.begin('point')\n"},
            events={}, spans=("point", "ghost"))
        findings = [f for f in lint_tree(cfg) if f.rule == "S003"]
        assert len(findings) == 1
        assert "span 'ghost'" in findings[0].message

    def test_stale_registry_entry(self, tmp_path):
        cfg = make_pkg(
            tmp_path,
            {"obs/schema.py": "GHOST = 'ghost_kind'\n",
             "instr.py": "def f(tr):\n"
                         "    tr.emit(0, 0, 'spill', addr=4)\n"},
            events={"spill": ("addr",), "ghost_kind": ()}, spans=())
        findings = [f for f in lint_tree(cfg) if f.rule == "S003"]
        assert len(findings) == 1
        assert "event kind 'ghost_kind'" in findings[0].message
        assert findings[0].path.endswith("obs/schema.py")
        assert findings[0].line == 1  # anchored at the quoted entry

    def test_stale_check_skipped_without_registry_module(self, tmp_path):
        # A tree that doesn't carry obs/schema.py (e.g. --root on a
        # foreign package) must not drown in S003 noise.
        cfg = make_pkg(tmp_path, {"empty.py": "X = 1\n"})
        assert not [f for f in lint_tree(cfg) if f.rule == "S003"]


# ---------------------------------------------------------------------------
# config coverage (C001)
# ---------------------------------------------------------------------------

class TestCoverage:
    def test_unread_config_field(self, tmp_path):
        cfg = make_pkg(tmp_path, {
            "config.py": fixture("config_bad.py"),
            "consumer.py": "def use(cfg):\n    return cfg.width\n"})
        findings = [f for f in lint_tree(cfg) if f.rule == "C001"]
        assert len(findings) == 1
        assert "ghost_knob" in findings[0].message
        assert not any("width" in f.message for f in findings)

    def test_reads_count_only_through_a_config_receiver(self, tmp_path):
        consumer = ("class Core:\n"
                    "    def __init__(self, cfg):\n"
                    "        self.cfg = cfg\n"
                    "        self.issue = cfg.issue\n\n"
                    "    def step(self, other):\n"
                    "        return (self.cfg.rate + other.lanes\n"
                    "                + other.front)\n")
        cfg = make_pkg(tmp_path, {
            "config.py": fixture("config_dead_reads.py"),
            "consumer.py": consumer})
        findings = [f for f in lint_tree(cfg) if f.rule == "C001"]
        assert sorted(f.message for f in findings) == [
            "config field Config.depth is never read",
            "config field Config.lanes is never read"]


# ---------------------------------------------------------------------------
# broad excepts (E001) and pragmas
# ---------------------------------------------------------------------------

class TestBroadExcept:
    def test_bad_fixture(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"eng.py": fixture("broad_except_bad.py")})
        findings = [f for f in lint_tree(cfg) if f.rule == "E001"]
        assert len(findings) == 2  # except Exception + bare except

    def test_good_fixture_pragma_and_narrow(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"eng.py": fixture("broad_except_good.py")})
        assert lint_tree(cfg) == []


class TestPragmas:
    def test_disable_suppresses_on_its_line_only(self, tmp_path):
        src = ("import random\n"
               "a = random.randrange(4)  # lint: disable=D001\n"
               "b = random.randrange(4)\n")
        cfg = make_pkg(tmp_path, {"gen.py": src})
        findings = [f for f in lint_tree(cfg) if f.rule == "D001"]
        assert len(findings) == 1 and findings[0].line == 3

    def test_skip_file(self, tmp_path):
        src = "# lint: skip-file\n" + fixture("determinism_bad.py")
        cfg = make_pkg(tmp_path, {"gen.py": src})
        assert lint_tree(cfg) == []

    def test_parse_error_is_a_finding(self, tmp_path):
        cfg = make_pkg(tmp_path, {"broken.py": "def oops(:\n"})
        findings = lint_tree(cfg)
        assert [f.rule for f in findings] == ["F000"]


# ---------------------------------------------------------------------------
# lock discipline (K001-K003)
# ---------------------------------------------------------------------------

class TestLockDiscipline:
    def test_unlocked_shared_state(self, tmp_path):
        cfg = make_pkg(tmp_path, {"svc.py": fixture("lock_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"K001"}
        assert len(findings) == 3
        assert any("Counter.items" in f.message for f in findings)
        assert any("thread:_pump" in f.message for f in findings)

    def test_locked_counterpart_is_clean(self, tmp_path):
        cfg = make_pkg(tmp_path, {"svc.py": fixture("lock_good.py")})
        assert lint_tree(cfg) == []

    def test_ab_ba_lock_order(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"svc.py": fixture("lockorder_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"K002"}
        assert "Transfer._alpha" in findings[0].message
        assert "Transfer._beta" in findings[0].message

    def test_blocking_call_under_lock(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"svc.py": fixture("blocking_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"K003"}
        assert "join()" in findings[0].message

    def test_pragma_silences_k001(self, tmp_path):
        src = fixture("lock_bad.py").replace(
            "return list(self.items)    # K001: read from main, "
            "no lock",
            "return list(self.items)  # lint: disable=K001")
        cfg = make_pkg(tmp_path, {"svc.py": src})
        findings = [f for f in lint_tree(cfg) if f.rule == "K001"]
        assert len(findings) == 2
        assert not any("snapshot" in f.message for f in findings)


# ---------------------------------------------------------------------------
# fork safety (F001-F002)
# ---------------------------------------------------------------------------

class TestForkSafety:
    def test_resources_crossing_forks(self, tmp_path):
        cfg = make_pkg(tmp_path, {"svc.py": fixture("fork_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"F001", "F002"}
        f001 = [f for f in findings if f.rule == "F001"]
        assert len(f001) == 2
        assert any("bound method" in f.message for f in f001)
        f002 = [f for f in findings if f.rule == "F002"]
        assert len(f002) == 1 and "_CONN" in f002[0].message

    def test_reopen_idiom_is_clean(self, tmp_path):
        cfg = make_pkg(tmp_path, {"svc.py": fixture("fork_good.py")})
        assert lint_tree(cfg) == []


# ---------------------------------------------------------------------------
# resource lifecycle (X001-X003)
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_leaks(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"svc.py": fixture("lifecycle_bad.py")})
        findings = lint_tree(cfg)
        assert rule_ids(findings) == {"X001", "X002", "X003"}

    def test_teardown_counterpart_is_clean(self, tmp_path):
        cfg = make_pkg(tmp_path,
                       {"svc.py": fixture("lifecycle_good.py")})
        assert lint_tree(cfg) == []

    def test_escaping_resource_transfers_ownership(self, tmp_path):
        src = ("def produce(path, sink):\n"
               "    fh = open(path)\n"
               "    sink.adopt(fh)\n")
        cfg = make_pkg(tmp_path, {"svc.py": src})
        assert not [f for f in lint_tree(cfg) if f.rule == "X002"]

    def test_finally_close_is_clean(self, tmp_path):
        src = ("def slurp(path):\n"
               "    fh = open(path)\n"
               "    try:\n"
               "        return fh.read()\n"
               "    finally:\n"
               "        fh.close()\n")
        cfg = make_pkg(tmp_path, {"svc.py": src})
        assert not [f for f in lint_tree(cfg) if f.rule == "X002"]


# ---------------------------------------------------------------------------
# the flow/execctx framework itself
# ---------------------------------------------------------------------------

class TestFlowFramework:
    def test_cfg_exception_edges_reach_exit(self):
        import ast
        from repro.lint.flow import EXIT, build_cfg
        fn = ast.parse(
            "def f(path):\n"
            "    fh = open(path)\n"
            "    data = fh.read()\n"
            "    fh.close()\n"
            "    return data\n").body[0]
        cfg = build_cfg(fn)
        read_nodes = [n for n, s in cfg.stmts.items()
                      if s is not None
                      and getattr(s, "lineno", 0) == 3]
        assert read_nodes and EXIT in cfg.succ(read_nodes[0])

    def test_with_context_tracking(self):
        import ast
        from repro.lint.flow import collect_function
        fn = ast.parse(
            "def f(self):\n"
            "    with self._lock:\n"
            "        self.items.append(1)\n"
            "    self.total += 1\n").body[0]
        info = collect_function(fn)
        locked = [a for a in info.accesses if a.attr == "items"]
        unlocked = [a for a in info.accesses if a.attr == "total"]
        assert locked and all("self._lock" in a.locks
                              for a in locked)
        assert unlocked and all(not a.locks for a in unlocked)

    def test_execution_contexts(self, tmp_path):
        from repro.lint import program_index
        from repro.lint.core import LintContext
        cfg = make_pkg(tmp_path, {"svc.py": fixture("lock_bad.py")})
        idx = program_index(LintContext(cfg))
        assert idx.contexts_of("fakepkg.svc.Counter._pump") == \
            {"thread:_pump"}
        assert "main" in idx.contexts_of(
            "fakepkg.svc.Counter.snapshot")


# ---------------------------------------------------------------------------
# CLI surface + the live tree
# ---------------------------------------------------------------------------

def _violation_pkg(tmp_path) -> Path:
    """A package with one layering violation, laid out for --root."""
    root = tmp_path / "fakepkg"
    (root / "pipeline").mkdir(parents=True)
    (root / "obs").mkdir()
    (root / "__init__.py").write_text("")
    (root / "pipeline" / "__init__.py").write_text("")
    (root / "obs" / "__init__.py").write_text("")
    (root / "obs" / "helpers.py").write_text("NULL = None\n")
    (root / "pipeline" / "mod.py").write_text(
        fixture("layering_bad.py"))
    return root


class TestCli:
    def test_live_tree_is_clean(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_live_tree_json(self, capsys):
        assert cli_main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_injected_violation_fails(self, tmp_path, capsys):
        root = _violation_pkg(tmp_path)
        assert cli_main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "L001" in out and "1 finding(s)" in out

    def test_path_filter(self, tmp_path, capsys):
        root = _violation_pkg(tmp_path)
        assert cli_main(["lint", "--root", str(root),
                         "fakepkg/obs"]) == 0
        assert cli_main(["lint", "--root", str(root),
                         "fakepkg/pipeline"]) == 1

    def test_rules_catalog(self, capsys):
        assert cli_main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D001", "L001", "L003", "H002", "S003", "K001",
                        "E001", "F000"):
            assert rule_id in out
        assert "S002" not in out
        assert set(rule_catalog()) >= {"D001", "L002", "H001", "S005",
                                       "C001", "E001"}


class TestMeta:
    def test_live_tree_has_zero_findings(self):
        findings = lint_tree(default_config())
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_ci_checks_lint_gate(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "ci_checks.py"),
             "lint"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ci_checks: OK" in proc.stdout

    def test_every_rule_id_documented(self):
        doc = (REPO / "docs" / "linting.md").read_text()
        for rule_id in rule_catalog():
            assert rule_id in doc, f"{rule_id} missing from linting.md"
