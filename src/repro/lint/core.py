"""simlint core: findings, pragmas, the rule protocol, the tree walker.

The framework is deliberately small: a :class:`SourceFile` is one
parsed module (AST + pragma table), a :class:`LintContext` is the
whole package loaded at once (plus the cross-file indexes whole-
program rules need: module names, the module-level import graph, the
semantics-bearing file set shared with the experiment cache's
``source_hash``), and a :class:`Rule` contributes findings from a
per-file pass, a whole-program pass, or both.

Everything is parameterised through :class:`LintConfig` so the test
suite can point the same rules at tiny synthetic packages; the
``repro``-specific defaults live in :func:`repro.lint.default_config`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.experiments.runner import HASH_EXCLUDE

#: Import ranks: a module may import subpackages of rank <= its own.
#: Simulation semantics sit at the bottom; presentation at the top.
#: SERVICE sits between the experiment engine it schedules onto and
#: the CLI that is one of its clients.
SIM, OBS, EXPERIMENTS, SERVICE, LINT, UI = 0, 10, 20, 25, 30, 40

#: Default layer map for the ``repro`` package (subpackage or
#: top-level module stem -> rank).  ``""`` is the package __init__.
DEFAULT_LAYERS: Mapping[str, int] = {
    "": SIM, "config": SIM, "hooks": SIM,
    "isa": SIM, "asm": SIM, "frontend": SIM, "functional": SIM,
    "mem": SIM, "rename": SIM, "windows": SIM, "pipeline": SIM,
    "models": SIM, "workloads": SIM, "analysis": SIM, "sampling": SIM,
    "obs": OBS,
    "experiments": EXPERIMENTS,
    "service": SERVICE,
    "lint": LINT,
    "cli": UI, "__main__": UI,
}

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*(?P<directive>[A-Za-z][A-Za-z-]*)"
    r"(?:\s*=\s*(?P<arg>[A-Za-z0-9_,\s]+))?")

#: Sentinel rule id meaning "every rule" in a pragma table.
ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One structured lint result: where, what, and how to fix it."""

    rule: str      #: rule id, e.g. ``"L001"``
    path: str      #: repo-relative posix path
    line: int      #: 1-based line number
    message: str   #: one-line statement of the defect
    hint: str = ""  #: suggested fix

    def render(self) -> str:
        loc = f"{self.path}:{self.line}: {self.rule} {self.message}"
        return f"{loc} [{self.hint}]" if self.hint else loc

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "hint": self.hint}


def parse_pragmas(text: str) -> Tuple[Dict[int, Set[str]], bool]:
    """Per-line suppression table from ``# lint:`` comments.

    Returns ``(line -> suppressed rule ids, skip_whole_file)``.
    Directives: ``disable=ID[,ID...]`` suppresses those rules on its
    line, ``allow-broad-except`` is sugar for ``disable=E001``, and
    ``skip-file`` (anywhere in the file) suppresses every rule.
    """
    table: Dict[int, Set[str]] = {}
    skip = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "lint:" not in line:
            continue
        for m in _PRAGMA_RE.finditer(line):
            directive = m.group("directive")
            if directive == "skip-file":
                skip = True
            elif directive == "allow-broad-except":
                table.setdefault(lineno, set()).add("E001")
            elif directive == "disable":
                ids = {s.strip() for s in (m.group("arg") or "").split(",")
                       if s.strip()}
                table.setdefault(lineno, set()).update(ids or {ALL_RULES})
    return table, skip


class SourceFile:
    """One parsed module of the package under analysis."""

    def __init__(self, path: Path, rel: str, module: str,
                 display: str) -> None:
        self.path = path
        #: posix path relative to the package root, e.g.
        #: ``pipeline/core.py``.
        self.rel = rel
        #: dotted module name, e.g. ``repro.pipeline.core``.
        self.module = module
        #: path reported in findings (repo-relative when possible).
        self.display = display
        self.text = path.read_text()
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree: ast.AST = ast.parse(self.text)
        except SyntaxError as exc:
            self.parse_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])
        self.pragmas, self.skip_file = parse_pragmas(self.text)

    @property
    def is_package_init(self) -> bool:
        return self.rel.endswith("__init__.py")

    def finding(self, rule: str, node_or_line, message: str,
                hint: str = "") -> Finding:
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(rule, self.display, int(line), message, hint)


@dataclass
class LintConfig:
    """Everything the rules need to know about the tree they lint."""

    #: Directory of the package (the one containing ``__init__.py``).
    package_root: Path
    #: Dotted top-level package name; defaults to the directory name.
    package_name: str = ""
    #: Repository root; findings report paths relative to it, or
    #: package-relative when ``None``.
    repo_root: Optional[Path] = None
    #: Package-relative prefixes excluded from the semantics file set —
    #: shared with ``repro.experiments.runner.source_hash`` so the
    #: determinism rules police exactly the code the result cache keys.
    hash_exclude: Tuple[str, ...] = HASH_EXCLUDE
    #: Subpackage / module-stem -> import rank (see :data:`SIM` etc.).
    layers: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS))
    #: Rank assumed for subpackages absent from ``layers``.
    layer_default: int = SIM
    #: Modules where *every* class must declare ``__slots__``.
    slots_modules: Tuple[str, ...] = ("pipeline/dyninst.py",
                                      "functional/blocks.py")
    #: Method names that reset a pooled object for reuse.
    reset_methods: Tuple[str, ...] = ("reinit",)
    #: Modules whose dataclass fields the coverage rule audits.
    config_modules: Tuple[str, ...] = ("config.py",)
    #: Package-relative path of the schema registry module.
    schema_rel: str = "obs/schema.py"
    #: Package-relative prefixes the schema scan skips.
    schema_scan_exclude: Tuple[str, ...] = ("lint",)
    #: Event kind -> permitted field names; ``None`` loads
    #: ``repro.obs.schema.EVENTS`` lazily.
    events: Optional[Mapping[str, Tuple[str, ...]]] = None
    #: Counter / distribution / span name patterns (``*`` wildcards);
    #: ``None`` loads the ``repro.obs.schema`` tuples lazily.
    counters: Optional[Sequence[str]] = None
    dists: Optional[Sequence[str]] = None
    spans: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        self.package_root = Path(self.package_root)
        if not self.package_name:
            self.package_name = self.package_root.name

    def resolved_schema(self):
        """The ``(events, counters, dists, spans)`` registry in force."""
        events, counters = self.events, self.counters
        dists, spans = self.dists, self.spans
        if (events is None or counters is None or dists is None
                or spans is None):
            from repro.obs import schema as _default
            if events is None:
                events = _default.EVENTS
            if counters is None:
                counters = _default.COUNTERS
            if dists is None:
                dists = _default.DISTS
            if spans is None:
                spans = _default.SPANS
        return events, tuple(counters), tuple(dists), tuple(spans)


class LintContext:
    """The whole package, parsed once, with cross-file indexes."""

    def __init__(self, cfg: LintConfig) -> None:
        self.cfg = cfg
        root = cfg.package_root
        repo = cfg.repo_root
        self.files: List[SourceFile] = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            module = self._module_name(rel)
            if repo is not None and repo in path.parents:
                display = path.relative_to(repo).as_posix()
            else:
                display = f"{cfg.package_name}/{rel}"
            self.files.append(SourceFile(path, rel, module, display))
        self.by_rel: Dict[str, SourceFile] = {f.rel: f for f in self.files}
        self.modules: Set[str] = {f.module for f in self.files}
        #: Files whose content keys the experiment result cache — the
        #: semantics-bearing set the determinism rules police.
        self.semantics: Set[str] = {
            f.rel for f in self.files
            if not any(f.rel == ex or f.rel.startswith(ex + "/")
                       for ex in cfg.hash_exclude)}
        #: module -> [(imported internal module, line)], module-level
        #: (i.e. executed at import time) edges only.
        self.imports: Dict[str, List[Tuple[str, int]]] = {
            f.module: list(self._module_imports(f)) for f in self.files}

    # -- naming ------------------------------------------------------------
    def _module_name(self, rel: str) -> str:
        parts = rel[:-3].split("/")  # strip .py
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join([self.cfg.package_name] + parts)

    def layer_of(self, module: str) -> str:
        """Layer name of a dotted internal module."""
        parts = module.split(".")
        return parts[1] if len(parts) > 1 else ""

    def rank_of(self, module: str) -> int:
        return self.cfg.layers.get(self.layer_of(module),
                                   self.cfg.layer_default)

    # -- import graph ------------------------------------------------------
    def _module_imports(self, src: SourceFile):
        """Internal modules ``src`` imports at module level.

        Descends into class bodies, ``try`` and ``if`` blocks (those
        run at import time) but not into function bodies (lazy
        imports are the sanctioned way to break layering);
        ``TYPE_CHECKING`` blocks are skipped — they never run.
        """
        pkg = self.cfg.package_name
        prefix = pkg + "."

        def is_type_checking(test: ast.AST) -> bool:
            return (isinstance(test, ast.Name)
                    and test.id == "TYPE_CHECKING") or (
                isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING")

        def targets(node) -> Iterable[Tuple[str, int]]:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.name
                    if name == pkg or name.startswith(prefix):
                        yield name, node.lineno
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(src, node)
                if base is None:
                    return
                if base == pkg or base.startswith(prefix):
                    for alias in node.names:
                        sub = f"{base}.{alias.name}"
                        yield (sub if sub in self.modules else base,
                               node.lineno)

        def walk(body) -> Iterable[Tuple[str, int]]:
            for node in body:
                yield from targets(node)
                if isinstance(node, ast.If):
                    if not is_type_checking(node.test):
                        yield from walk(node.body)
                    yield from walk(node.orelse)
                elif isinstance(node, ast.Try):
                    yield from walk(node.body)
                    for h in node.handlers:
                        yield from walk(h.body)
                    yield from walk(node.orelse)
                    yield from walk(node.finalbody)
                elif isinstance(node, (ast.ClassDef, ast.With)):
                    yield from walk(node.body)

        yield from walk(getattr(src.tree, "body", []))

    def _resolve_from(self, src: SourceFile,
                      node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted base of a ``from ... import`` statement."""
        if not node.level:
            return node.module
        parts = src.module.split(".")
        if not src.is_package_init:
            parts = parts[:-1]
        cut = len(parts) - (node.level - 1)
        if cut < 1:
            return None  # relative import escaping the package
        base = parts[:cut]
        if node.module:
            base.append(node.module)
        return ".".join(base)


class Rule:
    """One lint rule family.

    Subclasses override :meth:`check_file` (called once per module),
    :meth:`check_tree` (called once with the whole context), or both,
    and yield :class:`Finding` values.
    """

    #: Rule ids this family can produce, id -> one-line summary.
    ids: Mapping[str, str] = {}

    def check_file(self, src: SourceFile,
                   ctx: LintContext) -> Iterable[Finding]:
        return ()

    def check_tree(self, ctx: LintContext) -> Iterable[Finding]:
        return ()


def default_rules() -> Tuple[Rule, ...]:
    """Fresh instances of every built-in rule family."""
    from . import concurrency, coverage, determinism, exceptions
    from . import forksafety, hotpath, layering, lifecycle
    from . import schema as schema_rule
    return (determinism.DeterminismRule(), layering.LayeringRule(),
            hotpath.HotPathRule(), schema_rule.SchemaRule(),
            coverage.CoverageRule(), exceptions.BroadExceptRule(),
            concurrency.ConcurrencyRule(), forksafety.ForkSafetyRule(),
            lifecycle.LifecycleRule())


def rule_catalog() -> Dict[str, str]:
    """id -> summary for every built-in rule (plus F000)."""
    catalog: Dict[str, str] = {"F000": "file does not parse"}
    for rule in default_rules():
        catalog.update(rule.ids)
    return dict(sorted(catalog.items()))


def _suppressed(f: Finding, src: Optional[SourceFile]) -> bool:
    if src is None:
        return False
    if src.skip_file:
        return True
    ids = src.pragmas.get(f.line, ())
    return f.rule in ids or ALL_RULES in ids


def lint_tree(cfg: LintConfig,
              rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run every rule over the package; sorted, pragma-filtered
    findings."""
    ctx = LintContext(cfg)
    findings: List[Finding] = []
    for src in ctx.files:
        if src.parse_error is not None:
            findings.append(src.finding(
                "F000", src.parse_error.lineno or 1,
                f"file does not parse: {src.parse_error.msg}"))
    active = default_rules() if rules is None else rules
    for rule in active:
        for src in ctx.files:
            if src.parse_error is None:
                findings.extend(rule.check_file(src, ctx))
        findings.extend(rule.check_tree(ctx))
    by_display = {f.display: f for f in ctx.files}
    findings = [f for f in findings
                if not _suppressed(f, by_display.get(f.path))]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
