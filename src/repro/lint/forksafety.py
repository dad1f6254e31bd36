"""Fork-safety rules (F001–F002): what may cross a ``fork()``.

The worker pool runs simulation points in long-lived child processes
(``Process(target=_serve_points, ...)``).  A fork duplicates the whole
address space, which silently duplicates things that must never be
duplicated: a held ``threading.Lock`` stays held forever in the
child, a ``sqlite3.Connection`` shares file descriptors and corrupts
the WAL, a ``Thread`` object exists but its thread does not.  The
sanctioned idiom is the one ``experiments/store.py`` uses — detect
the pid change, park the stale object on ``_abandoned`` (never close
a connection the parent still owns), and re-open fresh in the child.

* **F001** — a spawn site must not hand an unsafe object to the
  child: no ``target=self.m`` where the class owns a
  lock/connection/thread/file/socket (bound methods pickle their
  ``self``), and no such object in ``args=(...)``.  Pipe ends and
  Events are exempt — they are designed to cross the boundary.
* **F002** — code reachable from a fork entry must not read a
  module-level name bound to a connection-ish constructor at import
  time: the child would inherit the parent's pre-fork handle instead
  of re-opening.  (Module-level *containers* like ``_active`` /
  ``_abandoned`` are fine; the rule keys on the constructor call.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import Finding, LintContext, Rule
from .execctx import (
    UNSAFE_MARKERS, ClassInfo, ProgramIndex, classify_constructor,
    program_index,
)
from .flow import FunctionInfo, dotted


def _spawn_is_fork(name: Optional[str]) -> bool:
    return (name or "").rsplit(".", 1)[-1] == "Process"


def _local_unsafe_vars(info: FunctionInfo,
                       idx: ProgramIndex) -> Dict[str, str]:
    """Locals bound to an unsafe constructor (or an instance of an
    unsafe in-package class), name -> reason."""
    out: Dict[str, str] = {}
    for stmt in ast.walk(info.node):
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)):
            continue
        var = stmt.targets[0].id
        marker = classify_constructor(stmt.value)
        if marker in UNSAFE_MARKERS:
            out[var] = marker
            continue
        cname = (dotted(stmt.value.func) or "").rsplit(".", 1)[-1]
        target = idx.class_by_simple_name(cname)
        if target is not None and target.unsafe_attrs(idx):
            out[var] = f"instance of {target.name}"
    return out


def _module_unsafe_globals(ctx: LintContext,
                           idx: ProgramIndex
                           ) -> Dict[str, Dict[str, Tuple[str, int]]]:
    """module -> {global name: (reason, line)} for module-level names
    bound to an unsafe constructor at import time."""
    out: Dict[str, Dict[str, Tuple[str, int]]] = {}
    for src in ctx.files:
        if src.parse_error is not None:
            continue
        for node in getattr(src.tree, "body", []):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            reason = classify_constructor(value)
            if reason not in UNSAFE_MARKERS:
                cname = (dotted(value.func) or "").rsplit(".", 1)[-1]
                cls = idx.class_by_simple_name(cname)
                if cls is None or not cls.unsafe_attrs(idx):
                    continue
                reason = f"instance of {cls.name}"
            for t in targets:
                if isinstance(t, ast.Name):
                    out.setdefault(src.module, {})[t.id] = (
                        reason, node.lineno)
    return out


class ForkSafetyRule(Rule):
    ids = {
        "F001": "lock/connection/thread-holding object crosses a "
                "fork boundary",
        "F002": "fork-context code uses a pre-fork module-level "
                "resource",
    }

    def check_tree(self, ctx: LintContext) -> Iterable[Finding]:
        idx = program_index(ctx)
        yield from self._f001(idx)
        yield from self._f002(ctx, idx)

    # -- F001 ---------------------------------------------------------------

    def _f001(self, idx: ProgramIndex) -> Iterable[Finding]:
        for fq, info in idx.functions.items():
            cls = idx.cls_of[fq]
            src = idx.src_of[fq]
            local_unsafe = None  # built lazily, most functions spawn nothing
            for site in info.calls:
                if not _spawn_is_fork(site.name):
                    continue
                if local_unsafe is None:
                    local_unsafe = _local_unsafe_vars(info, idx)
                target = next((kw.value for kw in site.node.keywords
                               if kw.arg == "target"), None)
                tname = dotted(target) if target is not None else None
                if tname and tname.startswith("self.") \
                        and cls is not None:
                    unsafe = cls.unsafe_attrs(idx)
                    if unsafe:
                        attr, why = sorted(unsafe.items())[0]
                    else:
                        attr = why = None
                    if attr is not None:
                        yield src.finding(
                            "F001", site.line,
                            f"Process target {tname} is a bound "
                            f"method of {cls.name}, which owns "
                            f"{attr} ({why}); the child inherits it",
                            "use a module-level worker function and "
                            "re-open resources after the fork")
                args_kw = next((kw.value for kw in site.node.keywords
                                if kw.arg == "args"), None)
                elts = args_kw.elts if isinstance(
                    args_kw, (ast.Tuple, ast.List)) else []
                for e in elts:
                    yield from self._f001_arg(src, site.line, e, cls,
                                              idx, local_unsafe)

    @staticmethod
    def _f001_arg(src, line: int, e: ast.AST,
                  cls: Optional[ClassInfo], idx: ProgramIndex,
                  local_unsafe: Dict[str, str]) -> Iterable[Finding]:
        hint = ("pass plain data (or a Pipe end) and re-open the "
                "resource inside the child")
        if isinstance(e, ast.Name):
            if e.id == "self" and cls is not None:
                unsafe = cls.unsafe_attrs(idx)
                if unsafe:
                    attr, why = sorted(unsafe.items())[0]
                    yield src.finding(
                        "F001", line,
                        f"self ({cls.name}, owning {attr}: {why}) "
                        f"passed into a fork via args=", hint)
            elif e.id in local_unsafe:
                yield src.finding(
                    "F001", line,
                    f"{e.id} ({local_unsafe[e.id]}) passed into a "
                    f"fork via args=", hint)
        elif isinstance(e, ast.Attribute) \
                and dotted(e.value) == "self" and cls is not None:
            why = cls.unsafe_attrs(idx).get(e.attr)
            if why is not None:
                yield src.finding(
                    "F001", line,
                    f"self.{e.attr} ({why}) passed into a fork via "
                    f"args=", hint)

    # -- F002 ---------------------------------------------------------------

    def _f002(self, ctx: LintContext,
              idx: ProgramIndex) -> Iterable[Finding]:
        globals_by_mod = _module_unsafe_globals(ctx, idx)
        if not globals_by_mod:
            return
        reachable: Set[str] = set()
        work: List[str] = list(idx.fork_entries)
        while work:
            fq = work.pop()
            if fq in reachable:
                continue
            reachable.add(fq)
            work.extend(idx.calls_out.get(fq, ()))
        for fq in sorted(reachable):
            info = idx.functions.get(fq)
            if info is None:
                continue
            src = idx.src_of[fq]
            mod_globals = globals_by_mod.get(src.module, {})
            params = {p.arg for p in info.params()}
            for gname, line in sorted(info.name_loads.items()):
                if gname not in mod_globals or gname in params \
                        or gname in info.name_stores:
                    continue
                reason, _ = mod_globals[gname]
                yield src.finding(
                    "F002", line,
                    f"{fq.rsplit('.', 1)[-1]}() runs in a forked "
                    f"worker but reads module global {gname} "
                    f"({reason}) created before the fork",
                    "re-open the resource inside the worker (see "
                    "the _abandoned idiom in experiments/store.py)")
