"""Resource-lifecycle rules (X001–X003): everything opened closes.

A reproduction service that leaks is a reproduction service that
flakes: an unjoined pump thread keeps a dead scheduler half-alive, an
unclosed sqlite handle keeps the WAL pinned, a ledger file handle
dropped on an exception path loses the tail of a run.  Three checks:

* **X001** — every started thread has a join path: a thread-holding
  class attribute whose ``.start()`` is called somewhere must have a
  ``.join()`` reachable from a teardown method (``close`` / ``stop``
  / ``shutdown`` / ``__exit__`` / ``__del__``); a *local*
  ``t = Thread(...); t.start()`` must join in the same function
  unless the thread object escapes.
* **X002** — a locally opened file/connection/socket must be closed
  on **all** CFG paths, exceptional ones included.  ``with`` blocks,
  ``finally`` closes, and the guarded ``if fh is not None:
  fh.close()`` idiom all count; handing the object to another call,
  returning it, or storing it in a container transfers ownership and
  exempts the site.
* **X003** — a connection/file/socket stored on ``self`` must have a
  ``self.<attr>.close()`` reachable from a teardown method.

The CFG (``lint/flow.py``) carries separate exception edges, so "the
open raised" is not counted as a leak path, but "a later statement
raised before the close" is — exactly the class of leak a ``finally``
exists to prevent.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from .core import Finding, LintContext, Rule
from .execctx import ClassInfo, classify_constructor, program_index
from .flow import EXIT, FunctionInfo, build_cfg

#: Teardown entry points a close/join path must be reachable from.
CLOSE_METHODS = ("close", "stop", "shutdown", "terminate",
                 "__exit__", "__del__")

#: Local resource kinds X002 tracks (threads are X001's business,
#: pipes/events are designed to be handed off).
_X002_KINDS = frozenset({"file", "conn", "socket"})


def _close_reachable(cls: ClassInfo) -> Set[str]:
    """Methods reachable from any teardown method via ``self.m()``
    calls (teardown methods themselves included)."""
    out: Set[str] = set()
    work = [m for m in CLOSE_METHODS if m in cls.methods]
    while work:
        m = work.pop()
        if m in out:
            continue
        out.add(m)
        for site in cls.methods[m].calls:
            parts = (site.name or "").split(".")
            if len(parts) == 2 and parts[0] == "self" \
                    and parts[1] in cls.methods:
                work.append(parts[1])
    return out


def _escapes(fn: ast.AST, var: str) -> bool:
    """Whether ``var`` leaves the function: passed as a call argument,
    returned, yielded, aliased, or stored in a container/attribute.
    Method calls *on* ``var`` (``var.read()``) do not count."""
    def mentions(node: ast.AST) -> bool:
        return any(isinstance(x, ast.Name) and x.id == var
                   for x in ast.walk(node))

    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if any(mentions(a) for a in node.args) or any(
                    mentions(kw.value) for kw in node.keywords):
                return True
        elif isinstance(node, ast.Return):
            if node.value is not None and mentions(node.value):
                return True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None and mentions(node.value):
                return True
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            if any(isinstance(e, ast.Name) and e.id == var
                   for e in node.elts):
                return True
        elif isinstance(node, ast.Dict):
            if any(v is not None and isinstance(v, ast.Name)
                   and v.id == var for v in node.values):
                return True
        elif isinstance(node, ast.Assign):
            # Aliasing (``g = fh``) or storing on an object
            # (``self.fh = fh``) transfers ownership.
            if isinstance(node.value, ast.Name) \
                    and node.value.id == var:
                return True
    return False


def _is_close_call(stmt: ast.AST, var: str) -> bool:
    return (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr in ("close", "shutdown")
            and isinstance(stmt.value.func.value, ast.Name)
            and stmt.value.func.value.id == var)


def _closes(stmt: Optional[ast.AST], var: str) -> bool:
    """Whether executing ``stmt`` guarantees ``var`` is (being)
    closed: a direct ``var.close()``, entering ``with var:``, or the
    guarded ``if var is not None: var.close()`` idiom."""
    if stmt is None:
        return False
    if _is_close_call(stmt, var):
        return True
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return any(isinstance(item.context_expr, ast.Name)
                   and item.context_expr.id == var
                   for item in stmt.items)
    if isinstance(stmt, ast.If):
        test_mentions = any(isinstance(x, ast.Name) and x.id == var
                            for x in ast.walk(stmt.test))
        if test_mentions:
            return any(_closes(s, var) for s in stmt.body)
    return False


def _rebinds(stmt: Optional[ast.AST], var: str) -> bool:
    if isinstance(stmt, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == var
                   for t in stmt.targets)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return any(isinstance(item.optional_vars, ast.Name)
                   and item.optional_vars.id == var
                   for item in stmt.items)
    return False


class LifecycleRule(Rule):
    ids = {
        "X001": "started thread without a reachable stop/join path",
        "X002": "resource not closed on all paths (use a context "
                "manager or finally)",
        "X003": "self-attached resource without a close path in "
                "close()/stop()/shutdown()",
    }

    def check_tree(self, ctx: LintContext) -> Iterable[Finding]:
        idx = program_index(ctx)
        for cls in idx.classes.values():
            yield from self._class_attrs(cls)
        for fq, info in idx.functions.items():
            src = idx.src_of[fq]
            yield from self._local_threads(src, info)
            yield from self._x002(src, info)

    # -- X001 / X003 on class attributes ------------------------------------

    def _class_attrs(self, cls: ClassInfo) -> Iterable[Finding]:
        reachable = _close_reachable(cls)

        def called(expr: str, methods: Set[str]) -> bool:
            return any(
                site.name == expr
                for m in methods
                for site in cls.methods[m].calls)

        all_methods = set(cls.methods)
        for attr, markers in sorted(cls.attr_markers.items()):
            line = cls.attr_lines.get(attr, cls.node.lineno)
            if "thread" in markers:
                if called(f"self.{attr}.start", all_methods) \
                        and not called(f"self.{attr}.join", reachable):
                    yield cls.src.finding(
                        "X001", line,
                        f"{cls.name}.{attr} is started but no "
                        f"teardown method "
                        f"({'/'.join(CLOSE_METHODS[:3])}) joins it",
                        f"join the thread in {cls.name}.close() or "
                        f".stop()")
            if markers & _X002_KINDS:
                kind = sorted(markers & _X002_KINDS)[0]
                if not called(f"self.{attr}.close", reachable):
                    yield cls.src.finding(
                        "X003", line,
                        f"{cls.name}.{attr} ({kind}) is never "
                        f"closed from a teardown method "
                        f"({'/'.join(CLOSE_METHODS[:3])})",
                        f"close it in {cls.name}.close()")

    # -- X001 on locals ------------------------------------------------------

    def _local_threads(self, src, info: FunctionInfo
                       ) -> Iterable[Finding]:
        starts = {(s.name or "") for s in info.calls}
        for stmt in ast.walk(info.node):
            if not (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)
                    and classify_constructor(stmt.value) == "thread"):
                continue
            var = stmt.targets[0].id
            if f"{var}.start" in starts and f"{var}.join" not in starts \
                    and not _escapes(info.node, var):
                yield src.finding(
                    "X001", stmt.lineno,
                    f"local thread {var} is started in "
                    f"{info.qualname}() but never joined and never "
                    f"escapes the function",
                    "join it (with a timeout) before returning, or "
                    "hand it to an owner that will")

    # -- X002 ----------------------------------------------------------------

    def _x002(self, src, info: FunctionInfo) -> Iterable[Finding]:
        opens: List[Tuple[ast.Assign, str, str]] = []
        for stmt in ast.walk(info.node):
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                # ``fh = open(...)`` and the conditional form
                # ``fh = p.open(...) if p else None`` both open.
                values = [stmt.value]
                if isinstance(stmt.value, ast.IfExp):
                    values = [stmt.value.body, stmt.value.orelse]
                for value in values:
                    if isinstance(value, ast.Call):
                        kind = classify_constructor(value)
                        if kind in _X002_KINDS:
                            opens.append(
                                (stmt, stmt.targets[0].id, kind))
                            break
        if not opens:
            return
        cfg = build_cfg(info.node)
        node_of = {id(s): n for n, s in cfg.stmts.items()
                   if s is not None}
        for stmt, var, kind in opens:
            if _escapes(info.node, var):
                continue
            n = node_of.get(id(stmt))
            if n is None:
                continue
            if self._leaks(cfg, n, var):
                yield src.finding(
                    "X002", stmt.lineno,
                    f"{var} ({kind}) opened in {info.qualname}() "
                    f"can reach the function exit without being "
                    f"closed",
                    "open it inside try/finally or a with block")

    @staticmethod
    def _leaks(cfg, start: int, var: str) -> bool:
        # Start from the open's *normal* successors only: if the open
        # itself raises there is nothing to close yet.
        stack = list(cfg.flow.get(start, ()))
        seen: Set[int] = set()
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n == EXIT:
                return True
            stmt = cfg.stmts.get(n)
            if _closes(stmt, var) or _rebinds(stmt, var):
                continue
            stack.extend(cfg.succ(n))
        return False
