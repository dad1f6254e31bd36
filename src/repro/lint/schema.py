"""Schema rules (S001, S003–S006): the observability vocabulary is closed.

Emission sites (``tracer.emit(cycle, tid, kind, ...)`` and span starts
``spans.begin/span/record(name, ...)``) are checked against the
registry in ``repro.obs.schema`` in both directions: a name the
registry doesn't know fails lint (S001/S006), and a registry entry no
site can produce is stale (S003).  Dynamically built names (f-strings,
``"prefix." + var``) are extracted as ``*`` patterns and must match a
registry pattern verbatim.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from typing import Iterable, List, Optional

from .core import Finding, LintContext, Rule, SourceFile

#: Receiver names that identify a tracer call even when the name
#: argument cannot be statically resolved.
_TRACER_NAMES = frozenset({"tr", "tracer", "trace"})
_SPAN_NAMES = frozenset({"sp", "spans", "span_tracer", "tracer"})

#: Method names that open/synthesize a span; the first positional
#: argument is the span name.
_SPAN_METHODS = frozenset({"begin", "span", "record"})


def name_patterns(node: ast.AST) -> Optional[List[str]]:
    """Static string value(s) of an expression, with ``*`` for any
    dynamic part; ``None`` when nothing is statically known."""
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, str) else None
    if isinstance(node, ast.JoinedStr):
        parts = []
        for piece in node.values:
            if (isinstance(piece, ast.Constant)
                    and isinstance(piece.value, str)):
                parts.append(piece.value)
            else:
                parts.append("*")
        return [re.sub(r"\*+", "*", "".join(parts))]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = name_patterns(node.left)
        right = name_patterns(node.right)
        if left is None and right is None:
            return None
        combos = []
        for lhs in left or ["*"]:
            for rhs in right or ["*"]:
                combos.append(re.sub(r"\*+", "*", lhs + rhs))
        return combos
    if isinstance(node, ast.IfExp):
        body = name_patterns(node.body)
        orelse = name_patterns(node.orelse)
        if body is None or orelse is None:
            return None
        return body + orelse
    return None


def _matches(emitted: str, entry: str) -> bool:
    """An emitted name/pattern satisfies a registry entry."""
    if "*" in emitted:
        return emitted == entry
    return fnmatch.fnmatchcase(emitted, entry)


def _receiver_looks_like(func: ast.Attribute,
                         names: frozenset) -> bool:
    value = func.value
    if isinstance(value, ast.Name):
        return value.id in names
    if isinstance(value, ast.Attribute):
        return value.attr in names
    return False


class SchemaRule(Rule):
    ids = {
        "S001": "trace event kind missing from the schema registry",
        "S003": "schema registry entry no emission site produces",
        "S004": "tracer/span name that cannot be statically resolved",
        "S005": "trace event field not declared in the schema registry",
        "S006": "span name missing from the schema registry",
    }

    def check_tree(self, ctx: LintContext) -> Iterable[Finding]:
        events, spans = ctx.cfg.resolved_schema()
        seen_kinds: List[str] = []
        seen_spans: List[str] = []
        findings: List[Finding] = []

        for src in ctx.files:
            if any(src.rel == ex or src.rel.startswith(ex + "/")
                   for ex in ctx.cfg.schema_scan_exclude):
                continue
            if src.rel == ctx.cfg.schema_rel:
                continue
            findings.extend(self._scan_file(
                src, events, spans, seen_kinds, seen_spans))

        # S003: stale registry entries — only meaningful when the tree
        # actually carries the registry module.
        schema_src = ctx.by_rel.get(ctx.cfg.schema_rel)
        if schema_src is not None:
            for kind in events:
                if not any(_matches(s, kind) for s in seen_kinds):
                    findings.append(self._stale(
                        schema_src, f"event kind '{kind}'"))
            for entry in spans:
                if not any(_matches(s, entry) for s in seen_spans):
                    findings.append(self._stale(
                        schema_src, f"span '{entry}'"))
        return findings

    def _stale(self, schema_src: SourceFile, what: str) -> Finding:
        name = what.split("'")[1]
        line = 1
        for lineno, text in enumerate(schema_src.text.splitlines(), 1):
            if f'"{name}"' in text or f"'{name}'" in text:
                line = lineno
                break
        return schema_src.finding(
            "S003", line, f"schema registry lists {what} but no "
            f"emission site produces it",
            "delete the stale entry or restore the instrumentation")

    def _scan_file(self, src: SourceFile, events, spans, seen_kinds,
                   seen_spans) -> Iterable[Finding]:
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr == "emit" and len(node.args) >= 3:
                pats = name_patterns(node.args[2])
                if pats is None:
                    if _receiver_looks_like(node.func, _TRACER_NAMES):
                        yield src.finding(
                            "S004", node,
                            "tracer event kind is not a static string",
                            "emit a literal kind so tools can rely on "
                            "the schema")
                    continue
                fields = {kw.arg for kw in node.keywords if kw.arg}
                for kind in pats:
                    seen_kinds.append(kind)
                    if "*" not in kind and kind in events:
                        unknown = fields - set(events[kind])
                        if unknown:
                            yield src.finding(
                                "S005", node,
                                f"event '{kind}' emitted with "
                                f"undeclared field(s): "
                                f"{', '.join(sorted(unknown))}",
                                "declare the fields in "
                                "repro.obs.schema.EVENTS")
                    if not any(_matches(kind, k) for k in events):
                        yield src.finding(
                            "S001", node,
                            f"trace event kind '{kind}' is not in the "
                            f"schema registry",
                            "add it to repro.obs.schema.EVENTS and "
                            "docs/observability.md")
            elif (attr in _SPAN_METHODS and node.args
                  and _receiver_looks_like(node.func, _SPAN_NAMES)):
                # ``begin``/``span``/``record`` are common method
                # names, so span sites are recognised by receiver;
                # name your span tracer ``spans``/``sp``/``tracer``.
                pats = name_patterns(node.args[0])
                if pats is None:
                    yield src.finding(
                        "S004", node,
                        "span name is not a static string",
                        "start spans with a literal name so traces "
                        "keep a closed vocabulary")
                    continue
                for pat in pats:
                    seen_spans.append(pat)
                    if not any(_matches(pat, entry) for entry in spans):
                        yield src.finding(
                            "S006", node,
                            f"span name '{pat}' is not in the schema "
                            f"registry",
                            "add it to repro.obs.schema.SPANS and "
                            "docs/observability.md")
