"""Layering rules (L001–L003): the import DAG stays a DAG, and every
module-level import is used.

The package is layered: simulation semantics at the bottom, then
observability, then the experiment engine, then lint, then the CLI.
A lower layer importing a higher one at module level couples
semantics to presentation (and silently widens the semantics source
hash); a cycle makes import order — and therefore behaviour — depend
on which module happens to load first.  Function-local ("lazy")
imports are the sanctioned escape hatch and are not edges here.

An import whose name the module never reads (L003) is an edge that
carries nothing: it costs import time, keeps deleted code reachable,
and can hold a layering or cycle finding in place on its own.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from .core import Finding, LintContext, Rule, SourceFile


class LayeringRule(Rule):
    ids = {
        "L001": "lower layer imports a higher layer at module level",
        "L002": "module-level import cycle",
        "L003": "module-level import whose name the module never reads",
    }

    def check_file(self, src: SourceFile,
                   ctx: LintContext) -> Iterable[Finding]:
        # L003: a package ``__init__`` imports to re-export, so it is
        # skipped; elsewhere a re-export is listed in ``__all__``.
        if src.is_package_init:
            return
        read = _read_names(src.tree)
        for node, name in _module_level_imports(src.tree.body):
            if name not in read:
                yield src.finding(
                    "L003", node,
                    f"'{name}' is imported but never read",
                    "delete the import (list a deliberate re-export "
                    "in __all__)")

    def check_tree(self, ctx: LintContext) -> Iterable[Finding]:
        by_module = {f.module: f for f in ctx.files}
        # L001: upward edges.
        for mod, edges in sorted(ctx.imports.items()):
            src = by_module[mod]
            own = ctx.rank_of(mod)
            for target, line in edges:
                if ctx.rank_of(target) > own:
                    yield src.finding(
                        "L001", line,
                        f"{mod} (layer '{ctx.layer_of(mod) or 'root'}') "
                        f"imports {target} (higher layer "
                        f"'{ctx.layer_of(target)}') at module level",
                        "import lazily inside the function that needs "
                        "it, or move the shared piece to a lower layer")
        # L002: strongly connected components of the internal graph.
        graph: Dict[str, List[str]] = {
            mod: sorted({t for t, _ in edges if t in ctx.modules})
            for mod, edges in ctx.imports.items()}
        for comp in _sccs(graph):
            cyclic = len(comp) > 1 or comp[0] in graph.get(comp[0], ())
            if not cyclic:
                continue
            comp = sorted(comp)
            src = by_module[comp[0]]
            line = next((ln for t, ln in ctx.imports[comp[0]]
                         if t in comp), 1)
            yield src.finding(
                "L002", line,
                "module-level import cycle: " + " -> ".join(
                    comp + [comp[0]]),
                "break the cycle with a lazy import or an extracted "
                "leaf module")


def _module_level_imports(body) -> Iterator[Tuple[ast.stmt, str]]:
    """``(statement, bound name)`` for each import run at module level,
    descending into ``if`` and ``try`` blocks (``TYPE_CHECKING``
    included) but not into functions or classes.  ``from __future__``
    and ``import *`` bind nothing to check."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        elif isinstance(node, ast.If):
            yield from _module_level_imports(node.body)
            yield from _module_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in ([node.body, node.orelse, node.finalbody]
                          + [h.body for h in node.handlers]):
                yield from _module_level_imports(block)


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads: loaded names (an attribute chain
    reads its root), names inside string annotations, and the entries
    of a literal module-level ``__all__``."""
    read: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                            str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(parsed)
                            if isinstance(n, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return read


def _sccs(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's strongly connected components, iterative, sorted
    traversal for deterministic output."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(graph.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)

    for mod in sorted(graph):
        if mod not in index:
            strongconnect(mod)
    return out
