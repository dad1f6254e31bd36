"""Coverage rule (C001): no dead config knobs.

A ``MachineConfig`` field nothing reads is worse than dead code — it
is an experiment knob that silently does nothing, so a sweep over it
produces identical points that *look* like a result.  (Every CLI flag
having a ``docs/cli.md`` row is ``tools/check_docs.py``'s check.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from .core import Finding, LintContext, Rule

#: Names a config object goes by.  A field counts as read only through
#: one of them, bare (``cfg.width``) or as the last attribute
#: (``self.cfg.width``), so a read on an unrelated object of the same
#: attribute name does not keep a dead knob alive.
CONFIG_RECEIVERS = ("cfg", "config")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _loads(tree: ast.AST, receivers: Tuple[str, ...]) -> Set[str]:
    """Attribute names loaded in ``tree`` on a receiver named one of
    ``receivers``, bare or as the last attribute."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and (getattr(n.value, "id", None)
                 or getattr(n.value, "attr", None)) in receivers}


class CoverageRule(Rule):
    ids = {"C001": "config dataclass field never read anywhere"}

    def check_tree(self, ctx: LintContext) -> Iterable[Finding]:
        fields: List[Tuple] = []  # (src, class name, field, line)
        #: config-class property -> attributes it reads through self
        props: Dict[str, Set[str]] = {}
        for rel in ctx.cfg.config_modules:
            src = ctx.by_rel.get(rel)
            if src is None:
                continue
            for node in ast.walk(src.tree):
                if not (isinstance(node, ast.ClassDef)
                        and _is_dataclass(node)):
                    continue
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)
                            and not stmt.target.id.startswith("_")):
                        fields.append((src, node.name, stmt.target.id,
                                       stmt.lineno))
                    elif isinstance(stmt, ast.FunctionDef) and any(
                            getattr(d, "id", None) == "property"
                            for d in stmt.decorator_list):
                        props[stmt.name] = _loads(stmt, ("self",))
        if not fields:
            return
        read: Set[str] = set()
        for src in ctx.files:
            read |= _loads(src.tree, CONFIG_RECEIVERS)
        # A property read through a config receiver reads what it
        # reads through self (transitively, for property chains).
        frontier = [name for name in read if name in props]
        while frontier:
            for name in props[frontier.pop()] - read:
                read.add(name)
                if name in props:
                    frontier.append(name)
        for src, cls, name, line in fields:
            if name not in read:
                yield src.finding(
                    "C001", line,
                    f"config field {cls}.{name} is never read",
                    "wire it into the model or delete the knob")
