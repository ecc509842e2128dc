"""Hygiene rules (RL301): single-file checks for dead code.

========  ==========================================================
RL301     module-level imports the file never uses
========  ==========================================================
"""

from __future__ import annotations

import ast
import posixpath
from typing import Iterator, List, Set, Tuple

from .rules import Rule, Severity, SourceFile, Violation, register


def _module_imports(body: List[ast.stmt]
                    ) -> Iterator[Tuple[str, ast.stmt]]:
    """``(bound name, statement)`` for every module-level import,
    including those under a top-level ``if``/``try``."""
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.asname or alias.name.split(".")[0], stmt
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, stmt
        elif isinstance(stmt, ast.If):
            yield from _module_imports(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _module_imports(stmt.body + stmt.orelse
                                       + stmt.finalbody)
            for handler in stmt.handlers:
                yield from _module_imports(handler.body)


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, string annotations included."""
    names: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) \
                and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(sub.id for sub in ast.walk(parsed)
                             if isinstance(sub, ast.Name))
    return names


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    out: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets) \
                and isinstance(stmt.value, (ast.List, ast.Tuple)):
            out.update(e.value for e in stmt.value.elts
                       if isinstance(e, ast.Constant)
                       and isinstance(e.value, str))
    return out


@register
class UnusedImportRule(Rule):
    """RL301 — no module-level import that the file never uses.

    An unread import hides what a module really depends on and
    outlives the code that needed it.  Package ``__init__.py`` files
    are skipped (their imports are the package's surface), and a name
    listed in ``__all__`` counts as used.
    """

    rule_id = "RL301"
    title = "unused module-level import"
    rationale = ("an import nothing reads hides the module's real "
                 "dependencies and outlives the code that needed it")
    severity = Severity.WARNING

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if posixpath.basename(src.path.replace("\\", "/")) \
                == "__init__.py":
            return
        used = _read_names(src.tree) | _exported(src.tree)
        for name, stmt in _module_imports(src.tree.body):
            if name not in used:
                yield self.violation(
                    src.path, stmt.lineno, stmt.col_offset,
                    f"module-level import {name!r} is never used")
