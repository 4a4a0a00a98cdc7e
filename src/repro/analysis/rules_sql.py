"""SQL-assembly rule (RPL308).

Review and lint can only vouch for SQL they can *see*: static string
literals (including implicit and constant ``+`` concatenation).  SQL
assembled at runtime — f-strings, ``%`` formatting, ``.format()``,
``sql += " WHERE ..."`` accumulation, or concatenation with a
non-constant — hides what actually executes: a jobs-table write built
from fragments would slip past RPL307's "no jobs DML outside the
transition spec" check, and any other statement past review.  RPL308
flags every such assembly site; the fix is one static statement per
shape (branch in Python, not in the string).  The one place SQL is
assembled on purpose is ``repro.analysis.protospec.render``, which
renders the jobs-table writes from the declared spec — as return
values, never in a SQL position.

Precision: a keyword match alone is not enough — error messages and
docstrings legitimately *talk about* SQL ("expected = after SET
column").  The rule therefore only fires where the dynamic string is in
a SQL position: passed to an ``execute*`` call, or bound to a variable
whose name says SQL (``sql``/``query``/``stmt``) or that elsewhere holds
a constant SQL string.

``PRAGMA`` statements are deliberately out of scope: the schema-version
pragmas interpolate a module constant, take no user data, and cannot
express a jobs-table transition.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic

__all__ = ["check"]

# Uppercase-keyword match: the repo writes SQL keywords uppercase, and a
# case-insensitive match would fire on ordinary prose ("set", "from").
# PRAGMA is intentionally absent (see module docstring).
_SQL_KEYWORD_RE = re.compile(
    r"\b(?:SELECT|INSERT|UPDATE|DELETE|REPLACE|CREATE|DROP|ALTER|FROM|WHERE|VALUES|SET)\b"
)

# Variable names that declare SQL intent on their own.
_SQL_NAME_RE = re.compile(r"sql|query|stmt", re.IGNORECASE)


def _looks_like_sql(text: str) -> bool:
    return _SQL_KEYWORD_RE.search(text) is not None


def _constant_str_parts(node: ast.AST) -> list[str]:
    return [
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    ]


def _fold_constants(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _fold_constants(node.left)
        right = _fold_constants(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def _dynamic_sql_reason(node: ast.AST) -> str | None:
    """How ``node`` assembles SQL at runtime, or None if it does not."""
    if isinstance(node, ast.JoinedStr):
        has_values = any(isinstance(p, ast.FormattedValue) for p in node.values)
        if has_values and any(_looks_like_sql(p) for p in _constant_str_parts(node)):
            return "f-string"
        return None
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            if _fold_constants(node) is None and any(
                _looks_like_sql(p) for p in _constant_str_parts(node)
            ):
                return "+ concatenation with a non-constant"
        elif isinstance(node.op, ast.Mod):
            if (
                isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
                and _looks_like_sql(node.left.value)
            ):
                return "% formatting"
        return None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and isinstance(node.func.value, ast.Constant)
        and isinstance(node.func.value.value, str)
        and _looks_like_sql(node.func.value.value)
    ):
        return ".format() call"
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.diags: list[Diagnostic] = []
        self._reported: set[int] = set()
        # Names bound (anywhere in the file) to a constant SQL string;
        # `sql += ...` on one of these is dynamic assembly even when the
        # name itself is bland.
        self.sql_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                folded = _fold_constants(node.value)
                if folded is not None and _looks_like_sql(folded):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.sql_names.add(target.id)

    def _emit(self, node: ast.AST, how: str) -> None:
        if id(node) in self._reported:
            return
        self._reported.add(id(node))
        line = (
            self.ctx.lines[node.lineno - 1].strip()
            if node.lineno <= len(self.ctx.lines)
            else ""
        )
        self.diags.append(
            Diagnostic(
                rule="RPL308",
                path=self.ctx.path,
                line=node.lineno,
                message=(
                    f"SQL assembled at runtime ({how}) — a built statement "
                    "hides what executes from review and from RPL307; use "
                    "one static statement per shape and branch in Python"
                ),
                snippet=line,
            )
        )

    def _is_sql_binding(self, name: str) -> bool:
        return name in self.sql_names or _SQL_NAME_RE.search(name) is not None

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr.startswith(
            "execute"
        ):
            for arg in node.args:
                reason = _dynamic_sql_reason(arg)
                if reason is not None:
                    self._emit(arg, reason)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(
            isinstance(t, ast.Name) and self._is_sql_binding(t.id)
            for t in node.targets
        ):
            reason = _dynamic_sql_reason(node.value)
            if reason is not None:
                self._emit(node.value, reason)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            node.value is not None
            and isinstance(node.target, ast.Name)
            and self._is_sql_binding(node.target.id)
        ):
            reason = _dynamic_sql_reason(node.value)
            if reason is not None:
                self._emit(node.value, reason)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Add):
            target_is_sql = isinstance(
                node.target, ast.Name
            ) and self._is_sql_binding(node.target.id)
            value = _fold_constants(node.value)
            value_is_sql = value is not None and _looks_like_sql(value)
            if (target_is_sql and value is not None) or value_is_sql:
                self._emit(node, "augmented assignment (sql += ...)")
                return
        self.generic_visit(node)


def check(ctx) -> Iterator[Diagnostic]:
    visitor = _Visitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.diags
