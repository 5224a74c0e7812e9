"""``src/repro`` read and parsed once, for every structure guard.

The guard modules (write path, HTTP caller, simulator engine, load
bearing) all ask questions of the same source tree.  Each used to read
and parse it again per test and cut every function's text out with
``ast.get_source_segment`` per question; :func:`build` does both once
and ``conftest.src_index`` hands the result to the whole session.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


class Function(NamedTuple):
    """One ``def`` (nested ones included), in source order."""

    name: str  # "api/app.py:CaladriusApp.handle"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    text: str  # the source lines it spans, ``def`` line to last line


class SourceFile(NamedTuple):
    source: str
    tree: ast.Module
    functions: list[Function]


def _functions(rel: str, source: str, tree: ast.Module) -> list[Function]:
    lines = source.splitlines(keepends=True)
    found: list[Function] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                text = "".join(lines[child.lineno - 1 : child.end_lineno])
                found.append(Function(f"{rel}:{prefix}{child.name}", child, text))
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def is_lazy_export_table(stmt: ast.stmt) -> bool:
    """``__getattr__, __all__ = lazy_exports(__name__, {...})``: a package's
    re-export table (``repro._lazy``) — it names what callers may import
    from the package and uses none of it."""
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Call)
        and any(
            isinstance(node, ast.Name) and node.id == "__getattr__"
            for target in stmt.targets
            for node in ast.walk(target)
        )
    )


class SourceIndex(dict):
    """``"api/app.py" -> SourceFile`` for every module under ``src/repro``."""

    def functions(self) -> list[Function]:
        return [function for file in self.values() for function in file.functions]

    def functions_containing(self, needle: str) -> list[str]:
        """``"file:name"`` (no class) of every plain ``def`` spelling ``needle``."""
        return [
            f"{function.name.split(':')[0]}:{function.node.name}"
            for function in self.functions()
            if isinstance(function.node, ast.FunctionDef) and needle in function.text
        ]


def build() -> SourceIndex:
    index = SourceIndex()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        source = path.read_text("utf8")
        tree = ast.parse(source)
        index[rel] = SourceFile(source, tree, _functions(rel, source, tree))
    return index


_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Lines of ``path`` holding code: every line a token other than a
    comment or layout spans, less the lines of docstrings (the string
    opening a module, class or function body).  The size CHANGES.md
    reports ``src/`` and ``tests/`` in."""
    source = Path(path).read_text("utf8")
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) or not body:
            continue
        first = body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)
