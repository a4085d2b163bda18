"""Count the lines of the package's modules: ``wc -l`` and its AST split.

Each line is a docstring line (inside a module, class or function
docstring, blank lines included), a code line (it holds a token other than
a comment), a comment line (a comment alone) or a blank line; the four add
up to the ``wc -l`` count. Code lines are the tracked size of ``src/``.

Run from the repository root::

    python3 tools/count_lines.py

Every ``*.py`` file below ``src`` is counted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The ``wc -l`` count of ``text`` and its split into KINDS."""
    doc = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= code | doc
    total = text.count("\n")
    out = {"wc_l": total, "code": len(code), "docstring": len(doc), "comment": len(comment)}
    out["blank"] = total - out["code"] - out["docstring"] - out["comment"]
    return out


def main() -> int:
    rows = {str(p): count(p.read_text(encoding="utf-8")) for p in sorted(Path("src").rglob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in ("wc_l", *KINDS)}
    width = max(map(len, rows))
    print(f"{'module':<{width}} {'wc -l':>6}" + "".join(f" {k:>9}" for k in KINDS))
    for name, r in rows.items():
        print(f"{name:<{width}} {r['wc_l']:>6}" + "".join(f" {r[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
