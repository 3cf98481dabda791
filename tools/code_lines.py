"""Count the code lines of each `src/wqometer` module and in total.

A code line is a line that holds a code token: blank lines, comments and
docstrings do not count, and a string that spans lines counts on each of
them.  Standard library only:

    python3 tools/code_lines.py
"""

import ast
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of the module starts."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add((body[0].lineno, body[0].col_offset))
    return out


def code_lines(path: Path) -> int:
    docstrings = _docstring_starts(ast.parse(path.read_text(encoding="utf-8")))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIP or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src" / "wqometer"
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6,}  {path.name}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
