"""Split the lines of each ``src/votecost`` module into five kinds.

Run from a checkout (not collected by pytest):

    python tests/src_lines.py                  # this checkout's src/
    python tests/src_lines.py --src OTHER/src  # another checkout's

Every line is of exactly one kind:

* docstring: a line of a module, class or function docstring;
* code: outside a docstring, a line that holds a token other than a
  comment (a line inside a multi-line string or bracket counts);
* comment: outside a docstring, a line that holds a comment and no code;
* blank: any other line.

One row per module, then the total, each as
``lines code docstring comment blank name``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``, and ``lines`` in all."""
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    n_lines = len(source.splitlines())
    for line in range(1, n_lines + 1):
        if line in docstring:
            counts["docstring"] += 1
        elif line in code:
            counts["code"] += 1
        elif line in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return {"lines": n_lines, **counts}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    total = dict.fromkeys(("lines", *KINDS), 0)
    for path in sorted((args.src / "votecost").glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for key, value in counts.items():
            total[key] += value
        print(*counts.values(), path.name)
    print(*total.values(), "total")


if __name__ == "__main__":
    main()
