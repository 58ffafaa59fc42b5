"""Count the code lines of Python sources: every line that holds a token of
code, leaving out blank lines, comment-only lines and docstrings.

    python tools/code_lines.py PATH [PATH ...]

A PATH is a ``.py`` file or a directory, whose ``.py`` files are counted
recursively. It prints the total. A docstring is the string statement that
opens a module, class or function body (``ast``); every other token is read
by ``tokenize``, and a token that spans lines, such as a multi-line string
that is not a docstring, counts each of its lines. A line that holds code
beside a docstring, ``def f(): "doc"`` for one, counts.
"""

from __future__ import annotations

import argparse
import ast
import tokenize
from pathlib import Path

TRIVIA = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of one Python source file."""
    docs = docstring_lines(ast.parse(path.read_bytes()))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in TRIVIA:
                continue
            span = range(tok.start[0], tok.end[0] + 1)
            if tok.type == tokenize.STRING and docs.issuperset(span):
                continue  # a docstring, or part of one
            lines.update(span)
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    files = []
    for path in args.paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    print(sum(map(code_lines, files)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
