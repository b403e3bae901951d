"""Count the lines of the given Python files that hold code.

A line holds code when some token other than a comment starts, ends or
spans it, and it is no part of a docstring (the string that opens a module,
class or function body).  Blank lines, comment lines and docstring lines do
not count, so a change's net code lines read apart from its docstrings.

    python .github/code_lines.py src/pmtop/*.py   # prints one total
"""

import ast
import io
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, BODIES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


if __name__ == "__main__":
    print(sum(code_lines(open(path, encoding="utf-8").read()) for path in sys.argv[1:]))
