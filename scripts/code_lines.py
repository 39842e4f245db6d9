"""Count the code lines of Python files: lines that are not blank, not a `#`
comment line and not part of a docstring.

    python3 scripts/code_lines.py src/steinhaus/*.py

A docstring is a string literal that opens the body of a module, class or
function.  A code line with a trailing comment counts.  It prints the total over
the files given.
"""

import ast
import sys


def code_lines(text: str) -> int:
    """The number of code lines in the Python source `text`."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docstrings)


if __name__ == "__main__":
    total = 0
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as f:
            total += code_lines(f.read())
    print(f"{total} code lines (not blank, comments or docstrings)")
