"""Line counts of the frenetlift modules.

For each module in ``src/frenetlift`` this prints the ``wc -l`` count and
the tokenize count of code lines: the lines that hold at least one token
other than a comment, a line break, an indent or a docstring.  A docstring
is a string statement standing alone as the first statement of a module,
class or function.  The ``total`` line gives both totals, and the two lines
after it the same totals over ``tests/*.py`` and ``perfbench/*.py``.  It
needs no pytest:

    python tests/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frenetlift"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token that is not layout, a comment or a docstring."""
    skip = _docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start[0] not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(path: Path) -> tuple[int, int]:
    """The ``wc -l`` count and the code lines of one file."""
    source = path.read_text(encoding="utf-8")
    return source.count("\n"), code_lines(source)


def main() -> int:
    total_wc = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        wc, code = counts(path)
        total_wc += wc
        total_code += code
        print(f"{path.name:20} {wc:6} {code:6}")
    print(f"{'total':20} {total_wc:6} {total_code:6}")
    for folder in ("tests", "perfbench"):
        wc, code = map(sum, zip(*map(counts, sorted((ROOT / folder).glob("*.py")))))
        print(f"{folder + '/*.py':20} {wc:6} {code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
