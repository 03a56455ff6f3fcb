"""Line counts of each module of ``src/eifkit``, as one JSON document.

Per module file it prints ``lines``, the newline count that ``wc -l``
gives; ``code``, the lines holding a token of code by ``tokenize``: a
line that holds only comments, blanks or a docstring is no code line;
and ``docstring``, the lines docstrings span (a string that is the first
statement of a module, class or function).  ``total`` sums each count.

    python3 scripts/code_lines.py
"""

import ast
import io
import json
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eifkit"
# tokens that are no code: layout, comments and the stream's ends
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(tree: ast.AST) -> list:
    """The (start, end) source positions, (line, column) each, of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def counts(text: str) -> dict:
    """{"lines", "code", "docstring"} of one module's source ``text``."""
    spans = docstrings(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        in_docstring = any(start <= token.start and token.end <= end for start, end in spans)
        if token.type not in LAYOUT and not in_docstring:
            code.update(range(token.start[0], token.end[0] + 1))
    docstring = {line for (first, _), (last, _) in spans for line in range(first, last + 1)}
    return {"lines": text.count("\n"), "code": len(code), "docstring": len(docstring)}


def main() -> dict:
    doc = {path.name: counts(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
    doc["total"] = {key: sum(c[key] for c in doc.values()) for key in ("lines", "code", "docstring")}
    return doc


if __name__ == "__main__":
    print(json.dumps(main(), indent=2))
