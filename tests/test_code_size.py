"""Code-size ratchet: src/hypfrac may not grow past a recorded count of
code lines.

A code line holds a token other than a comment, a newline, an indent or a
dedent, and is not part of a module, class or function docstring.  A
change that deletes code lowers the bound to the new count; a change that
must add code says why in CHANGES.md when it raises it.
"""

import ast
import io
import tokenize
from pathlib import Path

import hypfrac

CODE_LINE_BOUND = 1861

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def test_code_lines_of_a_snippet():
    source = ('"""module doc"""\n\n'
              '# a comment\n'
              'def f(x):\n'
              '    """function\n    doc"""\n'
              '    return (x +\n'
              '            1)  # trailing\n'
              'S = """a\nstring"""\n')
    # def, both lines of the return, both lines of S
    assert code_lines(source) == 5


def test_src_stays_within_its_code_line_bound():
    package = Path(hypfrac.__file__).parent
    counts = {p.name: code_lines(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert sum(counts.values()) <= CODE_LINE_BOUND, counts
