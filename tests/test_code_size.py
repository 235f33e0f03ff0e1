"""A ratchet on the library's size: ``src/divball`` holds at most
``CODE_LINES_AT_MOST`` code lines, counted by :func:`code_lines`.  A change
that must raise the limit says why in CHANGES.md; one that shrinks the
library lowers it to the new count."""

import ast
from pathlib import Path

import divball

CODE_LINES_AT_MOST = 1028


def code_lines(source: str) -> int:
    """The lines of ``source`` that are not blank, not ``#`` comments and
    not part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# A comment line.


class Box:
    """One line."""

    side = 2


def area(box):
    """A function docstring.

    With a blank line inside.
    """
    text = """a string that is
    not a docstring"""
    "nor is a string statement after the first"
    return math.prod([box.side] * 2), text
'''


def test_the_counter_skips_blank_lines_comments_and_docstrings():
    # import, class, side, def, text (two lines), the later string, return
    assert code_lines(SAMPLE) == 8


def test_the_library_is_no_larger_than_its_ratchet():
    total = sum(
        code_lines(path.read_text(encoding="utf-8"))
        for path in Path(divball.__file__).parent.glob("*.py")
    )
    assert total <= CODE_LINES_AT_MOST, f"src/divball has {total} code lines"
