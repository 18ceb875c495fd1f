"""``tools/count_lines.py``, whose totals are the size metric of ``src/``."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

# Code lines, by number: 5, 8, 11, 14-15 (a signature over two lines),
# 19-20 (a string over two lines that is no docstring) and 21-23 (a
# backslash continuation, then the return).  The others are docstring
# lines (1-2, 9, 16-17), comment lines (4, 18) and blank lines.
_FIXTURE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a comment after code


class Spam:
    """Class docstring."""

    eggs = os.sep


def ham(a,
        b):
    """Function docstring,
    over two lines."""
    # A comment line.
    text = """not a
docstring"""
    total = a + \\
        b
    return text, total
'''


def test_count_gives_all_lines_and_code_lines():
    assert count_lines.count(_FIXTURE) == (23, 10)


def test_count_of_an_empty_module():
    assert count_lines.count("") == (0, 0)
