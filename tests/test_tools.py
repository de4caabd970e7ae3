"""The code-line count of `tools/code_lines.py`, on fixed snippets."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)
count = code_lines.code_lines


def test_docstrings_comments_and_blank_lines_count_zero():
    assert count('"""Module docstring,\nover two lines."""\n\n# A comment.\n\n') == 0
    source = (
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring,\n'
        '        over two lines."""\n'
        "        # A comment.\n"
        "        return 1  # A trailing comment.\n"
    )
    assert count(source) == 3


def test_a_string_statement_that_is_not_a_docstring_counts():
    assert count('x = 1\n"not a docstring"\n') == 2
    assert count('def f():\n    x = 1\n    """not a docstring"""\n') == 3


def test_a_three_line_call_counts_three():
    assert count("print(\n    1,\n    2)\n") == 3
    assert count('"""Doc."""\n\nprint(\n    1,\n    2,\n)\n') == 4
