"""The tools: the code-line count of `tools/code_lines.py` on fixed
snippets, and `tools/canon_digest.py` against its committed digest."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count = _tool("code_lines").code_lines


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


def test_canon_digest_of_seed_1_matches_the_committed_digest():
    # CI checks all three seeds; the committed lines were computed before
    # the canonical search was rewritten, and must not move.
    committed = (_ROOT / "tests" / "data" / "canon_digest.txt").read_text().splitlines()
    assert _tool("canon_digest").digest_line(1) == committed[0]
