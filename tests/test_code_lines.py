import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

_MODULE = '''"""A module docstring,
over two lines."""

# a comment line

import os  # a trailing comment: the line is code


class Record:
    """A class docstring."""

    text = """a string that is not a docstring,
        over two lines"""

    def size(self):
        """A function docstring,

        with a blank line."""
        return len(self.text)
'''


def test_code_lines_skips_blank_comment_and_docstring_lines():
    spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    # import, class, the string's two lines, def and return
    assert code_lines.code_lines(_MODULE) == 6
    assert code_lines.code_lines("") == 0
