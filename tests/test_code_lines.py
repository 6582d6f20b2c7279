import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines():
    source = '''"""Module
docstring."""

# a comment
X = (1,
     2)  # counted


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return """not a
docstring"""
'''
    # X = (1, / 2) / class A: / def f / return """not a / docstring"""
    assert _tool().code_lines(source) == 6
