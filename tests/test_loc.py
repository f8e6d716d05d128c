"""tools/loc.py on a fixed snippet: docstrings, comments and blank lines are not code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps the line


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,

        over three lines."""
        text = """a string that is
        not a docstring"""
        "a string statement after the first is code"
        return len(text)
'''


def test_a_snippet_counts_its_code_lines_alone(tmp_path, capsys):
    # code: import, class, def, the two lines of text, the later string
    # statement, return
    assert loc.count(SNIPPET) == (18, 7)
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], [str(path), "18", "7"], ["total", "18", "7"]]
