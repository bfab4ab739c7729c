"""tools/code_lines.py, the code-line count of the package, loaded by its path."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line


# a comment line
class Record:
    """Class docstring."""

    def scaled(self, x):
        """Function
        docstring."""
        return (x *
                math.pi)
'''


def test_code_lines_of_a_snippet_match_the_hand_count():
    """import, class, def and the two lines of the return statement: 5 of 15 lines."""
    assert load_tool().code_lines(SNIPPET) == 5
    assert SNIPPET.count("\n") == 15


def test_total_row_is_the_sum_of_the_module_rows(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert load_tool().main([]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["code", "wc", "-l", "module"]
    counts = [tuple(map(int, row.split()[:2])) for row in rows]
    assert len(counts) == len(list((ROOT / "src" / "entrokit").glob("*.py")))
    assert total.split() == [str(sum(c for c, _ in counts)), str(sum(w for _, w in counts)),
                             "total"]
