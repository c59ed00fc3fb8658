"""scripts/code_lines.py counts code lines: no docstrings, comments or blanks."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

_FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment: the line still holds code

# a comment line


def f(x):
    """Function docstring."""
    s = """a string that is
not a docstring"""
    return x, s
'''


def _run(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "fixture.py").write_text(_FIXTURE)
    lines = _run(tmp_path / "fixture.py")
    # import, def, the two lines of the non-docstring string, return
    assert [line.split()[0] for line in lines] == ["5", "5"]
    assert lines[-1].split()[1] == "total"


def test_directory_total_sums_its_files(tmp_path):
    (tmp_path / "a.py").write_text(_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n")
    lines = _run(tmp_path)
    assert [int(line.split()[0]) for line in lines] == [5, 2, 7]
