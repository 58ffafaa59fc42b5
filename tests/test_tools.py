"""Smoke tests of the measuring tools under ``tools/``, run as scripts."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# 28 lines, 13 of them code: the docstrings, comments and blank lines drop
# out, a multi-line string that is no docstring counts each of its lines, and
# so does a line that holds code beside a docstring.
FIXTURE = "\n".join([
    '"""Module docstring,',
    'over two lines."""',
    '',
    '# A comment line.',
    'import os  # a trailing comment',
    '',
    'X = """not a docstring:',
    'three lines',
    'of code"""',
    '',
    '',
    'class A:',
    '    """Class docstring."""',
    '',
    '    def f(self):',
    "        '''Function",
    "        docstring.'''",
    '        # a comment',
    '        return (1 +',
    '                2)',
    '',
    '    def g(self): "a one-line docstring beside code"',
    '',
    '',
    'async def h():',
    '    x = 1',
    '    "a string statement after the first is code"',
    '    return x',
    '',
])


def run_tool(*args):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          cwd=REPO, timeout=300)


def test_code_lines_counts_a_fixture_file(tmp_path):
    package = tmp_path / "package"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(FIXTURE)
    (package / "sub" / "b.py").write_text("# one comment\n\nx = 1\n")
    (package / "notes.txt").write_text("x = 1\n")  # not Python: not counted
    for path, want in ((package / "a.py", 13), (package, 14)):
        done = run_tool(REPO / "tools" / "code_lines.py", path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{want}\n"


def test_ab_timing_times_exhaustive_across_moved_results():
    # This tree against itself, at a tiny size, in one pass.
    done = run_tool(REPO / "tools" / "ab_timing.py", REPO / "src", "--algos", "exhaustive",
                    "--moved", "--size", "3,2,4", "--scenarios", "1", "--passes", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    totals = [line.split(None, 2) for line in lines[:2]]
    assert [tree for _, tree, _ in totals] == ["base", "change"]
    assert totals[0][2] == totals[1][2] and totals[0][2].startswith("profiles 8  converged 8  T*")
    row = lines[-1].split()  # the timing row: both trees timed alike
    assert row[0] == "exhaustive" and row[-1] in ("0/1", "1/1")
