"""tools/cli_diff.py: the parent-versus-change byte diff of the command line."""

import importlib.util
import shutil
from pathlib import Path

import pytest

from stillflow import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(cli.__file__).resolve().parents[1])

_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)

#: A few invocations that write a file, print a table and fail with exit 2.
FEW = [
    "generate --circle --n 7 --out c7.json",
    "spectrum --in c7.json",
    "field --in c7.json --nx 3 --ny 2 --out c7.csv",
    "solve --in coincident.json",
]


def test_one_tree_against_itself_shows_no_difference():
    lines = []
    result = cli_diff.compare(SRC, SRC, FEW, report=lines.append)
    assert result == {"differing": [], "exits": [0, 2], "files": 2}
    assert lines == []


@pytest.mark.parametrize("old, new, invocation, what", [
    # a stdout table: the entropy printed to 5 decimals, not 4
    ('f"entropy          {report.entropy:.4f}"', 'f"entropy          {report.entropy:.5f}"',
     FEW[1], "stdout"),
    # a written file: the field CSV's x column to 16 significant digits, not 17
    ('xs = ["%.17g," % x', 'xs = ["%.16g," % x', FEW[2], "file c7.csv"),
])
def test_one_changed_format_width_is_flagged(tmp_path, old, new, invocation, what):
    mutant = tmp_path / "src"
    shutil.copytree(SRC, mutant, ignore=shutil.ignore_patterns("__pycache__"))
    path = mutant / "stillflow" / "cli.py"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    lines = []
    result = cli_diff.compare(SRC, str(mutant), FEW, report=lines.append)
    assert lines == [f"differs: stillflow {invocation}: {what}"]
    assert result["differing"] == [invocation]

