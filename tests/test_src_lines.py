"""``tools/src_lines.py`` counts every line that is not blank and not a
comment, per module and per directory, and given a base and a change it
prints the changed modules' deltas and the total's."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def write(directory: Path, modules: dict[str, str]) -> Path:
    directory.mkdir()
    for name, text in modules.items():
        (directory / name).write_text(text)
    return directory


def test_two_directories_print_each_changed_module_and_the_total_delta(tmp_path):
    base = write(tmp_path / "base", {
        "kept.py": "a = 1\n\n# a comment\nb = 2\n",
        "shrunk.py": '"""Doc."""\nx = 1\ny = 2\nz = 3\n',
        "gone.py": "g = 1\n",
    })
    change = write(tmp_path / "change", {
        "kept.py": "a = 1\n    # indented comment\nb = 2\n",
        "shrunk.py": '"""Doc."""\nx = 1\n',
        "new.py": "n = 1\nm = 2\nk = 3\n",
    })
    out = subprocess.run(
        [sys.executable, str(TOOL), str(base), str(change)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == [
        str(base),
        "  gone.py                   1",
        "  kept.py                   2",
        "  shrunk.py                 4",
        "  total                     7",
        str(change),
        "  kept.py                   2",
        "  new.py                    3",
        "  shrunk.py                 2",
        "  total                     7",
        "delta",
        "  gone.py                  -1",
        "  new.py                   +3",
        "  shrunk.py                -2",
        "  total                    +0",
    ]


def test_one_directory_prints_no_delta(tmp_path):
    only = write(tmp_path / "only", {"m.py": "x = 1\n"})
    out = subprocess.run(
        [sys.executable, str(TOOL), str(only)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [str(only), "  m.py                      1", "  total                     1"]
