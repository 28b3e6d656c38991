"""Count source lines per module: every line that is not blank and does not
start with ``#`` (after leading whitespace). Docstrings count.

    python3 tools/src_lines.py ../parent/src/hiercl src/hiercl

For each directory given, prints one line per ``*.py`` module in it (not
recursing) and then the directory's total.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def count_lines(path: Path) -> int:
    return sum(
        1
        for line in path.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path, help="source directories")
    args = parser.parse_args()
    for directory in args.dirs:
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
        counts = {p.name: count_lines(p) for p in sorted(directory.glob("*.py"))}
        print(directory)
        for name, n in counts.items():
            print(f"  {name:<20} {n:>6}")
        print(f"  {'total':<20} {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
