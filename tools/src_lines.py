"""Count source lines per module: every line that is not blank and does not
start with ``#`` (after leading whitespace). Docstrings count.

    python3 tools/src_lines.py ../parent/src/hiercl src/hiercl

For each directory given, prints one line per ``*.py`` module in it (not
recursing) and then the directory's total. Given two directories, a base and
a change, it then prints each module whose count differs (a module only one
side has counts 0 on the other) and the total, as signed deltas of the
change against the base.
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
    tallies = []
    for directory in args.dirs:
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
        counts = {p.name: count_lines(p) for p in sorted(directory.glob("*.py"))}
        tallies.append(counts)
        print(directory)
        for name, n in counts.items():
            print(f"  {name:<20} {n:>6}")
        print(f"  {'total':<20} {sum(counts.values()):>6}")
    if len(tallies) == 2:
        base, change = tallies
        print("delta")
        for name in sorted(base.keys() | change.keys()):
            if (delta := change.get(name, 0) - base.get(name, 0)) != 0:
                print(f"  {name:<20} {delta:>+6}")
        print(f"  {'total':<20} {sum(change.values()) - sum(base.values()):>+6}")


if __name__ == "__main__":
    main()
