"""Compare two hiercl checkouts with alternating ``bench/run.py`` pairs and
write one ``BENCH_*.json`` with every run and a summary per workload.

    python3 tools/bench_pairs.py BEFORE AFTER --out BENCH_name.json \\
        --runs desk-adaptive:0:10 desk-static:0:5 --traced desk-adaptive:3

BEFORE and AFTER are checkout directories; each run imports the library
from the checkout it runs in. ``--runs`` takes ``workload:seed:pairs``
specs, run with ``--trace 0``; ``--traced`` takes ``workload[:pairs]``
specs (one pair by default), run with ``--trace 1`` on seed 0. The pairs
alternate which side runs first, so a drift in host speed weighs on both
sides alike. Runs go one at a time, in this process's order, and nothing
else is started. Every spec is parsed and both checkouts' git state read
before the first run, so a malformed spec or a checkout that is not a git
work tree with a commit exits with one line before any run is spent.

The summary gives, per spec, each side's median and quartiles of every
end-to-end metric, how many pairs AFTER won on ``run_s``, whether the
modeled metrics were identical in every pair, and ``claim_met``: at least
10 pairs, every run correct with no failed operation, the modeled metrics
identical in every pair, AFTER faster on ``run_s`` in at least 9 of 10
pairs (a tie counting as no win), and its median gap wider than BEFORE's
interquartile range. A traced spec gives each side's median of every
per-layer metric over its pairs.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

MODELED = ("final_accuracy", "total_joules", "device_s", "run_utility")
# fewest pairs a claim may rest on
MIN_PAIRS = 10


def parse_spec(spec: str, traced: bool) -> tuple[str, int, int]:
    """A ``--runs`` spec ``workload:seed:pairs``, or a ``--traced`` spec
    ``workload[:pairs]`` (seed 0, one pair by default), as ``(workload, seed,
    pairs)``; a malformed one exits with one line."""
    if traced:
        workload, _, pairs = spec.partition(":")
        parts = [workload, "0", pairs or "1"]
    else:
        parts = spec.split(":")
    if not (len(parts) == 3 and parts[0] and all(p.isdecimal() for p in parts[1:])
            and int(parts[2]) >= 1):
        form = "WORKLOAD[:PAIRS]" if traced else "WORKLOAD:SEED:PAIRS"
        raise SystemExit(f"bench_pairs: spec {spec!r} is not {form} with pairs >= 1")
    return parts[0], int(parts[1]), int(parts[2])


def git_state(checkout: Path) -> dict[str, object]:
    """The checkout's commit and whether its tree has changes; a checkout
    that is not a git work tree with a commit exits with one line."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        if done.returncode:
            why = (done.stderr.strip().splitlines() or [f"exit {done.returncode}"])[0]
            raise SystemExit(f"bench_pairs: git {' '.join(args)} failed in {checkout}: {why}")
        return done.stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its result line, plus the
    round count and machine from the full result it wrote."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details_path = checkout / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    details = json.loads(details_path.read_text())
    return {**result, "rounds": details["rounds"], "machine": details["machine"]}


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(sides: dict[str, Path], workload: str, seed: int, pairs: int,
              seconds: float, trace: int) -> list[dict]:
    rows = []
    for i in range(pairs):
        order = ["before", "after"] if i % 2 == 0 else ["after", "before"]
        row: dict = {"pair": i, "first": order[0]}
        for side in order:
            row[side] = run_once(sides[side], workload, seed, seconds, trace)
            print(f"{workload} seed {seed} trace {trace} pair {i} {side}:",
                  values(row[side]).get("run_s", "traced"), file=sys.stderr)
        rows.append(row)
    return rows


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarize(rows: list[dict]) -> dict:
    """Each side's median and quartiles of every metric, and whether AFTER
    meets the claim gate on ``run_s``: at least ``MIN_PAIRS`` pairs, all
    runs correct and the modeled metrics equal in each, faster in at least
    9 of 10 pairs (a tie is not a win) by a median gap wider than BEFORE's
    interquartile range."""
    before = [values(r["before"]) for r in rows]
    after = [values(r["after"]) for r in rows]
    medians = {}
    for name in before[0]:
        b = [v[name] for v in before]
        a = [v[name] for v in after]
        (bq1, bq3), (aq1, aq3) = quartiles(b), quartiles(a)
        medians[name] = {"before": statistics.median(b), "after": statistics.median(a),
                         "before_q1": bq1, "before_q3": bq3, "after_q1": aq1, "after_q3": aq3}
    run_s = medians["run_s"]
    won = sum(a["run_s"] < b["run_s"] for b, a in zip(before, after))
    gap_exceeds_iqr = run_s["before"] - run_s["after"] > run_s["before_q3"] - run_s["before_q1"]
    all_correct = all(r[s]["correct"] and r[s]["failed"] == 0
                      for r in rows for s in ("before", "after"))
    modeled_identical = all({k: b[k] for k in MODELED} == {k: a[k] for k in MODELED}
                            for b, a in zip(before, after))
    return {
        "pairs": len(rows),
        "all_correct": all_correct,
        "modeled_identical": modeled_identical,
        "run_s_pairs_won": won,
        "run_s_median_gap_exceeds_before_iqr": gap_exceeds_iqr,
        "claim_met": (len(rows) >= MIN_PAIRS and all_correct and modeled_identical
                      and 10 * won >= 9 * len(rows) and gap_exceeds_iqr),
        "medians": medians,
    }


def layer_medians(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Each side's median of every per-layer metric over traced pairs."""
    return {name: {side: statistics.median(values(r[side])[name] for r in rows)
                   for side in ("before", "after")}
            for name in values(rows[0]["before"])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD[:PAIRS]")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs = [parse_spec(spec, traced=False) for spec in args.runs]
    traced_runs = [parse_spec(spec, traced=True) for spec in args.traced]
    for side, checkout in sides.items():
        if not checkout.is_dir():
            raise SystemExit(f"bench_pairs: {side} checkout {checkout} is not a directory")
    states = {side: git_state(checkout) for side, checkout in sides.items()}

    untraced = []
    for workload, seed, pairs in runs:
        rows = run_pairs(sides, workload, seed, pairs, args.seconds, 0)
        untraced.append({"workload": workload, "seed": seed,
                         "summary": summarize(rows), "runs": rows})
    traced = []
    for workload, seed, pairs in traced_runs:
        rows = run_pairs(sides, workload, seed, pairs, args.seconds, 1)
        traced.append({"workload": workload, "seed": seed, "pairs": len(rows),
                       "layers": layer_medians(rows), "runs": rows})

    report = {
        # as run from the directory that holds both checkouts
        "command": " ".join([
            "python3 tools/bench_pairs.py", args.before.name, args.after.name,
            "--out", args.out.name, "--seconds", f"{args.seconds:g}",
            "--runs", *args.runs, *(["--traced", *args.traced] if args.traced else []),
        ]),
        "before": {"checkout": args.before.name, **states["before"]},
        "after": {"checkout": args.after.name, **states["after"]},
        "seconds": args.seconds,
        "host": {"platform": platform.platform(), "processor": platform.machine()},
        "untraced": untraced,
        "traced": traced,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
