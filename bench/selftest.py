"""Show that every output check passes on real runs and rejects a wrong value.

    python3 bench/selftest.py

Runs stream seed 0 of ``desk-adaptive`` (profiling and selections) and of
``edge-congested`` (a static run with controller moves), then hands each
check a copy of a run's outputs with one value made wrong. Exits non-zero if
a check fails on a real run or lets a wrong value through. Takes about ten
seconds.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hiercl.runtime import Runtime  # noqa: E402

import checks  # noqa: E402
from checks import Observed, observe  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402


def real_run(workload: str) -> Observed:
    inputs = build_inputs(WORKLOADS[workload], 0)
    runtime = Runtime(inputs.config, inputs.policy)
    report = runtime.run(inputs.stream.tasks, inputs.stream.probe_sets)
    return observe(inputs, runtime, report)


# --- one wrong value per case ------------------------------------------------


def accuracy_off_by_one_probe(o: Observed) -> None:
    first = o.probes[0].class_label
    per_class = sum(1 for s in o.probes if s.class_label == first)
    o.accuracy += 1.0 / (per_class * len(set(o.class_order)))


def accuracy_at_chance(o: Observed) -> None:
    o.accuracy = 2.0 / o.n_classes


def ledger_total_missing_ram(o: Observed) -> None:
    o.ledger["total"] -= o.ledger["ram"]


def ledger_without_io(o: Observed) -> None:
    del o.ledger["io"]


def joules_cum_dips(o: Observed) -> None:
    o.joules_cum[10] = o.joules_cum[9] * 0.999


def static_run_bills_profiling(o: Observed) -> None:
    o.ledger["profiling"] = 1.0


def static_gpu_joules_off(o: Observed) -> None:
    o.ledger["gpu_dynamic"] *= 1.001


def swap_applied_plus_one(o: Observed) -> None:
    o.swap_totals["applied"] += 1


def swap_left_pending(o: Observed) -> None:
    o.swap_totals["issued"] += 1
    o.swap_totals["pending"] += 1


def epoch_over_budget(o: Observed) -> None:
    sb, em = o.epoch_confs[5]
    o.epoch_confs[5] = (sb, o.budget - sb + 1)


def em_class_short_by_two(o: Observed) -> None:
    first = min(o.em_counts)
    o.em_counts[first] -= 2


def _first_move(o: Observed, state: str) -> int:
    return next(i for i, d in enumerate(o.decisions) if d.state.value == state)


def aimd_wrong_decrease_factor(o: Observed) -> None:
    i = _first_move(o, "congested")
    d = o.decisions[i]
    o.decisions[i] = replace(d, new_ratio=d.old_ratio * 0.6)


def aimd_wrong_increase_step(o: Observed) -> None:
    i = _first_move(o, "idle")
    d = o.decisions[i]
    o.decisions[i] = replace(d, new_ratio=min(d.old_ratio + 0.2, 1.0))


def aimd_wrong_interval(o: Observed) -> None:
    d = o.decisions[0]
    o.decisions[0] = replace(d, interval_epochs=d.interval_epochs % 5 + 1)


def selection_not_the_best(o: Observed) -> None:
    s = o.selections[-1]
    other = next(r.conf for t, r in o.profile_trace if t == s.task_id and r.conf != s.conf)
    o.selections[-1] = replace(s, conf=other)


def selection_utility_off(o: Observed) -> None:
    s = o.selections[0]
    o.selections[0] = replace(s, utility=s.utility * 1.01)


# (run, check, wrong value)
CASES: list[tuple[str, Callable, Callable]] = [
    ("desk-adaptive", checks.check_accuracy, accuracy_off_by_one_probe),
    ("edge-congested", checks.check_accuracy, accuracy_off_by_one_probe),
    ("desk-adaptive", checks.check_above_chance, accuracy_at_chance),
    ("desk-adaptive", checks.check_ledger, ledger_total_missing_ram),
    ("desk-adaptive", checks.check_ledger, ledger_without_io),
    ("edge-congested", checks.check_ledger, joules_cum_dips),
    ("edge-congested", checks.check_static_ledger, static_run_bills_profiling),
    ("edge-congested", checks.check_static_ledger, static_gpu_joules_off),
    ("edge-congested", checks.check_swap_conservation, swap_applied_plus_one),
    ("edge-congested", checks.check_swap_conservation, swap_left_pending),
    ("desk-adaptive", checks.check_budget, epoch_over_budget),
    ("desk-adaptive", checks.check_em_spread, em_class_short_by_two),
    ("edge-congested", checks.check_controller, aimd_wrong_decrease_factor),
    ("edge-congested", checks.check_controller, aimd_wrong_increase_step),
    ("edge-congested", checks.check_controller, aimd_wrong_interval),
    ("desk-adaptive", checks.check_selections, selection_not_the_best),
    ("desk-adaptive", checks.check_selections, selection_utility_off),
]


def main() -> int:
    runs = {name: real_run(name) for name in ("desk-adaptive", "edge-congested")}
    ok = True
    for name, observed in runs.items():
        problems = checks.run_checks(observed)
        ok &= not problems
        print(f"{'pass' if not problems else 'FAIL'}  every check on {name}")
        for p in problems:
            print(f"      {p}")
    untested = set(checks.CHECKS) - {check for _, check, _ in CASES}
    for check in sorted(untested, key=lambda c: c.__name__):
        ok = False
        print(f"FAIL  {check.__name__} has no wrong-value case")
    for name, check, corrupt in CASES:
        wrong = copy.deepcopy(runs[name])
        corrupt(wrong)
        problems = check(wrong)
        ok &= bool(problems)
        verdict = "rejects" if problems else "MISSES"
        print(f"{'pass' if problems else 'FAIL'}  {check.__name__} {verdict} {corrupt.__name__} ({name})")
        if problems:
            print(f"      {problems[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
