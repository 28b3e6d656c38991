"""Output checks run after every workload run.

Each check compares the run's outputs against a computation made here, apart
from hiercl's own code, or against a property the method must have. The
checks read plain values gathered once by ``observe``, so the self-test can
hand them a deliberately wrong value. A check returns a list of problems;
an empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hiercl.control import ControllerConfig, ControllerDecision
from hiercl.domain import ProfileRecord, Sample
from hiercl.runtime import RunReport, Runtime, SelectionRecord

from workloads import Inputs

LEDGER_PARTS = ("gpu_dynamic", "static", "io", "ram", "profiling")
REL_TOL = 1e-9
# the reported accuracy must be reproduced to this; one probe sample moves it
# by 1 / (probes per class * classes), about 5e-4 on the desk stream
ACCURACY_TOL = 1e-12
# "well above chance": at least this many times 1 / classes seen
CHANCE_FACTOR = 10.0


@dataclass
class Observed:
    """Everything the checks read from one run, as plain values."""

    accuracy: float
    n_classes: int
    # learner parameters and head order at the end of the run
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    class_order: list[int]
    probes: list[Sample]
    ledger: dict[str, float]
    gpu_watts: float
    static_watts: float
    profiled: bool
    joules_cum: list[float]
    # (sb_size, em_size) of every epoch row
    epoch_confs: list[tuple[int, int]]
    budget: int
    swap_totals: dict[str, int]
    em_capacity: int
    em_counts: dict[int, int]
    archive_counts: dict[int, int]
    decisions: list[ControllerDecision]
    initial_ratio: float
    controller: ControllerConfig
    profile_trace: list[tuple[int, ProfileRecord]]
    selections: list[SelectionRecord]
    # classes seen once each task has arrived, by task id
    classes_seen: dict[int, int]
    cutline: float


def observe(inputs: Inputs, runtime: Runtime, report: RunReport) -> Observed:
    state = runtime.state
    tasks = inputs.stream.tasks
    seen: set[int] = set()
    classes_seen = {}
    probes: list[Sample] = []
    for task in tasks:
        seen |= task.class_set
        classes_seen[task.task_id] = len(seen)
        probes.extend(inputs.stream.probe_sets.get(task.task_id, ()))
    cost = inputs.config.cost
    return Observed(
        accuracy=report.final_average_accuracy,
        n_classes=report.n_classes,
        w1=state.w1,
        b1=state.b1,
        w2=state.w2,
        b2=state.b2,
        class_order=list(state.class_order),
        probes=probes,
        ledger=report.ledger.as_dict(),
        gpu_watts=cost.gpu_dynamic_watts,
        static_watts=cost.static_watts,
        profiled=inputs.policy is None,
        joules_cum=[row.joules_cum for row in report.epoch_rows],
        epoch_confs=[(row.sb_size, row.em_size) for row in report.epoch_rows],
        budget=inputs.config.budget_samples,
        swap_totals=dict(report.swap_totals),
        em_capacity=runtime.em.capacity,
        em_counts=runtime.em.counts(),
        archive_counts={c: runtime.archive.class_count(c) for c in runtime.archive.classes()},
        decisions=list(report.controller_decisions),
        initial_ratio=inputs.config.initial_swap_ratio,
        controller=inputs.config.controller,
        profile_trace=list(report.profile_trace),
        selections=list(report.selections),
        classes_seen=classes_seen,
        cutline=inputs.config.cutline,
    )


def check_accuracy(o: Observed) -> list[str]:
    """Recompute the macro accuracy with a tanh-MLP forward pass of our own."""
    by_class: dict[int, list[np.ndarray]] = {}
    for s in o.probes:
        if s.class_label in o.class_order:
            by_class.setdefault(s.class_label, []).append(s.features)
    per_class = []
    for c in sorted(by_class):
        x = np.stack(by_class[c]).astype(np.float64)
        logits = np.tanh(x @ o.w1 + o.b1) @ o.w2 + o.b2
        predicted = np.asarray(o.class_order)[logits.argmax(axis=1)]
        per_class.append(float(np.mean(predicted == c)))
    expected = float(np.mean(per_class))
    if abs(expected - o.accuracy) > ACCURACY_TOL:
        return [f"final accuracy {o.accuracy!r} but the probe sets give {expected!r}"]
    return []


def check_above_chance(o: Observed) -> list[str]:
    chance = 1.0 / o.n_classes
    if o.accuracy < CHANCE_FACTOR * chance:
        return [f"final accuracy {o.accuracy:.4f} is not well above chance {chance:.4f}"]
    return []


def check_ledger(o: Observed) -> list[str]:
    """Components sum to the total, and joules_cum never decreases."""
    problems = []
    missing = [p for p in LEDGER_PARTS if p not in o.ledger]
    if missing:
        return [f"ledger lacks components {missing}"]
    parts = sum(o.ledger[p] for p in LEDGER_PARTS)
    if not math.isclose(parts, o.ledger["total"], rel_tol=REL_TOL):
        problems.append(f"ledger components sum to {parts!r}, total is {o.ledger['total']!r}")
    if any(o.ledger[p] < 0.0 for p in LEDGER_PARTS):
        problems.append("a ledger component is negative")
    for i in range(1, len(o.joules_cum)):
        if o.joules_cum[i] < o.joules_cum[i - 1]:
            problems.append(f"joules_cum decreases at epoch row {i}")
            break
    # nothing is billed after the last epoch
    if o.joules_cum and not math.isclose(o.joules_cum[-1], o.ledger["total"], rel_tol=REL_TOL):
        problems.append("the last epoch row does not carry the ledger total")
    return problems


def check_static_ledger(o: Observed) -> list[str]:
    """Without profiling, GPU and static joules are power times device time."""
    if o.profiled:
        return []
    problems = []
    device_s = o.ledger["wall_time_seconds"]
    if o.ledger["profiling"] != 0.0:
        problems.append(f"profiling billed {o.ledger['profiling']!r} J on a static run")
    for part, watts in (("gpu_dynamic", o.gpu_watts), ("static", o.static_watts)):
        if not math.isclose(o.ledger[part] / watts, device_s, rel_tol=REL_TOL):
            problems.append(f"{part} / watts = {o.ledger[part] / watts!r} s, device time {device_s!r} s")
    return problems


def check_swap_conservation(o: Observed) -> list[str]:
    t = o.swap_totals
    problems = []
    if t["issued"] != t["applied"] + t["dropped"] + t["pending"]:
        problems.append(f"swaps not conserved: {t}")
    if t["pending"] != 0:
        problems.append(f"{t['pending']} swaps still pending at the end of the run")
    return problems


def check_budget(o: Observed) -> list[str]:
    for i, (sb, em) in enumerate(o.epoch_confs):
        if sb + em > o.budget:
            return [f"epoch row {i}: SB {sb} + EM {em} exceeds the budget {o.budget}"]
    return []


def check_em_spread(o: Observed) -> list[str]:
    """EM per-class counts differ by at most one among classes whose archive
    pool can fill their quota (capacity split evenly, remainder to low ids)."""
    classes = sorted(o.archive_counts)
    if not classes:
        return []
    base, rem = divmod(o.em_capacity, len(classes))
    counts = [
        o.em_counts.get(c, 0)
        for i, c in enumerate(classes)
        if o.archive_counts[c] >= base + (1 if i < rem else 0)
    ]
    if counts and max(counts) - min(counts) > 1:
        return [f"EM per-class spread {max(counts) - min(counts)} exceeds 1"]
    return []


def _plan(ratio: float) -> tuple[int, float]:
    """(interval epochs, share swapped per firing) for a swap ratio."""
    if ratio >= 0.2:
        return max(1, min(5, int(math.floor(1.0 / ratio + 0.5)))), 1.0
    return 5, 5 * ratio


def check_controller(o: Observed) -> list[str]:
    """Re-derive every AIMD move and the plan it maps to."""
    cfg = o.controller
    ratio = o.initial_ratio
    for i, d in enumerate(o.decisions):
        if d.old_ratio != ratio:
            return [f"decision {i} starts from ratio {d.old_ratio!r}, expected {ratio!r}"]
        if d.state.value == "congested":
            ratio = max(ratio * cfg.decrease_factor, cfg.ratio_floor)
        elif d.state.value == "idle":
            ratio = min(ratio + cfg.increase_step, 1.0)
        else:
            return [f"decision {i} reacts to state {d.state.value!r}"]
        if d.new_ratio != ratio:
            return [f"decision {i} ({d.state.value}) moved to {d.new_ratio!r}, AIMD gives {ratio!r}"]
        interval, percent = _plan(ratio)
        if d.interval_epochs != interval or not math.isclose(
            d.percent_per_firing, percent, rel_tol=REL_TOL
        ):
            return [
                f"decision {i}: ratio {ratio!r} maps to ({interval}, {percent!r}), "
                f"got ({d.interval_epochs}, {d.percent_per_firing!r})"
            ]
    return []


def check_selections(o: Observed) -> list[str]:
    """Each selection keeps the top ceil(cutline * n) confs by accuracy, then
    takes the highest utility among them."""
    if o.profiled != bool(o.selections):
        return [f"{len(o.selections)} selections on a run with profiling={o.profiled}"]
    for s in o.selections:
        records = [r for t, r in o.profile_trace if t == s.task_id]
        if not records:
            return [f"task {s.task_id}: selection without profile records"]
        ranked = sorted(
            records,
            key=lambda r: (-r.accuracy_estimate, r.energy_estimate, r.conf.total, r.conf),
        )
        kept = ranked[: math.ceil(o.cutline * len(records))]
        chance = 1.0 / o.classes_seen[s.task_id]

        def gain_per_joule(r: ProfileRecord) -> float:
            return max(r.accuracy_estimate - chance, 0.0) / r.energy_estimate

        best = min(
            kept, key=lambda r: (-gain_per_joule(r), r.energy_estimate, r.conf.total, r.conf)
        )
        if s.conf != best.conf:
            return [f"task {s.task_id}: selected {s.conf}, the cutline and utility give {best.conf}"]
        if not math.isclose(s.utility, gain_per_joule(best), rel_tol=REL_TOL):
            return [f"task {s.task_id}: utility {s.utility!r}, expected {gain_per_joule(best)!r}"]
    return []


CHECKS = (
    check_accuracy,
    check_above_chance,
    check_ledger,
    check_static_ledger,
    check_swap_conservation,
    check_budget,
    check_em_spread,
    check_controller,
    check_selections,
)


def run_checks(o: Observed) -> list[str]:
    return [f"{check.__name__}: {p}" for check in CHECKS for p in check(o)]
