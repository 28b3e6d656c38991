"""Experiment harness: synthetic task streams, baseline conf strategies
(resolved by ``make_policies``), and the output files, every record in them
written through the one naming rule of ``output_fields``.

Streams are Gaussian class clusters, disjoint classes per task by default
(class-incremental); a domain-incremental mode reuses the class set and
drifts the cluster means instead. Each task is one feature block and one
label array, its rows shuffled so any buffer prefix covers every class; the
held-out probes are ``Sample`` objects. Generation is deterministic under
the spec seed and independent of the run seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import (
    Conf,
    ProfileRecord,
    Sample,
    Task,
    check_ints,
    round_down_to_step,
)
from .learner import LearnerDiverged
from .profiler import build_search_space, default_static_conf
from .runtime import ConfPolicy, EpochRow, RunConfig, RunReport, check_warm_start, run_stream
from .selector import select_record


@dataclass(frozen=True)
class StreamSpec:
    n_tasks: int = 10
    classes_per_task: int = 10
    samples_per_class: int = 200
    feature_dim: int = 32
    separation: float = 0.8     # scale of the class-cluster means (noise is unit)
    drift: float = 0.0          # per-task mean drift, for domain-incremental streams
    domain_incremental: bool = False
    test_fraction: float = 0.1  # held-out probe samples per class, never trained on
    size_bytes: int | None = None  # defaults to 4 bytes per feature
    seed: int = 0

    def __post_init__(self):
        counts = ("n_tasks", "classes_per_task", "samples_per_class", "feature_dim")
        check_ints(self, counts + ("size_bytes", "seed"))
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.size_bytes is not None and self.size_bytes < 1:
            raise ValueError("size_bytes must be None or >= 1")
        for name in ("separation", "drift", "test_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.test_fraction > 0:
            raise ValueError(f"test_fraction must be > 0, got {self.test_fraction!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def sample_bytes(self) -> int:
        return self.size_bytes if self.size_bytes is not None else 4 * self.feature_dim

    @property
    def task_size(self) -> int:
        return self.classes_per_task * self.samples_per_class

    @property
    def n_classes(self) -> int:
        if self.domain_incremental:
            return self.classes_per_task
        return self.n_tasks * self.classes_per_task


@dataclass
class Stream:
    spec: StreamSpec
    tasks: list[Task]
    probe_sets: dict[int, list[Sample]]


def generate_stream(spec: StreamSpec) -> Stream:
    """Build a synthetic stream plus per-task held-out probe sets."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    tasks: list[Task] = []
    probe_sets: dict[int, list[Sample]] = {}
    test_per_class = max(1, round(spec.test_fraction * spec.samples_per_class))
    per_class = spec.samples_per_class + test_per_class
    # each class draws its training rows, then its probe rows
    held_out = np.arange(spec.classes_per_task * per_class) % per_class >= spec.samples_per_class
    train_rows = np.flatnonzero(~held_out)

    if spec.domain_incremental:
        base_means = rng.normal(0.0, 1.0, size=(spec.classes_per_task, spec.feature_dim))
        base_means *= spec.separation

    for t in range(1, spec.n_tasks + 1):
        if spec.domain_incremental:
            first_class = 0
            base_means += spec.drift * rng.normal(
                0.0, 1.0, size=(spec.classes_per_task, spec.feature_dim)
            )
            means = base_means.copy()
        else:
            first_class = (t - 1) * spec.classes_per_task
            means = spec.separation * rng.normal(
                0.0, 1.0, size=(spec.classes_per_task, spec.feature_dim)
            )

        features = np.concatenate(
            [means[ci] + rng.normal(0.0, 1.0, size=(per_class, spec.feature_dim))
             for ci in range(spec.classes_per_task)],
            dtype=np.float32,
        )
        labels = np.repeat(np.arange(first_class, first_class + spec.classes_per_task), per_class)
        # interleave classes so any buffer prefix covers them all
        rows = train_rows[rng.permutation(len(train_rows))]
        tasks.append(Task(t, features[rows], labels[rows], spec.sample_bytes))
        probe_sets[t] = [
            Sample(c, f) for c, f in zip(labels[held_out].tolist(), features[held_out])
        ]

    return Stream(spec=spec, tasks=tasks, probe_sets=probe_sets)


# --- baseline strategies -------------------------------------------------


@dataclass(frozen=True)
class StaticConfPolicy:
    """One fixed conf for every task; no profiling."""

    conf: Conf

    def conf_for_task(self, task_index, task_size, budget, step) -> Conf:
        return self.conf


@dataclass(frozen=True)
class HeuristicPolicy:
    """Memory proportional to task counts: SB serves the 1 new task, EM the
    t-1 old ones, within ``fraction`` of the budget."""

    fraction: float = 1.0

    def conf_for_task(self, task_index, task_size, budget, step) -> Conf:
        total = round_down_to_step(int(self.fraction * budget), step)
        total = max(total, step)
        if task_index <= 1:
            return Conf(sb_size=total, em_size=0)
        # SB gets 1/t of the in-use memory, rounded half-up to the step grid
        sb_steps = math.floor(total / (task_index * step) + 0.5)
        sb = min(max(1, sb_steps) * step, total)
        return Conf(sb_size=sb, em_size=total - sb)


@dataclass(frozen=True)
class SchedulePolicy:
    """Explicit per-task confs (used by the half-way-frozen baseline)."""

    confs: tuple[Conf, ...]

    def conf_for_task(self, task_index, task_size, budget, step) -> Conf:
        return self.confs[task_index - 1]


def explore_static_confs(stream: Stream, config: RunConfig) -> tuple[Conf, Conf]:
    """Run every grid conf over the whole stream and rank the outcomes.

    Returns ``(winner, halfway_winner)``. The winner is picked with the same
    cutline-plus-metric rule the adaptive runtime uses (``config.cutline``
    and ``config.selection_mode``), on (final accuracy, total joules). The
    halfway winner uses the standings after ceil(n/2) tasks. Exploration
    cost is not billed. A grid conf whose run diverges raises
    ``LearnerDiverged``: it has no standings to rank.
    """
    max_task = max(len(t) for t in stream.tasks)
    space = build_search_space(config.budget_samples, max_task, config.step)
    half = math.ceil(len(stream.tasks) / 2)
    final_records: list[ProfileRecord] = []
    halfway_records: list[ProfileRecord] = []
    baseline = 1.0 / stream.spec.n_classes

    for conf in space:
        report = run_stream(
            stream.tasks, stream.probe_sets, config, StaticConfPolicy(conf)
        )
        if report.aborted:
            raise LearnerDiverged(f"exploring {conf}: {report.abort_reason}")
        final_records.append(
            ProfileRecord(conf, report.final_average_accuracy, report.ledger.total)
        )
        half_task_id = stream.tasks[half - 1].task_id
        half_row = report.accuracy_matrix[half_task_id]
        half_acc = float(np.mean(list(half_row.values())))
        half_joules = report.epoch_rows[half * config.epochs_per_task - 1].joules_cum
        halfway_records.append(ProfileRecord(conf, half_acc, half_joules))

    rule = (config.cutline, config.selection_mode, baseline)
    return (
        select_record(final_records, *rule).conf,
        select_record(halfway_records, *rule).conf,
    )


_HEURISTIC_FRACTIONS = {"heuristic": 1.0, "heuristic-50": 0.5, "heuristic-20": 0.2}
STRATEGY_NAMES = ("adaptive", "static", *_HEURISTIC_FRACTIONS, "best-static", "best-history")


def make_policies(
    strategies: Sequence[str], stream: Stream, config: RunConfig
) -> list[ConfPolicy | None]:
    """Resolve strategy names into policies, in order (None means adaptive
    profiling). Every name is checked before any work is done.

    ``best-static`` keeps the exploration's winner for every task;
    ``best-history`` keeps it through the first half of the stream, then
    freezes the halfway standings' winner. The two share one exploration.
    """
    for strategy in strategies:
        if strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGY_NAMES}")
    policies: dict[str, ConfPolicy | None] = {
        "adaptive": None,
        "static": StaticConfPolicy(
            default_static_conf(config.budget_samples, stream.spec.task_size, config.step)
        ),
    }
    policies.update((name, HeuristicPolicy(f)) for name, f in _HEURISTIC_FRACTIONS.items())
    if {"best-static", "best-history"} & set(strategies):
        winner, halfway_winner = explore_static_confs(stream, config)
        n_tasks = len(stream.tasks)
        half = math.ceil(n_tasks / 2)
        policies["best-static"] = StaticConfPolicy(winner)
        policies["best-history"] = SchedulePolicy(
            tuple(winner if t <= half else halfway_winner for t in range(1, n_tasks + 1))
        )
    return [policies[strategy] for strategy in strategies]


def make_policy(strategy: str, stream: Stream, config: RunConfig) -> ConfPolicy | None:
    """Resolve one strategy name into a policy (see ``make_policies``)."""
    return make_policies((strategy,), stream, config)[0]


# --- report emission -------------------------------------------------------

TRACE_VERSION = 1


def _column(name: str) -> str:
    return "task" if name == "task_id" else name


def output_fields(record) -> dict:
    """The one rule from a record to its output fields: a dataclass's fields
    keep their names and order, except that ``task_id`` is written as
    ``task``, a ``Conf`` as ``sb`` and ``em``, an enum as its value, and a
    ``None`` field not at all. A ``(task_id, record)`` pair is the record
    plus ``task``."""
    if isinstance(record, tuple):
        task_id, record = record
        return {"task": task_id, **output_fields(record)}
    if isinstance(record, Conf):
        return {"sb": record.sb_size, "em": record.em_size}
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Conf):
            out.update(output_fields(value))
        elif value is not None:
            out[_column(f.name)] = value.value if isinstance(value, Enum) else value
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, record_type: type, records: Sequence) -> Path:
    """A header of the record type's columns, then one line per record; the
    type's fields are plain values (no ``Conf``, never ``None``)."""
    lines = [",".join(_column(f.name) for f in fields(record_type))]
    lines.extend(",".join(map(_fmt, output_fields(r).values())) for r in records)
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_json(path: Path, value: dict) -> Path:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
    return path


@dataclass(frozen=True)
class ScatterPoint:
    """A run's one energy/accuracy point, its scatter file's one row."""

    label: str
    total_joules: float
    final_average_accuracy: float


def emit_report(report: RunReport, outdir: str | Path, label: str = "run") -> dict[str, Path]:
    """Write summary, per-epoch trace, decision log, and scatter files, each
    record through ``output_fields``.

    Column order is fixed and versioned; reruns with the same seed produce
    byte-identical files.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "label": label,
        "final_average_accuracy": report.final_average_accuracy,
        "energy_joules": report.ledger.as_dict(),
        "chosen_confs": list(map(output_fields, report.chosen_confs)),
        "swap_totals": report.swap_totals,
        "n_classes": report.n_classes,
        "aborted": report.aborted,
        "trace_version": TRACE_VERSION,
    }
    logs = {
        "controller": report.controller_decisions,
        "selections": report.selections,
        "profiles": report.profile_trace,
        "reuses": report.reuses,
        "budget_events": report.budget_events,
    }
    point = ScatterPoint(label, report.ledger.total, report.final_average_accuracy)
    return {
        "summary": _write_json(outdir / f"{label}_summary.json", summary),
        "trace": _write_csv(outdir / f"{label}_trace.csv", EpochRow, report.epoch_rows),
        "decisions": _write_json(
            outdir / f"{label}_decisions.json",
            {key: list(map(output_fields, records)) for key, records in logs.items()},
        ),
        "scatter": _write_csv(outdir / f"{label}_scatter.csv", ScatterPoint, [point]),
    }


def run_utility(report: RunReport) -> float:
    """Cost-effectiveness of a whole run: accuracy gain over chance per joule."""
    gain = max(report.final_average_accuracy - 1.0 / report.n_classes, 0.0)
    return gain / report.ledger.total


@dataclass(frozen=True)
class SweepPoint:
    strategy: str
    budget: int
    seed: int
    final_average_accuracy: float
    total_joules: float
    utility: float


def sweep(
    spec: StreamSpec,
    base_config: RunConfig,
    strategies: Sequence[str],
    budgets: Sequence[int],
    seeds: Sequence[int],
) -> list[SweepPoint]:
    """Grid of (strategy, budget, seed) runs on a shared stream spec. Every
    budget, seed and strategy name, and an adaptive run's warmup, passes its
    checks before the first run, and each (budget, seed) explores the grid
    at most once. A run that diverges raises ``LearnerDiverged``: it has no
    point to plot."""
    if "adaptive" in strategies:
        check_warm_start(base_config)
    configs = [
        replace(
            base_config,
            budget_samples=budget,
            seed=seed,
            domain_incremental=spec.domain_incremental,
        )
        for budget in budgets
        for seed in seeds
    ]
    points: list[SweepPoint] = []
    for config in configs:
        stream = generate_stream(replace(spec, seed=spec.seed + config.seed))
        for strategy, policy in zip(strategies, make_policies(strategies, stream, config)):
            report = run_stream(stream.tasks, stream.probe_sets, config, policy)
            if report.aborted:
                where = f"{strategy} at budget {config.budget_samples}, seed {config.seed}"
                raise LearnerDiverged(f"{where}: {report.abort_reason}")
            points.append(
                SweepPoint(
                    strategy=strategy,
                    budget=config.budget_samples,
                    seed=config.seed,
                    final_average_accuracy=report.final_average_accuracy,
                    total_joules=report.ledger.total,
                    utility=run_utility(report),
                )
            )
    return points


def write_sweep(points: Sequence[SweepPoint], outdir: str | Path) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _write_csv(outdir / "sweep_scatter.csv", SweepPoint, points)
