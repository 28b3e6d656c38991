"""Per-task orchestration: profile on task arrival, then train epochs with a
probe / estimate / adapt loop at every epoch boundary.

Boundary order within an epoch: completed swaps are applied first, the epoch
is charged to the ledger, the probe classifies I/O and polls the budget
channel, any estimate/adapt runs, and only then does the swap plan fire.
Firing after the stats roll keeps a swap batch and its completions in the
same accounting bucket, and firing draws on the post-completion EM view so
requests never target slots that were just replaced. Since every in-memory
sample is drawn once per epoch, that view is exactly the drawn set. The
task's last epoch fires nothing: the task boundary would cancel the batch.

A profiled task continues from the profiler's warm state: its first
``warmup_epochs`` epochs are the warmup, trained at the reference conf and
billed to profiling, and the live loop trains the epochs after them at the
chosen conf. Only live epochs write an ``EpochRow``; the global epoch clock
counts the warmup too, so a budget schedule keeps its timing. A policy task
is not profiled and trains every epoch live, and so does a task that reuses
the conf in force, unprofiled, by the rule of ``AdaptivePolicy``.

A run builds one ``SampleTable`` from the whole stream when it starts: every
task's features and labels in task order, so a task's rows are a row range.
EM, the archive, the swap channel, the batches and the profiler all hold
rows of it. SB is no store of its own: it is the current task's rows cut at
the chosen conf's ``sb_size``, sliced afresh each epoch, so a resize only
moves the cut. The probes are one table in task order too: a task's probes
are a row range, the probes so far a prefix.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .control import ControllerConfig, ControllerDecision, SwapController
from .domain import (
    Conf,
    EnergyLedger,
    IoState,
    ProfileRecord,
    Sample,
    SampleTable,
    Task,
    check_ints,
    validate_stream,
)
from .learner import (
    CostModel,
    LearnerDiverged,
    LearnerState,
    charge_epoch,
    evaluate,
    init_learner,
    probe_arrays,
    train_epoch,
)
from .memory import NO_ROWS, EpisodicMemory, StorageArchive, compose_epoch_batches, flush
from .profiler import ProfilerConfig, default_static_conf, profile_task
from .selector import DEFAULT_CUTLINE, HIGHEST_UTILITY, LOWEST_ENERGY, select_record, utility
from .swap import IoChannel, SwapEngine

# a profiled task reuses the conf in force instead of profiling once this many
# profiles in a row, each over a non-empty archive, picked it at the live
# budget and task size
AGREEING_PICKS = 2


class ConfPolicy(Protocol):
    """Static conf decision per task; used by the baseline strategies."""

    def conf_for_task(self, task_index: int, task_size: int, budget: int, step: int) -> Conf: ...


def check_load_step(step: tuple[float, float], where: str) -> tuple[float, float]:
    """An external load step ``(time_seconds, bytes_per_second)``, both >= 0."""
    t, load = step
    if not (t >= 0 and load >= 0):
        raise ValueError(f"{where}: time and load must be >= 0, got [{t}, {load}]")
    return step


@dataclass
class RunConfig:
    epochs_per_task: int = 20
    batch_size: int = 32
    learning_rate: float = 0.1
    hidden_width: int = 32
    step: int = 500
    budget_samples: int = 2500
    cutline: float = DEFAULT_CUTLINE
    selection_mode: str = HIGHEST_UTILITY
    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)
    cost: CostModel = field(default_factory=CostModel)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    initial_swap_ratio: float = 1.0
    # pins the ratio and disables AIMD adaptation when set (0.0 = swapping off)
    fixed_swap_ratio: float | None = None
    io_bandwidth_bytes_per_s: float = 100e6
    external_io_load: tuple[tuple[float, float], ...] = ()
    # (effective_global_epoch, new_budget_samples) records, the control channel
    budget_schedule: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    domain_incremental: bool = False

    def __post_init__(self):
        counts = ("epochs_per_task", "batch_size", "hidden_width", "step")
        check_ints(self, counts + ("budget_samples", "seed"))
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.budget_samples < self.step:
            raise ValueError(f"budget_samples must hold at least one step ({self.step})")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate!r}")
        if not (0.0 < self.cutline <= 1.0):
            raise ValueError("cutline must be a fraction in (0, 1]")
        if self.selection_mode not in (HIGHEST_UTILITY, LOWEST_ENERGY):
            raise ValueError(f"selection_mode must be {HIGHEST_UTILITY} or {LOWEST_ENERGY}")
        for name in ("initial_swap_ratio", "fixed_swap_ratio"):
            ratio = getattr(self, name)
            if ratio is not None and not (0.0 <= ratio <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.io_bandwidth_bytes_per_s > 0.0:
            raise ValueError("io_bandwidth_bytes_per_s must be > 0")
        for i, load_step in enumerate(self.external_io_load):
            check_load_step(load_step, f"external_io_load[{i}]")
        for i, (epoch, budget) in enumerate(self.budget_schedule):
            integral = isinstance(epoch, numbers.Integral) and isinstance(budget, numbers.Integral)
            if not integral or epoch < 0 or budget < self.step:
                raise ValueError(
                    f"budget_schedule[{i}]: expected an integer epoch >= 0 and an integer "
                    f"budget >= step ({self.step}), got [{epoch!r}, {budget!r}]"
                )
        # two entries at one point would apply in value order, not as written
        for name, unit in (("external_io_load", "time"), ("budget_schedule", "epoch")):
            points = [at for at, _ in getattr(self, name)]
            for i, at in enumerate(points):
                if (j := points.index(at)) < i:
                    raise ValueError(f"{name}[{j}] and {name}[{i}] are both at {unit} {at}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def check_warm_start(config: RunConfig) -> None:
    """A profiled task continues from the profiler's warmup, so the warmup
    must leave it at least one live epoch."""
    warmup, epochs = config.profiler.warmup_epochs, config.epochs_per_task
    if warmup >= epochs:
        raise ValueError(
            f"profiler.warmup_epochs ({warmup}) must be below epochs_per_task ({epochs}): "
            "a profiled task trains the epochs after its warmup"
        )


@dataclass
class EpochRow:
    task_id: int
    epoch: int
    loss: float
    swap_ratio: float
    io_state: str
    em_size: int
    sb_size: int
    joules_cum: float


@dataclass(frozen=True)
class SelectionRecord:
    task_id: int
    mode: str
    cutline: float
    conf: Conf
    utility: float


@dataclass(frozen=True)
class ReuseRecord:
    """A profiled run's task that kept the conf in force without profiling."""

    task_id: int
    conf: Conf


@dataclass(frozen=True)
class BudgetEvent:
    task_id: int
    epoch: int
    old_budget: int
    new_budget: int
    action: str  # "kept" when SB+EM fits the new budget, else "reselect"
    conf: Conf | None = None


@dataclass
class RunReport:
    """The record of one run; the runtime appends to it as the run goes."""

    final_average_accuracy: float = 0.0
    accuracy_matrix: dict[int, dict[int, float]] = field(default_factory=dict)
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    chosen_confs: list[tuple[int, Conf]] = field(default_factory=list)
    epoch_rows: list[EpochRow] = field(default_factory=list)
    controller_decisions: list[ControllerDecision] = field(default_factory=list)
    selections: list[SelectionRecord] = field(default_factory=list)
    profile_trace: list[tuple[int, ProfileRecord]] = field(default_factory=list)
    profiling_units: dict[int, dict[str, int]] = field(default_factory=dict)
    reuses: list[ReuseRecord] = field(default_factory=list)
    swap_totals: dict[str, int] = field(default_factory=dict)
    budget_events: list[BudgetEvent] = field(default_factory=list)
    n_classes: int = 0
    aborted: bool = False
    abort_reason: str | None = None


def static_split(reason: str, budget: int, task_size: int, step: int) -> Conf:
    """The static split of ``budget`` in place of a conf over it; warns why."""
    conf = default_static_conf(budget, task_size, step)
    warnings.warn(f"{reason}; falling back to the static split {conf}")
    return conf


class FixedPolicy:
    """A ``ConfPolicy``'s conf for every task, profiling nothing. A policy
    conf over the live budget is an error, unless a schedule shrank the
    budget below the run's own: then the static split of the live budget
    stands in, as for a shrink mid-task."""

    def __init__(self, policy: ConfPolicy, config: RunConfig):
        self.policy = policy
        self.config = config

    def check(self, first: Task, probe_sets: dict[int, list[Sample]]) -> None:
        """Any stream will do: nothing is profiled."""

    def decide(self, task: Task, task_index: int, budget: int, state: LearnerState,
               *_) -> tuple[Conf, LearnerState, int]:
        cfg = self.config
        conf = self.policy.conf_for_task(task_index, len(task), budget, cfg.step)
        if conf.total > budget:
            reason = f"policy conf {conf} exceeds budget {budget}"
            if budget >= cfg.budget_samples:
                raise ValueError(reason)
            conf = static_split(reason, budget, len(task), cfg.step)
        return conf, state, 0

    def reselect(self, conf: Conf, budget: int, task_size: int) -> Conf:
        return static_split(f"conf {conf} exceeds budget {budget}", budget, task_size, self.config.step)


class AdaptivePolicy:
    """Miro's conf decision: profile each task and select among its records,
    or reuse the conf in force, unprofiled, when the last ``AGREEING_PICKS``
    profiles picked it over a non-empty archive at the state the task meets:
    the live budget, the task size and the count of budget events so far.
    The first task's pick never counts: with nothing archived, every conf's
    EM part is empty. A reused task keeps the last profile's records for a
    shrink to reselect from, and adds nothing to the profile trace, the
    selections or the profiling units."""

    def __init__(self, config: RunConfig, seed: np.random.SeedSequence, report: RunReport,
                 archive: StorageArchive, ledger: EnergyLedger):
        self.config = config
        self._seed = seed
        self.report = report
        self.archive = archive
        self.ledger = ledger
        # the last profile's records and the chance level they were scored
        # against; a reused task keeps them
        self.records: list[ProfileRecord] = []
        self._baseline_accuracy = 0.0
        # each profile's (budget, task size, budget events) and pick; None
        # for a profile over an empty archive
        self._picks: list[tuple[tuple[int, int, int], Conf] | None] = []

    def check(self, first: Task, probe_sets: dict[int, list[Sample]]) -> None:
        """Profiling needs the first task's own probes and a live epoch after the warmup."""
        own = [s.class_label for s in probe_sets.get(first.task_id, ())]
        if first.class_set.isdisjoint(own):
            raise ValueError(f"invalid probes: task {first.task_id} has no probe of its own classes to profile on")
        check_warm_start(self.config)

    def decide(self, task: Task, task_index: int, budget: int, state: LearnerState,
               in_force: Conf | None, rows: np.ndarray, probes: tuple[np.ndarray, np.ndarray],
               classes_seen: int) -> tuple[Conf, LearnerState, int]:
        """The task's conf, the model it starts from and how many of its
        epochs that model trained. ``rows`` are the task's table rows and
        ``probes`` the features and labels of every probe so far."""
        cfg = self.config
        # spawned before the reuse check, so task k always profiles with child k
        rng = np.random.default_rng(self._seed.spawn(1)[0])
        at = (budget, len(task), len(self.report.budget_events))
        if self._picks[-AGREEING_PICKS:] == [(at, in_force)] * AGREEING_PICKS:
            self.report.reuses.append(ReuseRecord(task.task_id, in_force))
            return in_force, state, 0

        self._baseline_accuracy = 1.0 / classes_seen
        outcome = profile_task(
            state, rows, self.archive, probes, budget, in_force, cfg, rng, self.ledger
        )
        self.records = outcome.records
        self.report.profile_trace.extend((task.task_id, r) for r in outcome.records)
        self.report.profiling_units[task.task_id] = {
            "space_size": outcome.space_size,
            "warmup_units": outcome.warmup_units,
            "evaluation_units": outcome.evaluation_units,
        }
        chosen = select_record(
            outcome.records, cfg.cutline, cfg.selection_mode, self._baseline_accuracy
        )
        self.report.selections.append(
            SelectionRecord(
                task_id=task.task_id,
                mode=cfg.selection_mode,
                cutline=cfg.cutline,
                conf=chosen.conf,
                utility=utility(chosen, self._baseline_accuracy),
            )
        )
        self._picks.append((at, chosen.conf) if self.archive.classes() else None)
        # the warmup is this task's first epochs: the live model continues from it
        return chosen.conf, outcome.warm, cfg.profiler.warmup_epochs

    def reselect(self, conf: Conf, budget: int, task_size: int) -> Conf:
        """The best of the last profile's records that fit ``budget``, else its static split."""
        cfg = self.config
        feasible = [r for r in self.records if r.conf.total <= budget]
        if feasible:
            return select_record(feasible, cfg.cutline, cfg.selection_mode, self._baseline_accuracy).conf
        return static_split(f"no profiled conf fits budget {budget}", budget, task_size, cfg.step)


class Runtime:
    """Owns all mutable run state; single-threaded over simulated time.

    ``run`` builds that state afresh from its stream, so a Runtime may run
    again, and a second run of one stream reproduces the first."""

    def __init__(self, config: RunConfig, policy: ConfPolicy | None = None):
        self.config = config
        self.policy = policy
        self._start(())

    def _start(self, tasks: Sequence[Task]) -> None:
        """Build every per-run store and generator afresh, the table from
        ``tasks``: a run starts from these alone."""
        config = self.config
        root = np.random.SeedSequence(config.seed)
        learner_seed, batch_seed, swap_seed, em_seed, profile_seed = root.spawn(5)
        self._batch_rng = np.random.default_rng(batch_seed)
        self._swap_rng = np.random.default_rng(swap_seed)
        self._em_rng = np.random.default_rng(em_seed)
        self._learner_seed = learner_seed

        self.ledger = EnergyLedger()
        self.table = SampleTable.of(tasks)
        self.archive = StorageArchive(self.table)
        self.em = EpisodicMemory(0, self.table)
        self.channel = IoChannel(
            config.io_bandwidth_bytes_per_s, config.external_io_load
        )
        self.engine = SwapEngine(self.channel, self.archive)
        pinned = config.fixed_swap_ratio is not None
        self.controller = SwapController(
            ratio=config.fixed_swap_ratio if pinned else config.initial_swap_ratio,
            cfg=config.controller,
            pinned=pinned,
        )
        self.report = RunReport(
            ledger=self.ledger, controller_decisions=self.controller.decisions
        )
        # the one place a run is decided adaptive or fixed
        self.sizing = (AdaptivePolicy(config, profile_seed, self.report, self.archive, self.ledger)
                       if self.policy is None else FixedPolicy(self.policy, config))
        self.budget_samples = config.budget_samples
        self.state: LearnerState | None = None
        self._schedule = sorted(config.budget_schedule)
        self._schedule_pos = 0
        self._global_epoch = 0
        self._chosen: Conf | None = None
        # the current task's rows; none between tasks
        self._task_rows = NO_ROWS

    # --- probe / estimate / adapt -----------------------------------------

    def _poll_budget(self) -> tuple[int, int] | None:
        """The net budget change since the last poll, if any: several steps
        due at once count as one change from the old budget to the last."""
        old = self.budget_samples
        while (
            self._schedule_pos < len(self._schedule)
            and self._schedule[self._schedule_pos][0] <= self._global_epoch
        ):
            _, self.budget_samples = self._schedule[self._schedule_pos]
            self._schedule_pos += 1
        return None if self.budget_samples == old else (old, self.budget_samples)

    def probe(self) -> tuple[IoState | None, tuple[int, int] | None]:
        """Hand the epoch's swap counts to the controller and poll the budget
        channel. Returns the I/O state the controller must react to and the
        net budget change as ``(old, new)``, each None when there is nothing
        to adapt."""
        io = self.controller.end_epoch(*self.engine.end_epoch(), self.engine.pending_count == 0)
        return io, self._poll_budget()

    def estimate_and_adapt(
        self, task: Task, epoch: int, io: IoState | None, budget: tuple[int, int] | None
    ) -> None:
        """Adapt to what the probe found: the swap plan to the I/O state
        first, then memory to the budget change."""
        if io is not None:
            self.controller.react(io, epoch)
        if budget is not None:
            self._adapt_budget(task, epoch, *budget)

    def _adapt_budget(self, task: Task, epoch: int, old: int, new: int) -> None:
        """Keep the conf while SB+EM fits the new budget (always so on
        growth); otherwise the run's policy reselects."""
        conf = None
        if self._chosen.sb_size + self.em.capacity > new:
            conf = self.sizing.reselect(self._chosen, new, len(task))
            self._apply_conf(conf)
            self.report.chosen_confs.append((task.task_id, conf))
        action = "kept" if conf is None else "reselect"
        self.report.budget_events.append(BudgetEvent(task.task_id, epoch, old, new, action, conf))

    def _apply_conf(self, conf: Conf) -> None:
        self._chosen = conf
        self.em.resize(conf.em_size, self.archive, self._em_rng)

    # --- the run loop -----------------------------------------------------

    def run(self, tasks: Sequence[Task], probe_sets: dict[int, list[Sample]]) -> RunReport:
        cfg = self.config
        issues = validate_stream(tasks, cfg.domain_incremental)
        if issues:
            raise ValueError("invalid stream: " + "; ".join(issues[:3]))
        dim = tasks[0].features.shape[1]
        ids = {task.task_id for task in tasks}
        for key, samples in probe_sets.items():
            if key not in ids:
                raise ValueError(f"invalid probes: no task has id {key}")
            if any(len(s.features) != dim for s in samples):
                raise ValueError(f"invalid probes: task {key} has a probe not of the stream dim {dim}")
        if not any(map(len, probe_sets.values())):
            raise ValueError("invalid probes: the stream has no probe")
        self._start(tasks)
        self.sizing.check(tasks[0], probe_sets)
        report = self.report
        self.state = init_learner(dim, cfg.hidden_width, self._learner_seed)

        # every task's rows and every probe, task by task: task k's are table
        # rows starts[k-1]:starts[k] and probe rows ends[k-1]:ends[k]
        starts = np.cumsum([0] + [len(task) for task in tasks]).tolist()
        sets = [probe_sets.get(task.task_id, ()) for task in tasks]
        x, labels = probe_arrays(s for samples in sets for s in samples)
        ends = np.cumsum([0] + [len(samples) for samples in sets]).tolist()
        classes_seen: set[int] = set()

        for task_index, task in enumerate(tasks, start=1):
            rows = np.arange(starts[task_index - 1], starts[task_index])
            probes = x[: ends[task_index]], labels[: ends[task_index]]
            classes_seen |= task.class_set

            try:
                conf, self.state, warmed = self.sizing.decide(
                    task, task_index, self.budget_samples, self.state, self._chosen,
                    rows, probes, len(classes_seen),
                )
                report.chosen_confs.append((task.task_id, conf))
                self._apply_conf(conf)
                self._task_rows = rows
                self.controller.start_task()
                self._train_task(task, warmed)
            except LearnerDiverged as exc:
                report.aborted = True
                report.abort_reason = str(exc)

            self.engine.drop_pending(self.ledger.wall_time_seconds)
            flush(self._task_rows, self.em, self.archive, self._em_rng)
            self._task_rows = NO_ROWS

            row = {}
            if self.state.class_order:
                for seen, start, end in zip(tasks[:task_index], ends, ends[1:]):
                    if start < end and not seen.class_set.isdisjoint(self.state.class_order):
                        row[seen.task_id] = evaluate(
                            self.state, (x[start:end], labels[start:end]), classes=seen.class_set
                        )
            report.accuracy_matrix[task.task_id] = row
            if report.aborted:
                break

        if self.state.class_order:
            report.final_average_accuracy = evaluate(self.state, probes)
        report.swap_totals = {
            "issued": self.engine.issued_total,
            "applied": self.engine.applied_total,
            "dropped": self.engine.dropped_total,
            "pending": self.engine.pending_count,
        }
        report.n_classes = len(classes_seen)
        return report

    def _train_task(self, task: Task, warmed: int) -> None:
        """Train the task's live epochs, those after the ``warmed`` epochs its
        warmup trained, at the chosen conf. An entry of the budget schedule
        due inside the warmup applies at the first live epoch."""
        cfg = self.config
        self._global_epoch += warmed
        for epoch in range(warmed + 1, cfg.epochs_per_task + 1):
            self._global_epoch += 1
            sb_rows = self._task_rows[: self._chosen.sb_size]
            batches = compose_epoch_batches(sb_rows, self.em, cfg.batch_size, self._batch_rng)
            n_inuse = len(sb_rows) + self.em.total
            self.state, loss = train_epoch(self.state, batches, cfg.learning_rate, self.table)

            t0 = self.ledger.wall_time_seconds
            t1 = t0 + cfg.cost.epoch_seconds(n_inuse)
            self.engine.apply_completions(self.em, t1, self._swap_rng)
            io_busy = self.channel.busy_seconds(t0, t1)
            charge_epoch(cfg.cost, n_inuse, io_busy, self.ledger)

            io, budget = self.probe()
            if io is not None or budget is not None:
                self.estimate_and_adapt(task, epoch, io, budget)

            if self._chosen.sb_size + self.em.capacity > self.budget_samples:
                raise RuntimeError("memory invariant violated: conf exceeds budget")

            ctl = self.controller
            if self.em.total > 0 and epoch < cfg.epochs_per_task and ctl.fire_due():
                self.engine.issue(self.em, ctl.percent_per_firing, t1, self._swap_rng)

            self.report.epoch_rows.append(
                EpochRow(
                    task_id=task.task_id,
                    epoch=epoch,
                    loss=loss,
                    swap_ratio=ctl.ratio,
                    io_state=ctl.io_state.value,
                    em_size=self.em.capacity,
                    sb_size=self._chosen.sb_size,
                    joules_cum=self.ledger.total,
                )
            )


def run_stream(
    tasks: Sequence[Task],
    probe_sets: dict[int, list[Sample]],
    config: RunConfig,
    policy: ConfPolicy | None = None,
) -> RunReport:
    """Run a full task stream and return the report (library entry point)."""
    return Runtime(config, policy).run(tasks, probe_sets)
