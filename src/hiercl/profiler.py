"""Low-overhead per-task profiling of candidate (SB, EM) confs.

Cost is cut from three directions: only a uniform sample of the search
space is profiled (default 14 confs), each conf trains on a small random
subsample of its data (default 5%), and all confs start from copies of one
shared warmed-up state so nobody re-pays the noisy early epochs. The warmup
trains the live model itself: its epochs are the task's first epochs,
trained once, and the live task continues from them. The recorded accuracy
is the raw short-horizon value, not an extrapolation; the energy estimate is
the cost model's projection of a full-length run at that conf. Nor is every
task profiled: the runtime's ``AdaptivePolicy`` skips ``profile_task`` for a
task that reuses the conf the last two profiles agreed on, while the budget
and the task size hold.

Conf evaluation works on copies and row arrays: every subsample is a
row-index array into the run's ``SampleTable``, and the probes are a prefix
view of the run's probe table, scored in one forward pass. Only the warmup
trains the live model, and the live buffers are never touched. Every draw
splits its rows by EM's ``class_quotas``, and batches and joules come from
the run's own ``shuffled_batches`` and ``train_joules``.

Settings come from the run's ``RunConfig`` and old rows from its
``StorageArchive``, whose ``table`` every row indexes. Only the live budget
and the current conf are passed on their own: a scheduled budget change
moves the live budget away from ``config.budget_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .domain import (
    Conf, EnergyLedger, ProfileRecord, SampleTable, check_ints, round_down_to_step, round_up_to_step,
)
from .learner import LearnerState, charge_profiling, copy_state, evaluate, train_epoch
from .memory import StorageArchive, class_quotas, class_runs, shuffled_batches

if TYPE_CHECKING:  # runtime imports this module
    from .runtime import RunConfig


@dataclass(frozen=True)
class ProfilerConfig:
    conf_sample_size: int = 14
    warmup_epochs: int = 10
    profile_epochs: int = 5
    subsample: float = 0.05

    def __post_init__(self):
        check_ints(self, ("conf_sample_size", "warmup_epochs", "profile_epochs"))
        if self.conf_sample_size < 1:
            raise ValueError("need at least one conf to profile")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError("subsample must be a fraction in (0, 1]")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.profile_epochs < 1:
            raise ValueError("profile_epochs must be >= 1")


def build_search_space(budget_samples: int, task_size: int, step: int) -> list[Conf]:
    """All grid confs with sb in [step, min(task rounded up, budget)] and
    sb + em within the budget."""
    if step < 1:
        raise ValueError("step must be positive")
    if budget_samples < step:
        raise ValueError(f"budget {budget_samples} is below one step {step}")
    if task_size < 1:
        raise ValueError("task must contain samples")
    sb_max = min(round_up_to_step(task_size, step), round_down_to_step(budget_samples, step))
    space = []
    for sb in range(step, sb_max + 1, step):
        for em in range(0, budget_samples - sb + 1, step):
            space.append(Conf(sb_size=sb, em_size=em))
    return space


def default_static_conf(budget: int, task_size: int, step: int) -> Conf:
    """The static split, the one rule for a fixed conf: half the budget,
    rounded down to a step, to EM, and the rest to SB, capped by the task
    size rounded up to a step (all new samples in memory when they fit).
    Budget 2500, task 2000, step 500 gives (1500, 1000); a budget under two
    steps gives EM nothing. It sizes the ``static`` baseline, the grid conf
    nearest it warms up adaptive's first task, and it is the fallback when
    a shrunk budget no longer fits a run's conf."""
    if budget < step:
        raise ValueError(f"budget {budget} cannot hold even one step of {step}")
    em = round_down_to_step(budget // 2, step)
    return Conf(sb_size=min(round_up_to_step(task_size, step), budget - em), em_size=em)


def sample_confs(
    space: Sequence[Conf],
    k: int,
    rng: np.random.Generator,
    reference: Conf | None = None,
) -> list[Conf]:
    """Uniform sample without replacement, always carrying the reference conf."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(space) <= k:
        picked = list(space)
    else:
        idx = rng.choice(len(space), size=k, replace=False)
        picked = [space[i] for i in sorted(idx)]
    if reference is not None and reference in space and reference not in picked:
        picked[-1] = reference
    return picked


def nearest_conf(space: Sequence[Conf], target: Conf) -> Conf:
    """Feasible conf closest to the target (L1 distance, lexicographic ties)."""
    if not space:
        raise ValueError("empty conf space")
    return min(
        space,
        key=lambda c: (
            abs(c.sb_size - target.sb_size) + abs(c.em_size - target.em_size),
            c,
        ),
    )


def _draw(pool: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    if n >= len(pool):
        return pool
    return pool[np.sort(rng.choice(len(pool), size=n, replace=False))]


def _balanced_take(
    by_class: dict[int, np.ndarray], total: int, rng: np.random.Generator
) -> np.ndarray:
    """Class-balanced random selection: ``total`` split over the non-empty
    pools by EM's own quotas; a pool short of its quota is taken whole."""
    quotas = class_quotas(total, [c for c, pool in by_class.items() if len(pool)])
    return np.concatenate([_draw(by_class[c], q, rng) for c, q in quotas.items()])


def draw_subsample(
    by_class: dict[int, np.ndarray], inuse: int, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """The class-balanced take of ``fraction`` of ``inuse`` rows, rounded,
    but at least one row per class and at most ``inuse`` rows, so that no
    class silently reports zero accuracy when ``inuse`` covers them all."""
    n = min(inuse, max(round(fraction * inuse), len(by_class)))
    return _balanced_take(by_class, n, rng)


@dataclass
class ProfileOutcome:
    """The sampled confs' records and the grid size."""

    records: list[ProfileRecord]
    space_size: int
    # simulated compute units (sample-epochs) spent per phase
    warmup_units: int = 0
    evaluation_units: int = 0


def evaluate_conf(
    warm: LearnerState,
    conf: Conf,
    task_rows: np.ndarray,
    em_pool_by_class: dict[int, np.ndarray],
    probes: tuple[np.ndarray, np.ndarray],
    config: RunConfig,
    rng: np.random.Generator,
    ledger: EnergyLedger,
    table: SampleTable,
) -> tuple[ProfileRecord, int]:
    """Short training of one conf from a copy of the shared warm state.

    Returns the record plus the compute units (sample-epochs) it consumed.
    The conf holds the first min(sb, task) stream rows and min(em, archive)
    old rows, and the data is a ``draw_subsample`` of each part: of the
    stream rows grouped by class, and of the archive's own class pools.
    ``probes`` are probe features and labels. From ``config`` it reads
    ``profiler`` (subsample, profile and warmup epochs), ``batch_size`` and
    ``learning_rate`` for the short training, and ``cost`` and
    ``epochs_per_task`` for the energy estimate of a full-length run.
    """
    cfg = config.profiler
    state = copy_state(warm)
    em_available = sum(len(v) for v in em_pool_by_class.values())
    sb_inuse = min(conf.sb_size, len(task_rows))
    em_inuse = min(conf.em_size, em_available)

    parts = []
    if sb_inuse > 0:
        sb_rows = task_rows[:sb_inuse]
        order, runs = class_runs(table.labels[sb_rows])
        sb_by_class = {c: sb_rows[order[start:end]] for c, start, end in runs}
        parts.append(draw_subsample(sb_by_class, sb_inuse, cfg.subsample, rng))
    if em_inuse > 0:
        parts.append(draw_subsample(em_pool_by_class, em_inuse, cfg.subsample, rng))
    if not parts:
        raise ValueError(f"conf {conf} yields no profiling data")
    data = np.concatenate(parts)

    for _ in range(cfg.profile_epochs):
        batches = shuffled_batches(data, config.batch_size, rng)
        train_epoch(state, batches, config.learning_rate, table)

    acc = evaluate(state, probes)
    energy = config.cost.train_joules(sb_inuse + em_inuse, epochs=config.epochs_per_task)
    units = len(data) * cfg.profile_epochs
    charge_profiling(config.cost, len(data), cfg.profile_epochs, ledger)
    return ProfileRecord(conf=conf, accuracy_estimate=acc, energy_estimate=energy), units


def profile_task(
    live_state: LearnerState,
    task_rows: np.ndarray,
    archive: StorageArchive,
    probes: tuple[np.ndarray, np.ndarray],
    budget_samples: int,
    reference_target: Conf | None,
    config: RunConfig,
    rng: np.random.Generator,
    ledger: EnergyLedger,
) -> ProfileOutcome:
    """Profile one incoming task and return records for every sampled conf.

    ``task_rows`` are rows of ``archive.table``, and the old rows are the
    archive's, by class; ``probes`` are probe features and labels. The grid
    fills ``budget_samples`` (the live budget) in ``config.step`` steps, and
    the sample always carries the reference, the grid conf nearest
    ``reference_target``: the current conf, or on the first task (None) the
    static split ``default_static_conf``. ``config.profiler`` sets the
    sample size and the warmup, which trains ``live_state`` itself at the
    reference with ``config.batch_size`` and ``config.learning_rate``, for
    the live task to continue from; each conf evaluation trains a copy of
    it. A divergence in the warmup leaves it at its last finite step.
    """
    cfg = config.profiler
    table = archive.table
    em_pool_by_class = {c: archive.class_rows(c) for c in archive.classes()}
    task_size = len(task_rows)
    space = build_search_space(budget_samples, task_size, config.step)
    if reference_target is None:
        reference_target = default_static_conf(budget_samples, task_size, config.step)
    reference = nearest_conf(space, reference_target)
    confs = sample_confs(space, cfg.conf_sample_size, rng, reference)

    # the live model warms up at the reference conf, trained on full views
    ref_data = task_rows[: min(reference.sb_size, task_size)]
    em_avail = sum(len(v) for v in em_pool_by_class.values())
    ref_em = min(reference.em_size, em_avail)
    if ref_em > 0:
        ref_data = np.concatenate([ref_data, _balanced_take(em_pool_by_class, ref_em, rng)])
    # warmup_epochs == 0 is ablation mode: confs ride on the raw live weights
    # and inherit the noisy early-epoch loss landscape, and the live task
    # trains every epoch itself
    for _ in range(cfg.warmup_epochs):
        batches = shuffled_batches(ref_data, config.batch_size, rng)
        train_epoch(live_state, batches, config.learning_rate, table)
    warmup_units = len(ref_data) * cfg.warmup_epochs
    charge_profiling(config.cost, len(ref_data), cfg.warmup_epochs, ledger)

    records: list[ProfileRecord] = []
    eval_units = 0
    for conf in confs:
        record, units = evaluate_conf(
            live_state, conf, task_rows, em_pool_by_class, probes, config, rng, ledger, table
        )
        records.append(record)
        eval_units += units

    return ProfileOutcome(
        records=records,
        space_size=len(space),
        warmup_units=warmup_units,
        evaluation_units=eval_units,
    )
