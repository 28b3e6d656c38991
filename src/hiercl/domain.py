"""Shared domain types: tasks, held-out probe samples, the sample table,
memory configurations, I/O states, profiling records, and the energy ledger.

A task is arrays: an ``(n, dim)`` feature block, one integer label per row
and the stream's one transfer size. Everything here is an immutable value
safe to share between modules (a run builds its table whole, and it never
changes); all mutation happens inside the owning module (buffers, engine,
runtime).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np


def check_ints(obj, names: Sequence[str]) -> None:
    """Each named attribute of ``obj`` holds an integer (Python or numpy) or
    None (an optional field left unset)."""
    for name in names:
        value = getattr(obj, name)
        if not (value is None or isinstance(value, numbers.Integral)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False, slots=True)
class Sample:
    """One held-out probe: a class label and its feature vector.

    Probes are only ever evaluated on, never trained on, archived or
    swapped; ``learner.probe_arrays`` turns a run's probes into one table.
    """

    class_label: int
    features: np.ndarray

    def __post_init__(self):
        if np.ndim(self.features) != 1:
            raise ValueError("features must be a 1-D vector")


@dataclass(frozen=True, eq=False)
class Task:
    """An ordered chunk of the input stream: row ``i`` is one training sample
    with features ``features[i]`` and class ``labels[i]``.

    ``size_bytes`` is the logical transfer size of one sample, used by the
    I/O model and uniform across a stream. ``class_set`` holds the distinct
    labels.
    """

    task_id: int
    features: np.ndarray
    labels: np.ndarray
    size_bytes: int
    class_set: frozenset[int] = field(init=False)

    def __post_init__(self):
        if self.task_id < 1:
            raise ValueError(f"task_id is an ordinal starting at 1, got {self.task_id}")
        where, labels = f"task {self.task_id}", self.labels
        if np.ndim(self.features) != 2:
            raise ValueError(f"{where}: features must be an (n, dim) array")
        if not (isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "iu"):
            raise ValueError(f"{where}: labels must be a 1-D integer array")
        if len(labels) != len(self.features):
            raise ValueError(f"{where}: {len(labels)} labels for {len(self.features)} feature rows")
        if self.size_bytes < 1:
            raise ValueError(f"{where}: size_bytes must be >= 1, got {self.size_bytes}")
        object.__setattr__(self, "class_set", frozenset(np.unique(labels).tolist()))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Every training sample of a run, one row each: the layers above hold
    row indices into it, and a row is a sample's only identity.

    A run builds it once, from the whole stream, when it starts (:meth:`of`).
    ``size_bytes`` is the stream's one transfer size (``validate_stream``
    rejects a stream that mixes sizes).
    """

    features: np.ndarray
    labels: np.ndarray
    size_bytes: int

    @classmethod
    def of(cls, tasks: Sequence[Task]) -> SampleTable:
        """The tasks' rows in task order, features in their common dtype;
        no tasks give an empty table."""
        if not tasks:
            return cls(np.empty((0, 0), np.float32), np.empty(0, np.intp), 0)
        return cls(
            np.concatenate([task.features for task in tasks]),
            np.concatenate([task.labels for task in tasks]).astype(np.intp, copy=False),
            tasks[0].size_bytes,
        )


@dataclass(frozen=True, order=True)
class Conf:
    """A candidate memory allocation: (stream-buffer size, episodic-memory size)."""

    sb_size: int
    em_size: int

    def __post_init__(self):
        if self.sb_size < 0 or self.em_size < 0:
            raise ValueError("sizes must be non-negative")
        if self.sb_size + self.em_size < 1:
            raise ValueError("a conf must hold at least one sample")

    @property
    def total(self) -> int:
        return self.sb_size + self.em_size


class IoState(Enum):
    CONGESTED = "congested"
    IDLE = "idle"
    STABLE = "stable"


@dataclass(frozen=True)
class ProfileRecord:
    """Estimated accuracy and energy for one conf, measured at a short horizon."""

    conf: Conf
    accuracy_estimate: float
    energy_estimate: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy_estimate <= 1.0):
            raise ValueError(f"accuracy out of range: {self.accuracy_estimate}")
        if self.energy_estimate <= 0.0:
            raise ValueError("energy_estimate must be positive")


LEDGER_COMPONENTS = ("gpu_dynamic", "static", "io", "ram", "profiling")


@dataclass
class EnergyLedger:
    """Per-component joule accounting; entries only ever grow.

    ``profiling`` collects the overhead of conf profiling so it can be
    reported separately from the main training charge.
    """

    gpu_dynamic: float = 0.0
    static: float = 0.0
    io: float = 0.0
    ram: float = 0.0
    profiling: float = 0.0
    wall_time_seconds: float = 0.0

    def add(self, component: str, joules: float) -> None:
        if component not in LEDGER_COMPONENTS:
            raise KeyError(f"unknown ledger component: {component}")
        if joules < 0.0:
            raise ValueError("ledger entries are monotone; negative charge rejected")
        setattr(self, component, getattr(self, component) + joules)

    def advance_time(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError("time moves forward")
        self.wall_time_seconds += seconds

    @property
    def total(self) -> float:
        return sum(getattr(self, c) for c in LEDGER_COMPONENTS)

    def as_dict(self) -> dict[str, float]:
        d = {c: getattr(self, c) for c in LEDGER_COMPONENTS}
        d["total"] = self.total
        d["wall_time_seconds"] = self.wall_time_seconds
        return d


def validate_stream(tasks: Sequence[Task], domain_incremental: bool = False) -> list[str]:
    """Check a task stream for structural defects before running it; returns
    one ``"<kind> (task <id>): <detail>"`` line per defect, none when valid.

    Flags repeated task ids, empty tasks, class overlap (unless the stream
    is domain-incremental), and a feature dimension or sample byte size
    that differs from the first non-empty task's.
    """
    if not tasks:
        raise ValueError("stream must contain at least one task")

    issues: list[str] = []
    first: Task | None = None
    seen_classes: dict[int, int] = {}
    seen_ids: set[int] = set()

    for task in tasks:
        where = f"(task {task.task_id})"
        if task.task_id in seen_ids:
            issues.append(f"duplicate_task_id {where}: task id {task.task_id} is already in the stream")
        seen_ids.add(task.task_id)
        if len(task) == 0:
            issues.append(f"empty_task {where}: task has zero samples")
            continue
        if first is None:
            first = task
        dim, stream_dim = task.features.shape[1], first.features.shape[1]
        if dim != stream_dim:
            issues.append(f"dim_mismatch {where}: task has dim {dim}, stream dim {stream_dim}")
        if task.size_bytes != first.size_bytes:
            issues.append(
                f"size_bytes_mismatch {where}: task has {task.size_bytes}-byte samples, "
                f"stream uses {first.size_bytes}"
            )
        if not domain_incremental:
            issues.extend(
                f"class_overlap {where}: class {c} already appeared in task {seen_classes[c]}"
                for c in sorted(task.class_set)
                if c in seen_classes
            )
        for c in task.class_set:
            seen_classes.setdefault(c, task.task_id)

    return issues


def round_up_to_step(n: int, step: int) -> int:
    return int(math.ceil(n / step)) * step


def round_down_to_step(n: int, step: int) -> int:
    return (n // step) * step
