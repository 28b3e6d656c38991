"""Shared domain types: samples, the sample table, tasks, memory
configurations, I/O states, profiling records, and the energy ledger.

Everything here except the table is an immutable value safe to share between
modules; all mutation happens inside the owning module (buffers, engine,
runtime). The table only ever gains rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.typing import DTypeLike


@dataclass(frozen=True, eq=False, slots=True)
class Sample:
    """One labeled example; the unit moved between buffers and storage.

    ``features`` is an opaque fixed-length vector: the runtime only moves
    payloads, it never inspects them. ``size_bytes`` is the logical transfer
    size used by the I/O model and is uniform across a stream.
    """

    id: int
    class_label: int
    features: np.ndarray
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        if np.ndim(self.features) != 1:
            raise ValueError("features must be a 1-D vector")


class SampleTable:
    """Every training sample of a run, one row each: the layers above hold
    row indices into it, never ``Sample`` objects.

    :meth:`reserve` allocates the storage once, at the run's final size, and
    :meth:`add` fills the next rows. ``features`` keeps the reserved dtype
    (callers cast at use): a sample whose features that dtype cannot hold
    exactly is rejected rather than rounded. ``size_bytes`` is the stream's
    one transfer size (``validate_stream`` rejects a stream that mixes
    sizes).
    """

    def __init__(self) -> None:
        self.features = np.empty((0, 0), np.float32)
        self.labels = np.empty(0, np.intp)
        self.size_bytes = 0
        self._filled = 0

    def __len__(self) -> int:
        return self._filled

    def reserve(self, n_rows: int, dim: int, dtype: DTypeLike) -> None:
        """Allocate ``n_rows`` rows of ``dim`` features in ``dtype``."""
        if len(self.labels):
            raise RuntimeError("a sample table is reserved once")
        self.features = np.empty((n_rows, dim), dtype)
        self.labels = np.empty(n_rows, np.intp)

    def add(self, samples: Sequence[Sample]) -> np.ndarray:
        """Fill the next rows with samples, in order; returns their rows."""
        start, end = self._filled, self._filled + len(samples)
        if end > len(self.labels):
            raise ValueError(f"table reserved for {len(self.labels)} rows, not {end}")
        if samples:
            # one task at a time keeps np.stack's per-sample temporaries small
            np.stack([s.features for s in samples], out=self.features[start:end], casting="safe")
            self.labels[start:end] = [s.class_label for s in samples]
            self.size_bytes = self.size_bytes or samples[0].size_bytes
        self._filled = end
        return np.arange(start, end)


@dataclass(frozen=True)
class Task:
    """An ordered chunk of the input stream sharing one set of classes."""

    task_id: int
    samples: tuple[Sample, ...]
    class_set: frozenset[int]

    def __post_init__(self):
        if self.task_id < 1:
            raise ValueError("task_id is an ordinal starting at 1")
        for s in self.samples:
            if s.class_label not in self.class_set:
                raise ValueError(
                    f"sample {s.id} has label {s.class_label} outside class_set"
                )

    @classmethod
    def from_samples(cls, task_id: int, samples: Sequence[Sample]) -> "Task":
        return cls(
            task_id=task_id,
            samples=tuple(samples),
            class_set=frozenset(s.class_label for s in samples),
        )

    def __len__(self) -> int:
        return len(self.samples)


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
    epoch_measured: int

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


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    task_id: int
    detail: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, task_id: int, detail: str) -> None:
        self.issues.append(ValidationIssue(kind, task_id, detail))


def validate_stream(
    tasks: Sequence[Task], domain_incremental: bool = False
) -> ValidationReport:
    """Check a task stream for structural defects before running it.

    Flags empty tasks, class overlap between tasks (unless the stream is
    declared domain-incremental), feature-dimension mismatches,
    non-uniform sample byte sizes, and a sample id seen twice (the archive
    holds each sample once).
    """
    if not tasks:
        raise ValueError("stream must contain at least one task")

    report = ValidationReport()
    dim: int | None = None
    size_bytes: int | None = None
    seen_classes: dict[int, int] = {}
    seen_ids: set[int] = set()

    for task in tasks:
        if len(task.samples) == 0:
            report.add("empty_task", task.task_id, "task has zero samples")
            continue
        for s in task.samples:
            if s.id in seen_ids:
                report.add("duplicate_id", task.task_id, f"sample {s.id} appears twice")
            seen_ids.add(s.id)
            if dim is None:
                dim = len(s.features)
            elif len(s.features) != dim:
                report.add(
                    "dim_mismatch",
                    task.task_id,
                    f"sample {s.id} has dim {len(s.features)}, stream dim {dim}",
                )
            if size_bytes is None:
                size_bytes = s.size_bytes
            elif s.size_bytes != size_bytes:
                report.add(
                    "size_bytes_mismatch",
                    task.task_id,
                    f"sample {s.id} has {s.size_bytes} bytes, stream uses {size_bytes}",
                )
        if not domain_incremental:
            for c in sorted(task.class_set):
                if c in seen_classes:
                    report.add(
                        "class_overlap",
                        task.task_id,
                        f"class {c} already appeared in task {seen_classes[c]}",
                    )
        for c in task.class_set:
            seen_classes.setdefault(c, task.task_id)

    return report


def round_up_to_step(n: int, step: int) -> int:
    return int(math.ceil(n / step)) * step


def round_down_to_step(n: int, step: int) -> int:
    return (n // step) * step
