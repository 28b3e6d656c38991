import hashlib

import numpy as np
import pytest

from hiercl.domain import Sample, SampleTable, Task
from hiercl.learner import LearnerState, train_epoch
from hiercl.memory import EpisodicMemory, StorageArchive, class_quotas
from hiercl.swap import SwapEngine


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_sample(sid: int, label: int, dim: int = 4, size_bytes: int = 64) -> Sample:
    rng = np.random.default_rng(sid)
    return Sample(
        id=sid,
        class_label=label,
        features=rng.normal(size=dim).astype(np.float32),
        size_bytes=size_bytes,
    )


def make_task(task_id: int, classes, per_class: int, start_id: int = 0, dim: int = 4):
    samples = []
    sid = start_id
    for _ in range(per_class):
        for c in classes:
            samples.append(make_sample(sid, c, dim))
            sid += 1
    return Task.from_samples(task_id, samples)


class TrackedTable(SampleTable):
    """A sample table reserved up front that also keeps the sample added at
    each row, so a test maps rows back to its own samples."""

    def __init__(self, n_rows: int = 10_000, dim: int = 4, dtype=np.float32):
        super().__init__()
        self.reserve(n_rows, dim, dtype)
        self.samples: list[Sample] = []

    def add(self, samples):
        rows = super().add(samples)
        self.samples.extend(samples)
        return rows

    def ids(self, rows) -> list[int]:
        return [self.samples[r].id for r in np.asarray(rows).tolist()]


def row_ids(tasks) -> list[int]:
    """The sample id at each table row of a run over ``tasks``: a run adds
    the tasks' samples in stream order."""
    return [s.id for task in tasks for s in task.samples]


def packed(batches) -> tuple[list[np.ndarray], SampleTable]:
    """Batches of samples as row batches of one new table."""
    samples = [s for batch in batches for s in batch]
    dtype = np.result_type(*{s.features.dtype for s in samples})
    table = TrackedTable(len(samples), len(samples[0].features), dtype)
    return [table.add(batch) for batch in batches], table


def spread_ok(em: EpisodicMemory, archive: StorageArchive) -> bool:
    """EM's per-class spread is at most 1 among the classes whose archive
    covers their quota."""
    classes = archive.classes()
    quotas = class_quotas(em.capacity, classes)
    counts = [len(em.class_rows(c)) for c in classes if archive.class_count(c) >= quotas[c]]
    return not counts or max(counts) - min(counts) <= 1


def conserved(engine: SwapEngine) -> bool:
    """Swap conservation: issued = applied + dropped + pending."""
    return engine.issued_total == (
        engine.applied_total + engine.dropped_total + engine.pending_count
    )


def train_on(state: LearnerState, batches, learning_rate: float):
    """``train_epoch`` over batches of samples, packed into a new table."""
    rows, table = packed(batches)
    return train_epoch(state, rows, learning_rate, table)


def params_equal(a: LearnerState, b: LearnerState) -> bool:
    return (
        a.class_order == b.class_order
        and a.w1.tobytes() == b.w1.tobytes()
        and a.b1.tobytes() == b.b1.tobytes()
        and a.w2.tobytes() == b.w2.tobytes()
        and a.b2.tobytes() == b.b2.tobytes()
    )


def state_digest(state: LearnerState) -> str:
    h = hashlib.sha256()
    for arr in (state.w1, state.b1, state.w2, state.b2):
        h.update(arr.tobytes())
    h.update(repr(state.class_order).encode())
    return h.hexdigest()


def exhaustive_units(space, full_epochs: int, task_size: int, em_available: int) -> int:
    """What full-length, full-data profiling of every conf in ``space``
    would cost, in sample-epochs: the yardstick for the profiler's savings."""
    return sum(
        (min(conf.sb_size, task_size) + min(conf.em_size, em_available)) * full_epochs
        for conf in space
    )
