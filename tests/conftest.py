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


def labeled(labels, dim: int = 4, seed: int = 0, size_bytes: int = 64, task_id: int = 1) -> Task:
    """A task of one random float32 feature row per label, in label order."""
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    features = np.random.default_rng(seed).normal(size=(len(labels), dim)).astype(np.float32)
    return Task(task_id, features, labels, size_bytes)


def make_task(task_id: int, classes, per_class: int, dim: int = 4, seed: int = 0) -> Task:
    """``per_class`` rounds over ``classes``, one row per class a round."""
    return labeled(np.tile(list(classes), per_class), dim, seed, task_id=task_id)


def packed(*tasks: Task) -> tuple:
    """A new table of ``tasks``' rows in order, then each task's rows."""
    ends = np.cumsum([0] + [len(task) for task in tasks])
    return SampleTable.of(tasks), *(np.arange(a, b) for a, b in zip(ends, ends[1:]))


def reserved(n_rows: int = 10_000, dim: int = 4) -> SampleTable:
    """A table of ``n_rows`` zero float32 rows of 64-byte samples, for a test
    whose tasks arrive between memory operations: ``fill`` writes them."""
    return SampleTable(np.zeros((n_rows, dim), np.float32), np.zeros(n_rows, np.intp), 64)


def fill(table: SampleTable, start: int, task: Task) -> np.ndarray:
    """Write ``task``'s rows into ``table`` from row ``start``; returns them."""
    rows = np.arange(start, start + len(task))
    table.features[rows] = task.features
    table.labels[rows] = task.labels
    return rows


def as_probes(task: Task) -> list[Sample]:
    """``task``'s rows as probe samples."""
    return [Sample(c, f) for c, f in zip(task.labels.tolist(), task.features)]


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


def train_on(state: LearnerState, task: Task, learning_rate: float, batch_size: int = 4):
    """``train_epoch`` over ``task``'s rows, packed into a new table, in
    consecutive batches of ``batch_size``."""
    table, rows = packed(task)
    batches = [rows[i : i + batch_size] for i in range(0, len(rows), batch_size)]
    return train_epoch(state, batches, learning_rate, table)


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
