import hashlib

import numpy as np
import pytest

from hiercl.domain import Sample, SampleTable, Task
from hiercl.learner import LearnerState, train_epoch


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


def packed(batches) -> tuple[list[np.ndarray], SampleTable]:
    """Batches of samples as row batches of one new table."""
    table = SampleTable()
    return [table.add(batch) for batch in batches], table


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
