import numpy as np
import pytest

from hiercl.domain import (
    Conf,
    EnergyLedger,
    Sample,
    SampleTable,
    Task,
    validate_stream,
)
from conftest import make_sample, make_task


def test_sample_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Sample(id=1, class_label=0, features=np.zeros(4, np.float32), size_bytes=0)


def test_sample_rejects_matrix_features():
    with pytest.raises(ValueError):
        Sample(id=1, class_label=0, features=np.zeros((2, 2), np.float32), size_bytes=8)


def test_task_label_must_be_in_class_set():
    s = make_sample(0, 3)
    with pytest.raises(ValueError):
        Task(task_id=1, samples=(s,), class_set=frozenset({1, 2}))


def test_task_ordinal_starts_at_one():
    with pytest.raises(ValueError):
        Task(task_id=0, samples=(), class_set=frozenset())


def on_grid(conf: Conf, step: int) -> bool:
    return conf.sb_size % step == 0 and conf.em_size % step == 0


def test_conf_validation():
    with pytest.raises(ValueError):
        Conf(sb_size=-1, em_size=10)
    with pytest.raises(ValueError):
        Conf(sb_size=0, em_size=0)
    assert Conf(500, 1000).total == 1500
    assert on_grid(Conf(500, 1000), 500)
    assert not on_grid(Conf(500, 1200), 500)


class TestEnergyLedger:
    def test_total_is_sum_of_components(self):
        led = EnergyLedger()
        led.add("gpu_dynamic", 5.0)
        led.add("static", 2.0)
        led.add("io", 0.25)
        led.add("ram", 0.1)
        led.add("profiling", 1.0)
        assert led.total == pytest.approx(8.35, rel=1e-12)
        d = led.as_dict()
        assert d["total"] == pytest.approx(
            sum(d[k] for k in ("gpu_dynamic", "static", "io", "ram", "profiling")),
            rel=1e-12,
        )

    def test_entries_are_monotone(self):
        led = EnergyLedger()
        with pytest.raises(ValueError):
            led.add("io", -1.0)
        with pytest.raises(KeyError):
            led.add("flux_capacitor", 1.0)
        with pytest.raises(ValueError):
            led.advance_time(-0.5)


class TestValidateStream:
    def test_disjoint_stream_is_valid(self):
        tasks = [
            make_task(t, range((t - 1) * 3, t * 3), per_class=4, start_id=t * 100)
            for t in range(1, 11)
        ]
        assert validate_stream(tasks).ok

    def test_shared_class_reported(self):
        t1 = make_task(1, [1, 2, 3], per_class=2, start_id=0)
        t2 = make_task(2, [3, 4, 5], per_class=2, start_id=50)
        report = validate_stream([t1, t2])
        assert not report.ok
        assert any(i.kind == "class_overlap" and "class 3" in i.detail for i in report.issues)

    def test_shared_class_ok_when_domain_incremental(self):
        t1 = make_task(1, [1, 2], per_class=2, start_id=0)
        t2 = make_task(2, [1, 2], per_class=2, start_id=50)
        assert validate_stream([t1, t2], domain_incremental=True).ok

    def test_empty_task_rejected(self):
        t1 = make_task(1, [1], per_class=2, start_id=0)
        empty = Task(task_id=2, samples=(), class_set=frozenset())
        report = validate_stream([t1, empty])
        assert not report.ok
        assert any(i.kind == "empty_task" for i in report.issues)

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            validate_stream([])

    def test_dim_and_size_mismatches(self):
        a = make_sample(0, 1, dim=4)
        b = make_sample(1, 2, dim=6)
        c = Sample(id=2, class_label=3, features=np.zeros(4, np.float32), size_bytes=999)
        tasks = [
            Task.from_samples(1, [a]),
            Task.from_samples(2, [b]),
            Task.from_samples(3, [c]),
        ]
        report = validate_stream(tasks)
        kinds = {i.kind for i in report.issues}
        assert "dim_mismatch" in kinds
        assert "size_bytes_mismatch" in kinds


class TestSampleTable:
    def test_rows_follow_arrival(self):
        table = SampleTable()
        table.reserve(7, 4, np.float32)
        first = [make_sample(10 + i, i % 2) for i in range(3)]
        second = [make_sample(20 + i, 5) for i in range(4)]
        assert table.add(first).tolist() == [0, 1, 2]
        assert table.add(second).tolist() == [3, 4, 5, 6]
        assert len(table) == 7
        assert table.labels.tolist() == [0, 1, 0, 5, 5, 5, 5]
        for row, s in enumerate(first + second):
            assert table.features[row].tobytes() == s.features.tobytes()
        assert table.features.dtype == np.float32
        assert table.size_bytes == 64

    def test_reserved_storage_is_filled_in_place(self):
        table = SampleTable()
        table.reserve(10, 4, np.float32)
        storage = table.features
        table.add([make_sample(i, 0) for i in range(10)])
        assert table.features is storage and len(table) == 10

    def test_reserved_once_and_never_grown_or_rounded(self):
        table = SampleTable()
        table.reserve(2, 4, np.float64)
        wide = Sample(1, 0, np.linspace(0.0, 1.0, 4), 64)  # float64
        table.add([make_sample(0, 0), wide])
        assert table.features[1].tolist() == wide.features.tolist()
        with pytest.raises(ValueError):
            table.add([make_sample(2, 0)])
        with pytest.raises(RuntimeError):
            table.reserve(4, 4, np.float64)
        narrow = SampleTable()
        narrow.reserve(2, 4, np.float32)
        with pytest.raises(TypeError):
            narrow.add([wide])


def test_validate_flags_a_sample_seen_twice():
    t1 = make_task(1, [0, 1], per_class=3)
    repeat = Task.from_samples(2, [make_sample(100, 2), t1.samples[0]])
    report = validate_stream([t1, repeat], domain_incremental=True)
    assert [(i.kind, i.task_id) for i in report.issues] == [("duplicate_id", 2)]
