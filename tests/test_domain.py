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
from conftest import labeled, make_task


def test_sample_rejects_matrix_features():
    with pytest.raises(ValueError):
        Sample(class_label=0, features=np.zeros((2, 2), np.float32))


def features(n, dim=4):
    return np.zeros((n, dim), np.float32)


def assert_one_line(excinfo, text):
    message = str(excinfo.value)
    assert text in message and "\n" not in message


def test_task_ordinal_starts_at_one():
    with pytest.raises(ValueError) as excinfo:
        Task(0, features(0), np.empty(0, np.intp), 64)
    assert_one_line(excinfo, "task_id is an ordinal starting at 1, got 0")


@pytest.mark.parametrize(
    "feats, labels, size_bytes, text",
    [
        (np.zeros(4, np.float32), np.zeros(4, np.intp), 64, "features must be an (n, dim) array"),
        (np.zeros((2, 2, 2)), np.zeros(2, np.intp), 64, "features must be an (n, dim) array"),
        (features(3), np.zeros(3), 64, "labels must be a 1-D integer array"),
        (features(3), np.zeros((3, 1), np.intp), 64, "labels must be a 1-D integer array"),
        (features(3), [0, 1, 2], 64, "labels must be a 1-D integer array"),
        (features(3), np.zeros(2, np.intp), 64, "2 labels for 3 feature rows"),
        (features(3), np.zeros(3, np.intp), 0, "size_bytes must be >= 1, got 0"),
        (features(3), np.zeros(3, np.intp), -64, "size_bytes must be >= 1, got -64"),
    ],
    ids=["1d-features", "3d-features", "float-labels", "2d-labels", "list-labels",
         "length-mismatch", "zero-size", "negative-size"],
)
def test_task_rejects_malformed_arrays(feats, labels, size_bytes, text):
    with pytest.raises(ValueError) as excinfo:
        Task(3, feats, labels, size_bytes)
    assert_one_line(excinfo, f"task 3: {text}")


def test_task_class_set_is_its_distinct_labels():
    task = Task(1, features(5), np.array([7, 2, 7, 9, 2], np.int32), 64)
    assert task.class_set == {2, 7, 9} and len(task) == 5
    assert all(type(c) is int for c in task.class_set)
    assert not hasattr(task, "samples")


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
            make_task(t, range((t - 1) * 3, t * 3), per_class=4, seed=t)
            for t in range(1, 11)
        ]
        assert validate_stream(tasks) == []

    def test_shared_class_reported(self):
        t1 = make_task(1, [1, 2, 3], per_class=2)
        t2 = make_task(2, [3, 4, 5], per_class=2)
        issues = validate_stream([t1, t2])
        assert issues
        assert any(i.startswith("class_overlap (task 2): ") and "class 3" in i for i in issues)

    def test_shared_class_ok_when_domain_incremental(self):
        t1 = make_task(1, [1, 2], per_class=2)
        t2 = make_task(2, [1, 2], per_class=2)
        assert validate_stream([t1, t2], domain_incremental=True) == []

    def test_empty_task_rejected(self):
        t1 = make_task(1, [1], per_class=2)
        empty = Task(2, features(0), np.empty(0, np.intp), 64)
        assert validate_stream([t1, empty]) == ["empty_task (task 2): task has zero samples"]

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            validate_stream([])

    def test_dim_and_size_mismatches(self):
        tasks = [
            labeled([1], dim=4, task_id=1),
            labeled([2], dim=6, task_id=2),
            labeled([3], dim=4, size_bytes=999, task_id=3),
        ]
        assert validate_stream(tasks) == [
            "dim_mismatch (task 2): task has dim 6, stream dim 4",
            "size_bytes_mismatch (task 3): task has 999-byte samples, stream uses 64",
        ]

    def test_repeated_task_id_reported_in_stream_order(self):
        tasks = [
            make_task(1, [1, 2], per_class=2),
            make_task(1, [1, 2], per_class=2),
            labeled([3], dim=6, task_id=2),
        ]
        assert validate_stream(tasks, domain_incremental=True) == [
            "duplicate_task_id (task 1): task id 1 is already in the stream",
            "dim_mismatch (task 2): task has dim 6, stream dim 4",
        ]

    def test_stream_shape_comes_from_the_first_non_empty_task(self):
        tasks = [
            Task(1, features(0, dim=9), np.empty(0, np.intp), 7),
            labeled([1, 2], dim=4, task_id=2),
            labeled([3], dim=4, size_bytes=128, task_id=3),
            labeled([4], dim=5, task_id=4),
        ]
        assert [i.split(":")[0] for i in validate_stream(tasks)] == [
            "empty_task (task 1)", "size_bytes_mismatch (task 3)", "dim_mismatch (task 4)",
        ]


class TestSampleTable:
    def test_rows_follow_arrival(self):
        first = labeled([0, 1, 0], seed=1)
        second = labeled([5, 5, 5, 5], seed=2)
        table = SampleTable.of([first, second])
        assert table.labels.tolist() == [0, 1, 0, 5, 5, 5, 5]
        assert table.labels.dtype == np.intp
        expected = np.concatenate([first.features, second.features])
        assert table.features.tobytes() == expected.tobytes()
        assert table.features.dtype == np.float32
        assert table.size_bytes == 64

    def test_mixed_dtypes_widen_exactly(self):
        narrow = labeled([0, 1], seed=1)
        wide = Task(2, np.linspace(0.0, 1.0, 12).reshape(3, 4), np.full(3, 2, np.intp), 64)
        table = SampleTable.of([narrow, wide])
        assert table.features.dtype == np.float64
        assert table.features[:2].tolist() == narrow.features.tolist()
        assert table.features[2:].tolist() == wide.features.tolist()
