import hashlib
import json

import numpy as np
import pytest

from hiercl.domain import Conf, validate_stream
from hiercl.harness import (
    STRATEGY_NAMES,
    HeuristicPolicy,
    StaticConfPolicy,
    StreamSpec,
    default_static_conf,
    emit_report,
    explore_static_confs,
    generate_stream,
    make_policies,
    make_policy,
    run_utility,
    sweep,
    write_sweep,
)
from hiercl.learner import LearnerDiverged, evaluate, init_learner, probe_arrays, train_epoch
from hiercl.profiler import ProfilerConfig
from hiercl.runtime import RunConfig, run_stream
from conftest import packed


def small_config(**over):
    base = dict(
        epochs_per_task=5,
        batch_size=16,
        learning_rate=0.2,
        hidden_width=8,
        step=100,
        budget_samples=600,
        profiler=ProfilerConfig(conf_sample_size=4, warmup_epochs=2, profile_epochs=2, subsample=0.2),
        seed=0,
    )
    base.update(over)
    return RunConfig(**base)


@pytest.mark.parametrize(
    "name", ["n_tasks", "classes_per_task", "samples_per_class", "feature_dim", "size_bytes", "seed"]
)
def test_stream_spec_int_fields_refuse_floats(name):
    value = getattr(StreamSpec(), name) or 64
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value + 0.5!r}"):
        StreamSpec(**{name: value + 0.5})
    # numpy integers are integers, and generate a stream
    spec = StreamSpec(**{"n_tasks": 1, "samples_per_class": 5, name: np.int32(value)})
    assert validate_stream(generate_stream(spec).tasks) == []


@pytest.mark.parametrize("name", ["separation", "drift", "test_fraction"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_stream_spec_refuses_non_finite_floats(name, value):
    # a NaN test_fraction used to fail inside generate_stream
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        StreamSpec(**{name: value})


@pytest.mark.parametrize("value", [-0.5, 0.0])
def test_stream_spec_refuses_a_test_fraction_of_zero_or_less(value):
    # it used to give one probe per class, as a small positive fraction does
    with pytest.raises(ValueError) as exc:
        StreamSpec(test_fraction=value)
    assert str(exc.value) == f"test_fraction must be > 0, got {value!r}"
    spec = StreamSpec(n_tasks=1, classes_per_task=2, samples_per_class=20, test_fraction=0.001)
    assert [len(samples) for samples in generate_stream(spec).probe_sets.values()] == [2]


class TestGenerateStream:
    def test_sample_counts(self):
        stream = generate_stream(
            StreamSpec(n_tasks=10, classes_per_task=10, samples_per_class=100, seed=0)
        )
        assert sum(len(t) for t in stream.tasks) == 10_000
        assert all(len(t) == 1000 for t in stream.tasks)
        assert validate_stream(stream.tasks) == []

    def test_probe_sets_are_held_out(self):
        stream = generate_stream(StreamSpec(n_tasks=2, samples_per_class=50, seed=0))
        for task in stream.tasks:
            train_rows = {row.tobytes() for row in task.features}
            probes = stream.probe_sets[task.task_id]
            assert not any(p.features.tobytes() in train_rows for p in probes)
            assert {p.class_label for p in probes} == task.class_set
        # default held-out share is 10% of each class
        assert all(len(ps) == 50 for ps in stream.probe_sets.values())

    def test_deterministic_under_seed(self):
        a = generate_stream(StreamSpec(n_tasks=2, seed=9))
        b = generate_stream(StreamSpec(n_tasks=2, seed=9))
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.features, tb.features)
            np.testing.assert_array_equal(ta.labels, tb.labels)
            pa, pb = a.probe_sets[ta.task_id], b.probe_sets[tb.task_id]
            assert [p.class_label for p in pa] == [p.class_label for p in pb]
            np.testing.assert_array_equal([p.features for p in pa], [p.features for p in pb])

    def test_wide_separation_is_trivially_learnable(self):
        stream = generate_stream(
            StreamSpec(n_tasks=1, classes_per_task=5, samples_per_class=40,
                       feature_dim=8, separation=50.0, seed=1)
        )
        task = stream.tasks[0]
        state = init_learner(8, hidden_width=8, seed=0)
        rng = np.random.default_rng(0)
        table, rows = packed(task)
        for _ in range(15):
            order = rows[rng.permutation(len(rows))]
            batches = [order[k : k + 16] for k in range(0, len(order), 16)]
            train_epoch(state, batches, 0.2, table)
        assert evaluate(state, probe_arrays(stream.probe_sets[1])) > 0.95

    def test_zero_separation_is_chance(self):
        stream = generate_stream(
            StreamSpec(n_tasks=1, classes_per_task=4, samples_per_class=100,
                       feature_dim=8, separation=0.0, seed=1)
        )
        task = stream.tasks[0]
        state = init_learner(8, hidden_width=8, seed=0)
        rng = np.random.default_rng(0)
        table, rows = packed(task)
        for _ in range(10):
            order = rows[rng.permutation(len(rows))]
            batches = [order[k : k + 16] for k in range(0, len(order), 16)]
            train_epoch(state, batches, 0.1, table)
        acc = evaluate(state, probe_arrays(stream.probe_sets[1]))
        assert abs(acc - 0.25) < 0.15

    def test_domain_incremental_mode_shares_classes(self):
        stream = generate_stream(
            StreamSpec(n_tasks=3, classes_per_task=4, samples_per_class=20,
                       domain_incremental=True, drift=0.5, seed=2)
        )
        sets = [t.class_set for t in stream.tasks]
        assert sets[0] == sets[1] == sets[2]
        assert validate_stream(stream.tasks) != []
        assert validate_stream(stream.tasks, domain_incremental=True) == []


class TestHeuristicPolicy:
    def test_first_task_all_stream_buffer(self):
        conf = HeuristicPolicy(1.0).conf_for_task(1, 2000, 5000, 500)
        assert conf == Conf(5000, 0)

    def test_task_five_gets_budget_over_five(self):
        # oracle by counting components: SB serves 1 task, EM serves 4
        conf = HeuristicPolicy(1.0).conf_for_task(5, 2000, 5000, 500)
        assert conf.sb_size == 5000 // 5
        assert conf.em_size == 5000 - 5000 // 5
        assert conf.total == 5000

    def test_fraction_limits_footprint(self):
        conf = HeuristicPolicy(0.5).conf_for_task(5, 2000, 5000, 500)
        assert conf.total == 2500
        conf20 = HeuristicPolicy(0.2).conf_for_task(5, 2000, 5000, 500)
        assert conf20.total == 1000

    def test_energy_monotone_in_fraction(self):
        spec = StreamSpec(n_tasks=3, classes_per_task=3, samples_per_class=60,
                          feature_dim=8, seed=4)
        stream = generate_stream(spec)
        cfg = small_config(budget_samples=600)
        joules = []
        for fraction in (0.2, 0.5, 1.0):
            rep = run_stream(
                stream.tasks, stream.probe_sets, cfg, HeuristicPolicy(fraction)
            )
            joules.append(rep.ledger.total)
        assert joules[0] <= joules[1] <= joules[2]


class TestStaticBaselines:
    def test_default_static_conf_prioritizes_new_samples(self):
        assert default_static_conf(5000, 2000, 500) == Conf(2000, 2500)
        assert default_static_conf(1000, 2000, 500) == Conf(500, 500)

    def test_plugin_equality_static_vs_forced_conf(self):
        """A run with the fixed-conf baseline and a run with the selector
        forced to the same conf share every byte of the trace."""
        spec = StreamSpec(n_tasks=2, classes_per_task=3, samples_per_class=60,
                          feature_dim=8, seed=4)
        stream = generate_stream(spec)
        cfg = small_config()
        conf = default_static_conf(cfg.budget_samples, spec.task_size, cfg.step)
        a = run_stream(stream.tasks, stream.probe_sets, cfg, make_policy("static", stream, cfg))
        b = run_stream(stream.tasks, stream.probe_sets, cfg, StaticConfPolicy(conf))
        assert [vars(r) for r in a.epoch_rows] == [vars(r) for r in b.epoch_rows]
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert a.final_average_accuracy == b.final_average_accuracy

    def test_best_static_and_history_agree_through_first_half(self):
        spec = StreamSpec(n_tasks=4, classes_per_task=2, samples_per_class=30,
                          feature_dim=8, seed=4)
        stream = generate_stream(spec)
        cfg = small_config(budget_samples=300, epochs_per_task=3)
        winner, halfway_winner = explore_static_confs(stream, cfg)
        bs, bh = make_policies(("best-static", "best-history"), stream, cfg)
        for t in (1, 2):
            assert bh.conf_for_task(t, 60, 300, 100) == bs.conf_for_task(t, 60, 300, 100)
        for t in (3, 4):
            assert bh.conf_for_task(t, 60, 300, 100) == halfway_winner
        assert winner.total <= 300


class TestReports:
    def _report(self, seed=0):
        spec = StreamSpec(n_tasks=2, classes_per_task=3, samples_per_class=40,
                          feature_dim=8, seed=3)
        stream = generate_stream(spec)
        cfg = small_config(seed=seed)
        return run_stream(stream.tasks, stream.probe_sets, cfg)

    def test_emit_files_and_conservation(self, tmp_path):
        report = self._report()
        paths = emit_report(report, tmp_path, label="demo")
        summary = json.loads(paths["summary"].read_text())
        joules = summary["energy_joules"]
        components = [joules[k] for k in ("gpu_dynamic", "static", "io", "ram", "profiling")]
        assert joules["total"] == pytest.approx(sum(components), rel=1e-12)
        header = paths["trace"].read_text().splitlines()[0]
        assert header == "task,epoch,loss,swap_ratio,io_state,em_size,sb_size,joules_cum"

    def test_rerun_is_byte_identical(self, tmp_path):
        a = emit_report(self._report(), tmp_path / "a", label="x")
        b = emit_report(self._report(), tmp_path / "b", label="x")
        for key in ("summary", "trace", "decisions", "scatter"):
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_two_strategies_make_two_scatter_points(self, tmp_path):
        spec = StreamSpec(n_tasks=2, classes_per_task=3, samples_per_class=40,
                          feature_dim=8, seed=3)
        stream = generate_stream(spec)
        cfg = small_config()
        for strategy in ("static", "heuristic"):
            policy = make_policy(strategy, stream, cfg)
            rep = run_stream(stream.tasks, stream.probe_sets, cfg, policy)
            emit_report(rep, tmp_path, label=strategy)
        lines = {
            p.name: p.read_text().splitlines()[1]
            for p in tmp_path.glob("*_scatter.csv")
        }
        assert len(lines) == 2

    def test_run_utility_gain_over_chance(self):
        report = self._report()
        expected = max(report.final_average_accuracy - 1.0 / report.n_classes, 0.0)
        assert run_utility(report) == pytest.approx(expected / report.ledger.total)


def test_sweep_grid_and_csv(tmp_path):
    spec = StreamSpec(n_tasks=2, classes_per_task=3, samples_per_class=40,
                      feature_dim=8, seed=3)
    points = sweep(
        spec,
        small_config(),
        strategies=("static", "heuristic-50"),
        budgets=(400, 600),
        seeds=(0,),
    )
    assert len(points) == 4
    path = write_sweep(points, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("strategy,budget,seed")
    assert len(lines) == 5


def test_negative_stream_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        StreamSpec(seed=-1)


def test_sweep_checks_every_seed_before_its_first_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("hiercl.harness.run_stream", no_run)
    spec = StreamSpec(n_tasks=1, classes_per_task=2, samples_per_class=20, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sweep(spec, small_config(), strategies=["static"], budgets=[1000], seeds=[0, -1])


def test_unknown_strategy_rejected():
    spec = StreamSpec(n_tasks=1, classes_per_task=2, samples_per_class=20, seed=0)
    stream = generate_stream(spec)
    with pytest.raises(ValueError):
        make_policy("galactic", stream, small_config())


# sha256 of sweep_scatter.csv over every strategy, budgets (400, 600) and
# seeds (0, 1), recorded before the sweep shared one exploration per point;
# re-recorded when every profiling subsample became EM's class-quota draw,
# which moved only the adaptive rows, and again, for the adaptive rows only,
# when each profiled task began continuing from the profiler's warm state
PINNED_SWEEP = "7fc282ca7ce7695ae78cb12bf49db32553b8b5e68a4d2029f7ca7a556746152d"


def test_sweep_explores_once_per_stream_and_config(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].budget_samples)
        return run_stream(*args, **kwargs)

    monkeypatch.setattr("hiercl.harness.run_stream", counted)
    spec = StreamSpec(n_tasks=3, classes_per_task=3, samples_per_class=40, feature_dim=8, seed=3)
    points = sweep(spec, small_config(), STRATEGY_NAMES, budgets=(400, 600), seeds=(0, 1))
    digest = hashlib.sha256(write_sweep(points, tmp_path).read_bytes()).hexdigest()
    assert digest == PINNED_SWEEP
    # per seed, 7 strategy runs plus one full run per grid conf (7 at 400, 11 at 600)
    assert len(calls) == 64
    assert calls.count(400) == 2 * (7 + 7) and calls.count(600) == 2 * (7 + 11)


# every run of this stream and config diverges in its first task
DIVERGING_SPEC = StreamSpec(n_tasks=2, classes_per_task=3, samples_per_class=30, feature_dim=8)
DIVERGING = dict(epochs_per_task=3, step=30, budget_samples=180, learning_rate=1.0e6)


@pytest.mark.parametrize(
    "strategy, message",
    [
        ("static", r"^static at budget 180, seed 0: non-finite loss"),
        ("adaptive", r"^adaptive at budget 180, seed 0: non-finite loss"),
        ("best-static", r"^exploring Conf\(sb_size=30, em_size=0\): non-finite loss"),
    ],
    ids=["static", "adaptive", "best-static"],
)
def test_sweep_raises_on_a_diverging_run(strategy, message):
    with pytest.raises(LearnerDiverged, match=message):
        sweep(DIVERGING_SPEC, small_config(**DIVERGING), [strategy], budgets=[180], seeds=[0])


def test_sweep_checks_every_strategy_before_its_first_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("hiercl.harness.run_stream", no_run)
    spec = StreamSpec(n_tasks=1, classes_per_task=2, samples_per_class=20, seed=0)
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        sweep(spec, small_config(), strategies=["static", "bogus"], budgets=[600], seeds=[0])


def test_sweep_refuses_a_warmup_without_a_live_epoch_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("hiercl.harness.run_stream", no_run)
    spec = StreamSpec(n_tasks=1, classes_per_task=2, samples_per_class=20, seed=0)
    with pytest.raises(ValueError, match=r"^profiler.warmup_epochs \(2\) must be below epochs_per_task \(2\)"):
        sweep(spec, small_config(epochs_per_task=2), ["static", "adaptive"], budgets=[600], seeds=[0])


# sha256 of each emit_report file, recorded before trace rows and controller
# entries were written straight from their records; each decisions file was
# re-recorded when it gained an empty ``reuses`` list, and each trace file
# when the training step folded each layer's bias into its matrix product,
# and again when it moved to feature-major hidden activations, each of which
# moves the trace's loss column by rounding alone
PINNED_REPORTS = {
    # re-recorded when every profiling subsample became EM's class-quota draw,
    # and again when each profiled task began continuing from the profiler's
    # warm state (its decisions file did not move)
    "adaptive": {
        "summary": "70ea6246b6eec2bbb849e5b614d8aeffbcaa0c4971d843ba75f683823db15ee3",
        "trace": "1a3e1453e1b5e6fd610311ebff929e20ba616db1983332510bc284d9b9fd3cd3",
        "decisions": "24786aa03b003c66e525f682fa1b5de73baebf7f32eb6e2457953a3593a70ea2",
        "scatter": "ffa07cd5573d14c23e918b6a14048878d18cf967b4897726757d6485a42855fa",
    },
    "congested": {
        "summary": "cf7ee266e447efb34c4695b56f312ea06c94b53c9ea671108e97b86994722bd0",
        "trace": "370e19986774945b61cc75694b37056ed2de2e9206e7d90572376430a0b9adf2",
        "decisions": "47db0cc87c829cc1aaa45c7111541dc2af12e57e88f33e99a4e76d8560dd6e3c",
        "scatter": "6cfcb4d5181de0a140facff8332ea2b863ad312fe067bd78af6f456d4083e78a",
    },
}


def _pinned_runs():
    stream = generate_stream(
        StreamSpec(n_tasks=2, classes_per_task=3, samples_per_class=40, feature_dim=8, seed=3)
    )
    yield "adaptive", run_stream(stream.tasks, stream.probe_sets, small_config())
    stream = generate_stream(
        StreamSpec(n_tasks=3, classes_per_task=3, samples_per_class=60, feature_dim=8, seed=5)
    )
    cfg = small_config(epochs_per_task=8, io_bandwidth_bytes_per_s=300.0)
    report = run_stream(stream.tasks, stream.probe_sets, cfg, StaticConfPolicy(Conf(200, 200)))
    assert len(report.controller_decisions) >= 5
    yield "congested", report


# the budget events of a run whose schedule keeps, reselects and keeps,
# recorded before a reselect event carried the conf it applied; re-recorded
# when the middle step fell to 100, below every conf but (100, 0), so that it
# reselects whatever profiling picks; re-recorded when each profiled task
# began continuing from the profiler's warm state: global epochs 2 and 7 now
# fall inside a task's 2 warmup epochs, so they apply at its first live epoch
PINNED_BUDGET_EVENTS = [
    {"action": "kept", "epoch": 3, "new_budget": 500, "old_budget": 600, "task": 1},
    {"action": "reselect", "epoch": 4, "new_budget": 100, "old_budget": 500, "task": 1},
    {"action": "kept", "epoch": 3, "new_budget": 200, "old_budget": 100, "task": 2},
]


def test_reselect_events_carry_the_conf_they_applied(tmp_path):
    stream = generate_stream(
        StreamSpec(n_tasks=2, classes_per_task=3, samples_per_class=40, feature_dim=8, seed=3)
    )
    cfg = small_config(budget_schedule=((2, 500), (4, 100), (7, 200)))
    with pytest.warns(UserWarning, match="no profiled conf fits budget 100"):
        report = run_stream(stream.tasks, stream.probe_sets, cfg)
    paths = emit_report(report, tmp_path)
    events = json.loads(paths["decisions"].read_text())["budget_events"]
    assert [{k: v for k, v in e.items() if k not in ("sb", "em")} for e in events] == (
        PINNED_BUDGET_EVENTS
    )
    # chosen_confs lists each task's first conf, then one entry per reselect
    chosen = json.loads(paths["summary"].read_text())["chosen_confs"]
    reselected = [c for i, c in enumerate(chosen) if c["task"] in {d["task"] for d in chosen[:i]}]
    assert [(e["task"], e["sb"], e["em"]) for e in events if e["action"] == "reselect"] == [
        (c["task"], c["sb"], c["em"]) for c in reselected
    ]
    assert not any("sb" in e or "em" in e for e in events if e["action"] == "kept")


def test_run_diverging_before_its_first_epoch_writes_the_trace_header(tmp_path):
    stream = generate_stream(DIVERGING_SPEC)
    report = run_stream(stream.tasks, stream.probe_sets, small_config(**DIVERGING))
    paths = emit_report(report, tmp_path)
    assert paths["trace"].read_text() == (
        "task,epoch,loss,swap_ratio,io_state,em_size,sb_size,joules_cum\n"
    )
    assert json.loads(paths["summary"].read_text())["aborted"] is True


def test_emit_report_files_are_pinned(tmp_path):
    for label, report in _pinned_runs():
        paths = emit_report(report, tmp_path, label=label)
        digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}
        assert digests == PINNED_REPORTS[label]
