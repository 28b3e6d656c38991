import functools
import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hiercl.domain import LEDGER_COMPONENTS, Conf, Sample, Task
from hiercl.harness import (
    StaticConfPolicy,
    StreamSpec,
    default_static_conf,
    generate_stream,
    make_policy,
)
from hiercl.learner import CostModel
from hiercl.profiler import ProfilerConfig
from hiercl.runtime import ReuseRecord, RunConfig, RunReport, Runtime, run_stream
from conftest import make_task, spread_ok, state_digest


def tiny_stream(n_tasks=2, classes_per_task=3, per_class=40, dim=8, seed=5):
    return generate_stream(
        StreamSpec(
            n_tasks=n_tasks,
            classes_per_task=classes_per_task,
            samples_per_class=per_class,
            feature_dim=dim,
            separation=2.0,
            seed=seed,
        )
    )


def record_phases(monkeypatch) -> list[tuple]:
    """Log every probe with what it found and every estimate with what it
    was handed, in call order, by wrapping the two ``Runtime`` methods the
    way the bench tracer does."""
    log = []
    probe, estimate = Runtime.probe, Runtime.estimate_and_adapt

    def logged_probe(self):
        found = probe(self)
        log.append(("probe", found))
        return found

    def logged_estimate(self, task, epoch, io, budget):
        log.append(("estimate", (io, budget)))
        return estimate(self, task, epoch, io, budget)

    monkeypatch.setattr(Runtime, "probe", logged_probe)
    monkeypatch.setattr(Runtime, "estimate_and_adapt", logged_estimate)
    return log


def tiny_config(**over):
    base = dict(
        epochs_per_task=6,
        batch_size=16,
        learning_rate=0.2,
        hidden_width=8,
        step=100,
        budget_samples=600,
        profiler=ProfilerConfig(conf_sample_size=4, warmup_epochs=2, profile_epochs=2, subsample=0.2),
        cost=CostModel(),
        seed=0,
    )
    base.update(over)
    return RunConfig(**base)


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        stream = tiny_stream()
        reports = [
            run_stream(stream.tasks, stream.probe_sets, tiny_config())
            for _ in range(2)
        ]
        a, b = reports
        assert a.final_average_accuracy == b.final_average_accuracy
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert a.chosen_confs == b.chosen_confs
        assert [vars(r) for r in a.epoch_rows] == [vars(r) for r in b.epoch_rows]
        assert a.swap_totals == b.swap_totals

    def test_different_seed_changes_something(self):
        stream = tiny_stream()
        a = run_stream(stream.tasks, stream.probe_sets, tiny_config(seed=0))
        b = run_stream(stream.tasks, stream.probe_sets, tiny_config(seed=1))
        assert [r.loss for r in a.epoch_rows] != [r.loss for r in b.epoch_rows]


class TestLoopShape:
    def test_epoch_count_constant_per_task(self):
        stream = tiny_stream(n_tasks=3)
        cfg = tiny_config()
        report = run_stream(stream.tasks, stream.probe_sets, cfg)
        # a profiled task writes rows for its live epochs, after the warmup
        warmup = cfg.profiler.warmup_epochs
        for t in (1, 2, 3):
            rows = [r for r in report.epoch_rows if r.task_id == t]
            assert [r.epoch for r in rows] == list(range(warmup + 1, cfg.epochs_per_task + 1))

    def test_memory_invariant_every_epoch(self):
        stream = tiny_stream(n_tasks=3)
        report = run_stream(stream.tasks, stream.probe_sets, tiny_config())
        for r in report.epoch_rows:
            assert r.em_size + r.sb_size <= 600

    def test_ledger_monotone_across_rows(self):
        stream = tiny_stream(n_tasks=3)
        report = run_stream(stream.tasks, stream.probe_sets, tiny_config())
        joules = [r.joules_cum for r in report.epoch_rows]
        assert all(b >= a for a, b in zip(joules, joules[1:]))

    def test_probe_runs_once_per_epoch(self, monkeypatch):
        log = record_phases(monkeypatch)
        stream = tiny_stream()
        report = run_stream(stream.tasks, stream.probe_sets, tiny_config())
        assert [p[0] for p in log].count("probe") == len(report.epoch_rows)

    def test_swap_conservation(self):
        stream = tiny_stream(n_tasks=3)
        report = run_stream(stream.tasks, stream.probe_sets, tiny_config())
        t = report.swap_totals
        assert t["issued"] == t["applied"] + t["dropped"] + t["pending"]

    def test_second_run_reproduces_the_first(self):
        stream = tiny_stream(n_tasks=2)
        runtime = Runtime(tiny_config())
        first = repr(runtime.run(stream.tasks, stream.probe_sets))
        weights = state_digest(runtime.state)
        assert repr(runtime.run(stream.tasks, stream.probe_sets)) == first
        assert state_digest(runtime.state) == weights

    def test_invalid_stream_rejected(self):
        stream = tiny_stream()
        # duplicate the first task's classes into the second
        tasks = [stream.tasks[0], stream.tasks[0]]
        with pytest.raises(ValueError):
            run_stream(tasks, stream.probe_sets, tiny_config())

    def test_invalid_stream_error_is_one_readable_line(self):
        tasks = [make_task(1, [1, 2, 3], per_class=2), make_task(2, [3, 4, 5], per_class=2)]
        with pytest.raises(ValueError) as exc:
            run_stream(tasks, {}, tiny_config())
        assert str(exc.value) == (
            "invalid stream: class_overlap (task 2): class 3 already appeared in task 1"
        )

    def test_repeated_task_id_is_rejected(self):
        """Two tasks with one id would share one accuracy-matrix row and one
        probe set."""
        tasks = [make_task(1, [1, 2], per_class=4), make_task(1, [1, 2], per_class=4, seed=1)]
        probes = {1: [Sample(1, np.zeros(4, np.float32))]}
        with pytest.raises(ValueError) as exc:
            run_stream(tasks, probes, tiny_config(domain_incremental=True))
        assert str(exc.value) == (
            "invalid stream: duplicate_task_id (task 1): task id 1 is already in the stream"
        )

    def test_sb_is_the_task_rows_cut_at_the_conf(self, monkeypatch):
        """A conf that cuts SB below the task size: every epoch replays
        exactly the task's first ``sb_size`` rows plus EM's rows, and each
        flush archives every row of the task, cut or not."""
        import hiercl.runtime as runtime_module

        stream = tiny_stream(n_tasks=3)
        task_size, conf = len(stream.tasks[0]), Conf(sb_size=50, em_size=60)
        assert conf.sb_size < task_size
        rt = Runtime(tiny_config(), StaticConfPolicy(conf))
        compose, flush = runtime_module.compose_epoch_batches, runtime_module.flush
        epochs, flushes = [], []

        def checked_compose(*args):
            batches = compose(*args)
            start = len(flushes) * task_size
            expected = list(range(start, start + conf.sb_size)) + rt.em.rows().tolist()
            assert sorted(r for b in batches for r in b.tolist()) == sorted(expected)
            epochs.append(start)
            return batches

        def checked_flush(*args):
            flush(*args)
            archived = {r for c in rt.archive.classes() for r in rt.archive.class_rows(c).tolist()}
            assert archived == set(range(len(archived)))
            flushes.append(len(archived))

        monkeypatch.setattr(runtime_module, "compose_epoch_batches", checked_compose)
        monkeypatch.setattr(runtime_module, "flush", checked_flush)
        report = rt.run(stream.tasks, stream.probe_sets)
        assert not report.aborted
        assert len(epochs) == len(report.epoch_rows) == 3 * rt.config.epochs_per_task
        assert flushes == [task_size, 2 * task_size, 3 * task_size]
        assert {r.sb_size for r in report.epoch_rows} == {conf.sb_size}
        assert len(rt._task_rows) == 0


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"budget_schedule": ((2, 10),)},
         r"budget_schedule\[0\]: expected an integer epoch >= 0 and an integer budget >= step \(50\)"),
        ({"budget_schedule": ((2, 100), (-1, 100))}, r"budget_schedule\[1\]: expected an integer epoch"),
        ({"budget_schedule": ((2.0, 100),)}, r"budget_schedule\[0\]: expected an integer epoch"),
        ({"external_io_load": ((0.0, -5e8),)},
         r"external_io_load\[0\]: time and load must be >= 0, got \[0.0, -500000000.0\]"),
        ({"external_io_load": ((1.0, 0.0), (-1.0, 0.0))}, r"external_io_load\[1\]: time and load"),
        # two entries at one point used to apply in value order, not as written
        ({"budget_schedule": ((3, 600), (5, 400), (3, 300))},
         r"^budget_schedule\[0\] and budget_schedule\[2\] are both at epoch 3$"),
        ({"external_io_load": ((5.0, 9e7), (5.0, 0.0))},
         r"^external_io_load\[0\] and external_io_load\[1\] are both at time 5.0$"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
    ids=["budget-below-step", "negative-epoch", "float-epoch", "negative-load", "negative-time",
         "repeated-epoch", "repeated-time", "negative-seed"],
)
def test_run_config_rejects_bad_schedule_load_and_seed(fields, message):
    """The ranges hold for library callers too, not only behind the CLI."""
    with pytest.raises(ValueError, match=message):
        RunConfig(step=50, budget_samples=200, **fields)


@pytest.mark.parametrize(
    "name", ["epochs_per_task", "batch_size", "hidden_width", "step", "budget_samples", "seed"]
)
def test_run_config_int_fields_refuse_floats(name):
    value = getattr(RunConfig(), name)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value + 0.5!r}"):
        RunConfig(**{name: value + 0.5})
    # numpy integers are integers
    assert getattr(RunConfig(**{name: np.int64(value)}), name) == value


def test_run_config_refuses_infinite_learning_rate():
    # it used to construct, and the run ended at the first step as divergence
    with pytest.raises(ValueError, match="^learning_rate must be finite, got inf$"):
        RunConfig(learning_rate=float("inf"))


def test_budget_schedule_accepts_numpy_integers():
    schedule = ((np.int64(2), np.int64(600)),)
    assert RunConfig(budget_schedule=schedule).budget_schedule == ((2, 600),)


class TestPhaseDiscipline:
    def test_estimate_only_after_changeful_probe(self, monkeypatch):
        log = record_phases(monkeypatch)
        stream = tiny_stream(n_tasks=2)
        cfg = tiny_config(
            # 2 warmup epochs + 6 live ones: as many live epochs as before the warm start
            epochs_per_task=8,
            io_bandwidth_bytes_per_s=500.0,  # guaranteed backlog once swaps start
            initial_swap_ratio=1.0,
        )
        run_stream(stream.tasks, stream.probe_sets, cfg)
        estimates = [i for i, p in enumerate(log) if p[0] == "estimate"]
        assert estimates, "expected at least one estimate under congestion"
        for i in estimates:
            kind, found = log[i - 1]
            assert kind == "probe" and found != (None, None), (
                "estimate must follow a probe that reported changes"
            )
            assert log[i][1] == found
        # and every probe that reported a change is acted on at once
        for i, (kind, found) in enumerate(log):
            if kind == "probe" and found != (None, None):
                assert log[i + 1][0] == "estimate"

    def test_quiet_run_never_estimates(self, monkeypatch):
        log = record_phases(monkeypatch)
        stream = tiny_stream(n_tasks=2)
        cfg = tiny_config(fixed_swap_ratio=1.0)
        run_stream(stream.tasks, stream.probe_sets, cfg)
        assert log and all(p[0] == "probe" for p in log)


class TestCongestionEpisode:
    def test_ratio_trace_replays_aimd_script(self):
        stream = tiny_stream(n_tasks=3, per_class=60)
        cfg = tiny_config(
            epochs_per_task=8,
            io_bandwidth_bytes_per_s=300.0,
            budget_samples=600,
        )
        report = run_stream(
            stream.tasks, stream.probe_sets, cfg, StaticConfPolicy(Conf(200, 200))
        )
        states = {r.io_state for r in report.epoch_rows}
        assert "congested" in states
        # scripted oracle: replay the logged io states through the AIMD rules
        ratio = cfg.initial_swap_ratio
        floor = cfg.controller.ratio_floor
        for row in report.epoch_rows:
            if row.io_state == "congested":
                ratio = max(ratio * 0.5, floor)
            elif row.io_state == "idle":
                ratio = min(ratio + 0.1, 1.0)
            assert row.swap_ratio == ratio

    def test_congestion_comes_from_injected_load(self):
        stream = tiny_stream(n_tasks=2, per_class=60)
        policy = StaticConfPolicy(Conf(200, 100))
        quiet = tiny_config(epochs_per_task=8)
        report_quiet = run_stream(stream.tasks, stream.probe_sets, quiet, policy)
        assert all(r.io_state != "congested" for r in report_quiet.epoch_rows)
        assert report_quiet.swap_totals["applied"] > 0

        # heavy external load squeezes the same channel down to a trickle
        loaded = tiny_config(
            epochs_per_task=8,
            external_io_load=((0.0, 99.99e6),),
        )
        report_loaded = run_stream(stream.tasks, stream.probe_sets, loaded, policy)
        assert any(r.io_state == "congested" for r in report_loaded.epoch_rows)


class TestBudgetChannel:
    def test_shrink_above_usage_keeps_conf(self):
        stream = tiny_stream(n_tasks=2)
        cfg = tiny_config(
            budget_samples=600,
            budget_schedule=((3, 500),),  # usage after task 1 is well below 500
        )
        report = run_stream(stream.tasks, stream.probe_sets, cfg)
        kept = [e for e in report.budget_events if e.action == "kept"]
        assert kept and kept[0].new_budget == 500

    def test_shrink_below_usage_reselects_from_records(self):
        from hiercl.domain import ProfileRecord

        stream = tiny_stream(n_tasks=1, per_class=60)
        cfg = tiny_config(budget_samples=600)
        rt = Runtime(cfg)
        task = stream.tasks[0]
        rt.sizing.records = [
            ProfileRecord(Conf(200, 200), 0.5, 40.0),
            ProfileRecord(Conf(100, 100), 0.45, 20.0),
            ProfileRecord(Conf(100, 0), 0.2, 10.0),
        ]
        rt._apply_conf(Conf(200, 200))  # usage 400 exceeds the shrunk budget
        rt.estimate_and_adapt(task, epoch=3, io=None, budget=(600, 250))
        event = rt.report.budget_events[-1]
        assert event.action == "reselect"
        # the surviving profiled confs are re-ranked without re-profiling
        assert event.conf == Conf(100, 100)
        assert rt._chosen.sb_size + rt.em.capacity <= 250

    def test_shrink_without_feasible_records_falls_back_to_grid(self):
        from hiercl.domain import ProfileRecord

        stream = tiny_stream(n_tasks=1, per_class=60)
        cfg = tiny_config(budget_samples=600)
        rt = Runtime(cfg)
        task = stream.tasks[0]
        rt.sizing.records = [ProfileRecord(Conf(300, 300), 0.5, 40.0)]
        rt._apply_conf(Conf(300, 300))
        with pytest.warns(UserWarning):
            rt.estimate_and_adapt(task, epoch=3, io=None, budget=(600, 150))
        event = rt.report.budget_events[-1]
        assert event.action == "reselect"
        assert event.conf == Conf(150, 0)

    def test_full_run_shrink_event_respects_new_budget(self):
        stream = tiny_stream(n_tasks=2, per_class=60)
        cfg = tiny_config(
            budget_samples=600,
            budget_schedule=((8, 100),),
        )
        report = run_stream(stream.tasks, stream.probe_sets, cfg)
        events = [e for e in report.budget_events if e.new_budget == 100]
        assert events
        epoch_after = [
            r for r in report.epoch_rows
            if (r.task_id, r.epoch) >= (events[0].task_id, events[0].epoch)
        ]
        assert all(r.em_size + r.sb_size <= 100 for r in epoch_after)

    def test_growth_keeps_conf_until_next_task_profiles_grown_grid(self):
        stream = tiny_stream(n_tasks=2)
        cfg = tiny_config(
            budget_samples=400,
            budget_schedule=((2, 600),),
        )
        report = run_stream(stream.tasks, stream.probe_sets, cfg)
        # SB+EM fit the old budget, so they fit the grown one
        events = [(e.old_budget, e.new_budget, e.action, e.conf) for e in report.budget_events]
        assert events == [(400, 600, "kept", None)]
        task_one = {(r.sb_size, r.em_size) for r in report.epoch_rows if r.task_id == 1}
        assert len(task_one) == 1
        # the next task profiles over the grown grid
        assert any(r.conf.total > 400 for t, r in report.profile_trace if t == 2)


class TestWarmStart:
    """A profiled task continues from the profiler's warm state: it trains
    and logs only the epochs after the warmup, and the global epoch clock
    counts the warmup, so a budget schedule keeps its timing."""

    def test_no_warmup_reproduces_the_run_before_the_warm_start(self):
        """Recorded before the live task continued from the warm state; with
        no warmup there is nothing to continue from, so nothing moves. The
        report digest was re-recorded when RunReport gained ``reuses``, for
        that empty list alone, and both digests when the training step
        folded each layer's bias into its matrix product, and again when it
        moved to feature-major hidden activations, for the losses and
        weights each moves by rounding."""
        stream = tiny_stream()
        profiler = ProfilerConfig(conf_sample_size=4, warmup_epochs=0, profile_epochs=2, subsample=0.2)
        runtime = Runtime(tiny_config(profiler=profiler))
        report = runtime.run(stream.tasks, stream.probe_sets)
        assert hashlib.sha256(repr(report).encode()).hexdigest() == (
            "d86887882a02a7a0e9fc43f17a4ab1f900b985641d8756284e566ff0a8b50912"
        )
        assert _weights_digest(runtime.state) == (
            "97e9fc8d71b7c2e3efd791732d4b32d797a4abf0feb27f369a7b84fd70928a74"
        )

    def test_live_model_is_the_warm_state_after_profiling(self, monkeypatch):
        import hiercl.runtime as runtime_module

        outcomes, adopted = [], []
        profile = runtime_module.profile_task

        def recorded(live_state, *args):
            outcome = profile(live_state, *args)
            outcomes.append((live_state.params.copy(), outcome.warm.params.copy()))
            return outcome

        monkeypatch.setattr(runtime_module, "profile_task", recorded)
        runtime = Runtime(tiny_config())
        decide, train_task = runtime_module.AdaptivePolicy.decide, Runtime._train_task

        def checked(self, *args):
            decided = decide(self, *args)
            adopted.append(decided[1].params.copy())
            return decided

        def trained(self, *args):
            # the live loop starts from the state the policy handed back
            assert self.state.params.tobytes() == adopted[-1].tobytes()
            return train_task(self, *args)

        monkeypatch.setattr(runtime_module.AdaptivePolicy, "decide", checked)
        monkeypatch.setattr(Runtime, "_train_task", trained)
        stream = tiny_stream()
        runtime.run(stream.tasks, stream.probe_sets)
        assert len(outcomes) == len(adopted) == 2
        for (before, warm), params in zip(outcomes, adopted):
            assert params.tobytes() == warm.tobytes()
            # the warmup trained it: the live model moved
            assert params.shape != before.shape or params.tobytes() != before.tobytes()

    @pytest.mark.parametrize(
        "at, task_epoch",
        # global epoch 9 is task 2's epoch 3, as before the warm start;
        # global epoch 7 is inside task 2's warmup (epochs 1-2 of 6)
        [(9, 3), (7, 3)],
        ids=["after-the-warmup", "inside-the-warmup"],
    )
    def test_schedule_keeps_its_timing(self, at, task_epoch):
        stream = tiny_stream()
        report = run_stream(stream.tasks, stream.probe_sets, tiny_config(budget_schedule=((at, 400),)))
        assert [(e.task_id, e.epoch, e.new_budget) for e in report.budget_events] == [
            (2, task_epoch, 400)
        ]

    def test_a_warmup_without_a_live_epoch_is_refused_before_the_run(self):
        stream = tiny_stream()
        cfg = tiny_config(epochs_per_task=2)
        runtime = Runtime(cfg)
        with pytest.raises(ValueError) as exc:
            runtime.run(stream.tasks, stream.probe_sets)
        assert str(exc.value) == (
            "profiler.warmup_epochs (2) must be below epochs_per_task (2): "
            "a profiled task trains the epochs after its warmup"
        )
        assert runtime.ledger.total == 0.0 and runtime.state is None
        # a policy run profiles nothing, so the same config runs
        report = run_stream(stream.tasks, stream.probe_sets, cfg, StaticConfPolicy(Conf(200, 200)))
        assert len(report.epoch_rows) == 4 and not report.aborted


# a stream whose second and third profiles pick (100, 200) over a non-empty
# archive: the fourth task reuses it (global epochs 19-24)
REUSE_CONF = Conf(100, 200)


def reuse_run(n_tasks=4, **over) -> tuple[Runtime, RunReport]:
    stream = tiny_stream(n_tasks=n_tasks, seed=1)
    runtime = Runtime(tiny_config(budget_samples=500, **over))
    return runtime, runtime.run(stream.tasks, stream.probe_sets)


class TestProfileReuse:
    """A profiled task keeps the conf in force without profiling once the
    last two profiles, each over a non-empty archive, picked it at the live
    budget and task size with no budget event since; it trains every epoch
    live."""

    def test_after_two_agreeing_picks_the_next_task_is_not_profiled(self):
        _, report = reuse_run()
        assert [(s.task_id, s.conf) for s in report.selections][1:] == [
            (2, REUSE_CONF), (3, REUSE_CONF)
        ]
        assert report.reuses == [ReuseRecord(4, REUSE_CONF)]
        assert {t for t, _ in report.profile_trace} == {1, 2, 3}
        assert sorted(report.profiling_units) == [1, 2, 3]
        assert report.chosen_confs[-1] == (4, REUSE_CONF)

    def test_a_reused_task_bills_no_profiling_and_trains_every_epoch(self, monkeypatch):
        import hiercl.runtime as runtime_module

        profiled, billed = [], {}
        profile = runtime_module.profile_task

        def counted(*args):
            profiled.append(args[1][0])
            return profile(*args)

        monkeypatch.setattr(runtime_module, "profile_task", counted)
        decide = runtime_module.AdaptivePolicy.decide

        def checked(self, task, *args):
            billed[task.task_id] = self.ledger.profiling
            return decide(self, task, *args)

        monkeypatch.setattr(runtime_module.AdaptivePolicy, "decide", checked)
        runtime, report = reuse_run()
        assert len(profiled) == 3
        assert runtime.ledger.profiling == billed[4] > billed[3]
        epochs = [(r.task_id, r.epoch) for r in report.epoch_rows]
        assert epochs[-6:] == [(4, e) for e in range(1, 7)]
        assert all(e >= 3 for t, e in epochs if t < 4)
        # the live epochs bill the main loop's components
        joules = [r.joules_cum for r in report.epoch_rows if r.task_id == 4]
        assert all(b > a for a, b in zip(joules, joules[1:]))

    def test_the_first_tasks_pick_does_not_count(self):
        """Every task picks (100, 100) here; the third still profiles, as
        only the second pick was made over a non-empty archive."""
        stream = tiny_stream(n_tasks=3, seed=0)
        report = run_stream(stream.tasks, stream.probe_sets, tiny_config())
        assert [(s.task_id, s.conf) for s in report.selections] == [
            (1, Conf(100, 100)), (2, Conf(100, 100)), (3, Conf(100, 100))
        ]
        assert report.reuses == []

    def test_a_budget_event_between_tasks_makes_the_next_task_profile(self):
        # a shrink and a growth back inside task 3, both kept: the budget at
        # task 4 is the one task 3 profiled at, but the count starts over
        _, report = reuse_run(budget_schedule=((15, 300), (17, 500)))
        assert [(e.task_id, e.action) for e in report.budget_events] == [(3, "kept"), (3, "kept")]
        assert [s.task_id for s in report.selections] == [1, 2, 3, 4]
        assert report.reuses == []

    def test_a_shrink_on_a_reused_task_reselects_from_the_reused_records(self):
        from hiercl.selector import select_record

        with warnings.catch_warnings():
            # a fallback to the static split would warn
            warnings.simplefilter("error", UserWarning)
            runtime, report = reuse_run(budget_schedule=((20, 250),))
        assert report.reuses == [ReuseRecord(4, REUSE_CONF)]
        (event,) = report.budget_events
        assert (event.task_id, event.epoch, event.action) == (4, 2, "reselect")
        fitting = [r for t, r in report.profile_trace if t == 3 and r.conf.total <= 250]
        expected = select_record(fitting, runtime.config.cutline, runtime.config.selection_mode, 1 / 9)
        assert event.conf == expected.conf != default_static_conf(250, 120, 100)

    def test_task_k_profiles_with_the_kth_generator(self, monkeypatch):
        """A reused task spawns its profiling generator all the same, so the
        task after it profiles as it would have after a profiled task."""
        import hiercl.runtime as runtime_module

        spawned = []
        profile = runtime_module.profile_task

        def recorded(*args):
            spawned.append(args[-2].bit_generator.seed_seq.spawn_key[-1])
            return profile(*args)

        monkeypatch.setattr(runtime_module, "profile_task", recorded)
        # the shrink inside reused task 4 restarts the count: task 5 profiles
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, report = reuse_run(n_tasks=5, budget_schedule=((20, 250),))
        assert [r.task_id for r in report.reuses] == [4]
        assert spawned == [0, 1, 2, 4]

    @settings(max_examples=40, deadline=None)
    @given(
        n_tasks=st.integers(2, 6),
        per_class=st.integers(10, 30),
        # rows cut from the end of each task, so task sizes may differ
        trims=st.lists(st.sampled_from([0, 0, 0, 5]), min_size=6, max_size=6),
        budget_steps=st.integers(1, 3),
        schedule=st.lists(
            st.tuples(st.integers(0, 24), st.integers(1, 3)), max_size=2, unique_by=lambda e: e[0]
        ),
        seed=st.integers(0, 2**16),
    )
    # one conf fits one step, so every pick agrees: tasks 4-6 reuse it
    @example(n_tasks=6, per_class=20, trims=[0] * 6, budget_steps=1, schedule=[], seed=0)
    # smaller tasks 4-6: task 4 restarts the count, and a growth and a shrink
    # back inside task 5 restart it again, so task 6 profiles at the budget and
    # task size task 5 profiled at
    @example(
        n_tasks=6, per_class=20, trims=[0, 0, 0, 5, 5, 5], budget_steps=1,
        schedule=[(17, 2), (19, 1)], seed=0,
    )
    def test_every_task_profiles_or_reuses_under_an_unchanged_state(
        self, n_tasks, per_class, trims, budget_steps, schedule, seed
    ):
        stream = generate_stream(
            StreamSpec(n_tasks=n_tasks, classes_per_task=2, samples_per_class=per_class,
                       feature_dim=6, separation=2.0, seed=seed)
        )
        tasks = [
            Task(t.task_id, t.features[: len(t) - cut], t.labels[: len(t) - cut], t.size_bytes)
            for t, cut in zip(stream.tasks, trims)
        ]
        cfg = tiny_config(
            epochs_per_task=4,
            step=PROPERTY_STEP,
            budget_samples=budget_steps * PROPERTY_STEP,
            budget_schedule=tuple((e, b * PROPERTY_STEP) for e, b in schedule),
            profiler=ProfilerConfig(conf_sample_size=3, warmup_epochs=1, profile_epochs=1, subsample=0.3),
            seed=seed,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = run_stream(tasks, stream.probe_sets, cfg)

        selected = {s.task_id: s.conf for s in report.selections}
        reused = {r.task_id: r.conf for r in report.reuses}
        decided = [t for t in tasks if any(c[0] == t.task_id for c in report.chosen_confs)]
        budget, in_force, profiled_at, agreeing = cfg.budget_samples, None, None, 0
        for i, task in enumerate(decided):
            state = (budget, len(task))
            assert (task.task_id in selected) != (task.task_id in reused)
            if agreeing >= 2 and state == profiled_at:
                assert reused.get(task.task_id) == in_force
            else:
                assert task.task_id in selected
                pick = selected[task.task_id]
                # the first task profiles over an empty archive
                agreeing = 0 if i == 0 else (
                    agreeing + 1 if agreeing and state == profiled_at and pick == in_force else 1
                )
                profiled_at = state
            first = 1 if task.task_id in reused else cfg.profiler.warmup_epochs + 1
            epochs = [r.epoch for r in report.epoch_rows if r.task_id == task.task_id]
            assert epochs == list(range(first, cfg.epochs_per_task + 1)) or report.aborted
            in_force = [c for t, c in report.chosen_confs if t == task.task_id][-1]
            for event in report.budget_events:
                if event.task_id == task.task_id:
                    budget, agreeing = event.new_budget, 0


class TestAsynchrony:
    def _run(self, bandwidth):
        stream = tiny_stream(n_tasks=2, per_class=60)
        cfg = tiny_config(
            epochs_per_task=8,
            fixed_swap_ratio=1.0,
            io_bandwidth_bytes_per_s=bandwidth,
        )
        return run_stream(stream.tasks, stream.probe_sets, cfg)

    def test_bandwidth_never_touches_wall_time(self):
        fast = self._run(50_000.0)
        slow = self._run(25_000.0)
        assert fast.ledger.wall_time_seconds == slow.ledger.wall_time_seconds
        assert fast.ledger.gpu_dynamic == slow.ledger.gpu_dynamic
        assert fast.swap_totals["issued"] == slow.swap_totals["issued"]
        assert (
            slow.swap_totals["applied"] <= fast.swap_totals["applied"]
        )


class TestStaticPolicy:
    def test_policy_conf_is_respected(self):
        stream = tiny_stream(n_tasks=2)
        conf = Conf(200, 300)
        report = run_stream(
            stream.tasks, stream.probe_sets, tiny_config(), StaticConfPolicy(conf)
        )
        assert all(c == conf for _, c in report.chosen_confs)
        assert not report.selections  # no profiling happened
        assert report.ledger.profiling == 0.0

    def test_infeasible_policy_conf_rejected(self):
        stream = tiny_stream(n_tasks=1)
        runtime = Runtime(tiny_config(budget_samples=400), StaticConfPolicy(Conf(400, 400)))
        refused = "policy conf Conf(sb_size=400, em_size=400) exceeds budget 400"
        with pytest.raises(ValueError, match=re.escape(refused)):
            runtime.run(stream.tasks, stream.probe_sets)
        assert runtime.ledger.total == 0


    def test_fixed_conf_meets_a_schedule_shrink_with_the_grid_conf(self):
        # task 3 used to end in "policy conf ... exceeds budget 60"
        stream = generate_stream(
            StreamSpec(n_tasks=3, classes_per_task=3, samples_per_class=30, feature_dim=8)
        )
        cfg = RunConfig(epochs_per_task=3, step=30, budget_samples=180, budget_schedule=((4, 60),))
        policy = make_policy("static", stream, cfg)
        with pytest.warns(UserWarning) as caught:
            report = run_stream(stream.tasks, stream.probe_sets, cfg, policy)
        # the shrink within task 2, then task 3's policy conf
        assert [str(w.message) for w in caught] == [
            "conf Conf(sb_size=90, em_size=90) exceeds budget 60; "
            "falling back to the static split Conf(sb_size=30, em_size=30)",
            "policy conf Conf(sb_size=90, em_size=90) exceeds budget 60; "
            "falling back to the static split Conf(sb_size=30, em_size=30)",
        ]
        assert sorted(report.accuracy_matrix) == [1, 2, 3] and not report.aborted
        fixed, fallback = Conf(90, 90), Conf(30, 30)
        assert report.chosen_confs == [(1, fixed), (2, fixed), (2, fallback), (3, fallback)]
        live = [180] * 3 + [60] * 6
        assert len(report.epoch_rows) == len(live)
        assert all(r.sb_size + r.em_size <= b for r, b in zip(report.epoch_rows, live))


class TestAbort:
    def test_divergence_yields_partial_report(self):
        stream = tiny_stream(n_tasks=2)
        # conflicting duplicate labels make a saturated model infinitely wrong
        t1 = stream.tasks[0]
        clash = np.concatenate([t1.features, t1.features[:1]])
        labels = np.append(t1.labels, t1.labels[1])
        tasks = [Task(1, clash, labels, t1.size_bytes), stream.tasks[1]]
        cfg = tiny_config(learning_rate=1e30)
        report = run_stream(tasks, stream.probe_sets, cfg)
        assert report.aborted
        assert report.abort_reason
        assert len(report.accuracy_matrix) <= 1


class TestProbeSets:
    """A run checks its probe sets before it trains: every key names a task,
    every probe has the stream's dimension, some task has a probe, and an
    adaptive run's first task has a probe of its own classes."""

    def _setup(self, strategy, edit):
        """A runtime, the tasks of a small stream and its probe sets after
        ``edit``."""
        stream = generate_stream(
            StreamSpec(n_tasks=3, classes_per_task=3, samples_per_class=40, feature_dim=8)
        )
        cfg = RunConfig(epochs_per_task=3, step=30, budget_samples=180)
        probe_sets = dict(stream.probe_sets)
        edit(probe_sets)
        policy = None if strategy == "adaptive" else make_policy(strategy, stream, cfg)
        return Runtime(cfg, policy), stream.tasks, probe_sets

    @pytest.mark.parametrize("strategy", ["adaptive", "static"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda sets: sets.update({2: [Sample(s.class_label, s.features[:5]) for s in sets[2]]}),
                "invalid probes: task 2 has a probe not of the stream dim 8",
            ),
            (lambda sets: sets.update({7: sets[1]}), "invalid probes: no task has id 7"),
            (lambda sets: sets.clear(), "invalid probes: the stream has no probe"),
        ],
        ids=["short-probe", "unknown-key", "no-probes"],
    )
    def test_bad_probe_sets_fail_before_training(self, strategy, edit, message):
        runtime, tasks, probe_sets = self._setup(strategy, edit)
        with pytest.raises(ValueError) as exc:
            runtime.run(tasks, probe_sets)
        assert str(exc.value) == message
        assert runtime.state is None and len(runtime.table.labels) == 0

    def test_task_without_probes_is_scored_on_the_others(self):
        runtime, tasks, probe_sets = self._setup("static", lambda sets: sets.pop(2))
        with pytest.warns(UserWarning, match=r"no test samples for classes \[3, 4, 5\]"):
            report = runtime.run(tasks, probe_sets)
        assert [sorted(row) for row in report.accuracy_matrix.values()] == [[1], [1], [1, 3]]

    @pytest.mark.parametrize(
        "edit",
        [lambda sets: sets.pop(1), lambda sets: sets.update({1: sets[2]})],
        ids=["no-probes", "other-classes"],
    )
    def test_adaptive_run_needs_probes_of_its_first_task(self, edit):
        # profiling scores the first task on that task's probes alone
        runtime, tasks, probe_sets = self._setup("adaptive", edit)
        with pytest.raises(ValueError) as exc:
            runtime.run(tasks, probe_sets)
        assert str(exc.value) == "invalid probes: task 1 has no probe of its own classes to profile on"
        assert runtime.ledger.total == 0


def _rows_digest(rows) -> str:
    return hashlib.sha256(",".join(map(str, rows.tolist())).encode()).hexdigest()


class TestMemorySwapPath:
    def test_congested_edge_stream_pinned(self):
        """Three tasks of 3 KiB samples under a mid-run external I/O load.
        The swap totals, I/O joules, device time, controller moves and the
        final EM are pinned exactly, so a refactor of the memory or swap
        layers that moves any of them fails here. None of them depends on
        the learner."""
        stream = generate_stream(
            StreamSpec(
                n_tasks=3,
                classes_per_task=10,
                samples_per_class=200,
                feature_dim=32,
                separation=0.8,
                size_bytes=3072,
                seed=0,
            )
        )
        cfg = RunConfig(
            hidden_width=16,
            learning_rate=0.05,
            budget_samples=5000,
            io_bandwidth_bytes_per_s=1.0e8,
            external_io_load=((60.0, 9.6e7), (140.0, 0.0)),
            cost=CostModel(seconds_per_sample_step=4.6e-4),
        )
        runtime = Runtime(cfg, make_policy("static", stream, cfg))
        report = runtime.run(stream.tasks, stream.probe_sets)
        assert report.swap_totals == {
            "issued": 19500, "applied": 18432, "dropped": 1068, "pending": 0
        }
        assert report.ledger.io == 2.529432000003259
        assert report.ledger.wall_time_seconds == 96.59999999999994
        assert len(report.controller_decisions) == 1
        assert _rows_digest(runtime.em.rows()) == (
            "a31bb3a2a8c97d3584540c9c76cc6fa3c62c5d2b27ea4f0682c66266210cf619"
        )

    def test_idle_desk_stream_pinned(self):
        """Three desk tasks with a static SB 1500 / EM 1000 split and full
        swapping on an idle 100 MB/s channel. EM holds part of each class's
        archive pool, so every landed transfer finds a fresh sample and
        applies. None of the values depends on the learner."""
        stream = generate_stream(
            StreamSpec(
                n_tasks=3,
                classes_per_task=10,
                samples_per_class=200,
                feature_dim=32,
                separation=0.8,
                seed=0,
            )
        )
        cfg = RunConfig(
            hidden_width=16,
            budget_samples=2500,
            io_bandwidth_bytes_per_s=1.0e8,
            cost=CostModel(seconds_per_sample_step=1.0e-4),
        )
        runtime = Runtime(cfg, make_policy("static", stream, cfg))
        report = runtime.run(stream.tasks, stream.probe_sets)
        assert report.chosen_confs[0][1] == Conf(sb_size=1500, em_size=1000)
        assert report.swap_totals == {
            "issued": 38000, "applied": 38000, "dropped": 0, "pending": 0
        }
        assert report.ledger.io == 0.00972800000149654
        assert _rows_digest(runtime.em.rows()) == (
            "adb4297b228ff147ffbb129f5bd599df52f1677bb07b2ad25887c25d084e8581"
        )


def _weights_digest(state) -> str:
    h = hashlib.sha256()
    for arr in (state.w1, state.b1, state.w2, state.b2):
        h.update(arr.tobytes())
    return h.hexdigest()


class TestLearnerPathPinned:
    """Exact learner outputs of two small runs, recorded before samples were
    packed into one table. A change to how batches, probes or the profiler's
    subsamples reach the learner that moves a single bit fails here. The
    losses and the digests were re-recorded when the training step folded
    each layer's bias into its matrix product, and again when it moved to
    feature-major hidden activations, each of which moves them by rounding
    alone; the accuracies and profile records held."""

    def test_tiny_adaptive_run_pinned(self):
        stream = tiny_stream()
        runtime = Runtime(tiny_config())
        report = runtime.run(stream.tasks, stream.probe_sets)
        # re-recorded when each profiled task began continuing from the
        # profiler's warm state: 4 live epochs per task after 2 of warmup
        assert report.final_average_accuracy == 0.8333333333333334
        assert report.accuracy_matrix == {
            1: {1: 1.0}, 2: {1: 0.6666666666666666, 2: 1.0}
        }
        assert [r.loss for r in report.epoch_rows] == [
            0.11266839924526538, 0.07836673404920483, 0.06354226364221675,
            0.051704149521409386, 0.2689806169116814, 0.13011115077223384,
            0.08459033445150178, 0.0613188192026565,
        ]
        records = [
            (t, r.conf.sb_size, r.conf.em_size, r.accuracy_estimate, r.energy_estimate)
            for t, r in report.profile_trace
        ]
        assert records == [
            (1, 100, 100, 1.0, 0.5703),
            (1, 100, 300, 1.0, 0.5703),
            (1, 200, 200, 1.0, 0.6844320000000002),
            (1, 200, 300, 1.0, 0.6844320000000002),
            (2, 100, 0, 0.9583333333333334, 0.5703),
            (2, 100, 300, 0.9583333333333334, 1.255452),
            (2, 200, 300, 0.9583333333333334, 1.3697280000000003),
            (2, 100, 100, 0.9583333333333334, 1.1412),
        ]
        assert _weights_digest(runtime.state) == (
            "d1fef5c805232a1371122db610f83e73fb27c91ec4d9ec3180ef8b1af641fb2a"
        )

    def test_static_desk_run_pinned(self):
        stream = generate_stream(
            StreamSpec(
                n_tasks=2,
                classes_per_task=10,
                samples_per_class=200,
                feature_dim=32,
                separation=0.8,
                seed=0,
            )
        )
        cfg = RunConfig(
            hidden_width=16,
            budget_samples=2500,
            io_bandwidth_bytes_per_s=1.0e8,
            cost=CostModel(seconds_per_sample_step=1.0e-4),
        )
        runtime = Runtime(cfg, make_policy("static", stream, cfg))
        report = runtime.run(stream.tasks, stream.probe_sets)
        assert report.final_average_accuracy == 0.9525
        assert report.accuracy_matrix == {1: {1: 0.985}, 2: {1: 0.9349999999999999, 2: 0.97}}
        losses = [r.loss for r in report.epoch_rows]
        assert len(losses) == 40 and losses[-1] == 0.15073277732500234
        assert hashlib.sha256(repr(losses).encode()).hexdigest() == (
            "a465dd405de7f3e78512cf6d7d531ee75e96d64c3ab78b147adcbee7b48fa3ed"
        )
        assert report.profile_trace == []
        assert _weights_digest(runtime.state) == (
            "039426813078f37220f0cd2a9076af8de846f220ee11428cd8e8d815a65c9118"
        )


    # the report digests were re-recorded when RunReport.final_per_class and
    # ProfileRecord.epoch_measured were deleted: each is the old repr with
    # those fields cut out; and again when RunReport gained an empty
    # ``reuses`` list
    @pytest.mark.parametrize(
        "strategy, report_digest, weights_digest",
        [
            # re-recorded when every profiling subsample became EM's class-quota
            # draw, and again when each profiled task began continuing from the
            # profiler's warm state (and the config got a warmup below its epochs)
            (
                "adaptive",
                "6fd673cc3dc49f8ad862bb12af1607ead8f4e392973d11cbd7d7eacefb421ce5",
                "fda078d03b195d819e796db62c5dd2cef21b4ef4db28310600f84cd960e50488",
            ),
            (
                "static",
                "98ce3b4440de15c31433a5656d0094f295150eec2e42e9384519034dd5ddd4b3",
                "c3f9c39e5d2862b7827eadf3f35a74d0c9b78e6c6efac51c89fe712ed4ddc62f",
            ),
        ],
        ids=["adaptive", "static"],
    )
    def test_domain_incremental_runs_pinned(self, strategy, report_digest, weights_digest):
        """Every task of a domain-incremental stream holds every class, so
        its probes in stream order interleave the classes of every task."""
        stream = generate_stream(
            StreamSpec(
                n_tasks=3,
                classes_per_task=4,
                samples_per_class=60,
                feature_dim=8,
                domain_incremental=True,
                drift=0.5,
            )
        )
        # a warmup of 2 of the 4 epochs: a profiled run needs a live epoch after it
        cfg = RunConfig(
            epochs_per_task=4, step=60, budget_samples=480, domain_incremental=True,
            profiler=ProfilerConfig(warmup_epochs=2),
        )
        policy = None if strategy == "adaptive" else make_policy(strategy, stream, cfg)
        runtime = Runtime(cfg, policy)
        report = runtime.run(stream.tasks, stream.probe_sets)
        assert hashlib.sha256(repr(report).encode()).hexdigest() == report_digest
        assert _weights_digest(runtime.state) == weights_digest


class BudgetStaticPolicy:
    """The static split of the budget in effect when each task arrives."""

    def conf_for_task(self, task_index, task_size, budget, step) -> Conf:
        return default_static_conf(budget, task_size, step)


PROPERTY_STEP = 20


class TestRunProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n_tasks=st.integers(1, 3),
        classes=st.integers(2, 3),
        per_class=st.integers(10, 30),
        domain_incremental=st.booleans(),
        adaptive=st.booleans(),
        budget_steps=st.integers(2, 8),
        # one entry per epoch: a config refuses two at one epoch
        schedule=st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 8)), max_size=3, unique_by=lambda e: e[0]
        ),
        bandwidth=st.sampled_from([1e3, 1e5, 1e8]),
        seed=st.integers(0, 2**16),
    )
    # two steps due at the first poll (epoch 1): 4 -> 1 -> 2 steps is a net shrink
    @example(
        n_tasks=1, classes=2, per_class=10, domain_incremental=False, adaptive=False,
        budget_steps=4, schedule=[(0, 1), (1, 2)], bandwidth=1e3, seed=0,
    )
    # a profiled task's first row is global epoch 2, after a 1-epoch warmup:
    # its poll sees both steps, 6 -> 1 -> 2, and the row must fit 2 steps
    @example(
        n_tasks=1, classes=2, per_class=11, domain_incremental=False, adaptive=True,
        budget_steps=6, schedule=[(0, 1), (2, 2)], bandwidth=1e3, seed=0,
    )
    def test_invariants_hold_over_random_streams_and_budgets(
        self, n_tasks, classes, per_class, domain_incremental, adaptive,
        budget_steps, schedule, bandwidth, seed,
    ):
        stream = generate_stream(
            StreamSpec(
                n_tasks=n_tasks,
                classes_per_task=classes,
                samples_per_class=per_class,
                feature_dim=6,
                separation=2.0,
                drift=0.3 if domain_incremental else 0.0,
                domain_incremental=domain_incremental,
                seed=seed,
            )
        )
        cfg = tiny_config(
            epochs_per_task=4,
            step=PROPERTY_STEP,
            budget_samples=budget_steps * PROPERTY_STEP,
            budget_schedule=tuple((e, b * PROPERTY_STEP) for e, b in schedule),
            profiler=ProfilerConfig(
                conf_sample_size=3, warmup_epochs=1, profile_epochs=1, subsample=0.3
            ),
            io_bandwidth_bytes_per_s=bandwidth,
            domain_incremental=domain_incremental,
            seed=seed,
        )
        runtime = Runtime(cfg, None if adaptive else BudgetStaticPolicy())
        with warnings.catch_warnings():
            # a shrink with no fitting profiled conf falls back with a warning
            warnings.simplefilter("ignore", UserWarning)
            report = runtime.run(stream.tasks, stream.probe_sets)

        # the schedule is polled once per epoch, in sorted order; a row is
        # written after its global epoch's poll, and a profiled task writes
        # no row for its warmup epochs
        position = {task.task_id: k for k, task in enumerate(stream.tasks)}
        for row in report.epoch_rows:
            epoch = position[row.task_id] * cfg.epochs_per_task + row.epoch
            budget = cfg.budget_samples
            for at, value in sorted(cfg.budget_schedule):
                if at <= epoch:
                    budget = value
            assert row.sb_size + row.em_size <= budget
        em, archive = runtime.em, runtime.archive
        assert spread_ok(em, archive)
        totals = report.swap_totals
        assert totals["pending"] == 0
        assert totals["issued"] == totals["applied"] + totals["dropped"]
        ledger = report.ledger.as_dict()
        assert ledger["total"] == pytest.approx(
            sum(ledger[c] for c in LEDGER_COMPONENTS), rel=1e-9
        )
        joules = [r.joules_cum for r in report.epoch_rows]
        assert all(b >= a for a, b in zip(joules, joules[1:]))
        held = em.rows().tolist()
        archived = {r for c in archive.classes() for r in archive.class_rows(c).tolist()}
        assert len(held) == len(set(held))
        assert set(held) <= archived


@functools.lru_cache(maxsize=None)
def _contract_run(bandwidth: float, load: tuple) -> tuple:
    stream = tiny_stream(n_tasks=2, per_class=60)
    cfg = tiny_config(
        epochs_per_task=8, io_bandwidth_bytes_per_s=bandwidth, external_io_load=load
    )
    report = run_stream(
        stream.tasks, stream.probe_sets, cfg, StaticConfPolicy(Conf(200, 100))
    )
    return report.ledger, report.swap_totals


class TestAsynchronyContract:
    @settings(max_examples=60, deadline=None)
    @given(
        bandwidth=st.floats(1e3, 1e7),
        # one step per time: a config refuses two at one time
        load=st.lists(
            st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 1e7)), max_size=3,
            unique_by=lambda step: step[0],
        ),
    )
    def test_channel_moves_only_swaps_and_io(self, bandwidth, load):
        """Training never waits on I/O: whatever the bandwidth and external
        load, device seconds and the GPU, static, RAM and profiling joules
        equal the idle channel's; only swap counts and I/O joules may move."""
        idle, _ = _contract_run(1e8, ())
        ledger, totals = _contract_run(bandwidth, tuple(load))
        assert ledger.wall_time_seconds == idle.wall_time_seconds
        for component in ("gpu_dynamic", "static", "ram", "profiling"):
            assert getattr(ledger, component) == getattr(idle, component), component
        assert totals["issued"] == totals["applied"] + totals["dropped"] + totals["pending"]
