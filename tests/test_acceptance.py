"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come. Desk-scale streams stand in for real datasets, so the accuracy-side
criteria assert exact algorithmic behavior, property suites, and model-level
trends rather than device-measured numbers.
"""

import contextlib
import statistics
import time

import numpy as np
import pytest

from hiercl.control import SwapController, classify_io, plan_from_ratio
from hiercl.domain import Conf, ProfileRecord
from hiercl.harness import (
    HeuristicPolicy,
    StaticConfPolicy,
    StreamSpec,
    default_static_conf,
    emit_report,
    generate_stream,
    run_utility,
)
from hiercl.learner import init_learner, probe_arrays
from hiercl.memory import EpisodicMemory, StorageArchive, flush
from hiercl.profiler import ProfilerConfig, build_search_space, profile_task
from hiercl.runtime import RunConfig, run_stream
from hiercl.selector import HIGHEST_UTILITY, LOWEST_ENERGY, select_record

from test_selector import energy_accuracy_table, oracle_select, random_records
from conftest import as_probes, exhaustive_units, fill, labeled, make_task, packed, reserved, spread_ok


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def desk_spec(seed: int, n_tasks: int = 10) -> StreamSpec:
    return StreamSpec(
        n_tasks=n_tasks,
        classes_per_task=10,
        samples_per_class=200,
        feature_dim=32,
        separation=0.8,
        seed=seed,
    )


def desk_config(budget: int, seed: int, **over) -> RunConfig:
    base = dict(
        epochs_per_task=20,
        learning_rate=0.1,
        budget_samples=budget,
        seed=seed,
    )
    base.update(over)
    return RunConfig(**base)


def test_criterion_1_aimd_exactness():
    with criterion(1, "AIMD trace 1.0 -> 0.5 -> 0.25 under two congested probes"):
        start = time.perf_counter()
        ctl = SwapController(ratio=1.0)
        trace = [ctl.ratio]
        for epoch in (1, 2):
            state = classify_io(0.5, 0, ctl.ratio, ctl.cfg)
            ctl.react(state, epoch)
            trace.append(ctl.ratio)
        assert trace == [1.0, 0.5, 0.25]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_interval_mapping_table():
    with criterion(2, "ratio -> (interval, percent) mapping table"):
        expected = {
            1.0: (1, 1.0),
            0.5: (2, 1.0),
            0.25: (4, 1.0),
            0.20: (5, 1.0),
            0.10: (5, 0.5),
        }
        for ratio, plan in expected.items():
            assert plan_from_ratio(ratio) == plan, ratio
            k, percent = plan
            if ratio < 0.20:
                assert percent == ratio * k  # sub-knee regime is exact
            else:
                upper = (1.0 / (k - 1) - 1.0 / k) if k > 1 else 0.5
                lower = 1.0 / k - 1.0 / (k + 1)
                assert abs(percent / k - ratio) <= max(upper, lower)


def test_criterion_3_selector_oracle_equivalence():
    with criterion(3, "select(HU/LE) equals brute force on 1000 random lists"):
        rng = np.random.default_rng(424242)
        for trial in range(1000):
            n = int(rng.integers(5, 201))
            records = random_records(rng, n)
            fraction = float(rng.choice([0.1, 0.2, 0.5, 1.0]))
            baseline = float(rng.choice([0.0, 0.1]))
            for mode in (HIGHEST_UTILITY, LOWEST_ENERGY):
                got = select_record(records, fraction, mode, baseline).conf
                want = oracle_select(records, fraction, mode, baseline)
                assert got == want, f"trial {trial}, mode {mode}"
        # deliberate tie fixture: identical accuracy and energy everywhere
        ties = [
            ProfileRecord(Conf(sb, em), 0.5, 100.0)
            for sb in (500, 1000)
            for em in (0, 500, 1000)
        ]
        for mode in (HIGHEST_UTILITY, LOWEST_ENERGY):
            assert select_record(ties, 0.5, mode).conf == oracle_select(ties, 0.5, mode)


def test_criterion_4_fixture_reproduction():
    with criterion(4, "fixture: HU->(1K,2K), LE->(1K,1.5K), no-cutline HU->(0.5K,0.5K)"):
        table = energy_accuracy_table()
        assert select_record(table, 0.2, HIGHEST_UTILITY).conf == Conf(1000, 2000)
        assert select_record(table, 0.2, LOWEST_ENERGY).conf == Conf(1000, 1500)
        assert select_record(table, 1.0, HIGHEST_UTILITY).conf == Conf(500, 500)


def test_criterion_5_class_balance_property():
    with criterion(5, "10,000 random flush/resize ops keep per-class spread <= 1"):
        start = time.perf_counter()
        rng = np.random.default_rng(5150)
        table = reserved(20_000)
        archive = StorageArchive(table)
        em = EpisodicMemory(120, table)
        task_id = filled = 0
        ops = 0
        while ops < 10_000:
            if not archive.classes() or rng.random() < 0.04:
                task_id += 1
                per_class = int(rng.integers(3, 30))
                labels = np.repeat(range((task_id - 1) * 2, task_id * 2), per_class)
                flush(fill(table, filled, labeled(labels, task_id=task_id)), em, archive, rng)
                filled += len(labels)
            else:
                em.resize(int(rng.integers(0, 30)) * 10, archive, rng)
            ops += 1
            assert spread_ok(em, archive), f"spread violated at op {ops}"
            rows = em.rows().tolist()
            assert len(rows) == len(set(rows))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_6_swap_ratio_accuracy_trend():
    with criterion(6, "median accuracy: ratio 0.2 beats 0, and 0.2->1.0 gain is smaller"):
        start = time.perf_counter()
        conf = StaticConfPolicy(Conf(1500, 1000))
        medians = {}
        for ratio in (0.0, 0.2, 1.0):
            accs = []
            for seed in range(7):
                stream = generate_stream(desk_spec(1000 + seed))
                cfg = desk_config(2500, seed, fixed_swap_ratio=ratio)
                rep = run_stream(stream.tasks, stream.probe_sets, cfg, conf)
                accs.append(rep.final_average_accuracy)
            medians[ratio] = statistics.median(accs)
        low_gain = medians[0.2] - medians[0.0]
        high_gain = medians[1.0] - medians[0.2]
        assert low_gain > 0.0, f"no benefit at knee: {medians}"
        assert high_gain < low_gain, f"no plateau: {medians}"
        assert time.perf_counter() - start < 300.0


def test_criterion_7_forgetting_and_replay_witnesses():
    with criterion(7, "em=0 forgetting and replay benefit hold on 5 of 5 seeds"):
        for seed in range(5):
            stream = generate_stream(desk_spec(2000 + seed, n_tasks=5))
            bare = run_stream(
                stream.tasks,
                stream.probe_sets,
                desk_config(2500, seed, fixed_swap_ratio=0.0),
                StaticConfPolicy(Conf(2000, 0)),
            )
            after_t1 = bare.accuracy_matrix[1][1]
            after_t5 = bare.accuracy_matrix[5][1]
            assert after_t5 < 0.5 * after_t1, (
                f"seed {seed}: task-1 accuracy kept {after_t5:.3f} "
                f"of {after_t1:.3f}; forgetting witness failed"
            )
            replay = run_stream(
                stream.tasks,
                stream.probe_sets,
                desk_config(2500, seed, fixed_swap_ratio=1.0),
                StaticConfPolicy(Conf(1500, 1000)),
            )
            assert replay.final_average_accuracy > bare.final_average_accuracy, (
                f"seed {seed}: replay did not improve final accuracy"
            )


def test_criterion_8_asynchrony_contract():
    with criterion(8, "halving I/O bandwidth changes wall time by exactly 0"):
        def run(bandwidth):
            stream = generate_stream(desk_spec(3000, n_tasks=4))
            cfg = desk_config(
                2500,
                0,
                fixed_swap_ratio=1.0,
                io_bandwidth_bytes_per_s=bandwidth,
            )
            return run_stream(
                stream.tasks, stream.probe_sets, cfg, StaticConfPolicy(Conf(1500, 1000))
            )

        fast = run(1.3e6)
        slow = run(0.65e6)
        assert fast.ledger.wall_time_seconds == slow.ledger.wall_time_seconds
        assert fast.ledger.gpu_dynamic == slow.ledger.gpu_dynamic
        assert fast.ledger.static == slow.ledger.static
        assert fast.ledger.ram == slow.ledger.ram
        # only the swap bookkeeping moves
        assert fast.swap_totals["issued"] == slow.swap_totals["issued"]
        assert fast.swap_totals["applied"] > slow.swap_totals["applied"]


def test_criterion_9_profiler_cost_ratio():
    with criterion(9, "profiling cost reduction matches (|space|/14)(E/5)(1/0.05) within 20%"):
        # task-2 style scenario: 10 old classes archived, 10 new arriving
        rng = np.random.default_rng(7)
        table, task_rows, *pool_rows = packed(
            make_task(2, range(10, 20), per_class=200, dim=16),
            *(labeled([c] * 200, dim=16, seed=c + 1) for c in range(10)),
        )
        em_pool = dict(enumerate(pool_rows))
        probe = as_probes(labeled(np.arange(400) % 20, dim=16, seed=99))
        state = init_learner(16, hidden_width=16, seed=0)
        from hiercl.learner import train_epoch

        train_epoch(state, [np.concatenate([rows[:2] for rows in em_pool.values()])], 0.1, table)

        cfg = ProfilerConfig()  # 14 confs, 5 epochs, 5% subsample
        full_epochs = 20
        from hiercl.domain import EnergyLedger

        archive = StorageArchive(table)
        for rows in em_pool.values():
            archive.append(rows)
        outcome = profile_task(
            live_state=state,
            task_rows=task_rows,
            archive=archive,
            probes=probe_arrays(probe),
            budget_samples=5000,
            reference_target=None,
            config=RunConfig(
                profiler=cfg, epochs_per_task=full_epochs, learning_rate=0.1, batch_size=32, step=500
            ),
            rng=rng,
            ledger=EnergyLedger(),
        )
        space = build_search_space(5000, len(task_rows), 500)
        em_available = sum(len(v) for v in em_pool.values())
        exhaustive = exhaustive_units(space, full_epochs, len(task_rows), em_available)
        measured = exhaustive / outcome.evaluation_units
        analytic = (len(space) / cfg.conf_sample_size) * (full_epochs / cfg.profile_epochs) * (1 / cfg.subsample)
        assert measured == pytest.approx(analytic, rel=0.2), (
            f"measured {measured:.1f} vs analytic {analytic:.1f}"
        )


def test_criterion_10_energy_conservation():
    with criterion(10, "ledger components sum to total (1e-9 rel), monotone per epoch"):
        stream = generate_stream(desk_spec(4000, n_tasks=4))
        report = run_stream(stream.tasks, stream.probe_sets, desk_config(2500, 0))
        d = report.ledger.as_dict()
        components = sum(
            d[k] for k in ("gpu_dynamic", "static", "io", "ram", "profiling")
        )
        assert d["total"] == pytest.approx(components, rel=1e-9)
        joules = [r.joules_cum for r in report.epoch_rows]
        assert all(b >= a for a, b in zip(joules, joules[1:]))


def test_criterion_11_cost_effectiveness_trend():
    with criterion(11, "adaptive-HU utility >= best static baseline in 2 of 3 budgets"):
        start = time.perf_counter()
        wins = 0
        details = []
        for budget in (1000, 2500, 5000):
            utilities = {"adaptive": [], "static": [], "heuristic": []}
            for seed in range(7):
                stream = generate_stream(desk_spec(5000 + seed))
                cfg = desk_config(budget, seed)
                policies = {
                    "adaptive": None,
                    "static": StaticConfPolicy(
                        default_static_conf(budget, stream.spec.task_size, cfg.step)
                    ),
                    "heuristic": HeuristicPolicy(1.0),
                }
                for name, policy in policies.items():
                    rep = run_stream(stream.tasks, stream.probe_sets, cfg, policy)
                    utilities[name].append(run_utility(rep))
            med = {k: statistics.median(v) for k, v in utilities.items()}
            best_baseline = max(med["static"], med["heuristic"])
            details.append(f"budget {budget}: {med}")
            if med["adaptive"] >= best_baseline:
                wins += 1
        assert wins >= 2, "; ".join(details)
        assert time.perf_counter() - start < 1800.0


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "identical seeds produce byte-identical traces"):
        def emit(outdir):
            stream = generate_stream(desk_spec(6000, n_tasks=3))
            cfg = desk_config(2500, 7)
            report = run_stream(stream.tasks, stream.probe_sets, cfg)
            return emit_report(report, outdir, label="repeat")

        a = emit(tmp_path / "a")
        b = emit(tmp_path / "b")
        for key in ("summary", "trace", "decisions", "scatter"):
            assert a[key].read_bytes() == b[key].read_bytes(), key
