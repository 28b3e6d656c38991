from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercl.domain import Conf, EnergyLedger
from hiercl.learner import init_learner, probe_arrays, train_epoch
from hiercl.memory import StorageArchive, class_quotas
from hiercl.profiler import (
    ProfilerConfig,
    _balanced_take,
    build_search_space,
    draw_subsample,
    evaluate_conf,
    nearest_conf,
    profile_task,
    sample_confs,
)
from hiercl.harness import StreamSpec, generate_stream, make_policy
from hiercl.runtime import RunConfig, run_stream
from conftest import as_probes, exhaustive_units, labeled, make_task, reserved, state_digest


class TestSearchSpace:
    def test_brute_enumeration_oracle(self):
        space = build_search_space(2000, task_size=1500, step=500)
        # independent double loop
        expected = set()
        for sb in (500, 1000, 1500):
            for em in range(0, 2001, 500):
                if sb + em <= 2000:
                    expected.add((sb, em))
        assert {(c.sb_size, c.em_size) for c in space} == expected
        assert len(space) == 9

    def test_budget_equals_step(self):
        assert build_search_space(500, task_size=1500, step=500) == [Conf(500, 0)]

    def test_small_task_bounds_sb(self):
        space = build_search_space(5000, task_size=500, step=500)
        assert max(c.sb_size for c in space) == 500

    def test_budget_below_step_rejected(self):
        with pytest.raises(ValueError):
            build_search_space(400, task_size=1000, step=500)

    @given(
        budget=st.integers(min_value=1, max_value=40),
        task=st.integers(min_value=1, max_value=20_000),
        step_units=st.sampled_from([100, 250, 500]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_arithmetic(self, budget, task, step_units):
        budget_samples = budget * step_units
        space = build_search_space(budget_samples, task, step_units)
        assert space
        for c in space:
            assert c.sb_size + c.em_size <= budget_samples
            assert c.sb_size % step_units == 0
            assert c.em_size % step_units == 0
            assert c.sb_size >= step_units


class TestSampleConfs:
    def test_fourteen_from_larger_space(self):
        space = build_search_space(10_000, task_size=5000, step=500)
        assert len(space) > 14
        picked = sample_confs(space, 14, np.random.default_rng(0))
        assert len(picked) == len(set(picked)) == 14

    def test_small_space_returns_all(self):
        space = build_search_space(1000, task_size=1000, step=500)
        picked = sample_confs(space, 14, np.random.default_rng(0))
        assert picked == space

    def test_reference_always_included(self):
        space = build_search_space(10_000, task_size=5000, step=500)
        ref = Conf(500, 9500)
        for seed in range(20):
            picked = sample_confs(space, 5, np.random.default_rng(seed), reference=ref)
            assert ref in picked and len(picked) == 5

    def test_seed_stability(self):
        space = build_search_space(10_000, task_size=5000, step=500)
        a = sample_confs(space, 14, np.random.default_rng(42))
        b = sample_confs(space, 14, np.random.default_rng(42))
        assert a == b


class TestReferenceConf:
    def test_first_task_reference_is_the_static_baselines_conf(self):
        # an even split of this budget is (200, 200); the static split is (300, 200)
        stream = generate_stream(
            StreamSpec(n_tasks=1, classes_per_task=4, samples_per_class=100, feature_dim=8)
        )
        cfg = RunConfig(
            epochs_per_task=2, step=100, budget_samples=500,
            profiler=ProfilerConfig(conf_sample_size=1, warmup_epochs=1, profile_epochs=1),
        )
        assert len(stream.tasks[0]) == 400
        report = run_stream(stream.tasks, stream.probe_sets, cfg)
        # one conf to sample, so the only record is the carried reference
        assert [r.conf for _, r in report.profile_trace] == [
            make_policy("static", stream, cfg).conf
        ]

    def test_nearest_prefers_l1_distance(self):
        space = build_search_space(3000, task_size=3000, step=500)
        assert nearest_conf(space, Conf(1000, 1500)) == Conf(1000, 1500)
        got = nearest_conf(space, Conf(2600, 2600))
        assert got.total <= 3000
        # closest grid point under the budget plane
        assert abs(got.sb_size - 2600) + abs(got.em_size - 2600) == min(
            abs(c.sb_size - 2600) + abs(c.em_size - 2600) for c in space
        )


def class_pools(sizes, seed=0):
    """Per-class pools of distinct rows, ``sizes[c]`` rows for class ``c``,
    with the rows of all classes shuffled together."""
    rows = np.random.default_rng(seed).permutation(sum(sizes))
    ends = np.cumsum(sizes)
    return {c: rows[end - size : end] for c, (size, end) in enumerate(zip(sizes, ends))}


def classes_of(picked, pools):
    return [c for row in picked.tolist() for c, pool in pools.items() if row in pool]


class TestCoverage:
    """A profiling subsample is ``draw_subsample``'s one class-quota take."""

    def test_every_pool_class_represented(self):
        pools = class_pools([20] * 7)
        rng = np.random.default_rng(0)
        for fraction in (0.01, 0.05, 0.1, 0.5):
            assert set(classes_of(draw_subsample(pools, 140, fraction, rng), pools)) == set(range(7))

    def test_one_row_per_class_when_the_fraction_is_too_small(self):
        # round(0.02 * 100) = 2 rows cannot cover 10 classes: one row each
        pools = class_pools([10] * 10)
        for seed in range(20):
            picked = draw_subsample(pools, 100, 0.02, np.random.default_rng(seed))
            assert sorted(classes_of(picked, pools)) == list(range(10))

    def test_no_duplicates(self):
        pools = class_pools([10] * 5, seed=1)
        picked = draw_subsample(pools, 50, 0.4, np.random.default_rng(1))
        assert len(picked) == 20
        assert len(set(picked.tolist())) == 20
        assert set(picked.tolist()) <= set(np.concatenate(list(pools.values())).tolist())

    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        inuse_at=st.floats(0.0, 1.0),
        fraction=st.sampled_from([0.01, 0.05, 0.1, 0.3, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_class_quota_take_of_the_rule_size(self, sizes, inuse_at, fraction, seed):
        pools = class_pools(sizes, seed)
        inuse = 1 + round(inuse_at * (sum(sizes) - 1))
        n = min(inuse, max(round(fraction * inuse), len(sizes)))
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        picked = draw_subsample(pools, inuse, fraction, rng)

        assert len(set(picked.tolist())) == len(picked)
        counts = np.bincount(classes_of(picked, pools), minlength=len(sizes))
        assert counts.sum() == len(picked)  # every row comes from a pool
        quotas = class_quotas(n, range(len(sizes)))
        assert len(picked) == sum(min(q, size) for q, size in zip(quotas.values(), sizes))
        full = [counts[c] for c, q in quotas.items() if sizes[c] >= q]
        assert max(full) - min(full) <= 1
        if inuse >= len(sizes):
            assert counts.all()
        # one class-quota take and nothing else: no redraws
        assert picked.tolist() == _balanced_take(pools, n, twin).tolist()
        assert rng.bit_generator.state == twin.bit_generator.state


def small_profile_setup(seed=0, with_old=True):
    """A state, the task's rows, the archive of old rows, the probe blocks
    and a run config; the archive's table holds every row."""
    table = reserved(560, dim=8)
    task = table.add(make_task(1, range(4), per_class=100, dim=8))
    probe = as_probes(labeled(np.arange(40) % 4, dim=8, seed=1))
    archive = StorageArchive(table)
    if with_old:
        for c in (90, 91):
            archive.append(table.add(labeled([c] * 80, dim=8, seed=c)))
        probe += as_probes(labeled(90 + np.arange(20) % 2, dim=8, seed=2))
    state = init_learner(8, hidden_width=8, seed=seed)
    if with_old:
        # the live model has seen the old classes
        batches = [np.concatenate([archive.class_rows(c)[:4] for c in archive.classes()])]
        train_epoch(state, batches, 0.1, table)
    config = RunConfig(
        epochs_per_task=10,
        batch_size=16,
        learning_rate=0.1,
        step=500,
        profiler=ProfilerConfig(conf_sample_size=6, warmup_epochs=2, profile_epochs=2, subsample=0.1),
    )
    return state, task, archive, probe_arrays(probe), config


def run_profile(state, task, archive, probe, config, seed=7, budget=2000, ledger=None):
    return profile_task(
        live_state=state,
        task_rows=task,
        archive=archive,
        probes=probe,
        budget_samples=budget,
        reference_target=None,
        config=config,
        rng=np.random.default_rng(seed),
        ledger=EnergyLedger() if ledger is None else ledger,
    )


class TestProfileTask:
    def test_live_model_untouched(self):
        state, task, archive, probe, config = small_profile_setup()
        before = state_digest(state)
        run_profile(state, task, archive, probe, config)
        assert state_digest(state) == before

    def test_records_feasible_and_positive(self):
        state, task, archive, probe, config = small_profile_setup()
        outcome = run_profile(state, task, archive, probe, config)
        cfg = config.profiler
        assert len(outcome.records) == min(cfg.conf_sample_size, outcome.space_size)
        for r in outcome.records:
            assert r.conf.total <= 2000
            assert r.energy_estimate > 0
            assert 0.0 <= r.accuracy_estimate <= 1.0

    def test_same_seed_same_records(self):
        state, task, archive, probe, config = small_profile_setup()
        a = run_profile(state, task, archive, probe, config, seed=13)
        b = run_profile(state, task, archive, probe, config, seed=13)
        assert a.records == b.records

    def test_profiling_charges_overhead_only(self):
        state, task, archive, probe, config = small_profile_setup()
        ledger = EnergyLedger()
        run_profile(state, task, archive, probe, config, seed=3, ledger=ledger)
        assert ledger.profiling > 0
        assert ledger.gpu_dynamic == ledger.io == ledger.ram == 0.0


class TestEvaluateConf:
    def test_energy_estimate_tracks_in_use_samples(self):
        state, task, archive, probe, config = small_profile_setup(with_old=False)
        common = dict(
            task_rows=task,
            em_pool_by_class={},
            probes=probe,
            table=archive.table,
            config=config,
        )
        rec_a, _ = evaluate_conf(
            state, Conf(400, 0), rng=np.random.default_rng(0), ledger=EnergyLedger(), **common
        )
        rec_b, _ = evaluate_conf(
            state, Conf(200, 0), rng=np.random.default_rng(0), ledger=EnergyLedger(), **common
        )
        assert rec_a.energy_estimate == pytest.approx(
            2 * rec_b.energy_estimate, rel=0.01
        )

    def test_oversized_em_conf_capped_by_pool(self):
        state, task, archive, probe, config = small_profile_setup()
        em_pool = {c: archive.class_rows(c) for c in archive.classes()}
        pool_total = sum(len(v) for v in em_pool.values())
        rec_big, _ = evaluate_conf(
            state, Conf(500, 1500), task, em_pool, probe, config,
            np.random.default_rng(0), EnergyLedger(), archive.table,
        )
        rec_fit, _ = evaluate_conf(
            state, Conf(500, pool_total), task, em_pool, probe, config,
            np.random.default_rng(0), EnergyLedger(), archive.table,
        )
        assert rec_big.energy_estimate == rec_fit.energy_estimate


@pytest.mark.parametrize("name", ["conf_sample_size", "warmup_epochs", "profile_epochs"])
def test_profiler_config_int_fields_refuse_floats(name):
    value = getattr(ProfilerConfig(), name)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value + 0.5!r}"):
        ProfilerConfig(**{name: value + 0.5})
    # numpy integers are integers
    assert getattr(ProfilerConfig(**{name: np.int64(value)}), name) == value


def test_cost_reduction_ratio_matches_analytic():
    """Sampled confs on subsampled data for few epochs vs exhaustive
    full-everything: the measured compute-unit ratio tracks
    (|space|/k) * (full_epochs/profile_epochs) * (1/subsample)."""
    state, task, archive, probe, config = small_profile_setup(with_old=False)
    cfg = ProfilerConfig(conf_sample_size=3, warmup_epochs=1, profile_epochs=2, subsample=0.1)
    outcome = run_profile(
        state, task, archive, probe, replace(config, profiler=cfg), seed=5, budget=2000
    )
    from hiercl.profiler import build_search_space

    space = build_search_space(2000, len(task), 500)
    full_epochs = 10
    exhaustive = exhaustive_units(space, full_epochs, len(task), 0)
    measured = exhaustive / outcome.evaluation_units
    analytic = (len(space) / 3) * (full_epochs / 2) * (1 / 0.1)
    assert measured == pytest.approx(analytic, rel=0.2)
