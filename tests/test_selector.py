import math

import numpy as np
import pytest

from hiercl.domain import Conf, ProfileRecord
from hiercl.selector import (
    HIGHEST_UTILITY,
    LOWEST_ENERGY,
    apply_cutline,
    select_record,
    utility,
)


def rec(sb, em, acc, energy):
    return ProfileRecord(Conf(sb, em), acc, energy)


def energy_accuracy_table():
    """Hand-coded table with the shape of a real profiling round: energy is
    proportional to total samples, the biggest conf has the best accuracy,
    and a small conf is the most energy-efficient overall."""
    return [
        rec(500, 500, 0.35, 1000.0),
        rec(1000, 1500, 0.52, 2500.0),
        rec(1000, 2000, 0.645, 3000.0),
        rec(5000, 10000, 0.66, 15000.0),
        rec(500, 1000, 0.42, 1500.0),
        rec(500, 1500, 0.44, 2000.0),
        rec(500, 2000, 0.45, 2500.0),
        rec(1000, 1000, 0.48, 2000.0),
        rec(1500, 1500, 0.50, 3000.0),
        rec(1500, 2500, 0.49, 4000.0),
        rec(2000, 2000, 0.50, 4000.0),
        rec(2500, 2500, 0.47, 5000.0),
        rec(3000, 3000, 0.46, 6000.0),
        rec(4000, 6000, 0.50, 10000.0),
        rec(2000, 3000, 0.43, 5000.0),
    ]


class TestCutline:
    def test_keeps_top_fraction_by_accuracy(self):
        records = energy_accuracy_table()
        kept = apply_cutline(records, 0.2)
        assert len(kept) == 3  # ceil(0.2 * 15)
        floor = min(r.accuracy_estimate for r in kept)
        dropped = [r for r in records if r not in kept]
        assert all(r.accuracy_estimate <= floor for r in dropped)

    def test_two_of_ten(self):
        records = [rec(500, 500 * i, 0.1 * i, 100.0 * i) for i in range(1, 11)]
        kept = apply_cutline(records, 0.2)
        assert len(kept) == 2
        assert {r.accuracy_estimate for r in kept} == {0.9, 1.0}

    def test_full_fraction_is_identity(self):
        records = energy_accuracy_table()
        assert sorted(apply_cutline(records, 1.0), key=id) == sorted(records, key=id)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            apply_cutline([], 0.5)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            apply_cutline(energy_accuracy_table(), 0.0)


class TestUtility:
    def test_arithmetic(self):
        r = rec(500, 500, 0.5, 100.0)
        assert utility(r, baseline_accuracy=0.1) == pytest.approx(0.004)

    def test_gain_clamps_at_zero(self):
        r = rec(500, 500, 0.05, 100.0)
        assert utility(r, baseline_accuracy=0.2) == 0.0

    def test_energy_scaling_preserves_argmax(self):
        records = energy_accuracy_table()
        best = select_record(records, cutline=1.0, mode=HIGHEST_UTILITY).conf
        scaled = [
            ProfileRecord(r.conf, r.accuracy_estimate, r.energy_estimate * 7.5)
            for r in records
        ]
        assert select_record(scaled, cutline=1.0, mode=HIGHEST_UTILITY).conf == best


class TestFixtureSelections:
    def test_highest_utility_with_cutline(self):
        assert select_record(energy_accuracy_table(), 0.2, HIGHEST_UTILITY).conf == Conf(1000, 2000)

    def test_lowest_energy_with_cutline(self):
        assert select_record(energy_accuracy_table(), 0.2, LOWEST_ENERGY).conf == Conf(1000, 1500)

    def test_no_cutline_smallest_conf_wins_utility(self):
        assert select_record(energy_accuracy_table(), 1.0, HIGHEST_UTILITY).conf == Conf(500, 500)


# --- independent oracle ------------------------------------------------------


def oracle_select(records, fraction, mode, baseline=0.0):
    """Linear-scan reference: rank, cut, then argmax/argmin with the
    documented tie chain (energy, then footprint, then lexicographic conf)."""
    ranked = sorted(
        records,
        key=lambda r: (
            -r.accuracy_estimate,
            r.energy_estimate,
            r.conf.sb_size + r.conf.em_size,
            (r.conf.sb_size, r.conf.em_size),
        ),
    )
    subset = ranked[: math.ceil(fraction * len(records))]
    best = None
    for r in subset:
        if best is None:
            best = r
            continue
        if mode == HIGHEST_UTILITY:
            cand = max(r.accuracy_estimate - baseline, 0.0) / r.energy_estimate
            cur = max(best.accuracy_estimate - baseline, 0.0) / best.energy_estimate
            if cand > cur:
                best = r
                continue
            if cand < cur:
                continue
        else:
            if r.energy_estimate < best.energy_estimate:
                best = r
                continue
            if r.energy_estimate > best.energy_estimate:
                continue
        tie_r = (r.energy_estimate, r.conf.total, (r.conf.sb_size, r.conf.em_size))
        tie_b = (best.energy_estimate, best.conf.total, (best.conf.sb_size, best.conf.em_size))
        if tie_r < tie_b:
            best = r
    return best.conf


def random_records(rng, n):
    # discrete value pools force plenty of exact ties
    accs = rng.choice(np.linspace(0.0, 1.0, 21), size=n)
    energies = rng.choice([100.0, 250.0, 500.0, 1000.0, 2000.0], size=n)
    out = []
    for i in range(n):
        sb = int(rng.integers(1, 11)) * 500
        em = int(rng.integers(0, 11)) * 500
        out.append(rec(sb, em, float(accs[i]), float(energies[i])))
    return out


def test_select_matches_oracle_on_random_lists():
    rng = np.random.default_rng(20240817)
    for trial in range(300):
        n = int(rng.integers(5, 201))
        records = random_records(rng, n)
        fraction = float(rng.choice([0.1, 0.2, 0.5, 1.0]))
        baseline = float(rng.choice([0.0, 0.1]))
        for mode in (HIGHEST_UTILITY, LOWEST_ENERGY):
            assert select_record(records, fraction, mode, baseline).conf == oracle_select(
                records, fraction, mode, baseline
            ), f"trial {trial} mode {mode} fraction {fraction}"


def test_select_is_permutation_invariant():
    rng = np.random.default_rng(7)
    records = random_records(rng, 60)
    base = select_record(records, 0.3, HIGHEST_UTILITY).conf
    for _ in range(10):
        perm = [records[i] for i in rng.permutation(len(records))]
        assert select_record(perm, 0.3, HIGHEST_UTILITY).conf == base


def test_cutline_extremes():
    records = energy_accuracy_table()
    # cutline 1.0 with HU equals the global utility argmax
    global_best = max(
        records, key=lambda r: (utility(r), -r.energy_estimate, -r.conf.total)
    ).conf
    assert select_record(records, 1.0, HIGHEST_UTILITY).conf == global_best
    # cutline shrunk to one record equals the accuracy argmax
    tightest = 1.0 / len(records)
    acc_best = max(records, key=lambda r: r.accuracy_estimate).conf
    assert select_record(records, tightest, HIGHEST_UTILITY).conf == acc_best
