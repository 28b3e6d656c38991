import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercl.memory import (
    EpisodicMemory,
    StorageArchive,
    class_quotas,
    compose_epoch_batches,
    flush,
)
from conftest import fill, labeled, make_task, packed, reserved, spread_ok


def fresh(*tasks, capacity_em=100):
    """EM and an archive over a table of ``tasks``, then each task's rows."""
    table, *rows = packed(*tasks)
    return EpisodicMemory(capacity_em, table), StorageArchive(table), *rows


class TestQuotas:
    def test_exact_division(self):
        assert class_quotas(100, range(20)) == {c: 5 for c in range(20)}

    def test_remainder_goes_to_lowest_ids(self):
        q = class_quotas(100, range(30))
        assert all(q[c] == 4 for c in range(10))
        assert all(q[c] == 3 for c in range(10, 30))

    def test_capacity_below_class_count(self):
        q = class_quotas(3, [7, 2, 9, 4, 1])
        assert q == {1: 1, 2: 1, 4: 1, 7: 0, 9: 0}


class TestFlush:
    def test_growing_class_count_rebalances(self):
        em, archive, first, second = fresh(
            make_task(1, range(10), per_class=20), make_task(2, range(10, 20), per_class=20),
            capacity_em=100,
        )
        rng = np.random.default_rng(0)
        flush(first, em, archive, rng)
        assert em.counts() == {c: 10 for c in range(10)}

        flush(second, em, archive, rng)
        assert em.counts() == {c: 5 for c in range(20)}

    def test_uneven_quota_spread_at_most_one(self):
        em, archive, *task_rows = fresh(
            *(make_task(t, range((t - 1) * 10, t * 10), per_class=20) for t in range(1, 4)),
            capacity_em=100,
        )
        rng = np.random.default_rng(1)
        for rows in task_rows:
            flush(rows, em, archive, rng)
        counts = em.counts()
        assert len(counts) == 30
        # brute count: every class holds 3 or 4 and the tens place is exact
        assert sorted(collections.Counter(counts.values()).items()) == [(3, 20), (4, 10)]
        assert spread_ok(em, archive)

    def test_zero_capacity_em_stays_empty(self):
        em, archive, rows = fresh(make_task(1, range(5), per_class=10), capacity_em=0)
        rng = np.random.default_rng(2)
        flush(rows, em, archive, rng)
        assert em.total == 0
        assert sum(map(archive.class_count, archive.classes())) == 50

    def test_overflow_reaches_archive(self):
        em, archive, rows = fresh(make_task(1, range(5), per_class=10))
        rng = np.random.default_rng(3)
        assert len(rows[10:]) == 40  # the rows past an SB cut at 10
        flush(rows, em, archive, rng)
        assert sum(map(archive.class_count, archive.classes())) == 50
        archived = {r for c in archive.classes() for r in archive.class_rows(c).tolist()}
        assert archived == set(rows.tolist())

    def test_archive_is_append_only_per_task(self):
        em, archive, first, second = fresh(
            make_task(1, range(3), per_class=5), make_task(2, range(3, 6), per_class=5)
        )
        rng = np.random.default_rng(4)
        flush(first, em, archive, rng)
        after_t1 = {r for c in archive.classes() for r in archive.class_rows(c).tolist()}
        flush(second, em, archive, rng)
        after_t2 = {r for c in archive.classes() for r in archive.class_rows(c).tolist()}
        assert after_t1 <= after_t2


class TestResize:
    def _em_with_archive(self, classes, per_class_archive, capacity, seed=0):
        rng = np.random.default_rng(seed)
        table, *class_rows = packed(*(labeled([c] * per_class_archive[c]) for c in classes))
        archive = StorageArchive(table)
        for rows in class_rows:
            archive.append(rows)
        em = EpisodicMemory(capacity, table)
        em.rebalance(archive, rng)
        return em, archive, rng

    def test_shrink_preserves_balance(self):
        em, archive, rng = self._em_with_archive(
            range(10), {c: 100 for c in range(10)}, capacity=1000
        )
        assert em.counts() == {c: 100 for c in range(10)}
        em.resize(500, archive, rng)
        assert em.counts() == {c: 50 for c in range(10)}

    def test_grow_refills_from_archive(self):
        em, archive, rng = self._em_with_archive(
            range(10), {c: 150 for c in range(10)}, capacity=500
        )
        em.resize(1000, archive, rng)
        assert em.counts() == {c: 100 for c in range(10)}

    def test_grow_with_starved_class_caps_at_availability(self):
        per_class = {c: 200 for c in range(10)}
        per_class[7] = 30
        em, archive, rng = self._em_with_archive(range(10), per_class, capacity=500)
        em.resize(1000, archive, rng)
        counts = em.counts()
        # brute balance check: class 7 holds all it has, the rest hold quota
        assert counts[7] == 30
        assert all(counts[c] == 100 for c in range(10) if c != 7)
        assert spread_ok(em, archive)

    def test_no_duplicate_ids_after_churn(self):
        em, archive, rng = self._em_with_archive(
            range(6), {c: 50 for c in range(6)}, capacity=120
        )
        for cap in (60, 240, 30, 300, 120):
            em.resize(cap, archive, rng)
            rows = em.rows().tolist()
            assert len(rows) == len(set(rows))
            assert spread_ok(em, archive)


class TestReplace:
    def test_replace_swaps_in_place(self):
        em, archive, rng = TestResize()._em_with_archive(
            [1, 2], {1: 10, 2: 10}, capacity=10
        )
        victim = em.rows()[0]
        fresh_row = archive.candidates(archive.table.labels[victim], em.held())[0]
        assert em.replace(victim, fresh_row)
        assert not em.holds(victim)
        assert em.holds(fresh_row)
        assert em.total == 10

    def test_replace_refuses_duplicates(self):
        em, archive, rng = TestResize()._em_with_archive([1], {1: 10}, capacity=5)
        held = em.rows()
        assert not em.replace(held[0], held[1])

    def test_rows_are_a_read_only_view(self):
        """Neither ``rows()`` nor ``class_rows`` can be written through, and
        both are views: a later replacement shows in them."""
        em, archive, rng = TestResize()._em_with_archive([1, 2], {1: 10, 2: 10}, capacity=10)
        rows, ones = em.rows(), em.class_rows(1)
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = rows[1]
        with pytest.raises(ValueError, match="read-only"):
            ones[0] = ones[1]
        victim = int(rows[0])
        fresh_row = archive.candidates(archive.table.labels[victim], em.held())[0]
        assert em.replace(victim, fresh_row)
        assert rows[0] == ones[0] == fresh_row
        assert_slot_map_exact(em)


class TestComposeBatches:
    def _filled(self, n_sb, n_em, batch, seed=0):
        rng = np.random.default_rng(seed)
        table, sb, em_rows = packed(labeled([0] * n_sb), labeled([1] * n_em))
        archive = StorageArchive(table)
        em = EpisodicMemory(n_em, table)
        if n_em:
            archive.append(em_rows)
            em.rebalance(archive, rng)
        return sb, em, rng

    def test_even_split(self):
        sb, em, rng = self._filled(10, 10, 4)
        batches = compose_epoch_batches(sb, em, 4, rng)
        assert [len(b) for b in batches] == [4, 4, 4, 4, 4]

    def test_ragged_tail_from_em_only(self):
        sb, em, rng = self._filled(0, 8, 3)
        batches = compose_epoch_batches(sb, em, 3, rng)
        assert [len(b) for b in batches] == [3, 3, 2]
        assert all((em.table.labels[b] == 1).all() for b in batches)

    def test_fixed_seed_reproduces_batches(self):
        sb1, em1, _ = self._filled(10, 10, 4)
        sb2, em2, _ = self._filled(10, 10, 4)
        b1 = compose_epoch_batches(sb1, em1, 4, np.random.default_rng(42))
        b2 = compose_epoch_batches(sb2, em2, 4, np.random.default_rng(42))
        assert [b.tolist() for b in b1] == [b.tolist() for b in b2]

    def test_emits_exact_multiset(self):
        sb, em, rng = self._filled(17, 23, 5)
        batches = compose_epoch_batches(sb, em, 5, rng)
        emitted = sorted(r for b in batches for r in b.tolist())
        expected = sorted(sb.tolist() + em.rows().tolist())
        assert emitted == expected

    def test_empty_union_rejected(self):
        sb, em, rng = self._filled(0, 0, 4)
        with pytest.raises(ValueError):
            compose_epoch_batches(sb, em, 4, rng)


def test_randomized_balance_survives_operations():
    """Randomized flush/resize churn keeps the quota spread within one for
    classes the archive can cover (smaller cousin of the acceptance suite)."""
    rng = np.random.default_rng(99)
    table = reserved()
    archive = StorageArchive(table)
    em = EpisodicMemory(90, table)
    filled = 0
    for t in range(1, 13):
        per_class = int(rng.integers(5, 40))
        rows = fill(table, filled, labeled(np.repeat(range((t - 1) * 3, t * 3), per_class), task_id=t))
        filled += len(rows)
        flush(rows, em, archive, rng)
        assert spread_ok(em, archive)
        if t % 3 == 0:
            em.resize(int(rng.integers(0, 40)) * 10, archive, rng)
            assert spread_ok(em, archive)
        rows = em.rows().tolist()
        assert len(rows) == len(set(rows))
        assert em.total <= em.capacity


def assert_slot_map_exact(em: EpisodicMemory) -> None:
    """The row->slot array is the inverse of ``rows()``: it names every held
    row at its position, and nothing else. ``rows()`` is each class's rows
    concatenated in ascending class order."""
    rows = em.rows()
    assert em._slot[rows].tolist() == list(range(len(rows)))
    assert int(em.held().sum()) == em.total == len(rows)
    counts = em.counts()
    assert list(counts) == sorted(counts)
    assert rows.tolist() == [r for c in counts for r in em.class_rows(c).tolist()]
    assert [len(em.class_rows(c)) for c in counts] == list(counts.values())


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("task"), st.integers(1, 30)),
            st.tuples(st.just("resize"), st.integers(0, 120)),
            st.tuples(st.just("rebalance"), st.just(0)),
            st.tuples(st.just("replace"), st.integers(0, 10**6)),
        ),
        max_size=30,
    ),
)
def test_slot_map_tracks_churn(seed, ops):
    rng = np.random.default_rng(seed)
    table = reserved()
    archive = StorageArchive(table)
    em = EpisodicMemory(40, table)
    next_class = filled = 0
    for op, arg in ops:
        if op == "task":
            archive.append(fill(table, filled, labeled(np.repeat([next_class, next_class + 1], arg))))
            next_class, filled = next_class + 2, filled + 2 * arg
            em.rebalance(archive, rng)
        elif op == "resize":
            em.resize(arg, archive, rng)
        elif op == "rebalance":
            em.rebalance(archive, rng)
        elif em.total:
            held = em.rows()
            victim = held[arg % em.total]
            fresh = archive.candidates(table.labels[victim], em.held())
            others = held[table.labels[held] != table.labels[victim]]
            # refused: a held replacement, or one from another class
            assert not em.replace(victim, held[(arg + 1) % em.total])
            if len(others):
                assert not em.replace(others[0], fresh[0] if len(fresh) else victim)
            if len(fresh):
                assert em.replace(victim, fresh[arg % len(fresh)])
                assert not em.holds(victim)
        assert_slot_map_exact(em)


def test_replace_spans_many_classes():
    """One call whose pairs come from 30 classes in shuffled order, with
    cross-class pairs mixed in: each same-class pair puts its new row in its
    old row's slot, and every cross-class pair is refused."""
    rng = np.random.default_rng(7)
    n_classes = 30
    table, rows = packed(labeled(np.arange(n_classes * 6) % n_classes))
    archive = StorageArchive(table)
    archive.append(rows)
    em = EpisodicMemory(n_classes * 3, table)
    em.rebalance(archive, rng)
    expected = {c: em.class_rows(c).tolist() for c in range(n_classes)}
    pairs = []
    for c in range(n_classes):
        held = em.class_rows(c)
        fresh = archive.candidates(c, em.held())
        pairs += [(held[0], fresh[0]), (held[2], fresh[1])]
        pairs.append((held[1], archive.candidates((c + 1) % n_classes, em.held())[2]))
        expected[c][0], expected[c][2] = int(fresh[0]), int(fresh[1])
    old, new = np.array([pairs[i] for i in rng.permutation(len(pairs))]).T
    assert em.replace(old, new) == 2 * n_classes
    assert {c: em.class_rows(c).tolist() for c in range(n_classes)} == expected
    assert_slot_map_exact(em)
