"""The two-level sample store: stream buffer (SB) and episodic memory (EM)
in fast memory, backed by a storage archive holding everything seen so far.

Every layer holds row indices into the run's one ``SampleTable``. SB is a
slice, not a store: the current task's rows in arrival order, cut at the
chosen conf's ``sb_size``, so resizing SB only moves the cut. Only SB's rows
and EM's rows are replayed; the rest of the task waits for the archive,
which takes every task row at flush. The archive keeps one row array per
class. EM keeps one row array per class (its slots) and a row-indexed slot
array, so membership and replacement are array lookups rather than scans.

EM is kept class-balanced: capacity is split into per-class quotas
(floor of capacity / classes, remainders to the lowest class ids) and every
admission, eviction, and refill preserves a per-class spread of at most one
among classes whose archive can actually fill their quota.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .domain import SampleTable

NO_ROWS = np.empty(0, np.intp)
NO_ROWS.flags.writeable = False


def class_quotas(capacity: int, class_ids: Sequence[int]) -> dict[int, int]:
    """Split ``capacity`` slots across classes; remainders go to lowest ids."""
    ids = sorted(class_ids)
    if not ids or capacity <= 0:
        return {c: 0 for c in ids}
    base, rem = divmod(capacity, len(ids))
    return {c: base + (1 if i < rem else 0) for i, c in enumerate(ids)}


def class_runs(class_ids: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """A stable sort order of ``class_ids`` and, in ascending class order,
    each class's ``(class, start, end)`` run in that order: the entries of
    one class, in their original order, are ``order[start:end]``."""
    order = np.argsort(class_ids, kind="stable")
    classes, starts = np.unique(class_ids[order], return_index=True)
    ends = np.append(starts[1:], len(order))
    return order, list(zip(classes.tolist(), starts.tolist(), ends.tolist()))


class StorageArchive:
    """Slow-tier store of every row seen, one row array per class in
    arrival order."""

    def __init__(self, table: SampleTable):
        self.table = table
        self._pools: dict[int, np.ndarray] = {}

    def classes(self) -> list[int]:
        return sorted(self._pools)

    def class_rows(self, class_id: int) -> np.ndarray:
        return self._pools.get(class_id, NO_ROWS)

    def class_count(self, class_id: int) -> int:
        return len(self._pools.get(class_id, ()))

    def append(self, rows: ArrayLike) -> int:
        rows = np.asarray(rows, dtype=np.intp)
        labels = self.table.labels[rows]
        for c in np.unique(labels).tolist():
            self._pools[c] = np.concatenate([self.class_rows(c), rows[labels == c]])
        return len(rows)

    def candidates(self, class_id: int, held: np.ndarray) -> np.ndarray:
        """The class's archived rows EM does not hold, in archive order: what
        EM can admit for that class (a refill, or a swap's replacement).
        ``held`` is EM's row-indexed mask (``em.held()``), so a caller that
        asks for many classes reads it once."""
        pool = self._pools.get(class_id, NO_ROWS)
        return pool[~held[pool]]


class EpisodicMemory:
    """Bounded in-memory store of old samples, class-balanced by quota.

    ``_pools[c]`` is class ``c``'s slots, a row array. ``_slot[row]`` is the
    row's position in its class's slots, or -1 when EM does not hold it; it
    is the one record of which rows are held, so a membership test or a
    replacement is an array lookup. It spans the table's rows, sized once
    at construction: a run builds its table whole before it builds EM.
    """

    def __init__(self, capacity: int, table: SampleTable):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.table = table
        self._pools: dict[int, np.ndarray] = {}
        self._slot = np.full(len(table.labels), -1, np.intp)

    @property
    def total(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    def counts(self) -> dict[int, int]:
        return {c: len(pool) for c, pool in sorted(self._pools.items()) if len(pool)}

    def holds(self, rows: ArrayLike) -> np.ndarray:
        """Whether EM holds each row."""
        return self._slot[rows] >= 0

    def held(self) -> np.ndarray:
        """Whether EM holds each row of the table, indexed by row."""
        return self._slot >= 0

    def class_rows(self, class_id: int) -> np.ndarray:
        """The class's held rows in slot order."""
        return self._pools.get(class_id, NO_ROWS)

    def rows(self) -> np.ndarray:
        """All held rows, ordered by class id then slot position."""
        pools = [self._pools[c] for c in sorted(self._pools)]
        return np.concatenate(pools) if pools else NO_ROWS

    def replace(self, old_rows: ArrayLike, new_rows: ArrayLike) -> int:
        """Swap held rows for same-class rows EM does not hold, pairwise and
        in place; returns how many pairs were applied. A pair whose old row
        is not held, whose new row is held, or whose rows differ in class is
        refused. The rows of a call must be distinct. The applied pairs are
        split by class once (``class_runs``), and each class's slots are
        written with one assignment."""
        old = np.atleast_1d(np.asarray(old_rows, dtype=np.intp))
        new = np.atleast_1d(np.asarray(new_rows, dtype=np.intp))
        labels = self.table.labels
        old_labels = labels[old]
        ok = self.holds(old) & ~self.holds(new) & (old_labels == labels[new])
        old, new = old[ok], new[ok]
        pos = self._slot[old]
        order, runs = class_runs(old_labels[ok])
        for c, start, end in runs:
            mine = order[start:end]
            self._pools[c][pos[mine]] = new[mine]
        self._slot[old] = -1
        self._slot[new] = pos
        return len(old)

    def _evict_random(self, class_id: int, n: int, rng: np.random.Generator) -> None:
        pool = self._pools[class_id]
        gone = np.zeros(len(pool), dtype=bool)
        gone[rng.choice(len(pool), size=n, replace=False)] = True
        self._slot[pool[gone]] = -1
        pool = self._pools[class_id] = pool[~gone]
        self._slot[pool] = np.arange(len(pool))

    def rebalance(self, archive: StorageArchive, rng: np.random.Generator) -> None:
        """Re-split capacity across all archive classes and refill to quota.

        Over-quota classes evict uniformly at random; under-quota classes pull
        uniformly random archive samples not already held. A class whose
        archive pool is smaller than its quota simply stays short; the slack
        is not redistributed.
        """
        classes = archive.classes()
        quotas = class_quotas(self.capacity, classes)
        # read before any eviction or refill: classes share no rows, so one
        # class's changes cannot change another's candidates
        held = self.held()
        for c in classes:
            pool = self._pools.setdefault(c, NO_ROWS)
            q = quotas.get(c, 0)
            if len(pool) > q:
                self._evict_random(c, len(pool) - q, rng)
            elif len(pool) < q:
                cands = archive.candidates(c, held)
                want = min(q - len(pool), len(cands))
                if want > 0:
                    take = cands[rng.choice(len(cands), size=want, replace=False)]
                    self._slot[take] = np.arange(len(pool), len(pool) + want)
                    self._pools[c] = np.concatenate([pool, take])

    def resize(self, new_capacity: int, archive: StorageArchive, rng: np.random.Generator) -> None:
        if new_capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = new_capacity
        self.rebalance(archive, rng)


def flush(
    task_rows: ArrayLike,
    em: EpisodicMemory,
    archive: StorageArchive,
    rng: np.random.Generator,
) -> None:
    """End-of-task reorganization: appends every task row (SB's and the
    rest) to the archive, then rebalances EM so the new classes get their
    quota share."""
    archive.append(task_rows)
    em.rebalance(archive, rng)


def compose_epoch_batches(
    sb_rows: np.ndarray,
    em: EpisodicMemory,
    batch_size: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """One epoch's mini-batches of rows: a random permutation of SB's rows
    then EM (by class and slot), chunked.

    Every in-memory row appears exactly once.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    union = np.concatenate([sb_rows, em.rows()])
    if not len(union):
        raise ValueError("cannot compose batches from empty SB and EM")
    return shuffled_batches(union, batch_size, rng)


def shuffled_batches(
    rows: np.ndarray, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """``rows`` in one random permutation, chunked into mini-batches."""
    shuffled = rows[rng.permutation(len(rows))]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
