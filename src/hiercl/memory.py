"""The two-level sample store: stream buffer (SB) and episodic memory (EM)
in fast memory, backed by a storage archive holding everything seen so far.

SB is a prefix of the current task: its first ``capacity`` samples in
arrival order. The rest of the task is overflow, kept for the archive and
for replay; resizing SB only moves the cut between the two.

EM is kept class-balanced: capacity is split into per-class quotas
(floor of capacity / classes, remainders to the lowest class ids) and every
admission, eviction, and refill preserves a per-class spread of at most one
among classes whose archive can actually fill their quota.
"""

from __future__ import annotations

from typing import Container, Iterable, KeysView, Sequence

import numpy as np

from .domain import Sample


def class_quotas(capacity: int, class_ids: Sequence[int]) -> dict[int, int]:
    """Split ``capacity`` slots across classes; remainders go to lowest ids."""
    ids = sorted(class_ids)
    if not ids or capacity <= 0:
        return {c: 0 for c in ids}
    base, rem = divmod(capacity, len(ids))
    return {c: base + (1 if i < rem else 0) for i, c in enumerate(ids)}


class StreamBuffer:
    """The current task's samples in arrival order, cut at ``capacity``.

    Samples past capacity are not dropped: they are the overflow, destined
    for the archive at flush time and available for replay.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._samples: tuple[Sample, ...] = ()

    @property
    def contents(self) -> tuple[Sample, ...]:
        return self._samples[: self.capacity]

    @property
    def overflow(self) -> tuple[Sample, ...]:
        return self._samples[self.capacity :]

    def __len__(self) -> int:
        return min(self.capacity, len(self._samples))

    def fill(self, samples: Sequence[Sample]) -> None:
        if self._samples:
            raise RuntimeError("stream buffer must be empty at task start")
        self._samples = tuple(samples)

    def resize(self, new_capacity: int) -> None:
        """Shrink moves the arrival-order tail to overflow; grow pulls it back."""
        if new_capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = new_capacity

    def all_task_samples(self) -> list[Sample]:
        return list(self._samples)

    def clear(self) -> None:
        self._samples = ()


class StorageArchive:
    """Slow-tier store of every sample seen, grouped per class."""

    def __init__(self):
        self._per_class: dict[int, list[Sample]] = {}
        self._ids: set[int] = set()

    def classes(self) -> list[int]:
        return sorted(self._per_class)

    def class_samples(self, class_id: int) -> tuple[Sample, ...]:
        return tuple(self._per_class.get(class_id, ()))

    def class_count(self, class_id: int) -> int:
        return len(self._per_class.get(class_id, ()))

    @property
    def total(self) -> int:
        return len(self._ids)

    def append(self, samples: Iterable[Sample]) -> int:
        added = 0
        for s in samples:
            if s.id in self._ids:
                raise ValueError(f"duplicate sample id {s.id} in archive")
            self._per_class.setdefault(s.class_label, []).append(s)
            self._ids.add(s.id)
            added += 1
        return added

    def candidates(self, class_id: int, exclude_ids: Container[int]) -> list[Sample]:
        """The class's archived samples outside ``exclude_ids``, in archive
        order: what EM can admit for that class (a refill, or a swap's
        replacement)."""
        return [s for s in self._per_class.get(class_id, ()) if s.id not in exclude_ids]


class EpisodicMemory:
    """Bounded in-memory store of old samples, class-balanced by quota.

    ``_slot_of`` maps every held sample id to its position in its class's
    slot list, so a replacement is an O(1) write; it is the one record of
    which ids are held, and ``held_ids`` is a live view of its keys.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._slots: dict[int, list[Sample]] = {}
        self._slot_of: dict[int, int] = {}

    @property
    def total(self) -> int:
        return len(self._slot_of)

    def classes(self) -> list[int]:
        return sorted(c for c, pool in self._slots.items() if pool)

    def counts(self) -> dict[int, int]:
        return {c: len(pool) for c, pool in sorted(self._slots.items()) if pool}

    @property
    def held_ids(self) -> KeysView[int]:
        """A live view of the held sample ids."""
        return self._slot_of.keys()

    def contents(self) -> list[Sample]:
        """All held samples, ordered by class id then slot position."""
        out: list[Sample] = []
        for c in sorted(self._slots):
            out.extend(self._slots[c])
        return out

    def replace(self, old_id: int, new_sample: Sample) -> bool:
        """Swap one held sample for a same-class replacement, in place."""
        if new_sample.id in self._slot_of:
            return False
        pool = self._slots.get(new_sample.class_label)
        i = self._slot_of.get(old_id)
        if not pool or i is None or i >= len(pool) or pool[i].id != old_id:
            return False
        pool[i] = new_sample
        del self._slot_of[old_id]
        self._slot_of[new_sample.id] = i
        return True

    def _evict_random(self, class_id: int, n: int, rng: np.random.Generator) -> None:
        pool = self._slots[class_id]
        gone = set(rng.choice(len(pool), size=n, replace=False).tolist())
        for i in gone:
            del self._slot_of[pool[i].id]
        pool[:] = [s for i, s in enumerate(pool) if i not in gone]
        for i, s in enumerate(pool):
            self._slot_of[s.id] = i

    def rebalance(self, archive: StorageArchive, rng: np.random.Generator) -> None:
        """Re-split capacity across all archive classes and refill to quota.

        Over-quota classes evict uniformly at random; under-quota classes pull
        uniformly random archive samples not already held. A class whose
        archive pool is smaller than its quota simply stays short; the slack
        is not redistributed.
        """
        classes = archive.classes()
        quotas = class_quotas(self.capacity, classes)
        for c in classes:
            pool = self._slots.setdefault(c, [])
            q = quotas.get(c, 0)
            if len(pool) > q:
                self._evict_random(c, len(pool) - q, rng)
            elif len(pool) < q:
                cands = archive.candidates(c, self._slot_of)
                want = min(q - len(pool), len(cands))
                if want > 0:
                    take = rng.choice(len(cands), size=want, replace=False)
                    for i in take:
                        s = cands[i]
                        self._slot_of[s.id] = len(pool)
                        pool.append(s)

    def resize(self, new_capacity: int, archive: StorageArchive, rng: np.random.Generator) -> None:
        if new_capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = new_capacity
        self.rebalance(archive, rng)

    def spread_ok(self, archive: StorageArchive) -> bool:
        """Per-class spread at most 1 among classes whose archive covers quota."""
        classes = archive.classes()
        if not classes:
            return True
        quotas = class_quotas(self.capacity, classes)
        counts = [
            len(self._slots.get(c, []))
            for c in classes
            if archive.class_count(c) >= quotas[c]
        ]
        if not counts:
            return True
        return max(counts) - min(counts) <= 1


def flush(
    sb: StreamBuffer,
    em: EpisodicMemory,
    archive: StorageArchive,
    rng: np.random.Generator,
) -> None:
    """End-of-task reorganization.

    Appends every task sample (SB contents plus overflow) to the archive,
    rebalances EM so the new classes get their quota share, and clears SB
    for the next task.
    """
    archive.append(sb.all_task_samples())
    em.rebalance(archive, rng)
    sb.clear()


def compose_epoch_batches(
    sb: StreamBuffer,
    em: EpisodicMemory,
    batch_size: int,
    rng: np.random.Generator,
) -> list[list[Sample]]:
    """One epoch's mini-batches: a random permutation of SB union EM, chunked.

    Every in-memory sample appears exactly once.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    union = list(sb.contents) + em.contents()
    if not union:
        raise ValueError("cannot compose batches from empty SB and EM")
    order = rng.permutation(len(union))
    shuffled = [union[i] for i in order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
