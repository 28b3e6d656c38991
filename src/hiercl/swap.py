"""Asynchronous data swapping between episodic memory and the archive over a
simulated FIFO I/O channel.

All latencies derive from bytes / effective bandwidth on a simulated clock;
training never waits on the channel. Each swapped slot moves twice its
sample size (replacement read plus write-back accounting), so ratio changes
translate linearly into channel load.

A swap batch is arithmetic, not one object per transfer: the channel keeps
every pending transfer in one array of table rows and one of completion
times, and computes those times in closed form (a running sum of durations
per stretch of constant external load).

The engine sends a class at most as many transfers as it has archive rows
outside EM, and applies landed transfers with one draw per class over those
fresh rows (Carousel Memory's EM-storage swap on a simulated clock).
Every transfer moves the stream's one sample size, so a batch's byte count
is a scalar.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .memory import EpisodicMemory, StorageArchive, class_runs

# Effective bandwidth never drops below this, however large the external load.
MIN_EFFECTIVE_BANDWIDTH = 1.0  # bytes/s

SWAP_BYTES_FACTOR = 2  # read replacement + write-back per slot


class IoChannel:
    """Single-server FIFO channel with optional stepwise external load.

    Completion times are fixed at enqueue: each transfer takes its bytes over
    the effective bandwidth at its own service start, read from the known
    load schedule. Busy intervals are tracked so energy accounting can bill
    I/O-active seconds per epoch.

    The pending transfers are two arrays in service order, their table rows
    and their completion times, and every transfer of a batch moves the
    same bytes. Transfer k of a batch starts when transfer k-1 completes,
    so within a stretch of constant external load its completion time is
    ``start + d_0 + ... + d_k``; ``np.cumsum`` adds left to right, which
    makes the times bit-identical to serving the transfers one at a time.
    A stretch ends at the first transfer that starts at or after the next
    load step, where the bandwidth is read again. Completion times never
    decrease along the queue, so ``pop_completed`` is one binary search and
    two slices.
    """

    def __init__(
        self,
        bandwidth_bytes_per_s: float,
        external_load: Sequence[tuple[float, float]] = (),
    ):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bytes_per_s = float(bandwidth_bytes_per_s)
        # (time, bytes_per_s) steps, sorted; load holds from its time onward
        self.external_load = sorted((float(t), float(b)) for t, b in external_load)
        self._step_times = [t for t, _ in self.external_load]
        self.busy_until = 0.0
        self._rows = np.empty(0, dtype=np.intp)
        self._completes_at = np.empty(0)
        self._busy_segments: list[tuple[float, float]] = []

    def load_at(self, t: float) -> float:
        """The load of the last step at or before ``t`` (0 before the first);
        of steps that share a time, the last in sorted order holds."""
        i = bisect.bisect_right(self._step_times, t)
        return self.external_load[i - 1][1] if i else 0.0

    def effective_bandwidth(self, t: float) -> float:
        return max(self.bandwidth_bytes_per_s - self.load_at(t), MIN_EFFECTIVE_BANDWIDTH)

    def _next_step_after(self, t: float) -> float:
        i = bisect.bisect_right(self._step_times, t)
        return self._step_times[i] if i < len(self._step_times) else math.inf

    def submit_batch(self, rows: ArrayLike, nbytes: float, now: float) -> np.ndarray:
        """Enqueue transfers of ``nbytes`` each, in order, served back to back
        from ``max(now, busy_until)``. Returns their completion times."""
        rows = np.asarray(rows, dtype=np.intp)
        n = len(rows)
        completes_at = np.empty(n)
        if n == 0:
            return completes_at
        first_start = start = max(now, self.busy_until)
        done = 0
        while done < n:
            durations = np.full(n - done, nbytes / self.effective_bandwidth(start))
            clock = np.cumsum(np.concatenate(([start], durations)))
            # transfers starting before the next load step share this bandwidth
            k = int(np.searchsorted(clock[:-1], self._next_step_after(start)))
            completes_at[done : done + k] = clock[1 : k + 1]
            start = float(clock[k])
            done += k
        self.busy_until = start
        if self._busy_segments and self._busy_segments[-1][1] >= first_start:
            self._busy_segments[-1] = (self._busy_segments[-1][0], start)
        else:
            self._busy_segments.append((first_start, start))
        self._rows = np.concatenate([self._rows, rows])
        self._completes_at = np.concatenate([self._completes_at, completes_at])
        return completes_at

    @property
    def pending_count(self) -> int:
        return len(self._rows)

    def pop_completed(self, now: float) -> np.ndarray:
        """Dequeue the transfers completed by ``now`` (a FIFO prefix); returns
        their rows."""
        end = int(np.searchsorted(self._completes_at, now, side="right"))
        rows, self._rows = self._rows[:end], self._rows[end:]
        self._completes_at = self._completes_at[end:]
        return rows

    def clear_pending(self, now: float) -> int:
        """Cancel queued transfers; the channel goes idle from ``now`` on."""
        n = self.pending_count
        self._rows = self._rows[:0]
        self._completes_at = self._completes_at[:0]
        if self.busy_until > now:
            self.busy_until = now
            self._busy_segments = [
                (s, min(e, now)) for s, e in self._busy_segments if s < now
            ]
        return n

    def busy_seconds(self, t0: float, t1: float) -> float:
        total = 0.0
        for s, e in self._busy_segments:
            if e <= t0:
                continue
            if s >= t1:
                break
            total += min(e, t1) - max(s, t0)
        # drop segments that can no longer overlap future windows
        self._busy_segments = [(s, e) for s, e in self._busy_segments if e > t1]
        return total


class SwapEngine:
    """Issues swap requests and applies completed transfers to EM.

    Logically an asynchronous worker; here it runs inline on simulated time,
    with issue/apply called only at epoch boundaries so no EM slot is ever
    mutated concurrently with batch composition.
    """

    def __init__(self, channel: IoChannel, archive: StorageArchive):
        self.channel = channel
        self.archive = archive
        self.issued_total = 0
        self.applied_total = 0
        self.dropped_total = 0
        # this epoch's issued transfers and its landed ones, applied or not
        self._issued = 0
        self._settled = 0

    def issue(
        self,
        em: EpisodicMemory,
        percent: float,
        now: float,
        rng: np.random.Generator,
    ) -> int:
        """Pick ceil(percent * n) distinct EM slots uniformly and enqueue
        the ones that can apply, where n counts the held rows of classes
        that still have a fresh archive row; returns how many were enqueued.

        EM holds a subset of the archive, so a class with ``f`` archive rows
        outside EM can take at most ``f`` replacements. Of a class's picks
        only the first ``f`` in batch order are sent, the slots
        ``apply_completions`` would fill; a transfer for any other pick
        could never apply, and none is sent.
        """
        if percent <= 0.0:
            return 0
        if percent > 1.0:
            raise ValueError("percent must be in (0, 1]")
        counts = em.counts()
        held = np.fromiter(counts.values(), np.intp, len(counts))
        fresh = np.fromiter(map(self.archive.class_count, counts), np.intp, len(counts)) - held
        live = fresh > 0
        if not live.any():
            return 0
        drawn = em.rows()[np.repeat(live, held)]
        at = np.sort(rng.choice(len(drawn), size=math.ceil(percent * len(drawn)), replace=False))
        # EM's rows are one run per class, so drawn and the sorted picks are
        # too: keep each class's first fresh-count picks
        ends = np.cumsum(held[live])
        first = np.searchsorted(at, ends - held[live])
        per_class = np.searchsorted(at, ends) - first
        rank = np.arange(len(at)) - np.repeat(first, per_class)
        picked = drawn[at[rank < np.repeat(fresh[live], per_class)]]
        self.channel.submit_batch(picked, SWAP_BYTES_FACTOR * self.archive.table.size_bytes, now)
        n = len(picked)
        self.issued_total += n
        self._issued += n
        return n

    def apply_completions(
        self, em: EpisodicMemory, now: float, rng: np.random.Generator
    ) -> int:
        """Apply the transfers that landed by ``now``; returns how many.

        Landed transfers keep only slots EM still holds, each once, and are
        grouped by class with one stable sort (``class_runs``), so each
        class keeps its slots in landing order (a transfer's class is its
        row's label). One mask of the rows EM holds, taken before any
        replacement, gives every class its fresh archive rows through
        ``StorageArchive.candidates``. In ascending class order, one
        ``rng.choice`` without replacement picks ``k = min(slots, fresh)``
        of those rows, and the class's first ``k`` slots take them. So every
        replacement is a distinct row new to EM, and the rest of the landed
        transfers (vanished slots, repeated rows, and slots beyond the
        class's fresh rows) are dropped: counted, not fatal.
        """
        rows = self.channel.pop_completed(now)
        landed = len(rows)
        rows = rows[em.holds(rows)]
        # first landing of each row, in landing order
        rows = rows[np.sort(np.unique(rows, return_index=True)[1])]
        order, runs = class_runs(self.archive.table.labels[rows])
        rows = rows[order]
        # read before any replacement is written: classes share no rows, so
        # one class's replacements cannot change another's fresh rows
        held = em.held()
        old, new = [], []
        for class_id, start, end in runs:
            fresh = self.archive.candidates(class_id, held)
            k = min(end - start, len(fresh))
            if k == 0:
                continue
            old.append(rows[start : start + k])
            new.append(fresh[rng.choice(len(fresh), size=k, replace=False)])
        applied = em.replace(np.concatenate(old), np.concatenate(new)) if old else 0
        dropped = landed - applied
        self.applied_total += applied
        self.dropped_total += dropped
        self._settled += landed
        return applied

    def drop_pending(self, now: float) -> int:
        """Discard queued transfers (e.g. at a task boundary, where the EM
        reorganization makes them stale)."""
        n = self.channel.clear_pending(now)
        self.dropped_total += n
        return n

    def end_epoch(self) -> tuple[int, int]:
        """This epoch's ``(issued, settled)`` transfer counts; starts the next
        epoch's at zero. A landed transfer settles whether it applied or not."""
        counts = self._issued, self._settled
        self._issued = self._settled = 0
        return counts

    @property
    def pending_count(self) -> int:
        return self.channel.pending_count
