"""Asynchronous data swapping between episodic memory and the archive over a
simulated FIFO I/O channel.

All latencies derive from bytes / effective bandwidth on a simulated clock;
training never waits on the channel. Each swapped slot moves twice its
sample size (replacement read plus write-back accounting), so ratio changes
translate linearly into channel load.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import Sample
from .memory import EpisodicMemory, StorageArchive

# Effective bandwidth never drops below this, however large the external load.
MIN_EFFECTIVE_BANDWIDTH = 1.0  # bytes/s

SWAP_BYTES_FACTOR = 2  # read replacement + write-back per slot


@dataclass
class Transfer:
    sample_id: int
    class_id: int
    nbytes: int
    issue_time: float
    completes_at: float


class IoChannel:
    """Single-server FIFO channel with optional stepwise external load.

    Completion times are fixed at enqueue using the effective bandwidth at
    service start; a later load change only affects transfers enqueued after
    it. Busy intervals are tracked so energy accounting can bill I/O-active
    seconds per epoch.
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
        self.busy_until = 0.0
        self._queue: deque[Transfer] = deque()
        self._busy_segments: list[tuple[float, float]] = []

    def load_at(self, t: float) -> float:
        load = 0.0
        for when, value in self.external_load:
            if when <= t:
                load = value
            else:
                break
        return load

    def effective_bandwidth(self, t: float) -> float:
        return max(self.bandwidth_bytes_per_s - self.load_at(t), MIN_EFFECTIVE_BANDWIDTH)

    def submit(self, sample_id: int, class_id: int, nbytes: int, now: float) -> Transfer:
        start = max(now, self.busy_until)
        duration = nbytes / self.effective_bandwidth(start)
        tr = Transfer(
            sample_id=sample_id,
            class_id=class_id,
            nbytes=nbytes,
            issue_time=now,
            completes_at=start + duration,
        )
        self.busy_until = tr.completes_at
        if self._busy_segments and self._busy_segments[-1][1] >= start:
            s0, _ = self._busy_segments[-1]
            self._busy_segments[-1] = (s0, tr.completes_at)
        else:
            self._busy_segments.append((start, tr.completes_at))
        self._queue.append(tr)
        return tr

    def pop_completed(self, now: float) -> list[Transfer]:
        done = []
        while self._queue and self._queue[0].completes_at <= now:
            done.append(self._queue.popleft())
        return done

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    def clear_pending(self, now: float) -> int:
        """Cancel queued transfers; the channel goes idle from ``now`` on."""
        n = len(self._queue)
        self._queue.clear()
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


@dataclass
class EpochSwapStats:
    issued: int = 0
    applied: int = 0
    # delivered by the channel but not applicable (slot gone, class exhausted)
    dropped_delivered: int = 0

    @property
    def settled(self) -> int:
        return self.applied + self.dropped_delivered


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
        self._epoch = EpochSwapStats()
        self._history: deque[EpochSwapStats] = deque(maxlen=64)

    def issue(
        self,
        drawn: Sequence[Sample],
        percent: float,
        now: float,
        rng: np.random.Generator,
    ) -> int:
        """Pick ceil(percent * |drawn|) distinct drawn slots uniformly and
        enqueue them; returns how many were enqueued."""
        if not drawn or percent <= 0.0:
            return 0
        if percent > 1.0:
            raise ValueError("percent must be in (0, 1]")
        n = math.ceil(percent * len(drawn))
        picked_idx = rng.choice(len(drawn), size=n, replace=False)
        picked = [drawn[i] for i in sorted(picked_idx)]
        for s in picked:
            self.channel.submit(s.id, s.class_label, SWAP_BYTES_FACTOR * s.size_bytes, now)
        self.issued_total += n
        self._epoch.issued += n
        return n

    def apply_completions(
        self, em: EpisodicMemory, now: float, rng: np.random.Generator
    ) -> int:
        """Replace each completed slot with a random same-class archive sample
        not currently in EM. Slots that vanished or classes with no fresh
        candidates are dropped (counted, not fatal)."""
        applied = 0
        held = em.ids()  # kept in sync incrementally; copying per slot is O(n^2)
        for tr in self.channel.pop_completed(now):
            if tr.sample_id not in held:
                self._drop_delivered(1)
                continue
            pick = self.archive.random_candidate(tr.class_id, held, rng)
            if pick is None:
                self._drop_delivered(1)
                continue
            if em.replace(tr.sample_id, pick):
                held.discard(tr.sample_id)
                held.add(pick.id)
                applied += 1
            else:
                self._drop_delivered(1)
        self.applied_total += applied
        self._epoch.applied += applied
        return applied

    def _drop_delivered(self, n: int) -> None:
        self.dropped_total += n
        self._epoch.dropped_delivered += n

    def drop_pending(self, now: float) -> int:
        """Discard queued transfers (e.g. at a task boundary, where the EM
        reorganization makes them stale)."""
        n = self.channel.clear_pending(now)
        self.dropped_total += n
        return n

    def end_epoch(self) -> EpochSwapStats:
        stats = self._epoch
        self._history.append(stats)
        self._epoch = EpochSwapStats()
        return stats

    def completion_rate(self, window: int) -> float | None:
        """Applied / issued over the last ``window`` epochs; None when nothing
        was issued (the idle-equivalent sentinel, never congested).

        The runtime fires swap batches after the epoch's stats are rolled, so
        a batch and its completions land in the same epoch bucket and the
        rate genuinely measures how much of the recent swap work the channel
        kept up with.
        """
        if window < 1:
            raise ValueError("window must cover at least one epoch")
        if not self._history:
            raise ValueError("completion_rate needs at least one epoch of history")
        recent = list(self._history)[-window:]
        issued = sum(s.issued for s in recent)
        if issued == 0:
            return None
        # delivered-but-inapplicable transfers still count as served: only
        # work the channel has not delivered yet should read as congestion
        settled = sum(s.settled for s in recent)
        return min(settled / issued, 1.0)

    def reset_history(self) -> None:
        """Forget per-epoch stats (task boundary); totals are preserved."""
        self._history.clear()
        self._epoch = EpochSwapStats()

    @property
    def pending_count(self) -> int:
        return self.channel.pending_count

    def conserved(self) -> bool:
        return self.issued_total == self.applied_total + self.dropped_total + self.pending_count


def required_bandwidth_bytes_per_s(
    drawn_per_epoch: int, size_bytes: int, epoch_seconds: float
) -> float:
    """Steady bandwidth needed to complete full swapping within one epoch."""
    if epoch_seconds <= 0:
        raise ValueError("epoch duration must be positive")
    return drawn_per_epoch * SWAP_BYTES_FACTOR * size_bytes / epoch_seconds
