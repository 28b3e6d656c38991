import copy
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercl.learner import CostModel
from hiercl.memory import EpisodicMemory, StorageArchive
from hiercl.swap import SWAP_BYTES_FACTOR, IoChannel, SwapEngine
from conftest import conserved, fill, labeled, packed, reserved


def required_bandwidth_bytes_per_s(
    drawn_per_epoch: int, size_bytes: int, epoch_seconds: float
) -> float:
    """Steady bandwidth needed to complete full swapping within one epoch."""
    if epoch_seconds <= 0:
        raise ValueError("epoch duration must be positive")
    return drawn_per_epoch * SWAP_BYTES_FACTOR * size_bytes / epoch_seconds


def setup_engine(bandwidth=1e9, n_classes=4, per_class=50, em_capacity=40, seed=0):
    rng = np.random.default_rng(seed)
    # spare rows for a test's late arrivals
    table = reserved()
    archive = StorageArchive(table)
    for c in range(n_classes):
        archive.append(fill(table, c * per_class, labeled([c] * per_class, size_bytes=64)))
    em = EpisodicMemory(em_capacity, table)
    em.rebalance(archive, rng)
    engine = SwapEngine(IoChannel(bandwidth), archive)
    return engine, em, rng


class TestIssue:
    def test_full_percent_covers_all_drawn(self):
        engine, em, rng = setup_engine()
        assert engine.issue(em, 1.0, now=0.0, rng=rng) == em.total == 40

    def test_quarter_percent(self):
        engine, em, rng = setup_engine(per_class=100, em_capacity=100)
        assert em.total == 100
        assert engine.issue(em, 0.25, now=0.0, rng=rng) == 25

    def test_ceiling_rule(self):
        # ceil(0.5 * 3) = 2, checked by enumeration of the tiny case
        engine, em, rng = setup_engine(em_capacity=3)
        assert em.total == 3
        assert engine.issue(em, 0.5, now=0.0, rng=rng) == 2

    def test_empty_drawn_is_noop(self):
        engine, em, rng = setup_engine(em_capacity=0)
        assert engine.issue(em, 0.5, now=0.0, rng=rng) == 0
        assert engine.issued_total == 0

    def test_request_slots_unique(self):
        engine, em, rng = setup_engine()
        engine.issue(em, 0.5, now=0.0, rng=rng)
        slot_ids = engine.channel.pop_completed(math.inf)
        assert len(slot_ids) == len(set(slot_ids.tolist())) == 20

    def test_transfer_bytes_double_sample_size(self):
        engine, em, rng = setup_engine(em_capacity=1)
        engine.issue(em, 1.0, now=0.0, rng=rng)
        # the one transfer's service time is its byte count over the bandwidth
        assert engine.channel.busy_until == 2 * 64 / engine.channel.bandwidth_bytes_per_s


    def test_class_with_few_fresh_rows_gets_few_transfers(self):
        # EM holds 190 of class 0's 200 archive rows: ten can be replaced
        engine, em, rng = setup_engine(n_classes=1, per_class=200, em_capacity=190)
        assert engine.issue(em, 1.0, now=0.0, rng=rng) == 10
        assert engine.apply_completions(em, now=math.inf, rng=rng) == 10
        assert engine.dropped_total == 0

    @settings(max_examples=150, deadline=None)
    @given(
        pools=st.lists(st.integers(1, 15), min_size=1, max_size=5),
        capacity=st.integers(0, 50),
        percent=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_each_class_sends_its_first_fresh_count_picks(self, pools, capacity, percent, seed):
        rng = np.random.default_rng(seed)
        table, *class_rows = packed(*(labeled([c] * n, size_bytes=64) for c, n in enumerate(pools)))
        archive = StorageArchive(table)
        for rows in class_rows:
            archive.append(rows)
        em = EpisodicMemory(capacity, table)
        em.rebalance(archive, rng)
        engine = SwapEngine(IoChannel(1e9), archive)
        fresh = {c: archive.class_count(c) - n for c, n in em.counts().items()}
        drawn = [em.class_rows(c) for c in fresh if fresh[c] > 0]
        draw = copy.deepcopy(rng)
        sent = engine.issue(em, percent, now=0.0, rng=rng)
        landed = copy.deepcopy(engine.channel).pop_completed(math.inf)
        expected = []
        if drawn:
            rows = np.concatenate(drawn)
            at = np.sort(draw.choice(len(rows), size=math.ceil(percent * len(rows)), replace=False))
            picks = rows[at]
            for c in fresh:
                expected += picks[table.labels[picks] == c][: fresh[c]].tolist()
        assert landed.tolist() == expected and sent == len(expected)
        # one batch, nothing in between: every transfer applies
        assert engine.apply_completions(em, now=math.inf, rng=rng) == sent
        assert engine.dropped_total == 0 and conserved(engine)


class TestApply:
    def test_fast_channel_applies_everything(self):
        engine, em, rng = setup_engine(bandwidth=1e9)
        engine.issue(em, 1.0, now=0.0, rng=rng)
        applied = engine.apply_completions(em, now=1.0, rng=rng)
        assert applied == 40
        assert em.total == 40
        rows = em.rows().tolist()
        assert len(rows) == len(set(rows))

    def test_trickle_channel_applies_nothing(self):
        engine, em, rng = setup_engine(bandwidth=1e-3)
        engine.issue(em, 1.0, now=0.0, rng=rng)
        assert engine.apply_completions(em, now=1.0, rng=rng) == 0
        assert engine.pending_count == em.total

    def test_replacement_is_never_the_evicted_sample(self):
        # single-slot swaps make the no-self-swap contract directly observable
        engine, em, rng = setup_engine(em_capacity=1)
        for _ in range(20):
            victim = em.rows()[0]
            engine.issue(em, 1.0, now=0.0, rng=rng)
            assert engine.apply_completions(em, now=100.0, rng=rng) == 1
            assert not em.holds(victim)
            rows = em.rows().tolist()
            assert len(rows) == len(set(rows))

    def test_exhausted_class_gets_no_transfer(self):
        # archive exactly equals EM: no fresh candidates anywhere
        engine, em, rng = setup_engine(per_class=10, em_capacity=40)
        assert engine.issue(em, 1.0, now=0.0, rng=rng) == 0
        assert engine.issued_total == engine.pending_count == 0
        # one fresh class-0 sample, in the row after the four classes' ten
        # each: of class 0's ten picked slots, only the first can take it, so
        # one transfer is sent
        table = engine.archive.table
        engine.archive.append(fill(table, 4 * 10, labeled([0], size_bytes=64)))
        assert engine.issue(em, 1.0, now=0.0, rng=rng) == 1
        landed = engine.channel.pop_completed(math.inf)
        assert table.labels[landed].tolist() == [0]

    def test_vanished_slot_dropped(self):
        engine, em, rng = setup_engine(em_capacity=1)
        engine.issue(em, 1.0, now=0.0, rng=rng)
        em.resize(0, engine.archive, rng)  # slot disappears before completion
        assert engine.apply_completions(em, now=100.0, rng=rng) == 0
        assert engine.dropped_total == 1


class TestApplyOneDrawPerClass:
    @settings(max_examples=200, deadline=None)
    @given(
        pools=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        capacity=st.integers(0, 40),
        percents=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
        resize_to=st.one_of(st.none(), st.integers(0, 40)),
        seed=st.integers(0, 2**16),
    )
    def test_landed_slots_take_distinct_fresh_samples(
        self, pools, capacity, percents, resize_to, seed
    ):
        rng = np.random.default_rng(seed)
        table, *class_rows = packed(*(labeled([c] * n, size_bytes=64) for c, n in enumerate(pools)))
        archive = StorageArchive(table)
        class_of = {}
        for c, rows in enumerate(class_rows):
            archive.append(rows)
            class_of.update((r, c) for r in rows.tolist())
        em = EpisodicMemory(capacity, table)
        em.rebalance(archive, rng)
        engine = SwapEngine(IoChannel(1e9), archive)
        for percent in percents:  # batches overlap, so ids get queued twice
            engine.issue(em, percent, now=0.0, rng=rng)
        if resize_to is not None:  # slots vanish before the batches land
            em.resize(resize_to, archive, rng)
        landed = copy.deepcopy(engine.channel).pop_completed(math.inf)
        before = set(em.rows().tolist())
        counts = em.counts()

        applied = engine.apply_completions(em, now=math.inf, rng=rng)

        after = em.rows().tolist()
        assert len(after) == len(set(after))
        added, removed = set(after) - before, before - set(after)
        assert applied == len(added) == len(removed)
        live = list(dict.fromkeys(i for i in landed.tolist() if i in before))
        for c, held in counts.items():
            live_c = [i for i in live if class_of[i] == c]
            k = min(len(live_c), archive.class_count(c) - held)
            assert removed & {i for i in before if class_of[i] == c} == set(live_c[:k])
            assert len([i for i in added if class_of[i] == c]) == k
        assert em.counts() == counts
        assert conserved(engine)


def reference_replace(em, old, new):
    """``EpisodicMemory.replace`` as a plain loop over the pairs: a held old
    row whose new row is unheld and of its class hands that row its
    position in ``_rows``."""
    labels = em.table.labels
    applied = 0
    for o, n in zip(old.tolist(), new.tolist()):
        if em._slot[o] >= 0 and em._slot[n] < 0 and labels[o] == labels[n]:
            em._rows[em._slot[o]] = n
            em._slot[n], em._slot[o] = em._slot[o], -1
            applied += 1
    return applied


def reference_apply_completions(engine, em, now, rng):
    """``SwapEngine.apply_completions`` as a per-class loop: a mask over
    the landed transfers and a fresh read of EM's held rows for each class,
    in ascending class order."""
    rows = engine.channel.pop_completed(now)
    landed = len(rows)
    rows = rows[em.holds(rows)]
    rows = rows[np.sort(np.unique(rows, return_index=True)[1])]
    class_ids = em.table.labels[rows]
    old, new = [], []
    for class_id in np.unique(class_ids).tolist():
        slots = rows[class_ids == class_id]
        cands = engine.archive.candidates(class_id, em.held())
        k = min(len(slots), len(cands))
        if k == 0:
            continue
        old.append(slots[:k])
        new.append(cands[rng.choice(len(cands), size=k, replace=False)])
    applied = reference_replace(em, np.concatenate(old), np.concatenate(new)) if old else 0
    engine.applied_total += applied
    engine.dropped_total += landed - applied
    engine._settled += landed
    return applied


class TestApplyEqualsPerClassLoop:
    """The class-grouped ``apply_completions`` makes the same replacements
    and the same generator calls as a plain loop over the landed classes."""

    @settings(max_examples=200, deadline=None)
    @given(
        pools=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        capacity=st.integers(0, 120),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("issue"), st.floats(0.05, 1.0)),
                st.tuples(st.just("apply"), st.floats(0.0, 0.2)),
                st.tuples(st.just("resize"), st.integers(0, 120)),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_same_slots_totals_and_generator_state(self, pools, capacity, ops, seed):
        rng = np.random.default_rng(seed)
        table, *class_rows = packed(*(labeled([c] * n, size_bytes=64) for c, n in enumerate(pools)))
        archive = StorageArchive(table)
        for rows in class_rows:
            archive.append(rows)
        em = EpisodicMemory(capacity, table)
        em.rebalance(archive, rng)
        # a slow channel, so batches queued by several issues land together
        # (repeated rows) and resizes vanish slots under queued transfers
        engine = SwapEngine(IoChannel(1e5), archive)
        twin_engine, twin_em, twin_rng = copy.deepcopy((engine, em, rng))
        now = 0.0
        for op, arg in ops + [("apply", math.inf)]:
            if op == "issue":
                engine.issue(em, arg, now, rng)
                twin_engine.issue(twin_em, arg, now, twin_rng)
            elif op == "resize":
                em.resize(arg, archive, rng)
                twin_em.resize(arg, twin_engine.archive, twin_rng)
            else:
                now += arg
                applied = engine.apply_completions(em, now, rng)
                expected = reference_apply_completions(twin_engine, twin_em, now, twin_rng)
                assert applied == expected
            classes = sorted(set(em.counts()) | set(twin_em.counts()))
            assert [em.class_rows(c).tolist() for c in classes] == [
                twin_em.class_rows(c).tolist() for c in classes
            ]
            assert (engine.applied_total, engine.dropped_total, engine.end_epoch()) == (
                twin_engine.applied_total,
                twin_engine.dropped_total,
                twin_engine.end_epoch(),
            )
            assert rng.bit_generator.state == twin_rng.bit_generator.state
        assert conserved(engine)


class TestEpochCounts:
    def test_all_applied_settle(self):
        engine, em, rng = setup_engine()
        n = engine.issue(em, 1.0, now=0.0, rng=rng)
        engine.apply_completions(em, now=10.0, rng=rng)
        assert engine.end_epoch() == (n, n)

    def test_queued_transfers_are_not_settled(self):
        # per-transfer time 2^-4 s keeps the arithmetic exact: 16 of 32 land
        engine, em, rng = setup_engine(bandwidth=2048.0, em_capacity=32)
        assert em.total == 32
        engine.issue(em, 1.0, now=0.0, rng=rng)
        engine.apply_completions(em, now=1.0, rng=rng)
        assert engine.end_epoch() == (32, 16)

    def test_end_epoch_starts_the_next_at_zero(self):
        engine, em, rng = setup_engine(bandwidth=2048.0, em_capacity=32)
        engine.issue(em, 1.0, now=0.0, rng=rng)
        engine.end_epoch()
        assert engine.end_epoch() == (0, 0)
        # transfers issued in one epoch settle in the one they land in
        engine.apply_completions(em, now=10.0, rng=rng)
        assert engine.end_epoch() == (0, 32)


class TestConservation:
    def test_issued_equals_applied_plus_pending_plus_dropped(self):
        engine, em, rng = setup_engine(bandwidth=2000.0)
        for epoch in range(8):
            engine.issue(em, 0.5, now=float(epoch), rng=rng)
            engine.apply_completions(em, now=float(epoch + 1), rng=rng)
            engine.end_epoch()
            assert conserved(engine)
        engine.drop_pending(now=8.0)
        assert conserved(engine)
        assert engine.pending_count == 0


class TestChannel:
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 5.0), st.floats(0.0, 90.0)),
            max_size=8,
        ),
        t=st.sampled_from([-1.0, 0.0, 1.0, 2.5]) | st.floats(-1.0, 6.0),
    )
    def test_load_at_matches_a_linear_scan(self, steps, t):
        # repeated step times included: the last step in sorted order holds
        load = 0.0
        for when, value in sorted(steps):
            if when <= t:
                load = value
        assert IoChannel(100.0, steps).load_at(t) == load

    def test_fifo_single_server_timing(self):
        ch = IoChannel(bandwidth_bytes_per_s=100.0)
        a, b = ch.submit_batch([1, 2], 50, now=0.0)
        assert a == pytest.approx(0.5)
        assert b == pytest.approx(1.0)
        assert ch.pop_completed(0.6).tolist() == [1]

    def test_external_load_squeezes_bandwidth(self):
        ch = IoChannel(100.0, external_load=[(10.0, 90.0)])
        (early,) = ch.submit_batch([1], 100, now=0.0)
        assert early == pytest.approx(1.0)
        (late,) = ch.submit_batch([2], 100, now=20.0)
        assert late == pytest.approx(30.0)  # 10 B/s effective

    def test_effective_bandwidth_floor(self):
        ch = IoChannel(100.0, external_load=[(0.0, 1e9)])
        assert ch.effective_bandwidth(5.0) == 1.0

    def test_busy_seconds_accounting(self):
        ch = IoChannel(100.0)
        ch.submit_batch([1], 100, now=0.0)  # busy [0, 1]
        assert ch.busy_seconds(0.0, 2.0) == pytest.approx(1.0)
        ch.submit_batch([2], 100, now=3.0)  # busy [3, 4]
        assert ch.busy_seconds(2.0, 3.5) == pytest.approx(0.5)
        assert ch.busy_seconds(3.5, 10.0) == pytest.approx(0.5)

    def test_clear_pending_truncates_busy_timeline(self):
        ch = IoChannel(1.0)
        ch.submit_batch([1], 1000, now=0.0)  # would be busy until t=1000
        ch.clear_pending(now=2.0)
        assert ch.busy_until == 2.0
        assert ch.busy_seconds(0.0, 10.0) == pytest.approx(2.0)


class ReferenceChannel:
    """The per-transfer channel the batch arithmetic must reproduce: each
    transfer starts at max(now, busy_until) and takes its bytes over the
    effective bandwidth read at its start."""

    def __init__(self, channel: IoChannel):
        self.effective_bandwidth = channel.effective_bandwidth
        self.busy_until = 0.0
        self.busy_segments: list[tuple[float, float]] = []
        self.queue: deque[tuple[int, float]] = deque()

    def submit(self, sample_id: int, nbytes: int, now: float) -> float:
        start = max(now, self.busy_until)
        completes_at = start + nbytes / self.effective_bandwidth(start)
        self.busy_until = completes_at
        if self.busy_segments and self.busy_segments[-1][1] >= start:
            self.busy_segments[-1] = (self.busy_segments[-1][0], completes_at)
        else:
            self.busy_segments.append((start, completes_at))
        self.queue.append((sample_id, completes_at))
        return completes_at

    def pop_completed(self, now: float) -> list[int]:
        done = []
        while self.queue and self.queue[0][1] <= now:
            done.append(self.queue.popleft()[0])
        return done


load_steps = st.lists(
    st.tuples(
        st.floats(0.0, 40.0, allow_nan=False), st.floats(0.0, 1500.0, allow_nan=False)
    ),
    max_size=4,
)
batches = st.lists(
    st.tuples(
        st.integers(1, 600),  # bytes per transfer
        st.integers(0, 30),  # transfers in the batch
        st.floats(0.0, 10.0, allow_nan=False),  # gap since the previous batch
        st.floats(0.0, 12.0, allow_nan=False),  # how far past its issue to pop
    ),
    max_size=8,
)


class TestBatchChannel:
    @settings(max_examples=300, deadline=None)
    @given(
        bandwidth=st.floats(1.0, 1000.0, allow_nan=False),
        load=load_steps,
        batches=batches,
    )
    def test_batch_matches_per_transfer_reference(self, bandwidth, load, batches):
        ch = IoChannel(bandwidth, external_load=load)
        ref = ReferenceChannel(ch)
        now, sid = 0.0, 0
        for nbytes, n, gap, pop_after in batches:
            now += gap
            ids = list(range(sid, sid + n))
            sid += n
            got = ch.submit_batch(ids, nbytes, now)
            want = [ref.submit(i, nbytes, now) for i in ids]
            assert got.tolist() == want  # bitwise: the same additions in the same order
            assert ch.busy_until == ref.busy_until
            assert ch._busy_segments == ref.busy_segments
            popped = ch.pop_completed(now + pop_after)
            assert popped.tolist() == ref.pop_completed(now + pop_after)
            assert ch.pending_count == len(ref.queue)

    @given(
        batches=st.lists(st.tuples(st.integers(1, 100), st.integers(0, 20)), min_size=1, max_size=2),
        pops=st.lists(st.floats(0.0, 50.0, allow_nan=False), max_size=6),
    )
    def test_pop_completed_is_a_fifo_prefix(self, batches, pops):
        ch = IoChannel(10.0)
        completes = []
        for i, (nbytes, n) in enumerate(batches):
            ids = [100 * i + k for k in range(n)]
            completes += list(zip(ids, ch.submit_batch(ids, nbytes, 0.0).tolist()))
        served = []
        for t in sorted(pops):
            ids = ch.pop_completed(t)
            served += ids.tolist()
            assert served == [i for i, done in completes if done <= t]
            assert ch.pending_count == len(completes) - len(served)

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("issue"), st.floats(0.01, 1.0)),
                st.tuples(st.just("apply"), st.floats(0.0, 3.0, allow_nan=False)),
                st.tuples(st.just("drop"), st.just(0.0)),
                st.tuples(st.just("resize"), st.integers(0, 60)),
            ),
            max_size=25,
        ),
        per_class=st.integers(5, 30),
    )
    def test_conserved_under_random_operations(self, ops, per_class):
        engine, em, rng = setup_engine(bandwidth=3000.0, per_class=per_class)
        now = 0.0
        for op, arg in ops:
            if op == "issue":
                engine.issue(em, arg, now, rng)
            elif op == "apply":
                now += arg
                engine.apply_completions(em, now, rng)
            elif op == "drop":
                engine.drop_pending(now)
            else:
                em.resize(arg, engine.archive, rng)
            assert conserved(engine)
            rows = em.rows().tolist()
            assert len(rows) == len(set(rows))


class TestRequiredBandwidth:
    def test_formula(self):
        assert required_bandwidth_bytes_per_s(100, 64, 2.0) == pytest.approx(6400.0)

    def test_image_stream_order_of_magnitude(self):
        """With the shipped image-scale config (3 KiB samples, ~3.2 s epochs
        at 7000 in-use samples) full swapping of a 2000-sample EM needs only
        a few MB/s, far below even microSD bandwidth; tolerance is +/-50%."""
        from pathlib import Path

        import yaml

        cfg = yaml.safe_load(
            (Path(__file__).parent.parent / "configs" / "edge_image.yaml").read_text()
        )
        cost = CostModel(**cfg["cost"])
        size_bytes = cfg["stream"]["size_bytes"]
        epoch_seconds = cost.epoch_seconds(5000 + 2000)
        need = required_bandwidth_bytes_per_s(2000, size_bytes, epoch_seconds)
        assert 1.9e6 <= need <= 5.7e6
        assert need < cfg["run"]["io_bandwidth_bytes_per_s"]
