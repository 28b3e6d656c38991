import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hiercl.control import (
    COMPLETION_WINDOW_EPOCHS,
    RATIO_KNEE,
    ControllerConfig,
    SwapController,
    adjust_ratio,
    classify_io,
    plan_from_ratio,
)
from hiercl.domain import IoState


class TestClassify:
    def test_low_rate_is_congested(self):
        assert classify_io(0.5, empty_epochs=0, current_ratio=1.0) is IoState.CONGESTED

    def test_empty_queue_with_headroom_is_idle(self):
        assert classify_io(None, empty_epochs=3, current_ratio=0.8) is IoState.IDLE

    def test_maxed_ratio_never_idle(self):
        assert classify_io(1.0, empty_epochs=5, current_ratio=1.0) is IoState.STABLE

    def test_sentinel_never_congested(self):
        # nothing issued: rate is the sentinel, not zero
        assert classify_io(None, empty_epochs=0, current_ratio=1.0) is IoState.STABLE

    def test_threshold_boundary(self):
        assert classify_io(0.90, 0, 1.0) is IoState.STABLE
        assert classify_io(0.8999, 0, 1.0) is IoState.CONGESTED


class TestAdjust:
    def test_congestion_halves(self):
        assert adjust_ratio(1.0, IoState.CONGESTED) == 0.5
        assert adjust_ratio(0.5, IoState.CONGESTED) == 0.25

    def test_idle_adds_ten_points(self):
        assert adjust_ratio(0.25, IoState.IDLE) == 0.25 + 0.10

    def test_idle_clamps_at_one(self):
        assert adjust_ratio(0.95, IoState.IDLE) == 1.0

    def test_stable_keeps_value(self):
        assert adjust_ratio(0.7, IoState.STABLE) == 0.7

    def test_floor_stops_silent_drift(self):
        r = 1.0
        for _ in range(20):
            r = adjust_ratio(r, IoState.CONGESTED)
        assert r == ControllerConfig().ratio_floor

    def test_exact_powers_of_two_until_floor(self):
        r = 1.0
        for k in range(1, 7):
            r = adjust_ratio(r, IoState.CONGESTED)
            assert r == 2.0 ** (-k)


class TestConfigRange:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("congested_below", 0.0), ("congested_below", 5.0),
            ("idle_empty_epochs", 0),
            ("increase_step", 0.0), ("increase_step", -0.5), ("increase_step", 1.5),
            ("decrease_factor", 0.0), ("decrease_factor", 1.0), ("decrease_factor", 3.0),
            ("ratio_floor", 0.0), ("ratio_floor", -1.0), ("ratio_floor", 1.5),
        ],
    )
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControllerConfig(**{field: value})

    def test_idle_empty_epochs_refuses_floats(self):
        with pytest.raises(ValueError, match="idle_empty_epochs must be an integer, got 1.5"):
            ControllerConfig(idle_empty_epochs=1.5)
        # numpy integers are integers
        assert ControllerConfig(idle_empty_epochs=np.int64(3)).idle_empty_epochs == 3

    @given(
        congested_below=st.floats(0.01, 1.0),
        increase_step=st.floats(0.01, 1.0),
        decrease_factor=st.floats(0.01, 0.99),
        ratio_floor=st.floats(0.001, 1.0),
        states=st.lists(st.sampled_from(list(IoState)), max_size=40),
    )
    def test_any_valid_config_keeps_every_plan_in_range(
        self, congested_below, increase_step, decrease_factor, ratio_floor, states
    ):
        cfg = ControllerConfig(
            congested_below=congested_below,
            increase_step=increase_step,
            decrease_factor=decrease_factor,
            ratio_floor=ratio_floor,
        )
        ctl = SwapController(cfg=cfg)
        for epoch, state in enumerate(states):
            ctl.react(state, epoch)
            assert min(ratio_floor, 1.0) <= ctl.ratio <= 1.0


class TestPlanFromRatio:
    @pytest.mark.parametrize(
        "ratio,interval,percent",
        [
            (1.0, 1, 1.0),
            (0.5, 2, 1.0),
            (0.25, 4, 1.0),
            (0.20, 5, 1.0),
            (0.10, 5, 0.5),
        ],
    )
    def test_mapping_table(self, ratio, interval, percent):
        assert plan_from_ratio(ratio) == (interval, percent)

    def test_sub_knee_is_exact(self):
        interval, percent = plan_from_ratio(0.10)
        assert interval == 5
        assert percent / interval == 0.10

    def test_derived_effective_ratio(self):
        # 5 * 0.10 = 0.5 and the effective per-epoch ratio is 0.5 / 5 = 0.10
        _, percent = plan_from_ratio(0.10)
        assert percent == 5 * 0.10
        assert percent / 5 == 0.10

    def test_nonpositive_ratio_never_fires(self):
        assert plan_from_ratio(0.0)[1] == 0.0
        assert plan_from_ratio(-0.3)[1] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            plan_from_ratio(1.5)

    def test_three_halvings_stay_above_knee_region(self):
        r = 1.0
        for _ in range(3):
            r = adjust_ratio(r, IoState.CONGESTED)
        assert r == 0.125
        interval, percent = plan_from_ratio(r)
        assert percent / interval >= 0.125

    @given(st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
    def test_quantization_bound(self, ratio):
        interval, percent = plan_from_ratio(ratio)
        if ratio < 0.20:
            assert percent == ratio * 5
        else:
            k = interval
            upper_gap = (1.0 / (k - 1) - 1.0 / k) if k > 1 else 0.5
            lower_gap = 1.0 / k - 1.0 / (k + 1)
            assert abs(percent / interval - ratio) <= max(upper_gap, lower_gap) + 1e-12

    @given(st.floats(min_value=0.0001, max_value=1.0, allow_nan=False))
    def test_plan_identity_always_canonical(self, ratio):
        # at or above the knee a firing swaps the whole drawn set every 1-5
        # epochs; below it the interval is pinned at 5
        interval, percent = plan_from_ratio(ratio)
        if ratio >= RATIO_KNEE:
            assert percent == 1.0 and 1 <= interval <= 5
        else:
            assert (interval, percent) == (5, ratio * 5)


class TestRoundTrip:
    @given(st.integers(min_value=1, max_value=5))
    def test_full_percent_plans(self, interval):
        assert plan_from_ratio(1.0 / interval) == (interval, 1.0)

    @given(st.floats(min_value=1e-6, max_value=0.999, allow_nan=False))
    def test_partial_percent_plans(self, percent):
        ratio = percent / 5
        assert plan_from_ratio(ratio) == (5, ratio * 5)
        assert plan_from_ratio(ratio)[1] == pytest.approx(percent, rel=1e-15)


class TestController:
    def test_aimd_trace_under_double_congestion(self):
        ctl = SwapController(ratio=1.0)
        trace = [ctl.ratio]
        for epoch in (1, 2):
            state = classify_io(0.5, 0, ctl.ratio, ctl.cfg)
            ctl.react(state, epoch)
            trace.append(ctl.ratio)
        assert trace == [1.0, 0.5, 0.25]

    def test_stable_records_nothing(self):
        ctl = SwapController(ratio=0.5)
        assert ctl.react(IoState.STABLE, 1) is None
        assert ctl.decisions == []

    def test_decision_log_shape(self):
        ctl = SwapController(ratio=1.0)
        ctl.react(IoState.CONGESTED, 7)
        d = ctl.decisions[0]
        assert (d.epoch, d.old_ratio, d.new_ratio) == (7, 1.0, 0.5)
        assert d.interval_epochs == 2 and d.percent_per_firing == 1.0


def last_state(history, congested_below):
    """What ``end_epoch`` returns after a history of (issued, settled) epochs
    on a channel whose queue is never empty, so the state is never idle."""
    ctl = SwapController(cfg=ControllerConfig(congested_below=congested_below))
    for issued, settled in history:
        state = ctl.end_epoch(issued, settled, queue_empty=False)
    return state


class TestCompletionRate:
    def test_all_settled_is_stable(self):
        assert last_state([(32, 32)], congested_below=1.0) is None

    def test_half_settled_is_half(self):
        assert last_state([(32, 16)], congested_below=0.5) is None
        assert last_state([(32, 16)], congested_below=math.nextafter(0.5, 1.0)) is IoState.CONGESTED

    def test_nothing_issued_sentinel(self):
        # nothing issued: the rate is the sentinel, not zero
        assert last_state([(0, 0)], congested_below=1.0) is None

    def test_window_forgets_older_epochs(self):
        stale = [(10, 0)] + [(10, 10)] * COMPLETION_WINDOW_EPOCHS
        assert last_state(stale, congested_below=1.0) is None
        assert last_state(stale[:-1], congested_below=1.0) is IoState.CONGESTED

    @given(
        history=st.lists(
            st.tuples(st.one_of(st.just(0), st.integers(0, 40)), st.integers(0, 80)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_rate_is_settled_over_issued_in_window(self, history):
        # the rate is pinned from both sides: not congested at a threshold
        # equal to it, congested at the next float up
        recent = history[-COMPLETION_WINDOW_EPOCHS:]
        issued = sum(i for i, _ in recent)
        if issued == 0:
            assert last_state(history, congested_below=1.0) is None
            return
        rate = min(sum(s for _, s in recent) / issued, 1.0)
        if rate > 0.0:
            assert last_state(history, congested_below=rate) is None
        if rate < 1.0:
            above = math.nextafter(rate, 1.0)
            assert last_state(history, congested_below=above) is IoState.CONGESTED


class TestTaskStart:
    def test_start_task_empties_the_window(self):
        ctl = SwapController()
        assert ctl.end_epoch(10, 0, queue_empty=False) is IoState.CONGESTED
        ctl.start_task()
        assert ctl.end_epoch(0, 0, queue_empty=False) is None
        assert ctl.end_epoch(10, 10, queue_empty=False) is None

    def test_start_task_restarts_the_idle_run(self):
        ctl = SwapController(ratio=0.5, cfg=ControllerConfig(idle_empty_epochs=2))
        assert ctl.end_epoch(0, 0, queue_empty=True) is None
        ctl.start_task()
        assert ctl.end_epoch(0, 0, queue_empty=True) is None
        assert ctl.end_epoch(0, 0, queue_empty=True) is IoState.IDLE


class TestFireDue:
    def test_fires_once_every_interval(self):
        for ratio, interval in ((1.0, 1), (0.5, 2), (0.2, 5), (0.05, 5)):
            ctl = SwapController(ratio=ratio)
            assert ctl.interval_epochs == interval
            fired = [ctl.fire_due() for _ in range(3 * interval)]
            assert fired == ([False] * (interval - 1) + [True]) * 3

    def test_a_move_restarts_the_count(self):
        ctl = SwapController(ratio=0.5)
        assert ctl.fire_due() is False
        ctl.react(IoState.CONGESTED, epoch=1)  # interval 2 -> 4
        assert [ctl.fire_due() for _ in range(4)] == [False, False, False, True]

    def test_start_task_restarts_the_count(self):
        ctl = SwapController(ratio=0.5)
        assert ctl.fire_due() is False
        ctl.start_task()
        assert [ctl.fire_due() for _ in range(2)] == [False, True]

    def test_a_plan_that_swaps_nothing_never_counts(self):
        ctl = SwapController(ratio=0.0)
        assert not any(ctl.fire_due() for _ in range(20))
        ctl = SwapController(ratio=0.2)
        ctl.percent_per_firing = 0.0
        assert not any(ctl.fire_due() for _ in range(4))
        ctl.percent_per_firing = 1.0
        assert [ctl.fire_due() for _ in range(5)] == [False] * 4 + [True]


class TestEpochEnd:
    def test_pinned_controller_records_state_but_never_reacts(self):
        ctl = SwapController(ratio=0.5, pinned=True)
        assert ctl.end_epoch(10, 1, queue_empty=False) is None
        assert ctl.io_state is IoState.CONGESTED
        assert ctl.ratio == 0.5 and ctl.decisions == []

    def test_an_increase_spends_the_idle_run(self):
        ctl = SwapController(ratio=0.5, cfg=ControllerConfig(idle_empty_epochs=2))
        states = []
        for _ in range(4):
            state = ctl.end_epoch(0, 0, queue_empty=True)
            states.append(state)
            if state is not None:
                ctl.react(state, epoch=len(states))
        assert states == [None, IoState.IDLE, None, IoState.IDLE]
        assert ctl.ratio == pytest.approx(0.7)


def reference_aimd(ratio, cfg, history):
    """The AIMD rule written out on its own: per epoch, the I/O state, the
    ratio after the reaction and the firing plan it maps to. Congestion is a
    completion rate under the threshold; idle is enough empty-queue epochs
    with headroom left. Congestion multiplies down to the floor, idle adds
    up to 1. At or above 0.2 the plan swaps everything every
    round(1/ratio) epochs, clamped to 1..5; below it swaps 5 * ratio every
    5 epochs."""
    out = []
    for rate, empty_epochs in history:
        if rate is not None and rate < cfg.congested_below:
            state, ratio = IoState.CONGESTED, max(ratio * cfg.decrease_factor, cfg.ratio_floor)
        elif empty_epochs >= cfg.idle_empty_epochs and ratio < 1.0:
            state, ratio = IoState.IDLE, min(ratio + cfg.increase_step, 1.0)
        else:
            state = IoState.STABLE
        if ratio >= 0.2:
            plan = (min(max(math.floor(1.0 / ratio + 0.5), 1), 5), 1.0)
        else:
            plan = (5, 5 * ratio)
        out.append((state, ratio, plan))
    return out


class TestAimdProperty:
    @given(
        ratio=st.floats(0.001, 1.0),
        congested_below=st.floats(0.01, 1.0),
        idle_empty_epochs=st.integers(1, 3),
        increase_step=st.floats(0.01, 1.0),
        decrease_factor=st.floats(0.01, 0.99),
        ratio_floor=st.floats(0.001, 1.0),
        history=st.lists(
            st.tuples(st.none() | st.floats(0.0, 1.0), st.integers(0, 4)), max_size=60
        ),
    )
    def test_controller_follows_the_reference_rule(
        self, ratio, congested_below, idle_empty_epochs, increase_step,
        decrease_factor, ratio_floor, history,
    ):
        cfg = ControllerConfig(
            congested_below=congested_below,
            idle_empty_epochs=idle_empty_epochs,
            increase_step=increase_step,
            decrease_factor=decrease_factor,
            ratio_floor=ratio_floor,
        )
        ctl = SwapController(ratio=ratio, cfg=cfg)
        expected_moves = []
        for epoch, ((rate, empty_epochs), (state, new_ratio, plan)) in enumerate(
            zip(history, reference_aimd(ratio, cfg, history)), start=1
        ):
            old_ratio = ctl.ratio
            assert classify_io(rate, empty_epochs, ctl.ratio, ctl.cfg) is state
            decision = ctl.react(state, epoch)
            assert ctl.ratio == new_ratio
            assert (ctl.interval_epochs, ctl.percent_per_firing) == plan
            if state is IoState.STABLE:
                assert decision is None
            else:
                expected_moves.append((epoch, state, old_ratio, new_ratio, *plan))
        assert [
            (d.epoch, d.state, d.old_ratio, d.new_ratio, d.interval_epochs, d.percent_per_firing)
            for d in ctl.decisions
        ] == expected_moves
