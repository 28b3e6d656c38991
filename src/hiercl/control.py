"""Swap-ratio control: I/O state classification, AIMD adjustment, and the
mapping from a target ratio to a concrete firing plan, the pair
``(interval_epochs, percent_per_firing)`` that ``SwapController`` keeps as
two attributes. ``SwapController`` owns the whole loop: the completion
window, the empty-queue run, the firing countdown and the decision log.

The ratio is tuned like a congestion window: idle I/O nudges it up by a
small additive step, congestion halves it. Ratios at or above the knee are
realized by stretching the firing interval between 1 and 5 epochs with the
whole drawn set swapped per firing; below the knee the interval stays at 5
epochs and only the per-firing percentage shrinks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .domain import IoState, check_ints

# Knee of the ratio/interval mapping: at or above this ratio the whole drawn
# set is swapped every `interval` epochs; below it the interval is pinned at
# MAX_INTERVAL_EPOCHS and only the per-firing percentage shrinks.
RATIO_KNEE = 0.20
MAX_INTERVAL_EPOCHS = 5

# epochs of swap history behind the completion rate the controller classifies
COMPLETION_WINDOW_EPOCHS = 5


@dataclass(frozen=True)
class ControllerConfig:
    congested_below: float = 0.90   # completion rate under this is back-pressure
    idle_empty_epochs: int = 2      # consecutive empty-queue epochs before Idle
    increase_step: float = 0.10     # additive, in absolute ratio points
    decrease_factor: float = 0.5
    ratio_floor: float = 0.01       # keeps congestion from silently zeroing swaps

    def __post_init__(self):
        check_ints(self, ("idle_empty_epochs",))
        # every ratio the controller reaches stays in [ratio_floor, 1]
        if not (0.0 < self.congested_below <= 1.0):
            raise ValueError("congested_below must be a completion rate in (0, 1]")
        if self.idle_empty_epochs < 1:
            raise ValueError("idle_empty_epochs must be >= 1")
        if not (0.0 < self.increase_step <= 1.0):
            raise ValueError("increase_step must be in (0, 1]")
        if not (0.0 < self.decrease_factor < 1.0):
            raise ValueError("decrease_factor must be in (0, 1)")
        if not (0.0 < self.ratio_floor <= 1.0):
            raise ValueError("ratio_floor must be in (0, 1]")


def classify_io(
    rate: float | None,
    empty_epochs: int,
    current_ratio: float,
    cfg: ControllerConfig = ControllerConfig(),
) -> IoState:
    """Classify the I/O channel from the swap completion rate.

    ``rate`` is None when nothing was issued in the window (the idle-equivalent
    sentinel); that can never be congested. Idle additionally requires headroom
    (ratio below 1.0), since a maxed-out ratio has nothing left to gain.
    """
    if rate is not None and rate < cfg.congested_below:
        return IoState.CONGESTED
    if empty_epochs >= cfg.idle_empty_epochs and current_ratio < 1.0:
        return IoState.IDLE
    return IoState.STABLE


def adjust_ratio(
    current: float, state: IoState, cfg: ControllerConfig = ControllerConfig()
) -> float:
    if state is IoState.IDLE:
        return min(current + cfg.increase_step, 1.0)
    if state is IoState.CONGESTED:
        return max(current * cfg.decrease_factor, cfg.ratio_floor)
    return current


def plan_from_ratio(ratio: float) -> tuple[int, float]:
    """Map a target ratio onto ``(interval_epochs, percent_per_firing)``.

    At or above the knee the interval is round(1/ratio), clamped to [1, 5],
    with a full swap per firing; the effective ratio is 1/interval. Below
    the knee the plan is exact: interval 5, percent = 5 * ratio.
    Non-positive ratios yield a plan that never fires (percent 0).
    """
    if ratio <= 0.0:
        return MAX_INTERVAL_EPOCHS, 0.0
    if ratio > 1.0:
        raise ValueError(f"ratio out of range: {ratio}")
    if ratio >= RATIO_KNEE:
        # round-half-up keeps the mapping monotone in 1/ratio
        interval = int(math.floor(1.0 / ratio + 0.5))
        return max(1, min(MAX_INTERVAL_EPOCHS, interval)), 1.0
    return MAX_INTERVAL_EPOCHS, ratio * MAX_INTERVAL_EPOCHS


@dataclass(frozen=True)
class ControllerDecision:
    epoch: int
    state: IoState
    old_ratio: float
    new_ratio: float
    interval_epochs: int
    percent_per_firing: float


@dataclass
class SwapController:
    """The AIMD loop over one run; single-threaded access.

    Per epoch the runtime hands it the swap counts (``end_epoch``), reacts
    to the state it returns, and asks whether a batch is due (``fire_due``).
    A pinned controller classifies and reports but never moves its ratio.
    """

    ratio: float = 1.0
    cfg: ControllerConfig = field(default_factory=ControllerConfig)
    decisions: list[ControllerDecision] = field(default_factory=list)
    pinned: bool = False

    def __post_init__(self):
        self.interval_epochs, self.percent_per_firing = plan_from_ratio(self.ratio)
        self.io_state = IoState.STABLE
        self.start_task()

    def start_task(self) -> None:
        """Forget the last task's evidence: its window, idle run and countdown."""
        self._window: deque[tuple[int, int]] = deque(maxlen=COMPLETION_WINDOW_EPOCHS)
        self._empty_run = 0
        self._since_firing = 0

    def end_epoch(self, issued: int, settled: int, queue_empty: bool) -> IoState | None:
        """Record one epoch's swap counts and classify the channel. Returns
        the state to react to: None when stable or pinned.

        The rate is settled / issued over the window, capped at 1; None when
        nothing was issued (the idle-equivalent sentinel, never congested).
        Delivered-but-inapplicable transfers count as settled: only work the
        channel has not delivered yet reads as congestion.
        """
        self._window.append((issued, settled))
        self._empty_run = self._empty_run + 1 if queue_empty else 0
        sent = sum(i for i, _ in self._window)
        rate = min(sum(s for _, s in self._window) / sent, 1.0) if sent else None
        self.io_state = classify_io(rate, self._empty_run, self.ratio, self.cfg)
        return None if self.pinned or self.io_state is IoState.STABLE else self.io_state

    def fire_due(self) -> bool:
        """Count one epoch toward the next firing; True when a batch is due.
        A plan that swaps nothing never counts."""
        if self.percent_per_firing <= 0:
            return False
        self._since_firing += 1
        if self._since_firing < self.interval_epochs:
            return False
        self._since_firing = 0
        return True

    def react(self, state: IoState, epoch: int) -> ControllerDecision | None:
        """Adjust the ratio for a non-stable state and record the decision.
        A move restarts the firing countdown; an increase spends the idle run."""
        if state is IoState.STABLE:
            return None
        old = self.ratio
        self.ratio = adjust_ratio(old, state, self.cfg)
        self.interval_epochs, self.percent_per_firing = plan_from_ratio(self.ratio)
        self._since_firing = 0
        if state is IoState.IDLE:
            self._empty_run = 0
        decision = ControllerDecision(
            epoch=epoch,
            state=state,
            old_ratio=old,
            new_ratio=self.ratio,
            interval_epochs=self.interval_epochs,
            percent_per_firing=self.percent_per_firing,
        )
        self.decisions.append(decision)
        return decision
