"""Swap-ratio control: I/O state classification, AIMD adjustment, and the
mapping from a target ratio to a concrete firing plan, the pair
``(interval_epochs, percent_per_firing)`` that ``SwapController`` keeps as
two attributes.

The ratio is tuned like a congestion window: idle I/O nudges it up by a
small additive step, congestion halves it. Ratios at or above the knee are
realized by stretching the firing interval between 1 and 5 epochs with the
whole drawn set swapped per firing; below the knee the interval stays at 5
epochs and only the per-firing percentage shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domain import IoState

# Knee of the ratio/interval mapping: at or above this ratio the whole drawn
# set is swapped every `interval` epochs; below it the interval is pinned at
# MAX_INTERVAL_EPOCHS and only the per-firing percentage shrinks.
RATIO_KNEE = 0.20
MAX_INTERVAL_EPOCHS = 5


@dataclass(frozen=True)
class ControllerConfig:
    congested_below: float = 0.90   # completion rate under this is back-pressure
    idle_empty_epochs: int = 2      # consecutive empty-queue epochs before Idle
    increase_step: float = 0.10     # additive, in absolute ratio points
    decrease_factor: float = 0.5
    ratio_floor: float = 0.01       # keeps congestion from silently zeroing swaps

    def __post_init__(self):
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
    """Mutable controller state owned by the runtime; single-threaded access."""

    ratio: float = 1.0
    cfg: ControllerConfig = field(default_factory=ControllerConfig)
    decisions: list[ControllerDecision] = field(default_factory=list)

    def __post_init__(self):
        self.interval_epochs, self.percent_per_firing = plan_from_ratio(self.ratio)

    def classify(self, rate: float | None, empty_epochs: int) -> IoState:
        return classify_io(rate, empty_epochs, self.ratio, self.cfg)

    def react(self, state: IoState, epoch: int) -> ControllerDecision | None:
        """Adjust the ratio for a non-stable state and record the decision."""
        if state is IoState.STABLE:
            return None
        old = self.ratio
        self.ratio = adjust_ratio(old, state, self.cfg)
        self.interval_epochs, self.percent_per_firing = plan_from_ratio(self.ratio)
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
