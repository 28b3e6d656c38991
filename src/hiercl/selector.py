"""Conf selection: rank-based cutline filtering plus highest-utility or
lowest-energy picking. Pure functions, deterministic tie-breaks."""

from __future__ import annotations

import math
from typing import Sequence

from .domain import ProfileRecord

HIGHEST_UTILITY = "HU"
LOWEST_ENERGY = "LE"

# Validated band for the cutline is 0.2-0.5; runs default to 0.5.
DEFAULT_CUTLINE = 0.5


def _rank_key(r: ProfileRecord) -> tuple:
    # best first: accuracy desc, then cheaper, smaller, lexicographic conf
    return (-r.accuracy_estimate, r.energy_estimate, r.conf.total, r.conf)


def apply_cutline(records: Sequence[ProfileRecord], fraction: float) -> list[ProfileRecord]:
    """Keep the ceil(fraction * n) records with the highest accuracy estimates."""
    if not records:
        raise ValueError("cutline needs at least one record")
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"cutline fraction out of range: {fraction}")
    keep = math.ceil(fraction * len(records))
    return sorted(records, key=_rank_key)[:keep]


def utility(record: ProfileRecord, baseline_accuracy: float = 0.0) -> float:
    """Accuracy gained over the baseline per joule spent; gain clamps at zero."""
    gain = max(record.accuracy_estimate - baseline_accuracy, 0.0)
    return gain / record.energy_estimate


def select_record(
    records: Sequence[ProfileRecord],
    cutline: float = DEFAULT_CUTLINE,
    mode: str = HIGHEST_UTILITY,
    baseline_accuracy: float = 0.0,
) -> ProfileRecord:
    """Pick within the cutline subset: HU maximizes utility, LE minimizes energy."""
    kept = apply_cutline(records, cutline)
    if mode == HIGHEST_UTILITY:
        key = lambda r: (-utility(r, baseline_accuracy), r.energy_estimate, r.conf.total, r.conf)
    elif mode == LOWEST_ENERGY:
        key = lambda r: (r.energy_estimate, r.conf.total, r.conf)
    else:
        raise ValueError(f"unknown selection mode: {mode}")
    return min(kept, key=key)
