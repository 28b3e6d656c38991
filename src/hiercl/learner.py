"""Pluggable trainer interface with a reference implementation.

The reference learner is a one-hidden-layer tanh network with a softmax
head, trained by mini-batch gradient descent in float64. It is deliberately
small: cheap enough to verify against finite differences, expressive enough
to exhibit catastrophic forgetting on disjoint-class streams.

All weights live in one float64 vector, ``LearnerState.params``; the four
parameter arrays are views of it, so a step updates every weight with one
operation and a copy is one vector copy. Since ``w1, b1, w2, b2`` lie in
that order, ``[w1; b1]`` and ``[w2; b2]`` are views too, and training
steps each layer as one affine product: its input with a ones column
appended, times its weights over its bias row (the bias trick). Training
reads batches as row-index arrays into the run's ``SampleTable`` and runs
each epoch as one loop: it gathers features, cast to float64, once per
``GATHER_BATCHES`` batches, builds every index, buffer and view a step
needs once per epoch, and each step then makes only its arithmetic calls,
in place, with the hidden layer feature-major (one column per sample, so
its rows are contiguous). The losses are checked once per gather group.
The step runs the same operations in the same order as the plain
feature-major affine step; the tests hold it to that bit for bit, and to
the row-major step and the step with separate bias terms within rounding.
Evaluation reads probes as one table, a float64
feature matrix and a label array (``probe_arrays``), built once per run,
and runs one forward pass over its rows. ``copy_state`` gives an
independent copy of a state, weights and generator alike, for the profiler
to train on. Any object honoring train_epoch / evaluate /
copy_state semantics can be substituted; the runtime only moves rows and
charges costs.

The cost model converts training work into ledger joules: time is
samples-processed times seconds-per-sample, energy is power times time per
component. Power defaults are sized like a small edge board with a roughly
10 W budget where the GPU dominates dynamic draw and swap I/O sits around
0.1 W.
"""

from __future__ import annotations

import copy
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .domain import EnergyLedger, Sample, SampleTable


# Batches whose features train_epoch gathers with one call, and whose losses
# it checks for divergence with one snapshot of the weights: few enough that
# the float64 buffer stays small (16 batches of 32 rows of 32 features and
# the ones column, 33 columns, is 132 KiB) and a diverging group replays
# little, many enough that the gather's and the check's per-call costs are
# spread thin.
GATHER_BATCHES = 16


class LearnerDiverged(RuntimeError):
    """Raised when training produces a non-finite loss."""


def _param_views(
    vector: np.ndarray, feature_dim: int, hidden_width: int, n_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``w1``, ``b1``, ``w2`` and ``b2`` as views of one vector that holds
    them in that order, each matrix row-major."""
    w1_end = feature_dim * hidden_width
    b1_end = w1_end + hidden_width
    w2_end = b1_end + hidden_width * n_classes
    return (
        vector[:w1_end].reshape(feature_dim, hidden_width),
        vector[w1_end:b1_end],
        vector[b1_end:w2_end].reshape(hidden_width, n_classes),
        vector[w2_end:],
    )


class LearnerState:
    """The learner's weights, head order and generator.

    ``params`` is the one float64 vector of all weights; ``w1``, ``b1``,
    ``w2`` (one column per seen class, in ``class_order``) and ``b2`` are
    views of it (see ``_param_views``). Writing through a view moves
    ``params``; growing the head builds a new vector and new views.
    """

    def __init__(
        self,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
        class_order: list[int],
        rng: np.random.Generator,
    ):
        self.class_order = class_order
        self.rng = rng
        params = np.concatenate([np.ravel(w1), b1, np.ravel(w2), b2], dtype=np.float64)
        self._adopt(params, np.shape(w1))

    def _adopt(self, params: np.ndarray, w1_shape: tuple[int, int]) -> None:
        self.params = params
        self.w1, self.b1, self.w2, self.b2 = _param_views(params, *w1_shape, len(self.class_order))

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[1]


def init_learner(feature_dim: int, hidden_width: int = 32, seed: int | np.random.SeedSequence = 0) -> LearnerState:
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(feature_dim)
    return LearnerState(
        w1=rng.normal(0.0, scale, size=(feature_dim, hidden_width)),
        b1=np.zeros(hidden_width),
        w2=np.zeros((hidden_width, 0)),
        b2=np.zeros(0),
        class_order=[],
        rng=rng,
    )


def ensure_classes(state: LearnerState, labels: Iterable[int]) -> None:
    """Grow the prediction head to cover newly seen classes (sorted order)."""
    new = sorted(set(labels) - set(state.class_order))
    if not new:
        return
    h = state.hidden_width
    scale = 1.0 / np.sqrt(h)
    cols = state.rng.normal(0.0, scale, size=(h, len(new)))
    w2 = np.concatenate([state.w2, cols], axis=1)
    b1_end = state.w1.size + h
    params = np.concatenate([state.params[:b1_end], w2.ravel(), state.b2, np.zeros(len(new))])
    state.class_order.extend(new)
    state._adopt(params, state.w1.shape)


def _head_columns(state: LearnerState, labels: np.ndarray) -> np.ndarray | None:
    """Each label's head column (its rank among the sorted classes, mapped
    back to class_order), or None if some label has no column yet."""
    if not state.class_order:
        return None
    order = np.asarray(state.class_order)
    by_rank = np.argsort(order)
    ranked = order[by_rank]
    at = np.searchsorted(ranked, labels)
    if (ranked.take(at, mode="clip") != labels).any():
        return None
    return by_rank[at]


def train_epoch(
    state: LearnerState,
    batches: Sequence[np.ndarray],
    learning_rate: float,
    table: SampleTable,
) -> tuple[LearnerState, float]:
    """One gradient pass over all batches of table rows; returns the
    sample-weighted mean loss.

    Labels map to head columns once per epoch. If the epoch holds a class
    the head lacks, new classes grow the head batch by batch, in batch
    order, before any step: one draw per batch, so the new columns' values
    do not depend on how batches are grouped into calls. Features are
    gathered, cast to float64, once per ``GATHER_BATCHES`` batches, into a
    buffer whose last column is ones.

    Everything else a step needs is built once per epoch: each row's
    true-class index into its batch's flattened logits, one feature-major
    ``(h + 1, n)`` activation buffer per batch size whose last row is ones
    (so the hidden layer's rows are contiguous), buffer views and the step
    scale ``learning_rate / n`` per batch size, and a gradient vector laid
    out like ``params``, with the same ``[w1; b1]`` and ``[w2; b2]`` views.
    A step then makes only its arithmetic calls, in place: the transposed
    first affine product and ``tanh`` into the activation buffer; the second
    affine product; a softmax that overwrites the logits; the true-class
    probabilities taken out into one per-epoch buffer (and put back less
    one, which turns the softmax into ``n`` times ``dlogits``), then one
    scaling by the step scale; one product per layer for its weight and
    bias steps together; and ``params -= grads``. The step runs the same
    operations in the same order as the plain feature-major affine step.

    The losses are checked once per gather group: one ``log`` over the
    group's probabilities and one row-wise sum per run of equal batch sizes
    give each batch's loss, and the epoch loss adds ``loss * n`` in step
    order. A group starts from a snapshot of ``params``. An underflowed
    true-class probability is a real divergence signal: its log is left
    unclamped (its divide warning is silenced) and the loss comes out
    non-finite. A group with a non-finite loss restores its snapshot,
    replays the steps before the first such loss and raises, so the weights
    are those the step before it left.
    """
    if not batches:
        raise ValueError("train_epoch needs at least one batch")
    sizes = [len(batch) for batch in batches]
    if 0 in sizes:
        raise ValueError(f"train_epoch got an empty batch at position {sizes.index(0)}")
    rows = np.concatenate(batches)
    labels = table.labels[rows]
    columns = _head_columns(state, labels)
    if columns is None:
        for batch in batches:
            ensure_classes(state, table.labels[batch].tolist())
        columns = _head_columns(state, labels)
    params = state.params
    dim, hidden_width = state.w1.shape
    n_classes = len(state.class_order)
    # [w1; b1] and [w2; b2]: each layer's weights over its bias row
    split = (dim + 1) * hidden_width
    w1a_t = params[:split].reshape(dim + 1, hidden_width).T
    w2a = params[split:].reshape(hidden_width + 1, n_classes)
    w2 = state.w2
    grads = np.empty_like(params)
    dw1a = grads[:split].reshape(dim + 1, hidden_width)
    dw2a = grads[split:].reshape(hidden_width + 1, n_classes)
    snapshot = np.empty_like(params)
    ends = np.cumsum(sizes).tolist()
    starts = [end - n for end, n in zip(ends, sizes)]
    true = (np.arange(len(rows)) - np.repeat(starts, sizes)) * n_classes + columns
    # each row's true-class probability, then its log; each batch's loss
    probs = np.empty(len(rows))
    losses = np.empty(len(sizes))
    widest = max(sizes)
    # the inputs end in a ones column, the first layer's bias rows' input
    x_rows = np.ones((min(len(rows), GATHER_BATCHES * widest), dim + 1))
    logit_rows = np.empty((widest, n_classes))
    row_sums = np.empty((widest, 1))
    views = {}
    for n in set(sizes):
        # feature-major: one row per hidden unit, then the ones row
        act_t = np.ones((hidden_width + 1, n))
        dz1 = np.empty((hidden_width, n))
        logits = logit_rows[:n]
        views[n] = (act_t, act_t[:hidden_width], act_t.T, dz1, dz1.T, logits, logits.reshape(-1),
                    logits.T, row_sums[:n], learning_rate / n)
    groups = []
    for first in range(0, len(sizes), GATHER_BATCHES):
        last = min(first + GATHER_BATCHES, len(sizes))
        base = starts[first]
        steps = [(x_rows[starts[i] - base : ends[i] - base].T, true[starts[i] : ends[i]],
                  probs[starts[i] : ends[i]], views[sizes[i]]) for i in range(first, last)]
        # each run of equal batch sizes: its log-probabilities, one row per
        # batch, and its batches' losses
        runs, i = [], first
        for n, same in itertools.groupby(sizes[first:last]):
            k = sum(1 for _ in same)
            runs.append((probs[starts[i] : ends[i + k - 1]].reshape(k, n), losses[i : i + k], n))
            i += k
        groups.append((first, last, base, ends[last - 1], steps, runs))

    def descend(steps):
        for bx_t, at, p, (act_t, hidden, act, dz1, dz1_t, logits, flat, logits_t, row,
                          scale) in steps:
            np.dot(w1a_t, bx_t, out=hidden)
            np.tanh(hidden, out=hidden)
            np.dot(act, w2a, out=logits)
            np.maximum.reduce(logits, axis=1, keepdims=True, out=row)
            logits -= row
            np.exp(logits, out=logits)
            np.add.reduce(logits, axis=1, keepdims=True, out=row)
            logits /= row
            flat.take(at, out=p, mode="clip")
            flat.put(at, p - 1.0)
            logits *= scale
            np.dot(act_t, logits, out=dw2a)
            np.dot(w2, logits_t, out=dz1)
            # tanh' = 1 - tanh^2, over the activations: both products that
            # read them are done, and the next step's first product rewrites them
            np.multiply(hidden, hidden, out=hidden)
            np.subtract(1.0, hidden, out=hidden)
            dz1 *= hidden
            np.dot(bx_t, dz1_t, out=dw1a)
            np.subtract(params, grads, out=params)

    total = 0.0
    with np.errstate(divide="ignore"):
        for first, last, base, stop, steps, runs in groups:
            x_rows[: stop - base, :dim] = table.features.take(rows[base:stop], axis=0)
            np.copyto(snapshot, params)
            descend(steps)
            np.log(probs[base:stop], out=probs[base:stop])
            for logs, run_losses, n in runs:
                np.add.reduce(logs, axis=1, out=run_losses)
                run_losses /= -n
            for loss, n in zip(losses[first:last].tolist(), sizes[first:last]):
                total += loss * n
            # a loss is never negative, so the sum is finite iff every loss is
            if not math.isfinite(total):
                bad = int(np.argmin(np.isfinite(losses[first:last])))
                np.copyto(params, snapshot)
                descend(steps[:bad])
                raise LearnerDiverged(f"non-finite loss {float(losses[first + bad])}")
    return state, total / len(rows)


def probe_arrays(samples: Iterable[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Test samples as one float64 feature matrix and one label array,
    rows in sample order."""
    samples = list(samples)
    x = np.array([s.features for s in samples], dtype=np.float64)
    return x, np.array([s.class_label for s in samples], dtype=np.intp)


def evaluate(
    state: LearnerState,
    probes: tuple[np.ndarray, np.ndarray],
    classes: Iterable[int] | None = None,
) -> float:
    """Macro average of the per-class accuracies over seen classes.

    ``probes`` is a feature matrix and its labels (see ``probe_arrays``).
    ``classes`` restricts the average to a subset (e.g. one task's classes);
    by default every seen class is expected, and seen classes with no test
    samples are excluded with a warning rather than dragging the average to
    zero. Prediction runs over the full seen-class head, in one forward pass
    over every row; rows of a class the head lacks never count. Two
    ``np.bincount`` calls over the label codes count hits and rows per class.
    """
    if not state.class_order:
        raise ValueError("learner has not seen any classes")
    x, labels = probes
    column = {c: i for i, c in enumerate(state.class_order)}
    expected = column.keys() if classes is None else column.keys() & set(classes)
    found, codes = np.unique(labels, return_inverse=True)
    present = found.tolist()
    scored = [c for c in present if c in expected]
    missing = sorted(expected - set(scored))
    if missing:
        warnings.warn(f"no test samples for classes {missing}; excluded from average")
    if not scored:
        raise ValueError("test set covers none of the seen classes")
    # each bias add and the tanh run in place on the product they follow
    hidden = np.dot(x, state.w1)
    hidden += state.b1
    np.tanh(hidden, out=hidden)
    logits = np.dot(hidden, state.w2)
    logits += state.b2
    truth = np.array([column.get(c, -1) for c in present])[codes]
    hits = np.bincount(codes[logits.argmax(axis=1) == truth], minlength=len(present))
    rates = (hits / np.bincount(codes)).tolist()
    return float(np.mean([rate for c, rate in zip(present, rates) if c in expected]))


def copy_state(state: LearnerState) -> LearnerState:
    """An independent copy: its own parameter vector, head order and
    generator, the last a new generator of the same kind set to the
    original's state."""
    rng = np.random.Generator(type(state.rng.bit_generator)())
    rng.bit_generator.state = state.rng.bit_generator.state
    twin = copy.copy(state)
    twin.class_order = list(state.class_order)
    twin.rng = rng
    twin._adopt(state.params.copy(), state.w1.shape)
    return twin


# --- cost model ---------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    seconds_per_sample_step: float = 1e-4
    gpu_dynamic_watts: float = 7.0
    static_watts: float = 2.5
    io_active_watts: float = 0.1
    ram_watts_per_1k_samples: float = 0.05

    def __post_init__(self):
        for name in (
            "seconds_per_sample_step",
            "gpu_dynamic_watts",
            "static_watts",
            "io_active_watts",
            "ram_watts_per_1k_samples",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.seconds_per_sample_step == 0:
            raise ValueError("seconds_per_sample_step must be positive")
        # the GPU must dominate dynamic power for the decoupled-swap argument
        if self.gpu_dynamic_watts < self.io_active_watts:
            raise ValueError("gpu_dynamic_watts must be the largest dynamic term")

    def epoch_seconds(self, n_samples: int) -> float:
        return n_samples * self.seconds_per_sample_step

    def ram_watts(self, n_samples: int) -> float:
        return self.ram_watts_per_1k_samples * (n_samples / 1000.0)

    def train_joules(self, n_samples: int, epochs: int = 1) -> float:
        """Compute-side energy (GPU + static + RAM) for whole epochs."""
        t = self.epoch_seconds(n_samples) * epochs
        return (self.gpu_dynamic_watts + self.static_watts + self.ram_watts(n_samples)) * t


def charge_epoch(
    cost: CostModel,
    n_samples: int,
    swap_active_seconds: float,
    ledger: EnergyLedger,
) -> float:
    """Bill one training epoch to the ledger and advance wall time.

    Returns the epoch duration in simulated seconds. The I/O component is
    charged only for the seconds the channel was actually busy.
    """
    t = cost.epoch_seconds(n_samples)
    ledger.add("gpu_dynamic", cost.gpu_dynamic_watts * t)
    ledger.add("static", cost.static_watts * t)
    ledger.add("io", cost.io_active_watts * swap_active_seconds)
    ledger.add("ram", cost.ram_watts(n_samples) * t)
    ledger.advance_time(t)
    return t


def charge_profiling(cost: CostModel, n_samples: int, epochs: int, ledger: EnergyLedger) -> float:
    """Bill profiling work to the overhead component; returns elapsed seconds."""
    ledger.add("profiling", cost.train_joules(n_samples, epochs))
    t = cost.epoch_seconds(n_samples) * epochs
    ledger.advance_time(t)
    return t
