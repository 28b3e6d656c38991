"""The learner's training kernel equals the plain feature-major affine
step, bit for bit.

``reference_train_epoch`` below is that step as plainly written: each layer
is one product of its input, with a ones column appended, and its weights
stacked over its bias row (``np.vstack`` copies); the hidden layer is
feature-major, ``tanh([w1; b1].T @ x.T)`` with one column per sample and a
ones row appended; ``dlogits`` is scaled by ``learning_rate / n`` once, and
each layer's weight and bias gradients come from one product. It takes one
``ensure_classes`` per batch, a fresh temporary per operation, ``np.mean``
for the loss, the ``.max``/``.sum`` wrappers for the softmax and checks each
loss before its update. The kernel in ``hiercl.learner`` reorders none of
that arithmetic; it only maps labels once per epoch, reuses temporaries and
checks the losses once per gather group. These tests hold it to that: the
same weights, head order, learner generator state, loss and evaluation,
exactly, and on divergence the same state wherever in a group the bad batch
falls.

``row_major_train_epoch`` is the same step with one row per sample, and
``unfolded_train_epoch`` the step before the bias rows were folded in:
separate bias adds and bias reductions, and the step size applied to the
gradients. Each rounds differently, so the kernel is held to each within a
measured tolerance. Evaluation is still unfolded, and is held to
``unfolded_forward`` exactly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiercl.domain import Task
from hiercl.learner import (
    GATHER_BATCHES,
    LearnerDiverged,
    copy_state,
    ensure_classes,
    evaluate,
    init_learner,
    probe_arrays,
    train_epoch,
)
from conftest import as_probes, packed


def reference_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def with_ones(a):
    return np.hstack([a, np.ones((a.shape[0], 1))])


def reference_loss_and_grads(state, x, y_idx, learning_rate):
    """The loss and each layer's step, ``learning_rate`` times its gradient,
    over the stacked weights ``[w1; b1]`` and ``[w2; b2]``; the hidden
    layer's activations are feature-major, one column per sample."""
    n = x.shape[0]
    w1a = np.vstack([state.w1, state.b1])
    w2a = np.vstack([state.w2, state.b2])
    xa = with_ones(x)
    hidden = np.tanh(w1a.T @ xa.T)
    act = np.vstack([hidden, np.ones((1, n))])
    probs = reference_softmax(act.T @ w2a)
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(probs[np.arange(n), y_idx])))
    dlogits = probs
    dlogits[np.arange(n), y_idx] -= 1.0
    dlogits *= learning_rate / n
    dw2a = act @ dlogits
    dz1 = (state.w2 @ dlogits.T) * (1.0 - hidden**2)
    dw1a = xa.T @ dz1.T
    return loss, dw1a, dw2a


def descend(state, batches, learning_rate, table, loss_and_grads):
    labels = [table.labels[batch] for batch in batches]
    for batch_labels in labels:
        ensure_classes(state, batch_labels.tolist())
    by_rank = np.argsort(state.class_order)
    ranked = np.asarray(state.class_order)[by_rank]
    total = 0.0
    count = 0
    for batch, batch_labels in zip(batches, labels):
        x = table.features[batch].astype(np.float64)
        y = by_rank[np.searchsorted(ranked, batch_labels)]
        loss, dw1a, dw2a = loss_and_grads(state, x, y, learning_rate)
        if not np.isfinite(loss):
            raise LearnerDiverged(f"non-finite loss {loss}")
        state.w1 -= dw1a[:-1]
        state.b1 -= dw1a[-1]
        state.w2 -= dw2a[:-1]
        state.b2 -= dw2a[-1]
        total += loss * len(batch)
        count += len(batch)
    return state, total / count


def reference_train_epoch(state, batches, learning_rate, table):
    return descend(state, batches, learning_rate, table, reference_loss_and_grads)


def row_major_loss_and_grads(state, x, y_idx, learning_rate):
    """``reference_loss_and_grads`` with sample-major activations, one row
    per sample."""
    n = x.shape[0]
    w1a = np.vstack([state.w1, state.b1])
    w2a = np.vstack([state.w2, state.b2])
    xa = with_ones(x)
    act = with_ones(np.tanh(xa @ w1a))
    probs = reference_softmax(act @ w2a)
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(probs[np.arange(n), y_idx])))
    dlogits = probs
    dlogits[np.arange(n), y_idx] -= 1.0
    dlogits *= learning_rate / n
    dw2a = act.T @ dlogits
    hidden = act[:, :-1]
    dz1 = (dlogits @ state.w2.T) * (1.0 - hidden**2)
    dw1a = xa.T @ dz1
    return loss, dw1a, dw2a


def row_major_train_epoch(state, batches, learning_rate, table):
    return descend(state, batches, learning_rate, table, row_major_loss_and_grads)


def unfolded_forward(state, x):
    hidden = np.tanh(x @ state.w1 + state.b1)
    logits = hidden @ state.w2 + state.b2
    return hidden, logits


def unfolded_loss_and_grads(state, x, y_idx):
    n = x.shape[0]
    hidden, logits = unfolded_forward(state, x)
    probs = reference_softmax(logits)
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(probs[np.arange(n), y_idx])))
    dlogits = probs
    dlogits[np.arange(n), y_idx] -= 1.0
    dlogits /= n
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ state.w2.T
    dz1 = dhidden * (1.0 - hidden**2)
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    return loss, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def unfolded_train_epoch(state, batches, learning_rate, table):
    labels = [table.labels[batch] for batch in batches]
    for batch_labels in labels:
        ensure_classes(state, batch_labels.tolist())
    by_rank = np.argsort(state.class_order)
    ranked = np.asarray(state.class_order)[by_rank]
    total = 0.0
    count = 0
    for batch, batch_labels in zip(batches, labels):
        x = table.features[batch].astype(np.float64)
        y = by_rank[np.searchsorted(ranked, batch_labels)]
        loss, grads = unfolded_loss_and_grads(state, x, y)
        if not np.isfinite(loss):
            raise LearnerDiverged(f"non-finite loss {loss}")
        state.w1 -= learning_rate * grads["w1"]
        state.b1 -= learning_rate * grads["b1"]
        state.w2 -= learning_rate * grads["w2"]
        state.b2 -= learning_rate * grads["b2"]
        total += loss * len(batch)
        count += len(batch)
    return state, total / count


def reference_evaluate(state, blocks):
    column = {c: i for i, c in enumerate(state.class_order)}
    per_class = {}
    for c in sorted(c for c in blocks if c in column):
        _, logits = unfolded_forward(state, blocks[c].astype(np.float64))
        per_class[c] = float(np.mean(logits.argmax(axis=1) == column[c]))
    return per_class, float(np.mean(list(per_class.values())))


def exact_state(state):
    return (
        [a.tobytes() for a in (state.w1, state.b1, state.w2, state.b2)],
        list(state.class_order),
        state.rng.bit_generator.state,
    )


def make_task(labels, dim, dtype, seed):
    values = np.random.default_rng(seed).normal(size=(len(labels), dim)).astype(dtype)
    return Task(1, values, np.asarray(labels, np.intp), 16)


@st.composite
def epochs(draw):
    """A batch size and the labels of several epochs' rows. Labels come from
    a growing set, so later batches (and later epochs) bring classes the
    head has not seen yet; the last batch of an epoch may be short."""
    n_classes = draw(st.integers(1, 7))
    n_epochs = draw(st.integers(1, 3))
    batch_size = draw(st.integers(1, 6))
    plans = []
    for e in range(n_epochs):
        n_rows = draw(st.integers(1, 20))
        # the classes an epoch may use grow with the epoch
        top = max(1, (n_classes * (e + 1)) // n_epochs)
        plans.append(draw(st.lists(st.integers(0, top - 1), min_size=n_rows, max_size=n_rows)))
    return batch_size, plans


@settings(max_examples=120, deadline=None)
@given(
    plan=epochs(),
    dim=st.integers(1, 6),
    hidden=st.integers(1, 6),
    dtype=st.sampled_from([np.float32, np.float64]),
    learning_rate=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_kernel_equals_textbook_step_bit_for_bit(plan, dim, hidden, dtype, learning_rate, seed):
    batch_size, plans = plan
    labels = [c for epoch in plans for c in epoch]
    task = make_task(labels, dim, dtype, seed)
    table, rows = packed(task)
    kernel = init_learner(dim, hidden, seed)
    reference = copy_state(kernel)
    start = 0
    for epoch in plans:
        epoch_rows = rows[start : start + len(epoch)]
        start += len(epoch)
        batches = [epoch_rows[i : i + batch_size] for i in range(0, len(epoch_rows), batch_size)]
        _, loss = train_epoch(kernel, batches, learning_rate, table)
        _, expected = reference_train_epoch(reference, batches, learning_rate, table)
        assert loss == expected
        assert exact_state(kernel) == exact_state(reference)
    probes = as_probes(task)
    # the reference forwards one class block at a time
    rows_by_class = {}
    for s in probes:
        rows_by_class.setdefault(s.class_label, []).append(s.features)
    blocks = {c: np.stack(rows) for c, rows in rows_by_class.items()}
    per_class, average = reference_evaluate(reference, blocks)
    for c, rate in per_class.items():
        assert evaluate(kernel, probe_arrays(probes), classes=[c]) == rate
    assert evaluate(kernel, probe_arrays(probes)) == average


def bench_shape_epochs(short, other_train_epoch):
    """Two epochs at the bench's shapes, where BLAS takes other code paths
    than at the property test's: 32 features, 32 hidden units, batches of 32
    over 100 classes, more batches than one feature gather holds and a last
    batch of ``short`` rows. The kernel and ``other_train_epoch`` train from
    one initial state; each epoch yields (kernel state, its loss, the other
    state, its loss)."""
    dim, hidden, batch_size, n_classes = 32, 32, 32, 100
    n_rows = batch_size * (GATHER_BATCHES + 3) + short
    labels = np.random.default_rng(short).integers(n_classes, size=2 * n_rows)
    table, rows = packed(make_task(labels, dim, np.float32, short))
    kernel = init_learner(dim, hidden, short)
    other = copy_state(kernel)
    for epoch_rows in (rows[:n_rows], rows[n_rows:]):
        batches = [epoch_rows[i : i + batch_size] for i in range(0, n_rows, batch_size)]
        _, loss = train_epoch(kernel, batches, 0.1, table)
        _, expected = other_train_epoch(other, batches, 0.1, table)
        yield kernel, loss, other, expected


BENCH_SHORT = pytest.mark.parametrize("short", [1, 7], ids=["last-batch-1", "last-batch-7"])


@BENCH_SHORT
def test_kernel_equals_textbook_step_at_the_bench_shapes(short):
    for kernel, loss, reference, expected in bench_shape_epochs(short, reference_train_epoch):
        assert loss == expected
        assert exact_state(kernel) == exact_state(reference)
    assert len(kernel.class_order) == 100


# Folding the biases in moves the kernel off the unfolded step by rounding
# alone. Over 40 seeds of the test below, two epochs of the feature-major
# kernel moved a weight by at most 3.3e-16 (weights reach about 0.8) and a
# loss by at most 3.7e-16 of itself; the bounds leave about thirty times that.
FOLDED_WEIGHT_ATOL = 1e-14
FOLDED_LOSS_RTOL = 1e-14


@BENCH_SHORT
def test_folded_step_stays_within_rounding_of_the_unfolded_step(short):
    for kernel, loss, unfolded, expected in bench_shape_epochs(short, unfolded_train_epoch):
        assert loss == pytest.approx(expected, rel=FOLDED_LOSS_RTOL, abs=0)
        np.testing.assert_allclose(kernel.params, unfolded.params, rtol=0, atol=FOLDED_WEIGHT_ATOL)
        assert exact_state(kernel)[1:] == exact_state(unfolded)[1:]


# Feature-major activations move the kernel off the row-major step by
# rounding alone: BLAS sums the first layer's transposed product in another
# order. Over 40 seeds of the test below, two epochs moved a weight by at
# most 2.2e-16 (weights reach about 0.8) and a loss by at most 3.7e-16 of
# itself; the bounds leave about thirty times that.
FEATURE_MAJOR_WEIGHT_ATOL = 7e-15
FEATURE_MAJOR_LOSS_RTOL = 1e-14


@BENCH_SHORT
def test_feature_major_step_stays_within_rounding_of_the_row_major_step(short):
    for kernel, loss, row_major, expected in bench_shape_epochs(short, row_major_train_epoch):
        assert loss == pytest.approx(expected, rel=FEATURE_MAJOR_LOSS_RTOL, abs=0)
        np.testing.assert_allclose(kernel.params, row_major.params, rtol=0,
                                   atol=FEATURE_MAJOR_WEIGHT_ATOL)
        assert exact_state(kernel)[1:] == exact_state(row_major)[1:]


def test_mid_epoch_divergence_keeps_the_last_finite_weights():
    # identical points with conflicting labels: the first batch's huge step
    # saturates the head, so the second batch's loss is infinite
    table, rows = packed(Task(1, np.ones((6, 4), np.float32), np.arange(6) % 2, 16))
    batches = [rows[0:2], rows[2:4], rows[4:6]]
    kernel = init_learner(4, 8, 0)
    reference = copy_state(kernel)
    initial = exact_state(kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(LearnerDiverged):
            train_epoch(kernel, batches, 1e30, table)
        with pytest.raises(LearnerDiverged):
            reference_train_epoch(reference, batches, 1e30, table)
    assert exact_state(kernel) == exact_state(reference)
    assert exact_state(kernel)[0] != initial[0]


@pytest.mark.parametrize(
    "bad",
    [0, GATHER_BATCHES // 2, GATHER_BATCHES - 1, GATHER_BATCHES, GATHER_BATCHES + 3],
    ids=["first-step", "mid-group", "last-of-group", "first-of-second-group", "short-last-batch"],
)
def test_divergence_anywhere_in_a_gather_group_keeps_the_reference_state(bad):
    """A NaN feature gives its batch a NaN loss. The kernel checks losses
    once per gather group, so wherever that batch falls, it must leave the
    weights, head order and generator the reference leaves: those after the
    step before it, with every head column the epoch grew."""
    batch_size, n_batches = 3, GATHER_BATCHES + 4
    n_rows = batch_size * (n_batches - 1) + 1
    # classes keep arriving through the epoch, so the head grows batch by batch
    labels = np.minimum(np.arange(n_rows) // 5, 9)
    task = make_task(labels, 4, np.float32, bad)
    task.features[bad * batch_size, 2] = np.nan
    table, rows = packed(task)
    batches = [rows[i : i + batch_size] for i in range(0, n_rows, batch_size)]
    assert len(batches) == n_batches and len(batches[-1]) == 1
    kernel = init_learner(4, 6, bad)
    reference = copy_state(kernel)
    initial = exact_state(kernel)
    with pytest.raises(LearnerDiverged, match="non-finite loss nan"):
        train_epoch(kernel, batches, 0.3, table)
    with pytest.raises(LearnerDiverged, match="non-finite loss nan"):
        reference_train_epoch(reference, batches, 0.3, table)
    assert exact_state(kernel) == exact_state(reference)
    assert len(kernel.class_order) == 10
    # the steps before the bad one moved the weights
    assert (exact_state(kernel)[0][:2] != initial[0][:2]) == (bad > 0)
