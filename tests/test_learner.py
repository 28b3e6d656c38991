import warnings

import numpy as np
import pytest

from hiercl.domain import EnergyLedger, Sample, Task
from hiercl.learner import (
    GATHER_BATCHES,
    CostModel,
    LearnerDiverged,
    LearnerState,
    charge_epoch,
    charge_profiling,
    copy_state,
    ensure_classes,
    evaluate,
    init_learner,
    probe_arrays,
    train_epoch,
)
from conftest import as_probes, labeled, packed, params_equal, train_on


def toy_task(n_per_class=8, dim=4, seed=0) -> Task:
    """Two linearly separable clusters, rows shuffled."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n_per_class)
    centers = np.where(labels == 0, 3.0, -3.0)[:, None]
    feats = (centers + rng.normal(0, 0.5, (len(labels), dim))).astype(np.float32)
    order = rng.permutation(len(labels))
    return Task(1, feats[order], labels[order], 16)


class TestTrainEpoch:
    def test_loss_decreases_on_separable_data(self):
        state = init_learner(4, hidden_width=8, seed=0)
        task = toy_task()
        _, loss1 = train_on(state, task, 0.5)
        _, loss2 = train_on(state, task, 0.5)
        assert loss2 < loss1

    def test_zero_learning_rate_is_identity(self):
        state = init_learner(4, hidden_width=8, seed=0)
        ensure_classes(state, [0, 1])
        before = copy_state(state)
        train_on(state, toy_task(), 0.0)
        assert params_equal(state, before)

    def test_divergence_raises(self):
        # identical points with conflicting labels: once a huge step saturates
        # the head, one of them is infinitely wrong and the loss blows up
        state = init_learner(4, hidden_width=8, seed=0)
        points = Task(1, np.ones((4, 4), np.float32), np.array([0, 1, 0, 1]), 16)
        with pytest.raises(LearnerDiverged):
            for _ in range(5):
                train_on(state, points, 1e30, batch_size=2)

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            state = init_learner(4, hidden_width=8, seed=123)
            for _ in range(3):
                _, loss = train_on(state, toy_task(), 0.3)
            runs.append((loss, state.w1.tobytes()))
        assert runs[0] == runs[1]


def test_gradients_match_central_finite_differences():
    """The step ``train_epoch`` takes is the loss gradient: at learning rate
    1 it moves the weights by the gradient, which central differences of
    the loss (a copy's epoch at learning rate 0) confirm."""
    state = init_learner(3, hidden_width=5, seed=7)
    ensure_classes(state, [0, 1, 2])
    rng = np.random.default_rng(11)
    table, rows = packed(Task(1, rng.normal(size=(5, 3)), np.array([0, 1, 2, 1, 0]), 16))

    def loss() -> float:
        return train_epoch(copy_state(state), [rows], 0.0, table)[1]

    stepped = copy_state(state)
    train_epoch(stepped, [rows], 1.0, table)
    grads = copy_state(state)
    grads.params[:] = state.params - stepped.params

    eps = 1e-6
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(state, name)
        numeric = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            lo_plus = loss()
            param[idx] = orig - eps
            lo_minus = loss()
            param[idx] = orig
            numeric[idx] = (lo_plus - lo_minus) / (2 * eps)
            it.iternext()
        denom = np.maximum(np.abs(numeric), 1e-8)
        rel = np.abs(getattr(grads, name) - numeric) / denom
        assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"


@pytest.mark.parametrize(
    "cut, position",
    [(lambda rows: [rows[:0]], 0), (lambda rows: [rows[:4], rows[:0], rows[4:]], 1)],
    ids=["only-batch", "middle-batch"],
)
def test_empty_batch_is_refused_before_any_change(cut, position):
    # these used to end in a TypeError and a ZeroDivisionError
    table, rows = packed(labeled(np.arange(10) % 3))
    state = init_learner(4, hidden_width=8, seed=0)
    before = copy_state(state)
    with pytest.raises(ValueError, match=f"empty batch at position {position}$"):
        train_epoch(state, cut(rows), 0.1, table)
    assert params_equal(state, before)
    assert state.rng.bit_generator.state == before.rng.bit_generator.state


class TestEvaluate:
    def _trained(self):
        state = init_learner(4, hidden_width=8, seed=0)
        for _ in range(60):
            train_on(state, toy_task(), 0.5)
        return state

    def test_perfect_classifier_scores_one(self):
        state = self._trained()
        assert evaluate(state, probe_arrays(as_probes(toy_task(seed=5)))) == 1.0

    def test_uniform_random_is_chance(self):
        # an untrained head with symmetric logits lands near 1/C
        rng = np.random.default_rng(0)
        C, dim = 8, 16
        state = init_learner(dim, hidden_width=4, seed=3)
        ensure_classes(state, range(C))
        probes = as_probes(labeled(rng.integers(C, size=4000), dim=dim))
        assert abs(evaluate(state, probe_arrays(probes)) - 1.0 / C) < 0.05

    def test_macro_average_of_known_per_class(self):
        # hand-built state: class 0 always right, class 1 right half the time
        state = LearnerState(
            w1=np.eye(2) * 5.0,
            b1=np.zeros(2),
            w2=np.eye(2),
            b2=np.zeros(2),
            class_order=[0, 1],
            rng=np.random.default_rng(0),
        )
        mk = lambda label, a, b: Sample(label, np.array([a, b], np.float32))
        tests = [
            mk(0, +1, -1),
            mk(0, +2, -2),
            mk(1, -1, +1),
            mk(1, +1, +0.99),  # first hidden unit edges it out: predicted 0
        ]
        probes = probe_arrays(tests)
        assert evaluate(state, probes, classes=[0]) == 1.0
        assert evaluate(state, probes, classes=[1]) == 0.5
        assert evaluate(state, probes) == 0.75

    def test_missing_class_excluded_with_warning(self):
        state = self._trained()
        only_zero = [p for p in as_probes(toy_task(seed=5)) if p.class_label == 0]
        with pytest.warns(UserWarning):
            result = evaluate(state, probe_arrays(only_zero))
        # class 1 is left out of the average, not scored zero
        assert result == evaluate(state, probe_arrays(only_zero), classes=[0]) == 1.0

    def test_class_restriction_skips_warning(self):
        state = self._trained()
        only_zero = [p for p in as_probes(toy_task(seed=5)) if p.class_label == 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(state, probe_arrays(only_zero), classes={0}) == 1.0


class TestCheckpoint:
    """``copy_state`` is the checkpoint: the profiler trains on copies."""

    def test_round_trip_is_byte_identical(self):
        state = init_learner(4, hidden_width=8, seed=0)
        train_on(state, toy_task(), 0.3)
        back = copy_state(state)
        assert params_equal(state, back)
        assert back.rng.bit_generator.state == state.rng.bit_generator.state

    def test_training_after_restore_is_deterministic(self):
        state = init_learner(4, hidden_width=8, seed=0)
        train_on(state, toy_task(), 0.3)
        a = copy_state(state)
        b = copy_state(state)
        _, la = train_on(a, toy_task(seed=9), 0.3)
        _, lb = train_on(b, toy_task(seed=9), 0.3)
        assert la == lb and params_equal(a, b)

    def test_checkpoints_at_different_epochs_differ(self):
        state = init_learner(4, hidden_width=8, seed=0)
        train_on(state, toy_task(), 0.3)
        cp1 = copy_state(state)
        train_on(state, toy_task(), 0.3)
        cp2 = copy_state(state)
        assert cp2.w2.tobytes() != cp1.w2.tobytes()

    def test_training_the_copy_leaves_the_original_unchanged(self):
        # a batch with a class the head lacks also grows the copy's head and
        # draws from the copy's generator
        state = init_learner(4, hidden_width=8, seed=0)
        train_on(state, toy_task(), 0.3)
        original = copy_state(state)
        rng_state = state.rng.bit_generator.state
        trained = copy_state(state)
        train_on(trained, labeled([7, 0]), 0.3)
        assert trained.class_order == [0, 1, 7]
        assert params_equal(state, original)
        assert state.rng.bit_generator.state == rng_state


class TestParameterLayout:
    """``w1``, ``b1``, ``w2`` and ``b2`` are views of the one ``params``
    vector, in that order."""

    NAMES = ("w1", "b1", "w2", "b2")

    def assert_views_of_params(self, state):
        flat = np.concatenate([getattr(state, name).ravel() for name in self.NAMES])
        assert flat.tobytes() == state.params.tobytes()
        for name in self.NAMES:
            assert np.shares_memory(getattr(state, name), state.params), name

    def test_constructor_packs_the_arrays(self):
        state = LearnerState(
            w1=np.arange(6.0).reshape(3, 2),
            b1=np.array([6.0, 7.0]),
            w2=np.arange(8.0, 12.0).reshape(2, 2),
            b2=np.array([12.0, 13.0]),
            class_order=[4, 9],
            rng=np.random.default_rng(0),
        )
        assert state.params.tolist() == list(map(float, range(14)))
        self.assert_views_of_params(state)

    def test_copy_shares_no_memory(self):
        state = init_learner(4, hidden_width=8, seed=0)
        train_on(state, toy_task(), 0.3)
        twin = copy_state(state)
        self.assert_views_of_params(twin)
        for name in ("params",) + self.NAMES:
            assert not np.shares_memory(getattr(twin, name), getattr(state, name)), name
            assert not np.shares_memory(getattr(twin, name), state.params), name

    def test_a_step_after_head_growth_moves_the_views(self):
        state = init_learner(4, hidden_width=8, seed=0)
        ensure_classes(state, [0, 1])
        old_params = state.params
        ensure_classes(state, [2, 3])
        assert state.w2.shape == (8, 4) and state.b2.shape == (4,)
        assert not np.shares_memory(state.params, old_params)
        self.assert_views_of_params(state)
        before = {name: getattr(state, name).copy() for name in self.NAMES}
        train_on(state, labeled([0, 3]), 0.5)
        assert state.class_order == [0, 1, 2, 3]
        for name in self.NAMES:
            assert getattr(state, name).tobytes() != before[name].tobytes(), name
        self.assert_views_of_params(state)


def test_gather_groups_do_not_change_the_steps():
    """An epoch of more batches than one feature gather holds trains the
    same weights as the same batches in single-batch calls."""
    rng = np.random.default_rng(3)
    table, rows = packed(labeled(rng.integers(3, size=3 * GATHER_BATCHES + 5)))
    batches = [rows[i : i + 1] for i in range(len(rows))]
    one_call = init_learner(4, hidden_width=8, seed=0)
    ensure_classes(one_call, [0, 1, 2])
    per_batch = copy_state(one_call)
    train_epoch(one_call, batches, 0.3, table)
    for batch in batches:
        train_epoch(per_batch, [batch], 0.3, table)
    assert params_equal(one_call, per_batch)


class TestCostModel:
    def test_simple_epoch_charge(self):
        cost = CostModel(
            seconds_per_sample_step=1e-3,
            gpu_dynamic_watts=5.0,
            static_watts=0.0,
            io_active_watts=0.0,
            ram_watts_per_1k_samples=0.0,
        )
        ledger = EnergyLedger()
        charge_epoch(cost, 1000, 0.0, ledger)
        assert ledger.gpu_dynamic == pytest.approx(5.0)
        assert ledger.wall_time_seconds == pytest.approx(1.0)

    def test_gpu_charge_linear_in_samples(self):
        cost = CostModel()
        l1, l2 = EnergyLedger(), EnergyLedger()
        charge_epoch(cost, 1000, 0.0, l1)
        charge_epoch(cost, 2000, 0.0, l2)
        assert l2.gpu_dynamic == pytest.approx(2 * l1.gpu_dynamic)

    def test_io_share_is_small_under_defaults(self):
        # full-epoch swap activity still stays under 3% of the GPU charge
        cost = CostModel()
        ledger = EnergyLedger()
        t = cost.epoch_seconds(2000)
        charge_epoch(cost, 2000, t, ledger)
        assert ledger.io / ledger.gpu_dynamic < 0.03

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name",
        ["seconds_per_sample_step", "gpu_dynamic_watts", "static_watts", "io_active_watts",
         "ram_watts_per_1k_samples"],
    )
    def test_non_finite_value_is_refused(self, name, value):
        # NaN passed the "< 0" checks and billed NaN joules
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            CostModel(**{name: value})

    def test_gpu_must_dominate(self):
        with pytest.raises(ValueError):
            CostModel(gpu_dynamic_watts=0.05, io_active_watts=0.1)

    def test_energy_linearity_over_epochs(self):
        cost = CostModel()
        ledger = EnergyLedger()
        for _ in range(7):
            charge_epoch(cost, 1500, 0.0, ledger)
        single = EnergyLedger()
        charge_epoch(cost, 1500, 0.0, single)
        assert ledger.gpu_dynamic == pytest.approx(7 * single.gpu_dynamic, rel=1e-9)

    def test_profiling_charges_overhead_component(self):
        cost = CostModel()
        ledger = EnergyLedger()
        seconds = charge_profiling(cost, 500, 5, ledger)
        assert ledger.profiling > 0
        assert ledger.gpu_dynamic == 0.0
        assert ledger.wall_time_seconds == pytest.approx(seconds)
