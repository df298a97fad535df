"""Optimizer and training-loop tests: Adam recurrence against a
hand-rolled oracle, schedule shape, determinism, overfitting."""

import math

import numpy as np
import pytest

from pvit.data import Dataset, synth_dataset
from pvit.errors import ShapeError, TrainingError
from pvit.model import PViTConfig, PViTModel
from pvit.priors import train_prior_model
from pvit.tensor import Tensor
from pvit.train import (
    ADAM_EPS,
    OptimizerState,
    TrainConfig,
    adam_step,
    loss_curve_csv,
    lr_at,
    run_training,
    train,
)


def cfg(**kw):
    base = dict(epochs=10, batch_size=4, base_lr=1e-3, warmup_epochs=1,
                beta1=0.9, beta2=0.999, weight_decay=0.0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


class TestAdamStep:
    def test_first_step_is_signed_lr(self):
        for g in (0.37, -2.1):
            p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
            state = OptimizerState()
            adam_step(p, {"x": np.array([g])}, state, lr=0.01, config=cfg())
            # at t=1 the bias-corrected ratio is g / (|g| + eps) ~ sign(g)
            expected = 1.0 - 0.01 * np.sign(g)
            assert abs(p["x"].data[0] - expected) <= 1e-6

    def test_zero_gradient_zero_state_no_move(self):
        p = {"x": Tensor(np.array([2.0]), requires_grad=True)}
        adam_step(p, {"x": np.array([0.0])}, OptimizerState(), lr=0.1, config=cfg())
        assert p["x"].data[0] == 2.0

    def test_weight_decay_shrinks_even_with_zero_gradient(self):
        p = {"x": Tensor(np.array([2.0]), requires_grad=True)}
        adam_step(p, {"x": np.array([0.0])}, OptimizerState(), lr=0.1,
                  config=cfg(weight_decay=0.01))
        assert abs(p["x"].data[0] - 2.0 * (1 - 0.1 * 0.01)) <= 1e-15

    def test_three_step_trajectory_matches_recurrence_oracle(self):
        """Minimize x^2 from x=1 at lr=0.1; oracle is an independent
        hand-rolled Adam recurrence."""
        config = cfg(weight_decay=0.0)
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        state = OptimizerState()

        x = 1.0
        m = v = 0.0
        for t in range(1, 4):
            grad = 2.0 * p["x"].data[0]
            adam_step(p, {"x": np.array([grad])}, state, lr=0.1, config=config)

            g = 2.0 * x
            m = config.beta1 * m + (1 - config.beta1) * g
            v = config.beta2 * v + (1 - config.beta2) * g * g
            m_hat = m / (1 - config.beta1**t)
            v_hat = v / (1 - config.beta2**t)
            x -= 0.1 * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
            assert abs(p["x"].data[0] - x) <= 1e-12

    def test_shape_mismatch_rejected(self):
        p = {"x": Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ShapeError):
            adam_step(p, {"x": np.zeros(2)}, OptimizerState(), lr=0.1, config=cfg())

    def test_non_finite_gradient_aborts(self):
        p = {"x": Tensor(np.zeros(2), requires_grad=True)}
        with pytest.raises(TrainingError, match="non-finite"):
            adam_step(p, {"x": np.array([1.0, np.nan])}, OptimizerState(), lr=0.1, config=cfg())

    def test_zero_lr_keeps_parameters_and_advances_state(self):
        """The final step's update runs at lr 0: the parameters, decayed or
        not, stay bitwise equal while t and the moments take the gradient."""
        config = cfg(weight_decay=0.01)
        p = {"x": Tensor(np.array([0.3, -1.7, 2.5]), requires_grad=True)}
        state = OptimizerState()
        adam_step(p, {"x": np.array([0.5, -0.2, 0.1])}, state, lr=0.1, config=config)
        before = p["x"].data.copy()
        moments = {key: value.copy() for key, value in state.moments.items()}
        g = np.array([-0.4, 0.9, 0.0])
        adam_step(p, {"x": g}, state, lr=0.0, config=config)
        assert p["x"].data.tobytes() == before.tobytes()
        assert state.t == 2 and sorted(state.moments) == ["opt.m.x", "opt.v.x"]
        np.testing.assert_array_equal(state.moments["opt.m.x"],
                                      config.beta1 * moments["opt.m.x"] + (1 - config.beta1) * g)
        np.testing.assert_array_equal(state.moments["opt.v.x"],
                                      config.beta2 * moments["opt.v.x"] + (1 - config.beta2) * (g * g))

    def test_negative_lr_rejected(self):
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(ShapeError, match="lr >= 0"):
            adam_step(p, {"x": np.array([0.5])}, OptimizerState(), lr=-1e-3, config=cfg())

    def test_step_counter_increments(self):
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        state = OptimizerState()
        for expected_t in (1, 2, 3):
            adam_step(p, {"x": np.array([0.5])}, state, lr=0.01, config=cfg())
            assert state.t == expected_t


class TestSchedule:
    def test_warmup_boundary_is_exactly_base_lr(self):
        config = cfg(epochs=10, warmup_epochs=2, base_lr=0.3)
        total = 100
        warmup = (total * 2) // 10
        assert lr_at(warmup, total, config) == 0.3

    def test_total_steps_is_zero(self):
        config = cfg(epochs=10, warmup_epochs=2)
        assert lr_at(100, 100, config) == 0.0

    def test_decay_midpoint_is_half(self):
        config = cfg(epochs=10, warmup_epochs=2, base_lr=0.4)
        total = 100
        warmup = 20
        mid = warmup + (total - warmup) // 2
        assert abs(lr_at(mid, total, config) - 0.2) <= 1e-15

    def test_piecewise_linear_continuous_with_max_base_lr(self):
        config = cfg(epochs=5, warmup_epochs=1, base_lr=0.25)
        total = 50
        values = [lr_at(s, total, config) for s in range(total + 1)]
        assert max(values) == 0.25
        diffs = np.diff(values)
        # one positive slope during warmup, one negative during decay
        assert np.all(diffs[:10] > 0) and np.all(diffs[10:] < 0)

    def test_no_warmup_starts_at_base_lr(self):
        config = cfg(epochs=5, warmup_epochs=0, base_lr=0.1)
        assert lr_at(0, 50, config) == 0.1

    def test_out_of_range_step(self):
        with pytest.raises(ShapeError):
            lr_at(101, 100, cfg())

    def test_warmup_cannot_exceed_epochs(self):
        with pytest.raises(ShapeError):
            cfg(epochs=3, warmup_epochs=4)


def tiny_model(seed=0, **overrides):
    base = dict(image_h=8, image_w=8, channels=1, patch_size=4, embed_dim=16,
                depth=2, heads=2, mlp_dim=24, num_classes=2, alpha=0.1)
    base.update(overrides)
    return PViTModel(PViTConfig(**base), seed=seed)


class TestTrainLoop:
    def _one_sample_dataset(self):
        ds = synth_dataset(2, 1, size=8, noise_sigma=0.0, seed=1)
        return Dataset("one", ds.images[:1], ds.labels[:1])

    def _priors(self, dataset, num_classes=None):
        """The dataset's (N, K) prior block, from an untrained MLP prior."""
        src, _ = train_prior_model(dataset, cfg(epochs=0, warmup_epochs=0), hidden_dim=8,
                                   seed=2, num_classes=num_classes)
        return src.resolve(dataset)

    def test_single_sample_loss_decreases_after_warmup(self):
        ds = self._one_sample_dataset()
        model = tiny_model(seed=3)
        result = train(model, ds, self._priors(ds, num_classes=2), cfg(epochs=50, batch_size=1, warmup_epochs=5))
        losses = [pt.loss for pt in result.curve]
        assert len(losses) == 50
        for i in range(5, 49):
            assert losses[i + 1] < losses[i], f"loss not strictly decreasing at step {i + 1}"

    def test_fixed_seed_bit_identical_trajectory(self):
        ds = synth_dataset(2, 8, size=8, seed=5)
        priors = self._priors(ds)
        curves = []
        for _ in range(2):
            model = tiny_model(seed=6)
            result = train(model, ds, priors, cfg(epochs=3, batch_size=4, seed=11))
            curves.append(loss_curve_csv(result.curve))
        assert curves[0] == curves[1]

    def test_alpha_zero_leaves_prior_projection_untouched(self):
        ds = synth_dataset(2, 6, size=8, seed=7)
        model = tiny_model(seed=8, alpha=0.0)
        before = model.params["prior_proj"].data.copy()
        train(model, ds, self._priors(ds), cfg(epochs=2, batch_size=3, weight_decay=0.0))
        np.testing.assert_array_equal(model.params["prior_proj"].data, before)

    def test_single_sample_overfit_under_500_steps_on_desk_config(self):
        """Default desk architecture drives one sample below loss 0.01
        within 500 steps at lr 1e-3."""
        ds = synth_dataset(4, 1, size=28, noise_sigma=0.1, seed=9)
        one = Dataset("one", ds.images[:1], ds.labels[:1])
        model = PViTModel(PViTConfig(), seed=10)
        priors = self._priors(one, num_classes=4)
        result = train(
            model, one, priors,
            cfg(epochs=500, batch_size=1, base_lr=1e-3, warmup_epochs=0, weight_decay=0.0),
        )
        assert min(pt.loss for pt in result.curve) < 0.01

    def test_state_t_counts_every_step_and_moments_are_the_result(self):
        """t is the training step: every step applies an update, the last at
        lr 0, and a given state carries on from its own t."""
        ds = synth_dataset(2, 5, size=8, seed=15)
        model = tiny_model(seed=16)
        state = OptimizerState()
        result = train(model, ds, self._priors(ds), cfg(epochs=2, batch_size=4), state)
        assert state.t == result.final_step == len(result.curve) == 6
        assert [pt.step for pt in result.curve] == [1, 2, 3, 4, 5, 6]
        assert result.curve[-1].lr == 0.0
        assert result.optimizer_tensors is state.moments
        assert sorted(state.moments) == sorted(f"opt.{kind}.{name}" for name in model.params for kind in "mv")
        again = train(model, ds, self._priors(ds), cfg(epochs=1, batch_size=4), state)
        assert [pt.step for pt in again.curve] == [7, 8, 9] and state.t == again.final_step == 9

    @pytest.mark.parametrize("rows", [4, 6])
    def test_prior_block_of_another_length_rejected(self, rows):
        ds = synth_dataset(2, 4, size=8, seed=12)
        priors = np.zeros((rows, 2))
        with pytest.raises(ShapeError, match=f"8 samples, {rows} rows"):
            train(tiny_model(), ds, priors, cfg())

    def test_unlabeled_dataset_rejected(self):
        ds = synth_dataset(2, 4, size=8, seed=12)
        unlabeled = Dataset("u", ds.images, None)
        with pytest.raises(TrainingError, match="labeled"):
            run_training(tiny_model(), unlabeled, cfg())

    def test_curve_csv_format(self):
        ds = synth_dataset(2, 4, size=8, seed=13)
        model = tiny_model(seed=14)
        result = train(model, ds, self._priors(ds), cfg(epochs=1, batch_size=4))
        csv = loss_curve_csv(result.curve)
        lines = csv.strip().splitlines()
        assert lines[0] == "step,epoch,lr,loss,accuracy"
        assert len(lines) == 1 + len(result.curve)
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
