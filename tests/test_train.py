"""Optimizer and training-loop tests: Adam recurrence against a
hand-rolled oracle, the whole-vector update against the per-tensor
oracle, schedule shape, determinism, overfitting, and mixed-precision
steps against a float64 loop."""

import math
import sys

import numpy as np
import pytest

import oracle
from pvit.data import Dataset, synth_dataset
from pvit.errors import ShapeError, TrainingError
from pvit.model import PViTConfig, PViTModel
from pvit.priors import MLPClassifier, MLPConfig, train_prior_model
from pvit.rng import philox
from pvit.tensor import Tape, Tensor, backward
from pvit.train import (
    ADAM_EPS,
    OptimizerState,
    TrainConfig,
    adam_step,
    loss_curve_csv,
    lr_at,
    resume_state,
    run_training,
    train,
)


def cfg(**kw):
    base = dict(epochs=10, batch_size=4, base_lr=1e-3, warmup_epochs=1,
                beta1=0.9, beta2=0.999, weight_decay=0.0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def repointed(params, name):
    """``params``, with ``name``'s data now a copy of its array."""
    params[name].data = params[name].data.copy()
    return params


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

    @pytest.mark.parametrize("stepped", [False, True], ids=["fresh", "stepped"])
    @pytest.mark.parametrize("bad, error, message", [
        (np.array([0.5, np.nan, 0.1]), TrainingError, r"^non-finite gradient in 'b' at step \d$"),
        (np.array([0.5, 0.2]), ShapeError, r"^gradient for 'b' has shape \(2,\), parameter is \(3,\)$"),
    ], ids=["nan", "misshapen"])
    def test_a_refused_step_changes_nothing(self, stepped, bad, error, message):
        """A bad gradient in the second parameter refuses the step before
        the first parameter, any moment or t changes."""
        params = {"a": Tensor(np.array([1.0, -2.0]), requires_grad=True),
                  "b": Tensor(np.array([0.3, 0.4, -0.5]), requires_grad=True)}
        state = OptimizerState()
        good = {"a": np.array([0.7, -0.1]), "b": np.array([0.2, 0.0, -0.3])}
        if stepped:
            adam_step(params, good, state, lr=0.01, config=cfg(weight_decay=0.01))
        before = {name: p.data.tobytes() for name, p in params.items()}
        moments = {key: value.tobytes() for key, value in state.moments.items()}
        t = state.t
        arrays = {name: p.data for name, p in params.items()}
        with pytest.raises(error, match=message):
            adam_step(params, {"a": good["a"], "b": bad}, state, lr=0.01, config=cfg(weight_decay=0.01))
        assert all(p.data is arrays[name] for name, p in params.items()) and (state.params is None) == (not stepped)
        assert {name: p.data.tobytes() for name, p in params.items()} == before
        assert {key: value.tobytes() for key, value in state.moments.items()} == moments
        assert list(state.moments) == list(moments) and state.t == t
        adam_step(params, good, state, lr=0.01, config=cfg())  # the state is still usable
        assert state.t == t + 1


class TestFlatAdam:
    """``adam_step`` runs on one flat vector per state, bitwise the
    per-tensor oracle."""

    @staticmethod
    def params():
        model = PViTModel(PViTConfig(), seed=24)
        return {name: Tensor(p.data.copy(), requires_grad=True) for name, p in model.params.items()}

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    def test_thirty_steps_are_bitwise_the_per_tensor_oracle(self, weight_decay, resumed):
        """Learning rates vary, lr 0 among them; ``head.bias`` has a
        gradient on every third step only; a resumed state's moments come
        from a dict in another order than the parameters."""
        config = cfg(weight_decay=weight_decay)
        flat, reference = self.params(), self.params()
        rng = np.random.default_rng(25)
        moments, t = {}, 0
        if resumed:
            moments = {f"opt.{kind}.{name}": rng.normal(size=p.shape) ** (2 if kind == "v" else 1)
                       for name, p in reversed(flat.items()) for kind in "mv"}
            t = 5
        state = OptimizerState(moments={key: value.copy() for key, value in moments.items()}, t=t)
        lrs = rng.uniform(0, 1e-2, size=30)
        lrs[[0, 13, 29]] = 0.0
        for step, lr in enumerate(lrs):
            grads = {name: rng.normal(size=p.shape).astype(np.float32) for name, p in flat.items()
                     if name != "head.bias" or step % 3 == 0}
            adam_step(flat, grads, state, float(lr), config)
            t += 1
            oracle.adam_step(reference, {name: g.astype(np.float64) for name, g in grads.items()},
                             moments, t, float(lr), config)
        assert state.t == t
        for name, p in flat.items():
            assert p.data.tobytes() == reference[name].data.tobytes(), name
        assert list(state.moments) == list(moments)
        for key, value in moments.items():
            assert state.moments[key].dtype == np.float64 and state.moments[key].tobytes() == value.tobytes(), key

    def test_vectors_are_built_without_touching_params_or_moments(self):
        """A new state holds only what it was given; bind copies the
        parameters and moments into its vectors, leaving the given arrays
        as they were, and points the parameters at their copies."""
        params = self.params()
        arrays = {name: p.data for name, p in params.items()}
        copies = {name: a.copy() for name, a in arrays.items()}
        given = np.full(params["head.bias"].shape, 0.5)
        moments = {"opt.v.head.bias": given}
        state = OptimizerState(moments=moments)
        assert state.params is None and not hasattr(state, "master")
        assert all(p.data is arrays[name] for name, p in params.items())
        assert list(moments) == ["opt.v.head.bias"] and moments["opt.v.head.bias"] is given
        state.bind(params)
        assert all(np.array_equal(arrays[name], copies[name]) for name in params) and np.all(given == 0.5)
        assert np.array_equal(state.master, np.concatenate([a.ravel() for a in arrays.values()]))
        assert all(p.data.base is state.master for p in params.values())
        assert state.moments["opt.v.head.bias"].base is state.v
        assert np.array_equal(state.moments["opt.v.head.bias"], given) and not state.m.any()
        assert list(state.moments)[:2] == ["opt.v.head.bias", f"opt.m.{next(iter(params))}"]

    @staticmethod
    def assert_refused_unbound(moments, message):
        x = np.zeros(3)
        params = {"x": Tensor(x, requires_grad=True)}
        state = OptimizerState(moments=dict(moments))
        with pytest.raises(ShapeError, match=message):
            adam_step(params, {"x": np.ones(3)}, state, 0.01, cfg())
        assert state.t == 0 and state.params is None and params["x"].data is x and not x.any()
        assert list(state.moments) == list(moments) and all(state.moments[k] is v for k, v in moments.items())

    def test_a_moment_shaped_unlike_its_parameter_is_refused(self):
        self.assert_refused_unbound({"opt.m.x": np.zeros(1), "opt.v.x": np.zeros(3)},
                                    r"^tensor 'opt.m.x' has shape \(1,\), its parameter \(3,\)$")

    def test_a_moment_of_no_parameter_is_refused(self):
        """Such a moment would be saved with the state, in a checkpoint
        that resume_state refuses; the state stays unbound instead."""
        self.assert_refused_unbound({"opt.m.nope": np.zeros(3)},
                                    r"^tensor 'opt.m.nope' is not an opt.m./opt.v. moment of a parameter$")

    def test_a_moment_of_no_parameter_is_refused_before_training(self):
        ds = synth_dataset(2, 4, size=8, seed=22)
        model = tiny_model(seed=23)
        before = {name: p.data for name, p in model.params.items()}
        state = OptimizerState(moments={"opt.m.nope": np.zeros(2), "opt.v.nope": np.zeros(2)})
        with pytest.raises(ShapeError, match="'opt.m.nope' is not an opt.m./opt.v. moment"):
            train(model, ds, np.zeros((8, 2)), cfg(), state)
        assert state.t == 0 and state.params is None
        assert all(p.data is before[name] for name, p in model.params.items())

    @pytest.mark.parametrize("change, name", [
        (lambda params: {("head.b" if n == "head.bias" else n): p for n, p in params.items()}, "head.b"),
        (lambda params: dict(reversed(params.items())), "head.bias"),
        (lambda params: {n: Tensor(p.data, requires_grad=True) if n == "cls_token" else p
                         for n, p in params.items()}, "cls_token"),
        (lambda params: repointed(params, "pos_embed"), "pos_embed"),
        (lambda params: dict(list(params.items())[:-1]), "head.bias"),
    ], ids=["renamed", "reordered", "another-tensor", "repointed", "one-fewer"])
    def test_a_bound_state_refuses_other_parameters(self, change, name):
        """A bound state takes only the parameters it holds, in order, each
        at its master view: other parameters are refused, naming the first
        that differs, before anything changes."""
        params = self.params()
        state = OptimizerState()
        grads = {n: np.ones(p.shape) for n, p in params.items()}
        adam_step(params, grads, state, 0.01, cfg())
        other = change(params)
        arrays = {n: p.data for n, p in other.items()}
        values = {n: a.tobytes() for n, a in arrays.items()}
        moments = {key: value.tobytes() for key, value in state.moments.items()}
        with pytest.raises(TrainingError, match=f"^the training state is bound to other parameters: '{name}' differs$"):
            adam_step(other, {n: np.ones(p.shape) for n, p in other.items()}, state, 0.01, cfg())
        assert all(p.data is arrays[n] and p.data.tobytes() == values[n] for n, p in other.items())
        assert {key: value.tobytes() for key, value in state.moments.items()} == moments and state.t == 1


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

    def test_zero_epoch_schedule_is_base_lr_at_step_0(self):
        """A 0-epoch schedule has no warmup span to divide by."""
        assert lr_at(0, 0, cfg(epochs=0, warmup_epochs=0, base_lr=0.2)) == 0.2

    def test_no_warmup_starts_at_base_lr(self):
        config = cfg(epochs=5, warmup_epochs=0, base_lr=0.1)
        assert lr_at(0, 50, config) == 0.1

    def test_out_of_range_step(self):
        with pytest.raises(ShapeError):
            lr_at(101, 100, cfg())

    def test_warmup_cannot_exceed_epochs(self):
        with pytest.raises(ShapeError):
            cfg(epochs=3, warmup_epochs=4)


class TestTrainConfig:
    def test_boundary_values_pass(self):
        cfg(beta1=0.0, beta2=0.0, weight_decay=0.0, epochs=0, warmup_epochs=0)

    def test_negative_seed_is_refused_by_training(self):
        """``TrainConfig(seed=-1)`` used to reach numpy's bare ValueError."""
        ds = synth_dataset(2, 2, size=8, seed=1)
        with pytest.raises(ShapeError, match="seed must be a non-negative integer, got -1"):
            run_training(tiny_model(), ds, cfg(seed=-1), priors_for=lambda idx: np.zeros((len(idx), 2)))


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

    @staticmethod
    def assert_views_of_the_flat_vectors(model, state):
        for name, p in model.params.items():
            assert p.data.dtype == np.float64 and p.data.flags["C_CONTIGUOUS"], name
            assert p.data.base is state.master, name
        for key, moment in state.moments.items():
            assert moment.dtype == np.float64 and moment.base is (state.m if key.startswith("opt.m.") else state.v), key
        offsets = np.cumsum([0] + [p.data.size for p in model.params.values()])
        assert np.array_equal(state.master, np.concatenate([p.data.ravel() for p in model.params.values()]))
        assert [p.data.__array_interface__["data"][0] - state.master.__array_interface__["data"][0]
                for p in model.params.values()] == [8 * int(offset) for offset in offsets[:-1]]

    def test_trained_parameters_and_moments_are_views_of_flat_vectors(self):
        """After training, every parameter is float64, C-contiguous and a view
        of the master vector, in parameter order, and the moments are views
        of the moment vectors, keyed m then v per parameter in parameter order."""
        ds = synth_dataset(2, 4, size=8, seed=26)
        model, state = tiny_model(seed=27), OptimizerState()
        train(model, ds, self._priors(ds), cfg(epochs=1, batch_size=4), state)
        self.assert_views_of_the_flat_vectors(model, state)
        assert list(state.moments) == [f"opt.{kind}.{name}" for name in model.params for kind in "mv"]

    def test_resumed_moments_keep_the_checkpoint_order(self, tmp_path):
        ds = synth_dataset(2, 4, size=8, seed=28)
        model = tiny_model(seed=29)
        saved = {f"opt.{kind}.{name}": np.full(p.shape, 0.5)
                 for name, p in reversed(model.params.items()) for kind in "vm"}
        path = str(tmp_path / "resume.ckpt")
        model.save(path, step=3, epoch=1, extra_tensors=saved)
        loaded, header, tensors = PViTModel.load(path)
        state, _ = resume_state(path, header, tensors, loaded.params)
        self.assert_views_of_the_flat_vectors(loaded, state)
        train(loaded, ds, self._priors(ds), cfg(epochs=1, batch_size=4), state)
        self.assert_views_of_the_flat_vectors(loaded, state)
        assert list(state.moments) == list(saved) and state.t == 5

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


DESK_TRAIN = dict(batch_size=32, base_lr=3e-4, warmup_epochs=1, weight_decay=1e-3, seed=4)
DESK_MODELS = {
    "pvit": (lambda: PViTModel(PViTConfig(), seed=19), True),
    "mlp-prior": (lambda: MLPClassifier(MLPConfig(input_dim=784, hidden_dim=128, num_classes=4), seed=20), False),
}


class TestMixedPrecision:
    """Each step runs forward and backward on a float32 working copy of the
    float64 master weights; Adam, its moments and the masters stay float64."""

    @staticmethod
    def desk_data(n, seed=17):
        ds = synth_dataset(4, n // 4, size=28, noise_sigma=0.2, seed=seed)
        return ds, np.random.default_rng(seed).normal(size=(len(ds), 4))

    def test_ten_desk_steps_track_a_float64_loop(self, monkeypatch):
        ds, priors = self.desk_data(160)
        config = TrainConfig(epochs=2, **DESK_TRAIN)
        received = []

        def recording_adam_step(params, grads, state, lr, config):
            replayed = {name: Tensor(p.data.copy()) for name, p in params.items()}
            moments = {key: value.copy() for key, value in state.moments.items()}
            adam_step(params, grads, state, lr, config)
            # what Adam consumed: the float32 leaf gradients cast to float64, replayed per tensor
            oracle.adam_step(replayed, {name: g.astype(np.float64) for name, g in grads.items()},
                             moments, state.t, lr, config)
            differing = [name for name, p in params.items() if p.data.tobytes() != replayed[name].data.tobytes()]
            differing += [key for key, m in state.moments.items() if m.tobytes() != moments[key].tobytes()]
            received.append((grads, differing))

        # the package's `train` attribute is the function, so reach the module by name
        monkeypatch.setattr(sys.modules["pvit.train"], "adam_step", recording_adam_step)
        mixed, state = PViTModel(PViTConfig(), seed=18), OptimizerState()
        result = train(mixed, ds, priors, config, state)
        monkeypatch.undo()

        # run_training's batch order and update, every step in float64
        double, reference = PViTModel(PViTConfig(), seed=18), OptimizerState()
        gen = philox(config.seed, 0x5EED)
        losses = []
        for _ in range(config.epochs):
            order = gen.permutation(len(ds))
            for b in range(5):
                idx = order[b * 32 : (b + 1) * 32]
                double.zero_grad()
                with Tape():
                    loss, _ = double.batch_loss(ds.images[idx], ds.labels[idx], priors[idx])
                backward(loss)
                losses.append(loss.item())
                grads = {name: p.grad for name, p in double.params.items()}
                adam_step(double.params, grads, reference, lr_at(reference.t + 1, 10, config), config)

        assert len(result.curve) == len(losses) == len(received) == 10
        assert max(abs(pt.loss - loss) for pt, loss in zip(result.curve, losses)) <= 1e-6
        for name, p in mixed.params.items():
            assert p.data.dtype == np.float64, name
            assert np.max(np.abs(p.data - double.params[name].data)) <= 1e-4, name
        assert sorted(state.moments) == sorted(reference.moments)
        assert all(moment.dtype == np.float64 for moment in state.moments.values())
        for grads, differing in received:
            assert sorted(grads) == sorted(mixed.params)
            assert all(g.dtype == np.float32 for g in grads.values())
            assert differing == []

    @pytest.mark.parametrize("model", DESK_MODELS)
    def test_one_desk_step_fills_float32_leaf_gradients(self, model):
        make, takes_priors = DESK_MODELS[model]
        ds, priors = self.desk_data(32)
        trainable = make()
        run_training(trainable, ds, TrainConfig(epochs=1, **DESK_TRAIN),
                     priors_for=(lambda idx: priors[idx]) if takes_priors else None)
        for name, p in trainable.params.items():
            assert p.data.dtype == np.float64, name
            assert p.grad is not None and p.grad.dtype == np.float32, name

    @pytest.mark.parametrize("model", DESK_MODELS)
    def test_a_non_finite_loss_leaves_the_float64_masters(self, model):
        make, takes_priors = DESK_MODELS[model]
        ds, priors = self.desk_data(32)
        images = ds.images.copy()
        images[3, 5, 5, 0] = np.inf
        trainable = make()
        before = {name: p.data.copy() for name, p in trainable.params.items()}
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite loss .* at step 1"):
            run_training(trainable, Dataset("inf", images, ds.labels), TrainConfig(epochs=1, **DESK_TRAIN),
                         priors_for=(lambda idx: priors[idx]) if takes_priors else None)
        for name, p in trainable.params.items():
            assert p.data.dtype == np.float64 and p.data.tobytes() == before[name].tobytes(), name

    def test_a_float32_parameter_is_refused_before_any_step(self):
        ds = synth_dataset(2, 4, size=8, seed=22)
        model = tiny_model(seed=23)
        model.params["head.bias"].data = model.params["head.bias"].data.astype(np.float32)
        before = {name: p.data.copy() for name, p in model.params.items()}
        with pytest.raises(TrainingError, match="'head.bias' is float32"):
            train(model, ds, np.zeros((8, 2)), cfg())
        for name, p in model.params.items():
            assert p.data.tobytes() == before[name].tobytes(), name
