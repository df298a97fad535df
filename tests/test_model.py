"""Transformer architecture tests: sequence assembly, prior token,
encoder invariants, attention weights, checkpoint round trip.

A single sample is a batch of one; per-sample checks run through
``forward_batch`` with B=1 and compare against B=n."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc

import numpy as np
import pytest

from conftest import assert_close_rel
from oracle import composed_attention, full_encode, reshape
import pvit
from pvit import tensor as T
from pvit.checkpoint import load_checkpoint, save_checkpoint
from pvit.errors import FormatError, ShapeError, TapeError
from pvit.model import PViTConfig, PViTModel, patchify
from pvit.priors import MLPClassifier, MLPConfig
from pvit.rng import philox, truncated_normal
from pvit.scoring import predict_logits
from pvit.tensor import Tape, Tensor, backward, linear


def tiny_config(**overrides):
    base = dict(
        image_h=8, image_w=8, channels=1, patch_size=4,
        embed_dim=16, depth=2, heads=2, mlp_dim=24, num_classes=3,
    )
    base.update(overrides)
    return PViTConfig(**base)


RNG = np.random.default_rng(77)


def encoder_input(model, images, priors, alpha=None):
    """The (B, S, D) sequence ``forward_batch`` feeds to the block stack:
    the input of the first layer norm recorded on the tape."""
    with Tape() as tape:
        model.forward_batch(images, priors, alpha)
    first = next(n for n in tape.nodes if n.grad_fn.__qualname__.startswith("layer_norm"))
    return first.inputs[0].data


class TestPatchify:
    def test_28x28_p7_shape(self):
        out = patchify(np.zeros((1, 28, 28, 1)), 7)
        assert out.shape == (1, 16, 49)

    def test_single_patch_equals_flattened_image(self):
        img = RNG.random((1, 28, 28, 1))
        out = patchify(img, 28)
        assert out.shape == (1, 1, 784)
        np.testing.assert_array_equal(out[0, 0], img.reshape(-1))

    def test_constant_image(self):
        out = patchify(np.full((1, 8, 8, 2), 0.3), 4)
        assert np.all(out == 0.3)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ShapeError):
            patchify(np.zeros((1, 10, 10, 1)), 4)

    def test_raster_order(self):
        # pixel value encodes (row, col); patch 1 must be the top-right block
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = patchify(img, 2)
        np.testing.assert_array_equal(out[0, 1], [2, 3, 6, 7])


class TestPriorToken:
    def test_alpha_zero_gives_zero_token(self):
        model = PViTModel(tiny_config(), seed=0)
        token = model.make_prior_token([[1.0, -2.0, 0.5]], alpha=0.0)
        assert token.shape == (1, 1, 16)
        assert np.all(token.data == 0.0)

    def test_linear_in_alpha(self):
        model = PViTModel(tiny_config(), seed=1)
        one = model.make_prior_token([[0.3, 0.1, -0.7]], alpha=0.4)
        two = model.make_prior_token([[0.3, 0.1, -0.7]], alpha=0.8)
        np.testing.assert_allclose(two.data, 2.0 * one.data, atol=1e-15)

    def test_identity_padded_projection(self):
        cfg = tiny_config(num_classes=4, embed_dim=8, heads=2)
        model = PViTModel(cfg, seed=2)
        model.params["prior_proj"].data = np.eye(4, 8)
        token = model.make_prior_token(np.zeros((1, 4)), alpha=2.0)
        expected = np.zeros(8)
        expected[:4] = 2.0 / 4
        assert token.shape == (1, 1, 8)
        np.testing.assert_allclose(token.data[0, 0], expected, atol=1e-15)

    def test_wrong_length_rejected(self):
        model = PViTModel(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match=r"\(B, 3\)"):
            model.make_prior_token([[1.0, 2.0]])

    def test_non_finite_rejected(self):
        model = PViTModel(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match="finite"):
            model.make_prior_token([[1.0, np.nan, 0.0]])

    def test_projection_is_trained(self):
        model = PViTModel(tiny_config(), seed=3)
        with Tape():
            token = model.make_prior_token([[1.0, 0.0, -1.0]], alpha=1.0)
            loss = reshape(linear(token, Tensor(np.ones((16, 1)))), ())
        backward(loss)
        assert model.params["prior_proj"].grad is not None
        assert np.any(model.params["prior_proj"].grad != 0)


class TestAssembleSequence:
    def test_row_count(self):
        cfg = PViTConfig(image_h=28, image_w=28, patch_size=7, embed_dim=16,
                         depth=1, heads=2, mlp_dim=24, num_classes=3)
        model = PViTModel(cfg, seed=0)
        seq = encoder_input(model, RNG.random((1, 28, 28, 1)), [[0.0, 0.0, 0.0]])
        assert seq.shape == (1, 18, 16)

    def test_zero_prior_token_leaves_last_row_zero(self):
        model = PViTModel(tiny_config(), seed=4)
        seq = encoder_input(model, RNG.random((1, 8, 8, 1)), [[1.0, 2.0, 3.0]], alpha=0.0)
        assert np.all(seq[0, -1] == 0.0)

    def test_priors_change_only_last_row(self):
        model = PViTModel(tiny_config(), seed=5)
        img = RNG.random((1, 8, 8, 1))
        a = encoder_input(model, img, [[1.0, 0.0, 0.0]])[0]
        b = encoder_input(model, img, [[0.0, 0.0, 9.0]])[0]
        np.testing.assert_array_equal(a[:-1], b[:-1])
        assert np.any(a[-1] != b[-1])


class TestEncoder:
    def test_depth_zero_is_layer_norm_of_first_row(self):
        model = PViTModel(tiny_config(depth=0), seed=6)
        model.params["head.weight"].data = np.random.default_rng(6).normal(size=(16, 3))
        out = model.forward_batch(RNG.random((1, 8, 8, 1)), [[0.5, 0.0, -1.0]])
        row = model.params["cls_token"].data[0] + model.params["pos_embed"].data[0]
        mu, var = row.mean(), row.var()
        expected = (row - mu) / np.sqrt(var + 1e-5)
        head = model.params["head.weight"].data, model.params["head.bias"].data
        np.testing.assert_allclose(out.logits.data[0], expected @ head[0] + head[1], atol=1e-12)
        assert out.attentions == []

    def test_attention_rows_sum_to_one(self):
        model = PViTModel(tiny_config(), seed=7)
        out = model.forward_batch(RNG.random((1, 8, 8, 1)), [[0.2, -0.4, 1.0]])
        for layer_attn in out.attentions:
            np.testing.assert_allclose(layer_attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_attention_matrices_match_composed_softmax(self, monkeypatch):
        """The forward pass returns the fused node's weights, which equal
        the softmax of the composed attention chain at every layer."""
        model = PViTModel(tiny_config(), seed=7)
        imgs, priors = RNG.random((3, 8, 8, 1)), RNG.normal(size=(3, 3))
        fused = model.forward_batch(imgs, priors)
        monkeypatch.setattr(T, "attention", composed_attention)
        composed = model.forward_batch(imgs, priors)
        assert len(fused.attentions) == len(composed.attentions) == 2
        for got, want in zip(fused.attentions, composed.attentions):
            assert_close_rel(got, want, 1e-12, "attention weights")
            np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)
        assert_close_rel(fused.logits.data, composed.logits.data, 1e-12, "logits")

    def test_repeat_bit_identical(self):
        model = PViTModel(tiny_config(), seed=8)
        img = RNG.random((1, 8, 8, 1))
        a = model.forward_batch(img, [[1.0, 2.0, 3.0]])
        b = model.forward_batch(img, [[1.0, 2.0, 3.0]])
        assert a.logits.data.tobytes() == b.logits.data.tobytes()
        for x, y in zip(a.attentions, b.attentions):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("batch", [7, 32, 64])
    def test_row_is_bitwise_independent_of_the_other_rows(self, batch):
        """At a fixed batch shape, row 0's logits and attention matrices stay
        bitwise equal when every other row's image and priors change."""
        model = PViTModel(PViTConfig(), seed=12)
        rng = np.random.default_rng(batch)
        imgs, priors = rng.random((batch, 28, 28, 1)), rng.normal(size=(batch, 4))
        first = model.forward_batch(imgs, priors)
        imgs[1:], priors[1:] = rng.random((batch - 1, 28, 28, 1)), rng.normal(size=(batch - 1, 4))
        second = model.forward_batch(imgs, priors)
        assert first.logits.data[0].tobytes() == second.logits.data[0].tobytes()
        assert first.logits.data[1].tobytes() != second.logits.data[1].tobytes()
        for a, b in zip(first.attentions, second.attentions, strict=True):
            assert a[0].tobytes() == b[0].tobytes()

    def test_batched_matches_per_sample(self):
        model = PViTModel(tiny_config(), seed=9)
        imgs = RNG.random((3, 8, 8, 1))
        priors = RNG.normal(size=(3, 3))
        out = model.forward_batch(imgs, priors)
        for i in range(3):
            one = model.forward_batch(imgs[i : i + 1], priors[i : i + 1])
            np.testing.assert_allclose(out.logits.data[i], one.logits.data[0], atol=1e-12)
            for batched, single in zip(out.attentions, one.attentions):
                np.testing.assert_allclose(batched[i], single[0], atol=1e-12)


class TestPrunedLastBlock:
    """The block stack against :func:`oracle.full_encode`, which runs the
    last block on every row instead of the class row alone."""

    @staticmethod
    def run_both(monkeypatch, depth, batch, step):
        model = PViTModel(PViTConfig(depth=depth), seed=30 + depth)
        rng = np.random.default_rng(batch)
        imgs, priors = rng.random((batch, 28, 28, 1)), rng.normal(size=(batch, 4))
        labels = rng.integers(0, 4, batch)
        results = []
        for encode in (PViTModel._encode, full_encode):
            monkeypatch.setattr(PViTModel, "_encode", encode)
            results.append(step(model, imgs, labels, priors))
        return results

    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 2, 7, 32, 64, 65])
    def test_forward_matches_every_row_reference(self, monkeypatch, depth, batch):
        """Attention weights are bitwise equal at every batch size, and so
        are the logits at B >= 32; with fewer rows BLAS picks other GEMM
        kernels for the class-row products, so they agree to 1e-12."""
        pruned, full = self.run_both(
            monkeypatch, depth, batch, lambda model, imgs, _, priors: model.forward_batch(imgs, priors)
        )
        assert len(pruned.attentions) == len(full.attentions) == depth
        for got, want in zip(pruned.attentions, full.attentions):
            assert got.tobytes() == want.tobytes()
        if batch >= 32:
            assert pruned.logits.data.tobytes() == full.logits.data.tobytes()
        else:
            assert_close_rel(pruned.logits.data, full.logits.data, 1e-12, "logits")

    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    @pytest.mark.parametrize("batch", [7, 32])
    def test_gradients_match_every_row_reference(self, monkeypatch, depth, batch):
        """The last block's weight gradients sum fewer rows, so they agree
        to 1e-12 of the largest gradient entry rather than bitwise (the
        key third of each qkv bias has a true gradient of zero; its
        computed one is rounding noise)."""

        def grads(model, imgs, labels, priors):
            model.zero_grad()
            with Tape():
                loss, _ = model.batch_loss(imgs, labels, priors)
            backward(loss)
            return {name: p.grad.copy() for name, p in model.params.items()}

        pruned, full = self.run_both(monkeypatch, depth, batch, grads)
        assert pruned.keys() == full.keys()
        scale = max(np.abs(g).max() for g in full.values())
        for name in full:
            assert np.abs(pruned[name] - full[name]).max() <= 1e-12 * scale, name


class TestParameters:
    def test_qkv_weight_is_three_sequential_draws(self):
        """Each block's (D, 3D) ``attn.qkv.weight`` is the q, k and v
        (D, D) truncated-normal draws, taken one after another from the
        model's generator and laid side by side; the draws that follow
        are unchanged."""
        c = tiny_config()
        d = c.embed_dim
        model = PViTModel(c, seed=21)
        gen = philox(21, 0x1417)
        for shape in [(c.patch_dim, d), (1, d), (c.num_patches + 1, d), (c.num_classes, d)]:
            truncated_normal(gen, shape)
        for i in range(c.depth):
            qkv = np.concatenate([truncated_normal(gen, (d, d)) for _ in "qkv"], axis=1)
            assert model.params[f"blocks.{i}.attn.qkv.weight"].data.tobytes() == qkv.tobytes()
            assert model.params[f"blocks.{i}.attn.out.weight"].data.tobytes() == truncated_normal(gen, (d, d)).tobytes()
            truncated_normal(gen, (d, c.mlp_dim))
            truncated_normal(gen, (c.mlp_dim, d))
        assert model.params["head.weight"].data.tobytes() == truncated_normal(gen, (d, c.num_classes)).tobytes()

    def test_desk_model_has_57_tensors_and_one_attention_input_per_block(self):
        params = PViTModel(PViTConfig(), seed=0).params
        assert len(params) == 57
        attn = sorted(name for name in params if name.startswith("blocks.0.attn."))
        assert attn == ["blocks.0.attn.out.bias", "blocks.0.attn.out.weight",
                        "blocks.0.attn.qkv.bias", "blocks.0.attn.qkv.weight"]
        assert params["blocks.0.attn.qkv.weight"].shape == (64, 192)
        assert params["blocks.0.attn.qkv.bias"].shape == (192,)


class TestClassify:
    def test_zero_head_gives_bias(self):
        model = PViTModel(tiny_config(), seed=10)
        model.params["head.weight"].data = np.zeros((16, 3))
        model.params["head.bias"].data = np.array([0.5, -1.0, 2.0])
        out = model.forward_batch(RNG.random((1, 8, 8, 1)), [[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out.logits.data[0], [0.5, -1.0, 2.0], atol=1e-15)


class TestPriorTokenMass:
    def test_rows_sum_to_one(self):
        model = PViTModel(tiny_config(), seed=11)
        out = model.forward_batch(RNG.random((1, 8, 8, 1)), [[1.0, 0.0, 0.0]])
        matrices = out.attentions[1][:, 0]
        masses = matrices[:, 0, -1]
        assert matrices.shape == (1, 6, 6) and masses.shape == (1,)
        np.testing.assert_allclose(matrices[0].sum(axis=1), 1.0, atol=1e-9)
        assert masses[0] == matrices[0, 0, -1]
        assert 0.0 <= masses[0] <= 1.0

    def test_prior_mass_depends_on_alpha(self):
        model = PViTModel(tiny_config(), seed=13)
        img = RNG.random((1, 8, 8, 1))
        low = model.forward_batch(img, [[3.0, 0.0, -1.0]], alpha=0.0)
        high = model.forward_batch(img, [[3.0, 0.0, -1.0]], alpha=10.0)
        mass_low, mass_high = (out.attentions[1][:, 0, 0, -1] for out in (low, high))
        assert mass_low[0] != mass_high[0]  # recorded difference, no direction asserted


class TestGradients:
    def test_prior_proj_grad_zero_iff_alpha_zero(self):
        model = PViTModel(tiny_config(), seed=14)
        imgs = RNG.random((2, 8, 8, 1))
        priors = RNG.normal(size=(2, 3))

        model.zero_grad()
        with Tape():
            loss = T.cross_entropy(model.forward_batch(imgs, priors, 0.0).logits, [0, 1])
        backward(loss)
        assert np.all(model.params["prior_proj"].grad == 0.0)

        model.zero_grad()
        with Tape():
            loss = T.cross_entropy(model.forward_batch(imgs, priors, 0.5).logits, [0, 1])
        backward(loss)
        assert np.any(model.params["prior_proj"].grad != 0.0)

    def test_full_loss_gradient_matches_finite_differences(self):
        """Spot-check a few coordinates of every parameter tensor."""
        model = PViTModel(tiny_config(), seed=15)
        imgs = RNG.random((2, 8, 8, 1))
        priors = RNG.normal(size=(2, 3))
        labels = [0, 2]

        model.zero_grad()
        with Tape():
            loss, _ = model.batch_loss(imgs, labels, priors)
        backward(loss)

        def loss_value():
            l, _ = model.batch_loss(imgs, labels, priors)
            return l.item()

        rng = np.random.default_rng(0)
        h = 1e-5
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            coords = rng.choice(flat.size, size=min(3, flat.size), replace=False)
            for ci in coords:
                orig = flat[ci]
                flat[ci] = orig + h
                up = loss_value()
                flat[ci] = orig - h
                down = loss_value()
                flat[ci] = orig
                fd = (up - down) / (2 * h)
                got = p.grad.reshape(-1)[ci]
                assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd)), f"{name}[{ci}]: {got} vs {fd}"


class TestCheckpoint:
    def test_round_trip_logits(self, tmp_path):
        model = PViTModel(tiny_config(), seed=17)
        path = str(tmp_path / "model.ckpt")
        model.save(path, step=12, epoch=3)
        loaded, header, extra = PViTModel.load(path)
        assert header["step"] == 12 and header["epoch"] == 3
        assert extra == {}
        img = RNG.random((1, 8, 8, 1))
        a = model.forward_batch(img, [[1.0, -1.0, 0.0]]).logits.data
        b = loaded.forward_batch(img, [[1.0, -1.0, 0.0]]).logits.data
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_corrupted_magic_names_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError, match="bad.ckpt"):
            PViTModel.load(str(path))

    def test_extra_tensors_survive(self, tmp_path):
        model = PViTModel(tiny_config(), seed=18)
        path = str(tmp_path / "m.ckpt")
        model.save(path, extra_tensors={"opt.m.head.weight": np.ones((16, 3))})
        _, _, extra = PViTModel.load(path)
        assert "opt.m.head.weight" in extra
        np.testing.assert_allclose(extra["opt.m.head.weight"], 1.0)

    def test_load_draws_nothing_and_holds_the_saved_values(self, tmp_path, monkeypatch):
        """A loaded model's parameters are the file's float32 tensors, kept
        float32, each a trainable tensor, and loading draws no random number."""
        saved = []
        for model in (PViTModel(tiny_config(), seed=23), MLPClassifier(MLPConfig(input_dim=12, hidden_dim=5), seed=23)):
            path = str(tmp_path / f"{model.KIND}.ckpt")
            model.save(path)
            saved.append((type(model), path, {name: p.data.astype(np.float32) for name, p in model.params.items()}))

        def no_draw(*args, **kwargs):
            raise AssertionError("load drew a random number")

        monkeypatch.setattr(pvit.rng, "gaussian", no_draw)
        for cls, path, values in saved:
            loaded, _, extra = cls.load(path)
            assert type(loaded) is cls and extra == {}
            assert list(loaded.params) == list(values)
            for name, value in values.items():
                param = loaded.params[name]
                assert param.requires_grad and param.data.dtype == np.float32, name
                assert np.array_equal(param.data, value), name

    @pytest.mark.parametrize("model", [PViTModel(tiny_config(), seed=29),
                                       MLPClassifier(MLPConfig(input_dim=12, hidden_dim=5), seed=29)],
                             ids=["pvit", "mlp-prior"])
    def test_load_then_save_writes_the_same_bytes(self, tmp_path, model):
        """A loaded model keeps the file's float32 values, so saving it again,
        with the leftover tensors, rewrites the file byte for byte."""
        first, second = str(tmp_path / "first.ckpt"), str(tmp_path / "second.ckpt")
        moments = {f"opt.m.{name}": np.full(p.shape, 0.1) for name, p in model.params.items()}
        model.save(first, step=3, epoch=1, extra_tensors=moments)
        loaded, header, extra = type(model).load(first)
        loaded.save(second, step=header["step"], epoch=header["epoch"], extra_tensors=extra)
        assert pathlib.Path(second).read_bytes() == pathlib.Path(first).read_bytes()
        assert all(p.data.flags.writeable for p in loaded.params.values())

    def test_generic_container_round_trip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        tensors = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.array(2.5)}
        save_checkpoint(path, {"kind": "test", "config": {}}, tensors)
        header, loaded = load_checkpoint(path)
        assert header["kind"] == "test"
        assert list(loaded) == ["a", "b"]
        np.testing.assert_allclose(loaded["a"], tensors["a"], atol=1e-6)


class TestFloat32Inference:
    """A loaded checkpoint computes at the precision it is stored in."""

    @pytest.fixture(scope="class")
    def desk(self, tmp_path_factory):
        """A saved desk model (28x28, D=64, depth 4), its float32 load, the
        float64 forward's model of the same stored values, and 70 inputs."""
        path = str(tmp_path_factory.mktemp("desk") / "desk.ckpt")
        PViTModel(PViTConfig(), seed=41).save(path)
        single, double = PViTModel.load(path)[0], PViTModel.load(path)[0]
        for p in double.params.values():
            p.data = p.data.astype(np.float64)
        rng = np.random.default_rng(42)
        return single, double, rng.uniform(0, 1, (70, 28, 28, 1)), rng.normal(size=(70, 4))

    def test_logits_and_every_attention_map_are_float32(self, desk):
        single, double, images, priors = desk
        out = single.forward_batch(images[:32], priors[:32])
        assert out.logits.data.dtype == np.float32 and out.logits.shape == (32, 4)
        assert len(out.attentions) == 4
        assert all(attn.dtype == np.float32 for attn in out.attentions)
        assert double.forward_batch(images[:32], priors[:32]).logits.data.dtype == np.float64

    def test_a_float32_forward_does_not_import_scipy_special(self, tmp_path):
        """Only a float64 GELU needs scipy's erf: a fresh process that loads
        a saved checkpoint and runs its forward pass never imports
        scipy.special, and a float64 forward in the same process does."""
        path = str(tmp_path / "desk.ckpt")
        PViTModel(PViTConfig(), seed=41).save(path)
        script = textwrap.dedent(
            f"""
            import sys
            import numpy as np
            from pvit.model import PViTModel

            model = PViTModel.load({path!r})[0]
            rng = np.random.default_rng(0)
            images, priors = rng.uniform(0, 1, (8, 28, 28, 1)), rng.normal(size=(8, 4))
            model.forward_batch(images, priors)
            print("scipy.special" in sys.modules)
            for p in model.params.values():
                p.data = p.data.astype(np.float64)
            model.forward_batch(images, priors)
            print("scipy.special" in sys.modules)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(pvit.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert done.stdout.split() == ["False", "True"]

    def test_logits_agree_with_the_float64_forward_within_1e_5(self, desk):
        single, double, images, priors = desk
        for alpha in (None, 1.0):
            a = single.forward_batch(images, priors, alpha).logits.data
            b = double.forward_batch(images, priors, alpha).logits.data
            assert np.max(np.abs(a.astype(np.float64) - b)) <= 1e-5

    def test_predict_logits_is_float64_for_either_dtype(self, desk):
        single, double, images, priors = desk
        for model in (single, double):
            logits = predict_logits(model, images, priors)
            assert logits.dtype == np.float64 and logits.shape == (70, 4)
            empty = predict_logits(model, images[:0], priors[:0])
            assert empty.dtype == np.float64 and empty.shape == (0, 4)

    def test_a_loaded_model_records_float32_on_a_fresh_tape(self, desk):
        """A loaded model's pass on a fresh tape records float32 nodes and
        fills float32 leaf gradients; on a tape that has recorded a float64
        node, its first op raises, naming the op and both dtypes, and
        records nothing."""
        single, _, images, priors = desk
        single.zero_grad()
        with Tape() as tape:
            loss, _ = single.batch_loss(images[:4], [0, 1, 2, 3], priors[:4])
        assert tape.dtype == np.float32 and tape.nodes
        assert all(node.output.data.dtype == np.float32 for node in tape.nodes)
        backward(loss)
        for name, p in single.params.items():
            assert p.grad is not None and p.grad.dtype == np.float32, name
        single.zero_grad()
        with Tape() as tape:
            traced = T.mul(Tensor(np.ones(3), requires_grad=True), 2.0)
            with pytest.raises(TapeError, match="^linear .*float32.*float64"):
                single.batch_loss(images[:4], [0, 1, 2, 3], priors[:4])
        assert [node.output for node in tape.nodes] == [traced]

    def test_a_loaded_prior_computes_in_float32(self, tmp_path):
        path = str(tmp_path / "prior.ckpt")
        MLPClassifier(MLPConfig(input_dim=12, hidden_dim=5), seed=3).save(path)
        single, double = MLPClassifier.load(path)[0], MLPClassifier.load(path)[0]
        for p in double.params.values():
            p.data = p.data.astype(np.float64)
        images = RNG.uniform(0, 1, (9, 2, 2, 3))
        a, b = single.logits(images).data, double.logits(images).data
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert np.max(np.abs(a - b)) <= 1e-5


def rewrite_config(path, **changes):
    """Rewrite a checkpoint's header config in place, keeping its tensors."""
    header, tensors = load_checkpoint(path)
    header["config"].update(changes)
    save_checkpoint(path, header, tensors)


def test_negative_model_seed_is_refused():
    """It used to end in numpy's bare ValueError."""
    with pytest.raises(ShapeError, match="seed must be a non-negative integer, got -1"):
        PViTModel(tiny_config(), seed=-1)


class TestCheckpointHeader:
    """Checkpoint files are outside input: every defect is a FormatError."""

    def saved(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        PViTModel(tiny_config(), seed=19).save(path)
        return path

    def test_unknown_config_key_names_key(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_config(path, width=64)
        with pytest.raises(FormatError, match="'width'"):
            PViTModel.load(path)

    def test_missing_config_key_names_key(self, tmp_path):
        path = self.saved(tmp_path)
        header, tensors = load_checkpoint(path)
        del header["config"]["heads"]
        save_checkpoint(path, header, tensors)
        with pytest.raises(FormatError, match="'heads'"):
            PViTModel.load(path)

    @pytest.mark.parametrize("key,value", [
        ("heads", "2"), ("depth", 2.0), ("alpha", True), ("alpha", None),
        pytest.param("heads", "2" * 10**6, id="heads-long-string"),
        pytest.param("alpha", 10**400, id="alpha-past-float64"),
        pytest.param("mlp_dim", 10**400, id="mlp_dim-past-int64"),
        pytest.param("heads", 2**63, id="heads-past-int64"),
    ])
    def test_mistyped_config_value_names_key(self, tmp_path, key, value):
        """A config value of the wrong type, refused by the config's own
        check, or an integer past int64, refused by the loader, is named
        with its key and echoed cut short, the config with it."""
        path = self.saved(tmp_path)
        rewrite_config(path, **{key: value})
        named = f"{key!r} = " if type(value) is int else f"invalid checkpoint config: {key} must be a"
        with pytest.raises(FormatError, match=re.escape(named)) as info:
            PViTModel.load(path)
        assert path in str(info.value) and len(str(info.value)) < len(path) + 250

    @pytest.mark.parametrize("depth", [2000, 2**62])
    def test_header_depth_past_the_file_fails_at_its_first_missing_tensor(self, tmp_path, depth):
        """Load work is bounded by the file, not by the header: a depth-1
        checkpoint whose header claims more blocks fails at block 1's first
        tensor, quickly and without allocating the claimed parameters."""
        path = str(tmp_path / "m.ckpt")
        PViTModel(tiny_config(depth=1), seed=19).save(path)
        rewrite_config(path, depth=depth)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(FormatError, match=re.escape(path) + ".*'blocks\\.1\\.ln1\\.gain'"):
                PViTModel.load(path)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 2**20, (elapsed, peak)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_invalid_config_value_is_format_error(self, tmp_path, alpha):
        path = self.saved(tmp_path)
        rewrite_config(path, alpha=alpha)
        with pytest.raises(FormatError, match="invalid checkpoint config: alpha"):
            PViTModel.load(path)

    def test_retired_prior_broadcast_batch_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_config(path, prior_broadcast="batch")
        with pytest.raises(FormatError, match="prior_broadcast"):
            PViTModel.load(path)

    def test_header_without_config_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {"kind": "pvit"}, {})
        with pytest.raises(FormatError, match="config"):
            PViTModel.load(path)

    def test_appended_byte_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(FormatError, match="1 trailing byte"):
            PViTModel.load(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt")
        save_checkpoint(path, {"kind": "test", "config": {}}, {"w": np.ones((2, 3)), "s": np.array(1.5)})
        data = pathlib.Path(path).read_bytes()
        cut = str(tmp_path / "cut.ckpt")
        for size in range(len(data)):
            with open(cut, "wb") as fh:
                fh.write(data[:size])
            with pytest.raises(FormatError):
                load_checkpoint(cut)
        assert load_checkpoint(path)[0]["kind"] == "test"

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {"kind": "test", "config": {}}, {"ab": np.ones(2)})
        data = pathlib.Path(path).read_bytes()
        at = data.index(b"ab")
        with open(path, "wb") as fh:
            fh.write(data[:at] + b"\xff\xfe" + data[at + 2:])
        with pytest.raises(FormatError, match="corrupt checkpoint"):
            load_checkpoint(path)

    def test_wrong_tensor_shape_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        header, tensors = load_checkpoint(path)
        tensors["head.weight"] = np.zeros((3, 16))
        save_checkpoint(path, header, tensors)
        with pytest.raises(FormatError, match="head.weight"):
            PViTModel.load(path)


class TestOneCheckpointedBase:
    def test_models_inherit_persistence_and_only_the_checkpoint_module_reads_or_writes_files(self):
        """An AST walk over ``src/pvit``: ``save_checkpoint`` and
        ``load_checkpoint`` are called in ``pvit/checkpoint.py`` alone, and
        neither model class defines the constructor, persistence or
        parameter methods that ``Checkpointed`` gives both."""
        package = pathlib.Path(pvit.__file__).parent
        callers, defined = set(), {}
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            callers |= {path.name for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id in ("save_checkpoint", "load_checkpoint")}
            defined |= {n.name: sorted(f.name for f in n.body if isinstance(f, ast.FunctionDef))
                        for n in tree.body if isinstance(n, ast.ClassDef) and n.name in ("MLPClassifier", "PViTModel")}
        assert callers == {"checkpoint.py"}
        assert sorted(defined) == ["MLPClassifier", "PViTModel"]
        for name, methods in defined.items():
            assert not {"__init__", "save", "load", "parameters", "zero_grad"} & set(methods), (name, methods)

    @pytest.mark.parametrize("build, named", [
        (lambda: MLPClassifier(MLPConfig(input_dim=2**63 - 1, hidden_dim=2**63 - 1)),
         "MLPClassifier parameter 'fc1.weight': no array takes shape (9223372036854775807, 9223372036854775807)"),
        (lambda: MLPClassifier(MLPConfig(input_dim=2**63 - 1)),
         "MLPClassifier parameter 'fc1.weight': no array takes shape (9223372036854775807, 128)"),
        (lambda: PViTModel(tiny_config(embed_dim=2**61, heads=1, depth=0)),
         "PViTModel parameter 'patch_embed.weight': no array takes shape (16, 2305843009213693952)"),
    ], ids=["mlp-both-past-int64", "mlp-input-past-int64", "pvit-dim-2**61"])
    def test_a_shape_no_array_takes_is_refused_naming_parameter_and_shape(self, build, named):
        """Sizes the config rules accept but whose float64 bytes numpy cannot
        count: numpy's bare ValueError used to escape (the first case read
        "cannot reshape array of size 1 into shape ...")."""
        with pytest.raises(ShapeError) as info:
            build()
        assert str(info.value) == named
