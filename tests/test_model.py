"""Transformer architecture tests: sequence assembly, prior token,
encoder invariants, attention weights, checkpoint round trip.

A single sample is a batch of one; per-sample checks run through
``forward_batch`` with B=1 and compare against B=n."""

import ast
import pathlib

import numpy as np
import pytest

from conftest import assert_close_rel
from oracle import composed_attention, full_encode, reshape
import pvit
from pvit import tensor as T
from pvit.checkpoint import load_checkpoint, save_checkpoint
from pvit.errors import FormatError, ShapeError
from pvit.model import PViTConfig, PViTModel, patchify
from pvit.rng import philox, truncated_normal
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

    def test_generic_container_round_trip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        tensors = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.array(2.5)}
        save_checkpoint(path, {"kind": "test", "config": {}}, tensors)
        header, loaded = load_checkpoint(path)
        assert header["kind"] == "test"
        assert list(loaded) == ["a", "b"]
        np.testing.assert_allclose(loaded["a"], tensors["a"], atol=1e-6)


def rewrite_config(path, **changes):
    """Rewrite a checkpoint's header config in place, keeping its tensors."""
    header, tensors = load_checkpoint(path)
    header["config"].update(changes)
    save_checkpoint(path, header, tensors)


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

    @pytest.mark.parametrize("key,value", [("heads", "2"), ("depth", 2.0), ("alpha", True), ("alpha", None)])
    def test_mistyped_config_value_names_key(self, tmp_path, key, value):
        path = self.saved(tmp_path)
        rewrite_config(path, **{key: value})
        with pytest.raises(FormatError, match=repr(key)):
            PViTModel.load(path)

    def test_invalid_config_value_is_format_error(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_config(path, alpha=-1.0)
        with pytest.raises(FormatError, match="alpha"):
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
        neither model class defines the persistence or parameter methods
        that ``Checkpointed`` gives both."""
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
            assert not {"save", "load", "parameters", "zero_grad"} & set(methods), (name, methods)
