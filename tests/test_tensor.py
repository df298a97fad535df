"""Autodiff engine tests: forward values against independent oracles,
gradients against central finite differences, and the graph's lifetime."""

import gc
import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_close_rel, central_difference, weighted_sum
from oracle import composed_attention, reshape, softmax, transpose
from pvit import tensor as T
from pvit.errors import ShapeError, TapeError
from pvit.model import PViTConfig, PViTModel
from pvit.tensor import (
    Tape,
    Tensor,
    add,
    attention,
    backward,
    broadcast_to,
    concat,
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    mul,
    softmax_rows,
)


def tape_grad(build, *arrays):
    """Gradients of a scalar built by ``build(*tensors)`` w.r.t. each array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    tape = Tape()
    with tape:
        loss = build(*tensors)
    backward(loss)
    return [t.grad for t in tensors]


class TestLinearWithoutBias:
    """``linear`` with no bias is the engine's plain matrix product."""

    def test_identity(self):
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = linear(Tensor(np.eye(2)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_one_by_one(self):
        out = linear(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.item() == 6.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = linear(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_equals_the_2d_product_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        w = Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = linear(Tensor(a), w)
        assert out.data.tobytes() == (a @ b).tobytes()
        assert len(tape.nodes) == 1 and len(tape.nodes[0].inputs) == 2

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
        with pytest.raises(ShapeError, match=r"\(2, 2, 3\).*\(2, 3, 4\)"):
            linear(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 3, 4))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        out = linear(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, atol=1e-15)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        w = rng.normal(size=(3, 2))
        ga, gb = tape_grad(lambda x, y: weighted_sum(linear(x, y), w), a, b)
        fa = central_difference(lambda x: float(np.sum((x @ b) * w)), a)
        fb = central_difference(lambda y: float(np.sum((a @ y) * w)), b)
        assert_close_rel(ga, fa, 1e-4, "linear dA")
        assert_close_rel(gb, fb, 1e-4, "linear dB")


class TestLinear:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(0, 3),  # 0: a 2-D (S, D_in) input
        seq=st.integers(1, 6),
        d_in=st.integers(1, 9),
        d_out=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_product_plus_bias_exactly(self, batch, seq, d_in, d_out, seed):
        """One node, yet bitwise the forward value and all three gradients
        of the add(linear(x, W), b) composition."""
        rng = np.random.default_rng(seed)
        lead = (batch, seq) if batch else (seq,)
        x = rng.normal(size=lead + (d_in,))
        w = rng.normal(size=(d_in, d_out))
        b = rng.normal(size=(d_out,))
        upstream = rng.normal(size=lead + (d_out,))
        fused = linear(Tensor(x), Tensor(w), Tensor(b))
        composed = add(linear(Tensor(x), Tensor(w)), Tensor(b))
        assert fused.data.tobytes() == composed.data.tobytes()
        got = tape_grad(lambda *t: weighted_sum(linear(*t), upstream), x, w, b)
        want = tape_grad(lambda tx, tw, tb: weighted_sum(add(linear(tx, tw), tb), upstream), x, w, b)
        for g, h in zip(got, want):
            np.testing.assert_array_equal(g, h)

    def test_records_one_node(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            linear(Tensor(np.ones((4, 3))), w, Tensor(np.zeros(2)))
        assert len(tape.nodes) == 1

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


class TestSoftmax:
    """The recorded reference softmax of the tests' oracle, and the package's
    plain ``softmax_rows``, which must be its forward value."""

    def test_uniform(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_stable(self):
        out = softmax(Tensor([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)
        assert np.all(np.isfinite(out.data))

    def test_quarter_three_quarters(self):
        out = softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one_even_at_magnitude_1e3(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1e3, 1e3, (10, 7))
        out = softmax(Tensor(x), axis=1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_plain_rows_are_the_recorded_forward(self):
        """``softmax_rows``, the package's one softmax, is bitwise the
        forward value of the recorded reference op."""
        rng = np.random.default_rng(5)
        for x in (rng.uniform(-1e3, 1e3, (10, 7)), rng.normal(size=(4, 1)), np.full((2, 3), 1000.0)):
            assert softmax_rows(x).tobytes() == softmax(Tensor(x), axis=1).data.tobytes()

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((0,))), axis=0)
        with pytest.raises(ShapeError):
            softmax(Tensor([1.0, 2.0]), axis=3)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, (3, 5))
        w = rng.normal(size=(3, 5))

        def f(arr):
            e = np.exp(arr - arr.max(axis=1, keepdims=True))
            return float(np.sum(e / e.sum(axis=1, keepdims=True) * w))

        (g,) = tape_grad(lambda t: weighted_sum(softmax(t, axis=1), w), x)
        assert_close_rel(g, central_difference(f, x), 1e-4, "softmax")


class TestAttention:
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 3),
        seq=st.integers(1, 7),
        heads=st.integers(1, 3),
        head_dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_composed_chain(self, batch, seq, heads, head_dim, seed):
        """Forward value, weights and the gradient of the fused q/k/v input
        agree with the composed chain within 1e-12 relative."""
        rng = np.random.default_rng(seed)
        width = heads * head_dim
        qkv = rng.normal(scale=2.0, size=(batch, seq, 3 * width))
        upstream = rng.normal(size=(batch, seq, width))
        fused, weights = attention(Tensor(qkv), heads)
        composed, want_weights = composed_attention(Tensor(qkv), heads)
        assert_close_rel(fused.data, composed.data, 1e-12, "attention forward")
        assert_close_rel(weights, want_weights, 1e-12, "attention weights")
        (got,) = tape_grad(lambda t: weighted_sum(attention(t, heads)[0], upstream), qkv)
        (want,) = tape_grad(lambda t: weighted_sum(composed_attention(t, heads)[0], upstream), qkv)
        for i, name in enumerate("qkv"):
            part = np.s_[..., i * width : (i + 1) * width]
            assert_close_rel(got[part], want[part], 1e-12, f"attention d{name}")

    def test_weights_are_row_stochastic_and_read_only(self):
        rng = np.random.default_rng(13)
        qkv = Tensor(rng.normal(scale=30.0, size=(2, 5, 18)))
        _, weights = attention(qkv, 3)
        assert weights.shape == (2, 3, 5, 5)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            weights[0, 0, 0, 0] = 0.5

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 2, 12)))
        with pytest.raises(ShapeError, match="heads"):
            attention(x, 3)
        with pytest.raises(ShapeError, match="heads"):
            attention(x, 0)
        with pytest.raises(ShapeError, match=r"\(B, S, 3D\).*\(1, 2, 4\)"):
            attention(Tensor(np.zeros((1, 2, 4))), 2)
        with pytest.raises(ShapeError, match=r"\(B, S, 3D\).*\(2, 12\)"):
            attention(Tensor(np.zeros((2, 12))), 2)


class TestLayerNorm:
    def test_three_values(self):
        out = layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_row_normalizes_to_zero(self):
        out = layer_norm(Tensor([4.0, 4.0, 4.0, 4.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match=r"last axis.*\(\)"):
            layer_norm(Tensor(0.0), Tensor(np.ones(1)), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError, match=r"last axis.*\(2, 0\)"):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0)))

    def test_gradient_all_inputs(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (3, 5))
        gain = rng.uniform(0.5, 1.5, 5)
        bias = rng.uniform(-0.5, 0.5, 5)
        w = rng.normal(size=(3, 5))

        def ln(xa, ga, ba):
            mu = xa.mean(axis=-1, keepdims=True)
            var = ((xa - mu) ** 2).mean(axis=-1, keepdims=True)
            return (xa - mu) / np.sqrt(var + 1e-5) * ga + ba

        gx, gg, gb = tape_grad(
            lambda t, g, b: weighted_sum(layer_norm(t, g, b), w), x, gain, bias
        )
        assert_close_rel(gx, central_difference(lambda a: float(np.sum(ln(a, gain, bias) * w)), x), 1e-4, "ln x")
        assert_close_rel(gg, central_difference(lambda a: float(np.sum(ln(x, a, bias) * w)), gain), 1e-4, "ln gain")
        assert_close_rel(gb, central_difference(lambda a: float(np.sum(ln(x, gain, a) * w)), bias), 1e-4, "ln bias")


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        assert abs(gelu(Tensor([10.0])).data[0] - 10.0) <= 1e-6
        assert abs(gelu(Tensor([-10.0])).data[0]) <= 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, (7,))
        w = rng.normal(size=(7,))

        def f(arr):
            from scipy.special import erf

            return float(np.sum(0.5 * arr * (1 + erf(arr / np.sqrt(2))) * w))

        (g,) = tape_grad(lambda t: weighted_sum(gelu(t), w), x)
        assert_close_rel(g, central_difference(f, x), 1e-4, "gelu")


class TestCrossEntropy:
    def test_two_class_uniform(self):
        for target in (0, 1):
            loss = cross_entropy(Tensor([[0.0, 0.0]]), [target])
            assert abs(loss.item() - math.log(2)) <= 1e-12

    def test_confident_correct(self):
        loss = cross_entropy(Tensor([[100.0, 0.0]]), [0])
        assert loss.item() <= 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ShapeError, match=r"out of range \[0, 2\)"):
            cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_gradient(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(-2, 2, (5, 4))
        t = rng.integers(0, 4, 5)

        def f(arr):
            m = arr.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(arr - m).sum(axis=1))
            return float(np.mean(lse - arr[np.arange(5), t]))

        (g,) = tape_grad(lambda x: cross_entropy(x, t), z)
        assert_close_rel(g, central_difference(f, z), 1e-4, "cross_entropy")


class TestPlumbingGradients:
    """Broadcast arithmetic and shape ops also carry exact gradient rules."""

    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4,))
        w = rng.normal(size=(3, 4))
        ga, gb = tape_grad(lambda x, y: weighted_sum(mul(add(x, y), y), w), a, b)
        fa = central_difference(lambda x: float(np.sum((x + b) * b * w)), a)
        fb = central_difference(lambda y: float(np.sum((a + y) * y * w)), b)
        assert_close_rel(ga, fa, 1e-4, "add/mul dA")
        assert_close_rel(gb, fb, 1e-4, "add/mul dB")

    def test_reshape_transpose_getitem_concat_broadcast(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-2, 2, (2, 6))
        w = rng.normal(size=(4, 3))

        def build(t):
            r = reshape(t, (3, 4))
            tr = transpose(r, (1, 0))
            sl = tr[1:3, :]
            wide = concat([sl, broadcast_to(sl[0:1, :], (2, 3))], axis=0)
            return weighted_sum(wide, w)

        def f(arr):
            r = arr.reshape(3, 4).T
            sl = r[1:3, :]
            wide = np.concatenate([sl, np.broadcast_to(sl[0:1, :], (2, 3))], axis=0)
            return float(np.sum(wide * w))

        (g,) = tape_grad(build, a)
        assert_close_rel(g, central_difference(f, a), 1e-4, "shape ops")


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape():
            y = mul(x, x)
        backward(y)
        assert x.grad == 6.0

    def test_product_two_vars(self):
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(5.0, requires_grad=True)
        with Tape():
            z = mul(x, y)
        backward(z)
        assert x.grad == 5.0 and y.grad == 2.0

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = mul(x, x)
        with pytest.raises(TapeError, match="scalar"):
            backward(y)

    def test_detached_root_rejected(self):
        x = Tensor(3.0, requires_grad=True)
        y = mul(x, x)  # no tape active
        with pytest.raises(TapeError, match="detached"):
            backward(y)

    def test_double_backward_rejected(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape():
            y = mul(x, x)
        backward(y)
        with pytest.raises(TapeError, match="already"):
            backward(y)

    def test_accumulation_through_fanout(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape():
            y = add(mul(x, x), mul(x, 3.0))  # x^2 + 3x
        backward(y)
        assert x.grad == 7.0

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-2, 2, (4, 4))
        b = rng.uniform(-2, 2, (4, 4))
        grads = []
        for _ in range(2):
            ta = Tensor(a, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            with Tape():
                out = cross_entropy(gelu(linear(ta, tb)), [0, 1, 2, 3])
            backward(out)
            grads.append((ta.grad.copy(), tb.grad.copy()))
        assert grads[0][0].tobytes() == grads[1][0].tobytes()
        assert grads[0][1].tobytes() == grads[1][1].tobytes()

    def test_no_recording_outside_tape(self):
        x = Tensor(3.0, requires_grad=True)
        y = mul(x, x)
        assert y.tape is None and not y.requires_grad

    def test_tape_belongs_to_the_thread_that_built_it(self):
        x = Tensor(3.0, requires_grad=True)
        made = {}

        def in_other_thread():
            made["outside"] = mul(x, x)
            with Tape() as own:
                made["own"] = mul(x, x)
            made["own_tape"] = own

        with Tape() as tape:
            y = mul(x, x)
            worker = threading.Thread(target=in_other_thread)
            worker.start()
            worker.join(timeout=30)
            z = mul(y, x)
        assert not worker.is_alive()
        assert [node.output for node in tape.nodes] == [y, z]
        assert made["outside"].tape is None and not made["outside"].requires_grad
        assert made["own"].tape is made["own_tape"] and len(made["own_tape"].nodes) == 1
        backward(z)
        assert x.grad == 27.0


def desk_step(model):
    """One desk-shaped training step's loss (B=32, 28x28, D=64, depth 4)."""
    rng = np.random.default_rng(21)
    images = rng.uniform(0, 1, (32, 28, 28, 1))
    labels = rng.integers(0, 4, 32)
    priors = rng.normal(size=(32, 4))
    model.zero_grad()
    with Tape() as tape:
        loss, _ = model.batch_loss(images, labels, priors)
    return loss, tape


class TestDeskStep:
    def test_tape_records_53_nodes(self):
        """The desk step's tape, node by node: one attention node per layer,
        fed by one fused q/k/v linear node, one linear node per affine map,
        two slices to the last layer's class row, and every op the engine
        exports."""
        _, tape = desk_step(PViTModel(PViTConfig(), seed=0))
        ops = Counter(node.grad_fn.__qualname__.split(".", 1)[0] for node in tape.nodes)
        assert ops == {
            "linear": 19, "layer_norm": 9, "add": 9, "attention": 4, "gelu": 4, "concat": 2,
            "mul": 1, "broadcast_to": 1, "_getitem": 3, "cross_entropy": 1,
        }
        assert len(tape.nodes) == 53
        gelu_rows = [n.output.shape for n in tape.nodes if n.grad_fn.__qualname__.startswith("gelu")]
        assert gelu_rows == [(32, 18, 128)] * 3 + [(32, 1, 128)], "the last MLP runs on the class row alone"
        engine_ops = {name for name in T.__all__ if name[0].islower()} - {"backward"}
        assert set(ops) - {"_getitem"} == engine_ops, "every op the engine exports is one a step records"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="the heap settle targets glibc's dynamic mmap threshold",
    )
    def test_steps_in_a_fresh_process_do_not_page_fault(self):
        """After warm-up, desk steps reuse heap memory instead of mapping
        and faulting in fresh pages on every step."""
        script = textwrap.dedent(
            """
            import resource
            import pvit.tensor
            from pvit.model import PViTConfig, PViTModel
            from test_tensor import desk_step

            assert not pvit.tensor._heap_settled, "settled at import"
            model = PViTModel(PViTConfig(), seed=0)
            for step in range(13):
                if step == 3:
                    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                loss, _ = desk_step(model)
                pvit.tensor.backward(loss)
                del loss
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 10)
            """
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        faults = float(done.stdout.strip())
        assert faults < 100, f"{faults} minor page faults per step"


class TestGraphRelease:
    """backward frees the graph by reference counting alone."""

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        yield
        if was_enabled:
            gc.enable()

    def test_step_leaves_no_cyclic_garbage(self, collector_off):
        model = PViTModel(PViTConfig(), seed=0)
        loss, tape = desk_step(model)
        backward(loss)
        del loss, tape
        assert gc.collect() == 0

    def test_intermediate_dies_with_the_loss(self, collector_off):
        model = PViTModel(PViTConfig(), seed=0)
        loss, tape = desk_step(model)
        gelu_node = next(n for n in tape.nodes if n.grad_fn.__qualname__.startswith("gelu"))
        ref = weakref.ref(gelu_node.output.data)
        del gelu_node
        backward(loss)
        assert not tape.nodes
        del loss
        assert ref() is None

    def test_only_leaves_keep_grads(self):
        """backward drops each recorded output's gradient once its node's
        rule has run, and the parameter gradients stay bitwise those of a
        sweep that keeps every gradient."""
        model = PViTModel(PViTConfig(), seed=0)
        loss, tape = desk_step(model)
        loss.grad = np.ones_like(loss.data)
        for node in reversed(tape.nodes):  # the sweep, every gradient kept
            if node.output.grad is None:
                continue
            for tensor, grad in zip(node.inputs, node.grad_fn(node.output.grad)):
                if grad is not None and tensor.requires_grad:
                    tensor.grad = grad if tensor.grad is None else tensor.grad + grad
        kept = {name: p.grad.tobytes() for name, p in model.params.items()}

        loss, tape = desk_step(model)
        outputs = [node.output for node in tape.nodes]
        backward(loss)
        assert loss in outputs and all(out.grad is None for out in outputs)
        assert {name: p.grad.tobytes() for name, p in model.params.items()} == kept

    def test_parameter_grads_match_unfused_graph_bitwise(self, monkeypatch):
        """Releasing the graph and fusing each affine map into one linear
        node leave every parameter gradient bitwise as the graph of a
        bias-free linear node and an add computes it."""
        grads = []
        product = T.linear
        for fused in (True, False):
            if not fused:
                monkeypatch.setattr(T, "linear", lambda x, w, b=None: product(x, w) if b is None
                                    else add(product(x, w), b))
            model = PViTModel(PViTConfig(), seed=0)
            loss, _ = desk_step(model)
            backward(loss)
            grads.append({name: p.grad.tobytes() for name, p in model.params.items()})
        assert grads[0] == grads[1]
