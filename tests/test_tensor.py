"""Autodiff engine tests: forward values against independent oracles,
gradients against central finite differences, and the graph's lifetime."""

import functools
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
    @pytest.mark.parametrize("residual", [False, True], ids=["bias", "bias-residual"])
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(0, 3),  # 0: a 2-D (S, D_in) input
        seq=st.integers(1, 6),
        d_in=st.integers(1, 9),
        d_out=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_product_plus_bias_exactly(self, residual, batch, seq, d_in, d_out, seed):
        """One node, yet bitwise the forward value and every gradient of the
        add(add(linear(x, W), b), r) composition, the residual r optional."""
        rng = np.random.default_rng(seed)
        lead = (batch, seq) if batch else (seq,)
        x = rng.normal(size=lead + (d_in,))
        w = rng.normal(size=(d_in, d_out))
        addends = [rng.normal(size=(d_out,))] + [rng.normal(size=lead + (d_out,))] * residual
        upstream = rng.normal(size=lead + (d_out,))

        def composed(tx, tw, *ta):
            return functools.reduce(add, ta, linear(tx, tw))

        fused = linear(Tensor(x), Tensor(w), *map(Tensor, addends))
        assert fused.data.tobytes() == composed(*map(Tensor, [x, w] + addends)).data.tobytes()
        got = tape_grad(lambda *t: weighted_sum(linear(*t), upstream), x, w, *addends)
        want = tape_grad(lambda *t: weighted_sum(composed(*t), upstream), x, w, *addends)
        assert len(got) == len(want) == 2 + len(addends)
        for g, h in zip(got, want):
            np.testing.assert_array_equal(g, h)

    def test_records_one_node(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            linear(Tensor(np.ones((4, 3))), w, Tensor(np.zeros(2)), Tensor(np.zeros((4, 2))))
        assert len(tape.nodes) == 1

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\), \(3, 2\), \(2,\), \(3, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)), Tensor(np.zeros((3, 2))))


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
        """The weights are a read-only (B, H, S, S) array whose rows sum to 1,
        and ``[:, h, 0, -1]`` is head h's class-token mass on the last (prior)
        token, as composed."""
        rng = np.random.default_rng(13)
        qkv = Tensor(rng.normal(scale=30.0, size=(2, 5, 18)))
        _, weights = attention(qkv, 3)
        assert weights.shape == (2, 3, 5, 5)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            weights[0, 0, 0, 0] = 0.5
        _, want = composed_attention(qkv, 3)
        for h in range(3):
            assert_close_rel(weights[:, h, 0, -1], want[:, h, 0, -1], 1e-12, f"head {h} class-to-prior mass")

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_scores_far_beyond_exps_range(self, dtype, rtol):
        """With the q/k/v input scaled by 300 the scores reach about 1e5, far
        past where exp overflows; the max shift keeps every weight finite,
        each row sums to 1, and the weights and context match the composed
        chain run at the same dtype."""
        rng = np.random.default_rng(29)
        qkv = (300.0 * rng.normal(size=(4, 18, 48))).astype(dtype)
        out, weights = attention(Tensor(qkv), 4)
        want_out, want = composed_attention(Tensor(qkv), 4)
        assert weights.dtype == dtype and np.all(np.isfinite(weights)) and np.all(np.isfinite(out.data))
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=rtol)
        assert_close_rel(weights, want, rtol, "weights")
        assert_close_rel(out.data, want_out.data, rtol, "context")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_sample_is_bitwise_independent_of_its_batch(self, dtype):
        """At desk size (S = 18, D = 64, 4 heads) a sample's context and
        weights are bitwise the same in batches of 1, 7, 32, 64 and 65."""
        rng = np.random.default_rng(31)
        qkv = rng.normal(size=(65, 18, 192)).astype(dtype)
        out, weights = attention(Tensor(qkv), 4)
        for n in (1, 7, 32, 64):
            part_out, part_weights = attention(Tensor(qkv[:n]), 4)
            assert np.array_equal(part_out.data, out.data[:n]) and np.array_equal(part_weights, weights[:n]), n
        for i in (6, 31, 64):
            one_out, one_weights = attention(Tensor(qkv[i : i + 1]), 4)
            assert np.array_equal(one_out.data, out.data[i : i + 1]) and np.array_equal(one_weights, weights[i : i + 1]), i

    def test_float32_matches_float64_within_float32_precision(self):
        """A float32 forward and tape gradient agree with the float64 ones
        within 1e-6 of the largest float64 value."""
        rng = np.random.default_rng(37)
        qkv = rng.normal(size=(8, 18, 192))
        upstream = rng.normal(size=(8, 18, 64))
        (out64, w64), (out32, w32) = (attention(Tensor(qkv.astype(dtype)), 4) for dtype in (np.float64, np.float32))
        assert out32.data.dtype == w32.dtype == np.float32
        np.testing.assert_allclose(out32.data, out64.data, rtol=0, atol=1e-6 * np.max(np.abs(out64.data)))
        np.testing.assert_allclose(w32, w64, rtol=0, atol=1e-6)
        (g64,) = tape_grad(lambda t: weighted_sum(attention(t, 4)[0], upstream), qkv)
        (g32,) = tape_grad(lambda t: weighted_sum(attention(t, 4)[0], upstream), qkv.astype(np.float32))
        assert g32.dtype == np.float32
        np.testing.assert_allclose(g32, g64, rtol=0, atol=1e-6 * np.max(np.abs(g64)))

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

    def test_float64_values_and_gradients_are_the_kernel_formula_bitwise(self):
        rng = np.random.default_rng(9)
        x = rng.normal(scale=3.0, size=(6, 50))
        w = rng.normal(size=x.shape)
        cdf = T._normal_cdf(x)
        pdf_x = np.exp(x * x * -0.5) * (1.0 / math.sqrt(2.0 * math.pi)) * x
        assert np.array_equal(gelu(Tensor(x)).data, x * cdf)
        (g,) = tape_grad(lambda t: weighted_sum(gelu(t), w), x)
        assert np.array_equal(g, (pdf_x + cdf) * w)

    def test_float32_gradient_matches_float64_within_float32_precision(self):
        rng = np.random.default_rng(10)
        x = rng.normal(scale=3.0, size=(6, 50))
        w = rng.normal(size=x.shape)
        (g64,) = tape_grad(lambda t: weighted_sum(gelu(t), w), x)
        (g32,) = tape_grad(lambda t: weighted_sum(gelu(t), w), x.astype(np.float32))
        assert g32.dtype == np.float32
        np.testing.assert_allclose(g32, g64, rtol=0, atol=1e-6 * np.max(np.abs(w)))


class TestNormalCdf:
    """GELU's normal CDF, 0.5 (1 + tanh(z P(z^2))) with z clipped to +-6.5,
    at float32 and at float64, against the exact CDF over all of each
    dtype's interesting range."""

    BOUND = {np.float32: 2.0**-23, np.float64: 2.0**-26}

    @pytest.fixture(scope="class", params=[np.float32, np.float64], ids=["float32", "float64"])
    def dtype(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def grid(self, dtype):
        """2^22 + 1 evenly spaced points on [-12, 12] and the edge cases,
        sorted, at ``dtype``, with the kernel's CDF at each."""
        clip = dtype(6.5)
        edges = [np.nextafter(clip, dtype(0)), clip, np.nextafter(clip, dtype(np.inf))]
        special = [0.0, -0.0, 1e-30, -1e-30, np.finfo(dtype).smallest_subnormal, np.inf, -np.inf]
        special = np.array(special + edges + [-e for e in edges], dtype)
        x = np.sort(np.concatenate([np.linspace(-12, 12, 2**22 + 1, dtype=dtype), special]))
        return x, T._normal_cdf(x)

    def test_within_its_bound_of_the_exact_cdf(self, dtype, grid):
        """2^-23 in float32, 2^-26 in float64."""
        from scipy.special import erf

        x, cdf = grid
        assert cdf.dtype == dtype
        exact = 0.5 * (1.0 + erf(x.astype(np.float64) / math.sqrt(2.0)))
        assert np.max(np.abs(cdf - exact)) <= self.BOUND[dtype]

    def test_non_decreasing(self, grid):
        assert np.all(np.diff(grid[1]) >= 0)

    def test_exactly_0_and_1_at_and_beyond_the_clip(self, grid):
        x, cdf = grid
        assert np.count_nonzero(x >= 6.5) > 1000 and np.all(cdf[x >= 6.5] == 1.0)
        assert np.count_nonzero(x <= -6.5) > 1000 and np.all(cdf[x <= -6.5] == 0.0)

    def test_nan_gives_nan(self, dtype):
        x = np.array([np.nan, 0.5, -np.nan], dtype)
        assert np.isnan(T._normal_cdf(x)).tolist() == [True, False, True]
        assert np.isnan(gelu(Tensor(x)).data).tolist() == [True, False, True]

    def test_gelu_of_a_large_negative_is_negative_zero(self, dtype):
        (y,) = gelu(Tensor(np.array([-1e4], dtype))).data
        assert y.dtype == dtype and y == 0.0 and np.signbit(y)

    def test_gelu_is_x_times_the_kernel(self, dtype):
        x = np.random.default_rng(11).normal(scale=4.0, size=(3, 7, 9)).astype(dtype)
        assert np.array_equal(gelu(Tensor(x)).data, x * T._normal_cdf(x))


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


class TestFloat32:
    """An op computes at its inputs' precision: float32 inputs give float32
    outputs, nothing silently promotes them, and a tape records one dtype."""

    @staticmethod
    def f32(*shape, seed=5):
        return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32))

    def test_float32_data_stays_float32_and_anything_else_becomes_float64(self):
        assert Tensor(np.ones((2, 3), np.float32)).data.dtype == np.float32
        assert Tensor(np.float32(2.5)).data.dtype == np.float32
        for data in ([1.0, 2.0], 3, 2.5, np.ones(2, np.float16), np.arange(3), np.ones(2)):
            assert Tensor(data).data.dtype == np.float64, data

    def test_every_public_op_on_float32_returns_float32(self):
        x, w = self.f32(2, 3, 6), self.f32(6, 4)
        bias, residual = self.f32(4), self.f32(2, 3, 4)
        gain, shift = self.f32(6), self.f32(6)
        context, weights = attention(self.f32(2, 3, 12), 2)
        outputs = {
            "add": add(x, self.f32(6)),
            "add by a Python scalar": add(0.5, x),
            "mul": mul(x, x),
            "mul by a Python scalar": mul(x, 0.1),
            "mul of a Python scalar": mul(3, x),
            "linear": linear(x, w),
            "linear with a bias": linear(x, w, bias),
            "linear with a bias and a residual": linear(x, w, bias, residual),
            "broadcast_to": broadcast_to(self.f32(1, 6), (3, 6)),
            "concat": concat([x, x], axis=1),
            "getitem": x[:, :1, :],
            "getitem of one element": x[0, 0, 0],
            "attention": context,
            "layer_norm": layer_norm(x, gain, shift),
            "gelu": gelu(x),
            "cross_entropy": cross_entropy(self.f32(3, 4), [0, 3, 1]),
        }
        for name, out in outputs.items():
            assert out.data.dtype == np.float32, name
        assert weights.dtype == np.float32
        assert softmax_rows(x.data).dtype == np.float32

    def test_float32_matches_float64_within_float32_precision(self):
        x, w, bias = self.f32(4, 5, 12), self.f32(12, 12), self.f32(12)
        gain, shift = self.f32(12), self.f32(12)

        def block(x, w, bias, gain, shift):
            normed = layer_norm(x, gain, shift)
            context, _ = attention(linear(normed, w, bias, normed), 4)
            return gelu(mul(context, 0.1))

        single = block(x, w, bias, gain, shift).data
        double = block(*(Tensor(t.data.astype(np.float64)) for t in (x, w, bias, gain, shift))).data
        np.testing.assert_allclose(single, double, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("first, second", [("float64", "float32"), ("float32", "float64")])
    @pytest.mark.parametrize("op, build", [
        ("mul", lambda t: mul(t, 2.0)),
        ("linear", lambda t: linear(t, Tensor(np.ones((3, 2), t.data.dtype)))),
        ("gelu", gelu),
    ])
    def test_tape_refuses_a_second_dtype_naming_the_op_and_both_dtypes(self, op, build, first, second):
        with Tape() as tape:
            traced = mul(Tensor(np.ones(3, first), requires_grad=True), 2.0)
            leaf = Tensor(np.ones((2, 3), second), requires_grad=True)
            with pytest.raises(TapeError, match=f"^{op} .*{second}.*{first}"):
                build(leaf)
        assert [node.output for node in tape.nodes] == [traced]
        assert tape.dtype == first

    def test_a_float32_tape_records_float32_and_fills_float32_gradients(self):
        x, w, bias = self.f32(4, 5, 12), self.f32(12, 12), self.f32(12)
        gain, shift = self.f32(12), self.f32(12)
        leaves = (w, bias, gain, shift)
        for leaf in leaves:
            leaf.requires_grad = True
        with Tape() as tape:
            normed = layer_norm(x, gain, shift)
            context, _ = attention(linear(normed, w, bias, normed), 4)
            loss = cross_entropy(gelu(mul(context, 0.1))[:, 0, :], [0, 3, 1, 2])
        assert tape.dtype == np.float32
        assert all(node.output.data.dtype == np.float32 for node in tape.nodes)
        backward(loss)
        for leaf in leaves:
            assert leaf.grad.dtype == np.float32 and leaf.grad.shape == leaf.shape

    def test_untracked_float32_ops_run_under_a_tape(self):
        with Tape() as tape:
            out = gelu(Tensor(np.ones((2, 3), np.float32)))
            traced = mul(Tensor(np.ones(3), requires_grad=True), 2.0)
        assert out.data.dtype == np.float32 and out.tape is None
        assert [node.output for node in tape.nodes] == [traced]


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
    def test_tape_records_45_nodes(self):
        """The desk step's tape, node by node: one attention node per layer,
        fed by one fused q/k/v linear node, one linear node per affine map,
        each residual add folded into the projection that ends its
        sublayer, two slices to the last layer's class row, and every op
        the engine exports.  The stored bytes are exactly the 45 outputs:
        a fused node keeps no intermediate."""
        _, tape = desk_step(PViTModel(PViTConfig(), seed=0))
        ops = Counter(node.grad_fn.__qualname__.split(".", 1)[0] for node in tape.nodes)
        assert ops == {
            "linear": 19, "layer_norm": 9, "attention": 4, "gelu": 4, "_getitem": 3, "concat": 2,
            "add": 1, "mul": 1, "broadcast_to": 1, "cross_entropy": 1,
        }
        assert len(tape.nodes) == 45
        assert sum(node.output.data.nbytes for node in tape.nodes) == 13_435_912
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
        """Releasing the graph and fusing each affine map and residual add
        into one linear node leave every parameter gradient bitwise as the
        graph of a bare product node and one add per addend computes it."""
        grads = []
        product = T.linear
        for fused in (True, False):
            if not fused:
                monkeypatch.setattr(T, "linear", lambda x, w, *addends: functools.reduce(add, addends, product(x, w)))
            model = PViTModel(PViTConfig(), seed=0)
            loss, _ = desk_step(model)
            backward(loss)
            grads.append({name: p.grad.tobytes() for name, p in model.params.items()})
        assert grads[0] == grads[1]
