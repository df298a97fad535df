"""Dense float tensors with reverse-mode automatic differentiation.

The engine covers the operation set the transformer forward and
backward passes differentiate: broadcast ``add`` and ``mul``, the one
matrix product ``linear`` (a 2-D weight, then optional addends),
``broadcast_to``, ``concat`` and indexing, multi-head scaled
dot-product ``attention`` (one node over a fused (B, S, 3D) q/k/v
input; its scores are held key-major, (S, B, H, S), so the softmax
reduces over the outermost axis, and its (B, H, S, S) weights come back
as a read-only, non-contiguous view of them), layer normalization,
GELU (one tanh-polynomial CDF at either precision, within 2^-23 of the
exact one in float32 and 2^-26 in float64), and cross-entropy.  The
tests' reference ops, from which they compose attention as the oracle
for the fused node, are built on :func:`_record` in ``tests/oracle.py``.
:func:`softmax_rows` is plain numpy and records nothing.  Operations
executed inside a ``with Tape():`` block, in the thread that opened it,
are recorded on that tape, and each recorded output's ``tape`` names
it; :func:`backward` replays the tape in reverse and accumulates total
derivatives into leaf tensors' ``grad``.

Usage sketch::

    w = Tensor(weights, requires_grad=True)
    tape = Tape()
    with tape:
        loss = cross_entropy(linear(x, w), targets)
    backward(loss)          # w.grad now holds d(loss)/d(w)

A tape is single-owner, is rebuilt for every forward pass, and supports
exactly one backward call, which keeps only leaf gradients: a recorded
output's gradient is dropped once its node's rule has consumed it.  When
done, the call frees the graph: each node drops its inputs, output and
gradient rule, so the step's activations go away by reference counting
as soon as the caller lets go of the loss.  A tape that never reaches
backward still holds reference cycles (tensor to tape to node to
tensor) and is left to Python's cyclic collector.  Tensors are
value-like once constructed; optimizers mutate parameter buffers in
place between tapes, never during one.

An op computes at its inputs' precision.  A tensor built from float32
data stays float32, and any other data becomes float64; a non-tensor
operand of ``add`` or ``mul`` takes the tensor operand's dtype, and the
arrays an op allocates take its input's.  So a model whose parameters
are float32, as a loaded checkpoint's are, runs its forward pass in
float32.  A tape records one dtype, the first recorded node's, and its
gradients come out at that dtype: an op that would record an output of
another dtype raises :class:`TapeError` naming both, so float32 and
float64 never mix in one graph.

The first op a process runs allocates and frees one 16 MiB block, once.
Under glibc this raises malloc's mmap and trim thresholds, so the
megabyte-sized arrays of each step are recycled within the heap instead
of being mapped, page-faulted in and unmapped again on every step;
elsewhere it costs one untouched allocation.  Importing the module does
not do it.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError, TapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "add",
    "mul",
    "linear",
    "broadcast_to",
    "concat",
    "attention",
    "layer_norm",
    "gelu",
    "cross_entropy",
]

Array = np.ndarray

LAYER_NORM_EPS = 1e-5

_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# The normal CDF is 0.5 (1 + tanh(z P(z^2))) with z = x clipped to
# +-_CDF_CLIP, where the CDF is already exactly 0 and 1 in float32 and float64.
# P's coefficients, highest power first, are a least-squares fit of
# atanh(erf(x / sqrt 2)) / x as a degree-9 polynomial in u = x^2: one row
# at each x = 6.5 cos((2k + 1) pi / 160000), k < 40,000 (the non-negative
# half of the 80,000 Chebyshev nodes of [-6.5, 6.5]), each row scaled by
# (1 - erf^2) max(x, 1e-3), how far the CDF moves with the tanh argument;
# solved in float64 in u / 42.25, scaled back to u and rounded to float32.
# Its last two are the tanh approximation's sqrt(2/pi) and 0.0447 sqrt(2/pi),
# refitted.  Degrees 10 and 11 of the same fit are not monotone near the clip.
_CDF_CLIP = 6.5
_CDF_POLY = np.array([1.8974111e-13, -1.8668501e-11, 7.0701578e-10, -1.1596256e-08, 4.1969130e-09,
                      3.1986285e-06, -5.3016422e-05, -3.5940495e-05, 3.6335077e-02, 7.9788464e-01],
                     dtype=np.float32)

_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


class Tensor:
    """N-dimensional float array, optionally tracked for gradients.

    ``data`` is a contiguous row-major numpy array: float32 when built
    from float32 data, else float64.  ``grad``, which
    :func:`backward` fills for leaves only, matches ``data``'s shape.
    The shape never changes in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_F32 if getattr(data, "dtype", None) is _F32 else _F64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keep rank-0 tensors rank 0
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None
        self.tape: Optional["Tape"] = None  # set when an op records this tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __getitem__(self, key):
        return _getitem(self, key)


class _Node:
    """One recorded operation: inputs, output, and its local gradient rule."""

    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor, grad_fn: Callable):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of operations; replayed once, in reverse, by backward().

    Recording order is execution order, which is a topological order by
    construction (an op's inputs always exist before its output).  A tape
    belongs to the thread that built it, and ``dtype``, set by its first
    node, is the dtype of every output it records.
    """

    __slots__ = ("nodes", "dtype", "_consumed")

    def __init__(self):
        self.nodes: list[_Node] = []
        self.dtype: Optional[np.dtype] = None  # set by the first recorded node
        self._consumed = False

    def __enter__(self) -> "Tape":
        _OPEN.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _OPEN.tapes.pop()


class _OpenTapes(threading.local):
    """The calling thread's open tapes, innermost last."""

    def __init__(self):
        self.tapes: list[Tape] = []


_OPEN = _OpenTapes()


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf ``t`` on the
    tape; recorded outputs, the loss included, are left with ``grad`` None.

    The loss must be a scalar recorded on a live tape.  Each tape supports
    one backward pass; a second call raises :class:`TapeError`.
    """
    tape = loss.tape
    if tape is None:
        raise TapeError("loss tensor is detached: it was not produced under an active tape")
    if tape._consumed:
        raise TapeError("backward already ran on this tape; build a fresh graph for another pass")
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(tape.nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue  # not reachable from the loss
            in_grads = node.grad_fn(out_grad)
            node.output.grad = None  # nothing reads it again; leaves keep theirs
            for tensor, grad in zip(node.inputs, in_grads):
                if grad is None or not tensor.requires_grad:
                    continue
                tensor.grad = grad if tensor.grad is None else tensor.grad + grad
    finally:
        # break every tensor -> node -> tensor cycle, so the graph is freed by
        # reference counting rather than left to the cyclic collector
        for node in tape.nodes:
            node.inputs = node.output = node.grad_fn = None
        tape.nodes.clear()


def _as_tensor(value, like=None) -> Tensor:
    """``value`` as a tensor; a non-tensor takes the dtype of ``like`` if
    that is a float32 tensor, so a Python scalar does not promote a float32 op."""
    if isinstance(value, Tensor):
        return value
    if isinstance(like, Tensor) and like.data.dtype is _F32:
        value = np.asarray(value, dtype=_F32)
    return Tensor(value)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """The operands of a binary op as tensors, each non-tensor at the other's dtype."""
    a = _as_tensor(a, b)
    return a, _as_tensor(b, a)


# glibc's malloc serves a block above its mmap threshold (128 KiB at start)
# with a fresh mapping and unmaps it on free, so a tape's outputs would be
# page-faulted in anew on every step.  Freeing one mapped block raises the
# threshold to that block's size, and the trim threshold to twice it
# (mallopt(3), dynamic mmap threshold); after one 16 MiB block has come and
# gone, the engine's buffers are recycled within the heap.
_heap_settled = False


def _settle_heap() -> None:
    global _heap_settled
    _heap_settled = True
    block = np.empty(2**21)  # 16 MiB of float64, never touched
    del block


def _record(inputs: tuple[Tensor, ...], out_data: Array, grad_fn: Callable) -> Tensor:
    if not _heap_settled:
        _settle_heap()
    tapes = _OPEN.tapes
    track = bool(tapes) and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape = tapes[-1]
        if tape.dtype is None:
            tape.dtype = out.data.dtype
        elif out.data.dtype is not tape.dtype:
            op = grad_fn.__qualname__.split(".", 1)[0]
            raise TapeError(f"{op} would record a {out.data.dtype} output on a {tape.dtype} tape; "
                            "a tape records one dtype")
        out.tape = tape
        tape.nodes.append(_Node(inputs, out, grad_fn))
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    """Elementwise (broadcasting) sum; either side may be a scalar."""
    a, b = _pair(a, b)
    out = a.data + b.data

    def grad_fn(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, grad_fn)


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product; either side may be a scalar."""
    a, b = _pair(a, b)
    out = a.data * b.data

    def grad_fn(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), out, grad_fn)


def _rows(x: Array) -> Array:
    """``x`` as a 2-D (rows, last axis) view."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def linear(x, weight, *addends) -> Tensor:
    """Matrix product ``x @ weight``, plus each addend in turn, as one node.

    ``weight`` is (D_in, D_out), and each addend is shaped like trailing
    axes of the output: a (D_out,) bias, or a residual shaped like the
    output.  Leading axes of ``x`` are batch axes, flattened so that the
    forward product and both matrix gradients (dX = dY W^T, dW = X^T dY)
    are single 2-D GEMMs.  Values and gradients are bitwise those of
    ``add(add(linear(x, weight), b), z)``, with no intermediate on the tape.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    addends = tuple(map(_as_tensor, addends))
    out_shape = x.shape[:-1] + weight.shape[1:]
    if (x.ndim < 2 or weight.ndim != 2 or x.shape[-1] != weight.shape[0]
            or any(out_shape[len(out_shape) - a.ndim:] != a.shape for a in addends)):
        shapes = ", ".join(str(t.shape) for t in (x, weight) + addends)
        raise ShapeError(f"linear needs rank >= 2 input, a 2-D weight with a row per input column and addends "
                         f"shaped like trailing output axes, got shapes {shapes}")
    out = (_rows(x.data) @ weight.data).reshape(out_shape)
    for a in addends:
        out += a.data

    def grad_fn(g):
        g2 = _rows(g)
        gx = (g2 @ weight.data.T).reshape(x.shape) if x.requires_grad else None
        gw = _rows(x.data).T @ g2 if weight.requires_grad else None
        return (gx, gw) + tuple(_unbroadcast(g, a.shape) if a.requires_grad else None for a in addends)

    return _record((x, weight) + addends, out, grad_fn)


# ---------------------------------------------------------------------------
# shape manipulation


def broadcast_to(x, shape) -> Tensor:
    x = _as_tensor(x)
    try:
        out = np.broadcast_to(x.data, shape)
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {x.shape} to {tuple(shape)}: {exc}") from None

    def grad_fn(g):
        return (_unbroadcast(g, x.shape),)

    return _record((x,), np.ascontiguousarray(out), grad_fn)


def _getitem(x: Tensor, key) -> Tensor:
    """Basic (non-repeating) indexing with a scatter-add gradient."""
    out = x.data[key]
    out = out.copy() if isinstance(out, np.ndarray) else np.asarray(out)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _record((x,), out, grad_fn)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of an empty sequence")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat along axis {axis}: {exc}") from None
    ax = axis + out.ndim if axis < 0 else axis
    splits = np.cumsum([p.shape[ax] for p in parts])[:-1]

    def grad_fn(g):
        pieces = np.split(g, splits, axis=ax)
        return tuple(piece if p.requires_grad else None for p, piece in zip(parts, pieces))

    return _record(tuple(parts), out, grad_fn)


# ---------------------------------------------------------------------------
# nonlinear ops


def softmax_rows(z: Array) -> Array:
    """Max-shifted softmax over the last axis of a plain array.

    Records nothing: the prior token's weights and the scores'
    probabilities both come from constant logits.
    """
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(qkv, heads: int) -> tuple[Tensor, Array]:
    """Multi-head scaled dot-product attention, recorded as one node.

    ``qkv`` is a (B, S, 3D) block, the query, key and value projections
    side by side; each splits into ``heads`` heads of D / heads columns.
    Per head, P = softmax(q k^T / sqrt(D / heads)) over the key axis and
    the context is P v; the heads' contexts merge back into (B, S, D).
    Returns the context and the (B, H, S, S) weights P.

    The scores are held key-major, in one (S, B, H, S) buffer indexed
    [key, batch, head, query], so the softmax reduces over the outermost
    axis: each step is one numpy call over B H S columns.  The weights
    come back as a read-only, non-contiguous view of that buffer, which
    the node keeps for its backward pass.
    """
    qkv = _as_tensor(qkv)
    if qkv.ndim != 3 or qkv.shape[-1] % 3:
        raise ShapeError(f"attention needs a (B, S, 3D) input, got shape {qkv.shape}")
    b, s, d = qkv.shape[0], qkv.shape[1], qkv.shape[2] // 3
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: {d} columns do not split into {heads} heads")
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)

    def split(x: Array, parts: int) -> Array:  # (B, S, parts*D) -> parts x (B, H, S, D/H), views
        return x.reshape(b, s, parts, heads, hd).transpose(2, 0, 3, 1, 4)

    def key_major(left: Array, right: Array) -> Array:  # left right^T into a new (S, B, H, S) buffer
        buf = np.empty((s, b, heads, s), dtype=qkv.data.dtype)
        np.matmul(left, right.transpose(0, 1, 3, 2), out=buf.transpose(1, 2, 0, 3))
        return buf

    qh, kh, vh = split(qkv.data, 3)
    scores = key_major(kh, qh)
    cols = scores.reshape(s, -1)
    cols *= scale
    cols -= cols.max(axis=0)
    np.exp(cols, out=cols)
    cols /= cols.sum(axis=0)
    scores.flags.writeable = False
    probs = scores.transpose(1, 2, 3, 0)
    out = np.empty((b, s, d), dtype=qkv.data.dtype)
    np.matmul(probs, vh, out=split(out, 1)[0])

    def grad_fn(g):
        (gh,) = split(g, 1)
        grad = np.empty_like(qkv.data)
        gq, gk, gv = split(grad, 3)
        np.matmul(scores.transpose(1, 2, 0, 3), gh, out=gv)
        # softmax backward: dS = P * (dP - sum over keys of dP * P), then the scale
        ds = key_major(vh, gh)
        dcols = ds.reshape(s, -1)
        dcols -= (dcols * cols).sum(axis=0)
        dcols *= cols
        dcols *= scale
        np.matmul(ds.transpose(1, 2, 3, 0), kh, out=gq)
        np.matmul(ds.transpose(1, 2, 0, 3), qh, out=gk)
        return (grad,)

    return _record((qkv,), out, grad_fn), probs


def layer_norm(x, gain, bias) -> Tensor:
    """Zero-mean unit-variance normalization of the last axis, then affine.

    Uses the population variance, stabilized by :data:`LAYER_NORM_EPS`, so
    constant rows normalize to zero instead of dividing by zero.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"layer_norm needs a non-empty last axis, got shape {x.shape}")
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )
    rows = _rows(x.data)
    inv_n = np.full(n, 1.0 / n, dtype=rows.dtype)
    xhat = rows - (rows @ inv_n)[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat) / n
    rstd = (1.0 / np.sqrt(var + LAYER_NORM_EPS))[:, None]
    xhat *= rstd
    out = xhat * gain.data
    out += bias.data

    def grad_fn(g):
        g2 = _rows(g)
        gx = ggain = gbias = None
        if x.requires_grad:
            gx = g2 * gain.data
            m2 = np.einsum("ij,ij->i", gx, xhat) / n
            gx -= (gx @ inv_n)[:, None]
            gx -= xhat * m2[:, None]
            gx *= rstd
            gx = gx.reshape(x.shape)
        if gain.requires_grad:
            ggain = np.einsum("ij,ij->j", g2, xhat)
        if bias.requires_grad:
            gbias = np.ones(len(g2), dtype=g2.dtype) @ g2
        return gx, ggain, gbias

    return _record((x, gain, bias), out.reshape(x.shape), grad_fn)


def _normal_cdf(x: Array) -> Array:
    """The normal CDF of ``x``, 0.5 (1 + tanh(z P(z^2))), at ``x``'s dtype, with P
    (``_CDF_POLY``) by Horner's rule in place: about 25 elementwise passes."""
    z = np.clip(x, -_CDF_CLIP, _CDF_CLIP)
    u = z * z
    cdf = u * _CDF_POLY[0]
    cdf += _CDF_POLY[1]
    for c in _CDF_POLY[2:]:
        cdf *= u
        cdf += c
    cdf *= z
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x) -> Tensor:
    """GELU, elementwise: x times the normal CDF 0.5 (1 + erf(x / sqrt 2)).

    The CDF comes from :func:`_normal_cdf`, 0.5 (1 + tanh(z P(z^2))), at
    the input's dtype: within 2^-23 of the exact CDF in float32 and 2^-26
    in float64, non-decreasing, and exactly 0 and 1 at and beyond +-6.5.
    The backward pass keeps that CDF and uses the exact pdf.
    """
    x = _as_tensor(x)
    cdf = _normal_cdf(x.data)
    out = x.data * cdf

    def grad_fn(g):
        dy = x.data * x.data
        dy *= -0.5
        np.exp(dy, out=dy)
        dy *= _INV_SQRT2PI
        dy *= x.data  # x * pdf(x)
        dy += cdf
        dy *= g
        return (dy,)

    return _record((x,), out, grad_fn)


def cross_entropy(logits, targets) -> Tensor:
    """Mean over the batch of logsumexp(row) minus the target logit.

    ``logits`` is B x K; ``targets`` holds B class indices in [0, K).
    The gradient is (softmax - one_hot) / B.
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects B x K logits, got shape {logits.shape}")
    batch, k = logits.shape
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != batch:
        raise ShapeError(f"cross_entropy: {batch} logit rows but {t.shape[0]} targets")
    if t.size and (t.min() < 0 or t.max() >= k):
        raise ShapeError(f"cross_entropy: target out of range [0, {k})")
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    out = np.mean(lse - logits.data[np.arange(batch), t])

    def grad_fn(g):
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(batch), t] -= 1.0
        return (p * (float(g) / batch),)

    return _record((logits,), out, grad_fn)
