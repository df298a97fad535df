"""Reference ops and scorers: the oracles the package's fused code matches.

``reshape``, ``transpose``, ``bmatmul`` (batched matrix product) and
``softmax`` are recorded on the gradient tape like the engine's own ops,
so the tests can compose attention from them; that chain, and its
gradients, is the reference for the fused :func:`pvit.tensor.attention`
node.  :func:`full_encode` runs every encoder block on every row, the
reference for the model's block stack, whose last block keeps only the
class row past attention.

The per-vector scorers are the oracle
:func:`pvit.scoring.score_records` matches.  Each scores one logit
vector the plain way, one formula at a time: negative energy (the
logsumexp), MSP, MaxLogit, the CE / KL / ED guidance terms and their
product.  ``score_records`` computes the same
fields for a whole (N, K) block in one vectorised pass; the tests hold
it to these functions record by record, to the last bit.
:func:`cefe_expand` gives both sides of the score-expansion identity.

:func:`adam_step` is Adam one parameter tensor at a time, with its
moments in a plain dict: the reference :func:`pvit.train.adam_step`'s
whole-vector update matches to the bit.

Probabilities are clamped at the package's ``PROB_CLAMP`` before any
log, as ``score_records`` does.
"""

from __future__ import annotations

import numpy as np

from pvit import tensor as T
from pvit.errors import ShapeError, TrainingError
from pvit.scoring import PROB_CLAMP, ScoreRecord
from pvit.tensor import Tensor, _record, _unbroadcast, mul
from pvit.train import ADAM_EPS


# ---------------------------------------------------------------------------
# recorded reference ops


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``x``'s values in ``shape``, row-major."""
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {x.shape} into {shape}: {exc}") from None

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return _record((x,), out, grad_fn)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Permute the axes of ``x``: output axis i is input axis ``axes[i]``."""
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of axes for shape {x.shape}")
    inv = np.argsort(axes)

    def grad_fn(g):
        return (np.transpose(g, inv),)

    return _record((x,), np.transpose(x.data, axes), grad_fn)


def bmatmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the trailing two axes; leading axes broadcast as
    batch dimensions.  dA = dC B^T and dB = A^T dC, summed over broadcast
    batch axes."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"bmatmul: shapes {a.shape} and {b.shape} do not multiply")

    def grad_fn(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return _record((a, b), a.data @ b.data, grad_fn)


def _check_axis(x: Tensor, axis: int, op: str) -> int:
    if x.ndim == 0:
        raise ShapeError(f"{op}: rank-0 tensor has no axes")
    ax = axis + x.ndim if axis < 0 else axis
    if not 0 <= ax < x.ndim:
        raise ShapeError(f"{op}: axis {axis} out of range for shape {x.shape}")
    if x.shape[ax] == 0:
        raise ShapeError(f"{op}: axis {axis} of shape {x.shape} is empty")
    return ax


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Exponential normalization along ``axis``; max-shifted for stability."""
    ax = _check_axis(x, axis, "softmax")
    e = np.exp(x.data - np.max(x.data, axis=ax, keepdims=True))
    out = e / np.sum(e, axis=ax, keepdims=True)

    def grad_fn(g):
        inner = np.sum(g * out, axis=ax, keepdims=True)
        return ((g - inner) * out,)

    return _record((x,), out, grad_fn)


def composed_attention(qkv, heads):
    """Reference for the fused op: the attention core composed of plain
    ops (split the (B, S, 3D) input into q, k and v, split heads, scaled
    q k^T, softmax, weights times v, merge)."""
    b, s, d3 = qkv.shape
    d = d3 // 3
    hd = d // heads

    def split(t):
        return transpose(reshape(t, (b, s, heads, hd)), (0, 2, 1, 3))

    qh, kh, vh = (split(qkv[:, :, i * d : (i + 1) * d]) for i in range(3))
    weights = softmax(mul(bmatmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(hd)), axis=-1)
    ctx = bmatmul(weights, vh)
    return reshape(transpose(ctx, (0, 2, 1, 3)), (b, s, d)), weights.data


def full_encode(model, seq):
    """Reference for :meth:`pvit.model.PViTModel._encode`: every block of
    ``model`` runs on every row of the (B, S, D) sequence, the last block
    included, and the class rows are read off the final output.  Returns
    them layer normalized, with each layer's attention weights."""
    c, p = model.config, model.params
    attentions = []
    z = seq
    for i in range(c.depth):
        blk = f"blocks.{i}"
        normed = T.layer_norm(z, p[f"{blk}.ln1.gain"], p[f"{blk}.ln1.bias"])
        qkv = T.linear(normed, p[f"{blk}.attn.qkv.weight"], p[f"{blk}.attn.qkv.bias"])
        merged, attn = T.attention(qkv, c.heads)
        attentions.append(attn)
        z = T.add(T.linear(merged, p[f"{blk}.attn.out.weight"], p[f"{blk}.attn.out.bias"]), z)
        normed2 = T.layer_norm(z, p[f"{blk}.ln2.gain"], p[f"{blk}.ln2.bias"])
        hidden = T.gelu(T.linear(normed2, p[f"{blk}.mlp.fc1.weight"], p[f"{blk}.mlp.fc1.bias"]))
        z = T.add(T.linear(hidden, p[f"{blk}.mlp.fc2.weight"], p[f"{blk}.mlp.fc2.bias"]), z)
    return T.layer_norm(z[:, 0, :], p["final_norm.gain"], p["final_norm.bias"]), attentions


# ---------------------------------------------------------------------------
# per-vector scorers


def _finite(z, what: str) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ShapeError(f"{what} must be finite")
    return z


def _lse(z: np.ndarray) -> float:
    m = float(z.max())
    return m + float(np.log(np.exp(z - m).sum()))


def energy(logits) -> float:
    """Negative logsumexp of the logits; low for confident predictions."""
    z = _finite(logits, "logits")
    return -_lse(z)


def base_score(logits) -> float:
    """Negative energy: the logsumexp itself, higher for confident rows."""
    return -energy(logits)


def msp(logits) -> float:
    """Maximum softmax probability."""
    z = _finite(logits, "logits")
    e = np.exp(z - z.max())
    return float((e / e.sum()).max())


def max_logit(logits) -> float:
    """Largest raw logit."""
    return float(_finite(logits, "logits").max())


def _softmax_clamped(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return np.maximum(e / e.sum(), PROB_CLAMP)


def guidance_ce(prior_logits, predicted_class: int) -> float:
    """-log of the prior probability assigned to the predicted class."""
    p = _finite(prior_logits, "prior logits")
    k = int(predicted_class)
    if not 0 <= k < len(p):
        raise ShapeError(f"predicted class {k} out of range [0, {len(p)})")
    return float(-np.log(_softmax_clamped(p)[k]))


def guidance_kl(prior_logits, predicted_logits) -> float:
    """KL(prior distribution || predicted distribution), both clamped."""
    p = _finite(prior_logits, "prior logits")
    q = _finite(predicted_logits, "predicted logits")
    if p.shape != q.shape:
        raise ShapeError(f"logit vectors disagree in length: {p.shape} vs {q.shape}")
    pp = _softmax_clamped(p)
    qq = _softmax_clamped(q)
    return float(np.sum(pp * np.log(pp / qq)))


def guidance_ed(prior_logits, predicted_logits) -> float:
    """Euclidean distance between the raw logit vectors."""
    p = _finite(prior_logits, "prior logits")
    q = _finite(predicted_logits, "predicted logits")
    if p.shape != q.shape:
        raise ShapeError(f"logit vectors disagree in length: {p.shape} vs {q.shape}")
    return float(np.sqrt(np.sum((p - q) ** 2)))


def pge(base: float, guidance: float) -> float:
    """Exact product of the base confidence and the guidance term."""
    return base * guidance


def cefe_expand(z, k: int) -> tuple[float, float]:
    """Both sides of the score expansion identity for logits ``z``, class ``k``:
    (-z_k + LSE) * LSE must equal -z_k * LSE + LSE^2."""
    z = _finite(z, "logits")
    if not 0 <= k < len(z):
        raise ShapeError(f"class {k} out of range [0, {len(z)})")
    lse = _lse(z)
    factored = (-float(z[k]) + lse) * lse
    expanded = -float(z[k]) * lse + lse * lse
    return factored, expanded


def scalar_record(sid, pred_row, prior_row, kind) -> ScoreRecord:
    """One score record from the functions above: what ``score_records``
    must produce for this row."""
    k = int(np.argmax(pred_row))
    base = base_score(pred_row)
    if kind == "ce":
        guidance = guidance_ce(prior_row, k)
    elif kind == "kl":
        guidance = guidance_kl(prior_row, pred_row)
    else:
        guidance = guidance_ed(prior_row, pred_row)
    baselines = {"msp": msp(pred_row), "max_logit": max_logit(pred_row), "energy": -energy(pred_row)}
    return ScoreRecord(sid, base, guidance, pge(base, guidance), k, baselines)


# ---------------------------------------------------------------------------
# optimizer


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], moments: dict[str, np.ndarray],
              t: int, lr: float, config) -> None:
    """Update ``t`` (1-based) of bias-corrected Adam with decoupled weight
    decay, in place, looping over the parameters; a missing gradient is
    zeros and a missing moment starts at zeros."""
    correction1 = 1.0 - config.beta1**t
    correction2 = 1.0 - config.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, parameter is {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r} at step {t}")
        m = moments.setdefault(f"opt.m.{name}", np.zeros_like(p.data))
        v = moments.setdefault(f"opt.v.{name}", np.zeros_like(p.data))
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        if config.weight_decay:
            p.data *= 1.0 - lr * config.weight_decay
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
