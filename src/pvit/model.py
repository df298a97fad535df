"""The prior-token vision transformer.

There is one forward pass, :meth:`PViTModel.forward_batch`, over a batch
of images and their (B, K) prior logits; a single sample is a batch of
one.  Each image is cut into patches, linearly embedded, and prefixed
with a learnable class token; positions 0..N carry learned positional
encodings.  One extra token per sample, the softmax of its prior
logits projected through a trained linear map and scaled by alpha, is
appended at the end without positional encoding, giving an N+2 token
sequence.  A stack of pre-layer-norm encoder blocks (multi-head
self-attention, then a GELU MLP, both with residual connections)
processes the sequences; each class token's final representation,
layer normalized, feeds the classifier head.  Since nothing else of the
last layer is read, the last block runs past its attention on the class
row alone.  The pass also returns every layer's attention weights, which
the attention kernel computes anyway; without a gradient tape they live
until the pass returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .checkpoint import Checkpointed
from .errors import ShapeError
from .rng import philox, truncated_normal
from .tensor import Tensor


@dataclass(frozen=True)
class PViTConfig:
    """Architecture hyperparameters.

    ``alpha`` scales the prior token.  Each sample's token comes from its
    own prior logits alone, so at a fixed batch shape a sample's logits
    and attention are bitwise independent of the other rows.  Across
    batch shapes BLAS may pick other kernels, and a sample's outputs then
    agree only to the last bits.
    """

    image_h: int = 28
    image_w: int = 28
    channels: int = 1
    patch_size: int = 7
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    mlp_dim: int = 128
    num_classes: int = 4
    alpha: float = 0.1

    def __post_init__(self):
        sizes = [size for name, size in vars(self).items() if name not in ("alpha", "depth")]
        if min(sizes) < 1 or self.depth < 0:
            raise ShapeError(f"sizes must be at least 1 (depth at least 0), got {self}")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ShapeError(
                f"image {self.image_h}x{self.image_w} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.heads:
            raise ShapeError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.alpha < 0:
            raise ShapeError(f"alpha must be nonnegative, got {self.alpha}")

    @property
    def num_patches(self) -> int:
        return (self.image_h * self.image_w) // (self.patch_size**2)

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


@dataclass
class BatchForward:
    """Result of the forward pass: the (B, K) logits and, per layer, the
    read-only (B, H, S, S) attention weights (``[:, h, 0, -1]`` is head h's
    class-token mass on the prior token)."""

    logits: Tensor
    attentions: list[np.ndarray]


def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Cut (B, H, W, C) images into (B, N, P) rows of row-major flattened
    patches, N patches per image in raster order."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ShapeError(f"patchify expects B x H x W x C, got shape {images.shape}")
    b, h, w, c = images.shape
    p = patch_size
    if h % p or w % p:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {p}")
    blocks = images.reshape(b, h // p, p, w // p, p, c)
    return np.ascontiguousarray(blocks.transpose(0, 1, 3, 2, 4, 5)).reshape(
        b, (h // p) * (w // p), p * p * c
    )


class PViTModel(Checkpointed):
    """Parameter set plus forward passes for the prior-token transformer.

    Block i's attention input is one projection, ``blocks.i.attn.qkv``:
    a (D, 3D) weight, its three (D, D) blocks drawn one after another, and
    a (3D,) bias, the query, key and value maps side by side.  The bias's
    key third cannot change any output (the softmax over keys cancels
    q . b_k); dropping it would take a second bias path into attention.
    """

    KIND = "pvit"
    CONFIG = PViTConfig

    def __init__(self, config: PViTConfig, seed: int = 0):
        self.config = config
        c, d = config, config.embed_dim
        gen = philox(seed, 0x1417)
        params: dict[str, Tensor] = {}

        def param(name: str, value: np.ndarray) -> None:
            params[name] = Tensor(value, requires_grad=True)

        def trunc(*shape: int) -> np.ndarray:
            return truncated_normal(gen, shape)

        param("patch_embed.weight", trunc(c.patch_dim, d))
        param("patch_embed.bias", np.zeros(d))
        param("cls_token", trunc(1, d))
        param("pos_embed", trunc(c.num_patches + 1, d))
        param("prior_proj", trunc(c.num_classes, d))
        for i in range(c.depth):
            blk = f"blocks.{i}"
            param(f"{blk}.ln1.gain", np.ones(d))
            param(f"{blk}.ln1.bias", np.zeros(d))
            param(f"{blk}.attn.qkv.weight", np.concatenate([trunc(d, d) for _ in "qkv"], axis=1))
            param(f"{blk}.attn.qkv.bias", np.zeros(3 * d))
            param(f"{blk}.attn.out.weight", trunc(d, d))
            param(f"{blk}.attn.out.bias", np.zeros(d))
            param(f"{blk}.ln2.gain", np.ones(d))
            param(f"{blk}.ln2.bias", np.zeros(d))
            param(f"{blk}.mlp.fc1.weight", trunc(d, c.mlp_dim))
            param(f"{blk}.mlp.fc1.bias", np.zeros(c.mlp_dim))
            param(f"{blk}.mlp.fc2.weight", trunc(c.mlp_dim, d))
            param(f"{blk}.mlp.fc2.bias", np.zeros(d))
        param("final_norm.gain", np.ones(d))
        param("final_norm.bias", np.zeros(d))
        param("head.weight", trunc(d, c.num_classes))
        param("head.bias", np.zeros(c.num_classes))
        self.params = params

    # ------------------------------------------------------------------
    # forward pass

    def make_prior_token(self, prior_logits, alpha: Optional[float] = None) -> Tensor:
        """(B, 1, D) prior tokens: alpha * softmax(prior logits) @ prior_proj,
        each sample's one-token sequence that :meth:`forward_batch` appends.

        ``prior_logits`` is a finite (B, K) block, one row per sample, and
        token i depends on row i alone.  The projection is a trained
        parameter, so the tokens join the gradient tape; they are exactly
        linear in alpha.
        """
        c = self.config
        alpha = c.alpha if alpha is None else float(alpha)
        priors = np.asarray(prior_logits, dtype=np.float64)
        if priors.ndim != 2 or priors.shape[1] != c.num_classes:
            raise ShapeError(f"prior logits must be (B, {c.num_classes}), got shape {priors.shape}")
        if not np.all(np.isfinite(priors)):
            raise ShapeError("prior logits must be finite")
        weights = Tensor(T.softmax_rows(priors)[:, None, :])  # (B, 1, K)
        return T.mul(T.linear(weights, self.params["prior_proj"]), alpha)

    def _encode(self, seq: Tensor) -> tuple[Tensor, list[np.ndarray]]:
        """Block stack over a (B, S, D) sequence; returns the normalized
        class-token rows and each layer's (B, H, S, S) attention.

        Every layer attends over the full sequence, but only the class
        row of the last layer's output is read, so after its attention
        node the last block keeps the class row alone: its out-projection,
        residual adds and MLP run on B rows instead of B * S.
        """
        c, p = self.config, self.params
        attentions: list[np.ndarray] = []
        z = seq
        for i in range(c.depth):
            blk = f"blocks.{i}"
            normed = T.layer_norm(z, p[f"{blk}.ln1.gain"], p[f"{blk}.ln1.bias"])
            qkv = T.linear(normed, p[f"{blk}.attn.qkv.weight"], p[f"{blk}.attn.qkv.bias"])
            merged, attn = T.attention(qkv, c.heads)
            attentions.append(attn)
            if i == c.depth - 1:  # only the class row of the last layer is read
                merged, z = merged[:, :1, :], z[:, :1, :]
            msa = T.linear(merged, p[f"{blk}.attn.out.weight"], p[f"{blk}.attn.out.bias"])
            z = T.add(msa, z)
            normed2 = T.layer_norm(z, p[f"{blk}.ln2.gain"], p[f"{blk}.ln2.bias"])
            hidden = T.gelu(T.linear(normed2, p[f"{blk}.mlp.fc1.weight"], p[f"{blk}.mlp.fc1.bias"]))
            mlp = T.linear(hidden, p[f"{blk}.mlp.fc2.weight"], p[f"{blk}.mlp.fc2.bias"])
            z = T.add(mlp, z)
        y = T.layer_norm(z[:, 0, :], p["final_norm.gain"], p["final_norm.bias"])
        return y, attentions

    def forward_batch(self, images: np.ndarray, prior_logits: np.ndarray,
                      alpha: Optional[float] = None) -> BatchForward:
        """The forward pass over (B, H, W, C) images and (B, K) prior logits.

        Each sequence is [class token; patch embeddings] plus positions,
        then the sample's prior token at index N+1 with no positional
        encoding.
        """
        c, p = self.config, self.params
        patches = Tensor(patchify(images, c.patch_size))  # (B, N, P)
        b = patches.shape[0]
        patch_emb = T.linear(patches, p["patch_embed.weight"], p["patch_embed.bias"])
        cls = T.broadcast_to(p["cls_token"], (b, 1, c.embed_dim))
        body = T.add(T.concat([cls, patch_emb], axis=1), p["pos_embed"])
        seq = T.concat([body, self.make_prior_token(prior_logits, alpha)], axis=1)
        y, attentions = self._encode(seq)
        return BatchForward(T.linear(y, p["head.weight"], p["head.bias"]), attentions)

    def batch_loss(self, images, labels, prior_logits):
        """(cross-entropy loss, correct-prediction count) for one batch."""
        out = self.forward_batch(images, prior_logits)
        loss = T.cross_entropy(out.logits, labels)
        correct = int(np.sum(np.argmax(out.logits.data, axis=1) == np.asarray(labels)))
        return loss, correct
