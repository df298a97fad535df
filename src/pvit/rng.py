"""Deterministic random streams.

Everything stochastic in the package (dataset noise, weight init, batch
shuffling) draws from a Philox counter-based generator so that a given
seed produces bit-identical results across platforms and runs.  Gaussian
variates are produced by an explicit Box-Muller transform rather than
the generator's native normal sampler, which is not pinned to a named
algorithm.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ShapeError

__all__ = ["philox", "gaussian", "truncated_normal"]

TRUNC_STD = 0.02
TRUNC_CUTOFF = 2.0


def philox(seed: int, *tags: int) -> np.random.Generator:
    """Counter-based generator for ``seed``, a non-negative integer (else
    ShapeError), optionally keyed by stream tags.

    Distinct ``tags`` give statistically independent streams for the same
    seed (dataset noise vs. shuffling vs. init).
    """
    index = operator.index(seed) if hasattr(type(seed), "__index__") else -1
    if index < 0:
        raise ShapeError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([index, *map(int, tags)])))


def gaussian(gen: np.random.Generator, shape: tuple[int, ...] | int) -> np.ndarray:
    """Standard normal variates via Box-Muller on Philox uniforms."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    # gen.random() is in [0, 1); flip u1 into (0, 1] so log() stays finite.
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


def truncated_normal(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal draws redrawn until within :data:`TRUNC_CUTOFF` standard
    units, then scaled by :data:`TRUNC_STD`."""
    out = gaussian(gen, shape)
    bad = np.abs(out) > TRUNC_CUTOFF
    while np.any(bad):
        out[bad] = gaussian(gen, int(bad.sum()))
        bad = np.abs(out) > TRUNC_CUTOFF
    return out * TRUNC_STD
