"""Shared test helpers: finite-difference gradient oracle, tolerances,
and the fixed-weight projection that makes a tensor a scalar loss."""

import numpy as np

from oracle import reshape
from pvit.tensor import Tensor, linear, mul


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of an array.

    ``f`` takes a numpy array shaped like ``x`` and returns a float.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def assert_close_rel(actual, expected, rtol, context=""):
    """Assert elementwise |actual - expected| <= rtol * max(1, |expected|)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    bound = rtol * np.maximum(1.0, np.abs(expected))
    err = np.abs(actual - expected)
    assert np.all(err <= bound), (
        f"{context} max error {err.max():.3e} exceeds bound "
        f"(rtol={rtol}, worst expected={expected.flat[np.argmax(err)]:.6g})"
    )


def weighted_sum(out, weights):
    """Project a tensor to a scalar with fixed weights, at the tensor's
    dtype, so FD checks apply."""
    dtype = out.data.dtype
    flat = reshape(mul(out, Tensor(np.asarray(weights, dtype))), (1, out.data.size))
    return reshape(linear(flat, Tensor(np.ones((out.data.size, 1), dtype))), ())
