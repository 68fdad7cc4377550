"""Helpers shared by the test modules."""

import numpy as np


def crandn(rng, *shape):
    """Standard complex Gaussian samples of the given shape (unit variance)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def planted_tridiagonal(n, seed=7):
    """A random complex tridiagonal matrix: all its blocks are 1 x 1, and it
    is not normal plus low rank, so QR fills its upper part to high rank."""
    rng = np.random.default_rng(seed)
    return np.diag(crandn(rng, n)) + np.diag(crandn(rng, n - 1), 1) + np.diag(
        crandn(rng, n - 1), -1
    )
