"""Helpers shared by the test modules."""

import numpy as np


def crandn(rng, *shape):
    """Standard complex Gaussian samples of the given shape (unit variance)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
