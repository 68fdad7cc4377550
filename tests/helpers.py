"""Helpers shared by the test modules."""

import numpy as np

from blocktrid import orthonormal_range


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


def companion_coeffs(d, seed):
    """Leading 1, then moduli in [0.5, 1] with random phases."""
    rng = np.random.default_rng([0xC0, seed])
    mod = rng.uniform(0.5, 1.0, d)
    return np.concatenate([[1.0], mod * np.exp(2j * np.pi * rng.uniform(size=d))])


def colleague_coeffs(d, seed):
    """Leading 1, then values uniform in [-1, 1]."""
    rng = np.random.default_rng([0xC1, seed])
    return np.concatenate([[1.0], rng.uniform(-1.0, 1.0, d)])


def pair_lanczos_reference(A, Z, tol=1e-10):
    """``(block_sizes, breakdown_events)`` of the block Lanczos recurrence
    that orthogonalizes the pair [A U_k, A^H U_k] for every A, with two full
    Gram-Schmidt passes per step, cut at ``tol * sqrt(2) * ||A||_F``, and
    restarts from the canonical vector least captured by the basis."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    cutoff = tol * np.sqrt(2.0) * np.linalg.norm(A)
    U = np.zeros((n, n), dtype=np.complex128)

    def append(R, cols, cut):
        for _ in range(2):
            P = U[:, :cols]
            R = R - P @ (P.conj().T @ R)
        Q, s, _ = np.linalg.svd(R, full_matrices=False)
        keep = min(int(np.count_nonzero(s > cut)), n - cols)
        U[:, cols : cols + keep] = Q[:, :keep]
        return keep

    Q0, s0 = orthonormal_range(Z, tol)
    U[:, :s0] = Q0
    start, cols, sizes, events = 0, s0, [s0], []
    while cols < n:
        Uk = U[:, start:cols]
        width = append(np.hstack((A @ Uk, A.conj().T @ Uk)), cols, cutoff)
        if width == 0:
            events.append((len(sizes), cols))
            e = np.zeros((n, 1), dtype=np.complex128)
            e[np.argmin(np.linalg.norm(U[:, :cols], axis=1))] = 1.0
            width = append(e, cols, 0.0)
        sizes.append(width)
        start, cols = cols, cols + width
    return tuple(sizes), tuple(events)
