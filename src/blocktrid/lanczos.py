"""Block Lanczos reduction of a square matrix to block tridiagonal form.

The driver orthonormalizes the starting block, of any width, then repeatedly
applies A and A^H to the newest block and orthogonalizes the pair against
everything computed so far (two passes of block Gram-Schmidt, so the
certified block profile is not destroyed by loss of orthogonality).  A
candidate of numerical rank zero before n columns is a breakdown, which is
logged and handled by restarting from the canonical basis vector least
captured by the computed columns.  Across a breakdown boundary the reduced
matrix is block diagonal.  This is the package's one block-Krylov loop: the
Krylov levels behind the inclusion check are its block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .matcore import (
    DEFAULT_TOL,
    _checked_svd,
    antihermitian_part,
    as_matrix,
    as_square,
    fro,
    hermitian_part,
    orthonormal_range,
    subspace_inclusion_residual,
)


@dataclass(frozen=True)
class BlockTridiagonalization:
    """Result of a block Lanczos run.

    ``basis`` is unitary and ``trid`` is the block tridiagonal part of
    ``basis^H A basis``, read off the recurrence and exactly zero outside the
    envelope induced by ``block_sizes``.  ``breakdown_events`` holds
    ``(step, columns_completed)`` pairs, where ``step`` counts diagonal blocks
    finished when the breakdown was detected.
    """

    basis: np.ndarray
    trid: np.ndarray
    block_sizes: tuple[int, ...]
    breakdown_events: tuple[tuple[int, int], ...]
    restarted: bool

    @property
    def block_boundaries(self) -> tuple[int, ...]:
        """Cumulative column offsets 0 = c_0 < c_1 < ... < c_p = n."""
        out = [0]
        for w in self.block_sizes:
            out.append(out[-1] + w)
        return tuple(out)


def _append_range(B, cols, R, cutoff):
    """Orthogonalize R against B[:, :cols] (two Gram-Schmidt passes) and write
    its left singular vectors with singular values above ``cutoff``, no more
    than B has columns left, into B from column ``cols`` on.  Returns those
    singular values ``s`` and right singular vectors ``Vh``: the new block
    B_new has ``B_new^H R = diag(s) Vh``.
    """
    if cols > 0:
        P = B[:, :cols]
        for _ in range(2):
            R = R - P @ (R.conj().T @ P).conj().T
    Q, s, Vh = _checked_svd(R, full_matrices=False)
    keep = min(int(np.count_nonzero(s > cutoff)), B.shape[1] - cols)
    B[:, cols : cols + keep] = Q[:, :keep]
    return s[:keep], Vh[:keep]


def block_lanczos(A, Z, tol: float = DEFAULT_TOL) -> BlockTridiagonalization:
    """Reduce square A to block tridiagonal form starting from block Z.

    Each new block is the range of [A U_k, A^H U_k] outside the basis so far,
    for the newest block U_k: the span of [A_H U_k, A_AH U_k] for the
    Hermitian and antihermitian parts of A, so the blocks of A and of e^{i phi}
    A agree for every phase.  For a Hermitian A the pair is two copies of
    A U_k, and the reduction is the Hermitian block Lanczos one.

    Parameters
    ----------
    A : array_like (n, n)
        Square matrix.
    Z : array_like (n, l)
        Nonzero starting block of any width l.  A 1-D array is taken as one
        column.
    tol : float
        Relative rank tolerance.  The orthonormal width of Z is decided
        against Z's own largest singular value; candidate blocks inside the
        iteration are ranked against ``tol * sqrt(2) * ||A||_F``, the
        Frobenius norm of the pair [A, A^H], so that a subspace invariant
        under A and A^H registers as a breakdown.

    Returns
    -------
    BlockTridiagonalization
        The first ``rank(Z)`` basis columns span range(Z).  A block can be up
        to twice as wide as the one before it; each restart opens a width-1
        run from the least captured canonical vector, and trid is block
        diagonal across it.

    Raises
    ------
    ValueError
        If Z is identically zero.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    Z = np.asarray(Z, dtype=np.complex128)
    if Z.ndim == 1:
        Z = Z[:, None]
    Z = as_matrix(Z, "Z")
    if Z.shape[0] != n:
        raise DimensionError(f"Z has {Z.shape[0]} rows, A is {n}x{n}")
    if fro(Z) == 0.0:
        raise ValueError("starting block Z is zero")
    cutoff = tol * np.sqrt(2.0) * fro(A)

    U = np.zeros((n, n), dtype=np.complex128)
    T = np.zeros((n, n), dtype=np.complex128)
    Q0, s0 = orthonormal_range(Z, tol)
    U[:, :s0] = Q0
    cols = s0
    sizes = [s0]
    events: list[tuple[int, int]] = []

    # Each pass applies A and A^H once to the newest block U_k, which gives
    # its diagonal block U_k^H (A U_k) and, from the SVD of the projected
    # pair, the next block with U_{k+1}^H [A U_k, A^H U_k] = diag(s) Vh: the
    # block below the diagonal and the adjoint of the block above it.
    start = 0
    while True:
        width = sizes[-1]
        Uk = U[:, start : start + width]
        AUk = A @ Uk
        T[start : start + width, start : start + width] = Uk.conj().T @ AUk
        if cols == n:
            break
        pair = np.hstack((AUk, (Uk.conj().T @ A).conj().T))
        s, Vh = _append_range(U, cols, pair, cutoff)
        if s.size == 0:
            events.append((len(sizes), cols))
            _restart_vector(U, cols)
            sizes.append(1)
        else:
            Bk = s[:, None] * Vh
            T[cols : cols + s.size, start : start + width] = Bk[:, :width]
            T[start : start + width, cols : cols + s.size] = Bk[:, width:].conj().T
            sizes.append(s.size)
        start = cols
        cols += sizes[-1]

    return BlockTridiagonalization(
        basis=U,
        trid=T,
        block_sizes=tuple(sizes),
        breakdown_events=tuple(events),
        restarted=bool(events),
    )


def _restart_vector(U, cols):
    """Write into U[:, cols] the e_j with the smallest row norm ||P[j, :]|| of
    P = U[:, :cols] (lowest j on ties), orthogonalized against P and
    normalized by :func:`_append_range`.  The squared row norms sum to cols,
    so e_j keeps a residual of at least sqrt(1 - cols / n) above the cut 0."""
    e = np.zeros((U.shape[0], 1), dtype=np.complex128)
    e[np.argmin(np.linalg.norm(U[:, :cols], axis=1))] = 1.0
    _append_range(U, cols, e, 0.0)


def krylov_levels(M, Z, j_max: int, tol: float = DEFAULT_TOL):
    """Orthonormal bases of the nested levels 0 .. j_max of a block Lanczos run.

    Level j is spanned by Z and every word of at most j factors M and M^H
    applied to Z; when M^H is a multiple of M (the Hermitian and
    antihermitian parts :func:`krylov_inclusion_check` passes) that is the
    block Krylov space K_j(M, Z) = range([Z, M Z, ..., M^j Z]).  Returns
    ``(B, dims)`` where the level-j basis is ``B[:, :dims[j]]``: the basis of
    ``block_lanczos(M, Z, tol)`` up to its j-th block boundary, or up to its
    first breakdown, after which the levels stay put.  The call runs the whole
    reduction, whatever ``j_max``.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    red = block_lanczos(M, Z, tol)
    ends = red.block_boundaries[1:]
    stop = red.breakdown_events[0][0] if red.restarted else len(ends)
    return red.basis, [ends[min(j, stop - 1)] for j in range(j_max + 1)]


def krylov_basis(M, Z, j: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of level j of :func:`krylov_levels`: K_j(M, Z) =
    range([Z, M Z, ..., M^j Z]) when M^H is a multiple of M."""
    B, dims = krylov_levels(M, Z, j, tol)
    return B[:, : dims[-1]].copy()


def krylov_inclusion_check(A, Z, j_max: int, tol: float = DEFAULT_TOL):
    """Residuals of K_j(A_AH, Z) inside K_j(A_H, Z) for j = 0 .. j_max.

    A_H and A_AH are the Hermitian and antihermitian parts of A.  For the
    matrix classes with Krylov inclusion (certified almost normal matrices
    with a suitable starting block, curve-normal plus rank one) every residual
    is at the tolerance level.
    """
    A = as_matrix(A, "A")
    AH = hermitian_part(A)
    AAH = antihermitian_part(A)
    Bx, dx = krylov_levels(AAH, Z, j_max, tol)
    By, dy = krylov_levels(AH, Z, j_max, tol)
    return [
        subspace_inclusion_residual(Bx[:, : dx[j]], By[:, : dy[j]], tol)
        for j in range(j_max + 1)
    ]
