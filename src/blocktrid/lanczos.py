"""Block Lanczos reduction of a square matrix to block tridiagonal form.

The driver orthonormalizes the starting block, of any width, then repeatedly
applies A to the newest block, and A^H too unless range(A - A^H) lies in the
start, and orthogonalizes the result once against the two blocks the
recurrence couples and once against everything computed so far, so the
certified block profile is not destroyed by loss of orthogonality.  A
candidate of numerical rank zero before n columns is a breakdown, which is
logged and handled by restarting from the canonical basis vector least
captured by the computed columns.  Across a breakdown boundary the reduced
matrix is block diagonal.  This is the package's one block-Krylov loop: the
Krylov levels behind the inclusion check are its block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .matcore import (
    DEFAULT_TOL,
    _checked_svd,
    antihermitian_part,
    as_block,
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
    finished when the breakdown was detected.  ``skew_outside_start`` is
    ``||(I - Q Q^H)(A - A^H)||_F / ||A||_F`` for the orthonormal range Q of
    the start (0 for the zero matrix).  When it is at most ``tol``, each
    step applied A alone instead of the pair [A, A^H]; its distance from
    ``tol`` is the margin of that decision.
    """

    basis: np.ndarray
    trid: np.ndarray
    block_sizes: tuple[int, ...]
    breakdown_events: tuple[tuple[int, int], ...]
    restarted: bool
    skew_outside_start: float

    @property
    def block_boundaries(self) -> tuple[int, ...]:
        """Cumulative column offsets 0 = c_0 < c_1 < ... < c_p = n."""
        out = [0]
        for w in self.block_sizes:
            out.append(out[-1] + w)
        return tuple(out)


def _append_range(B, lo, cols, R, cutoff):
    """Orthogonalize R against B[:, lo:cols], then against B[:, :cols] (one
    local Gram-Schmidt pass, which removes the components the recurrence
    puts there, and one full pass, which removes the roundoff along the
    whole basis), and write its left singular vectors with singular values
    above ``cutoff``, no more than B has columns left, into B from column
    ``cols`` on.  Returns those singular values ``s`` and right singular
    vectors ``Vh``: the new block B_new has ``B_new^H R = diag(s) Vh``.
    """
    for first in (lo, 0):
        P = B[:, first:cols]
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
    A agree for every phase.  When range(A - A^H) lies in range(Z) to
    ``tol * ||A||_F`` (Hermitian A, and Hermitian plus rank one from [x, y]),
    A^H U_k is A U_k up to a term inside the first block, and each step
    applies A alone; the reduction is then the Hermitian block Lanczos one.

    Parameters
    ----------
    A : array_like (n, n)
        Square matrix.
    Z : array_like (n, l)
        Nonzero starting block of any width l.  A 1-D array is taken as one
        column.
    tol : float
        Relative rank tolerance, at least n * eps: below roundoff, noise
        directions pass the cut and the basis loses unitarity.  The
        orthonormal width of Z is decided against Z's own largest singular
        value; candidate blocks inside the iteration are ranked against
        ``tol * sqrt(2) * ||A||_F``, the Frobenius norm of the pair [A, A^H],
        so that a subspace invariant under A and A^H registers as a
        breakdown, or against ``tol * ||A||_F`` when each step applies A
        alone: the singular values of [W, W] are sqrt(2) times those of W,
        so the decisions are the pair's.

    Returns
    -------
    BlockTridiagonalization
        The first ``rank(Z)`` basis columns span range(Z).  A block can be up
        to twice as wide as the one before it; each restart opens a width-1
        run from the least captured canonical vector, and trid is block
        diagonal across it.

    Raises
    ------
    ContractError
        If ``tol`` is below n * eps (or NaN).
    ValueError
        If Z is identically zero.
    """
    for U, T, sizes, events, skew in _lanczos_steps(A, Z, tol):
        pass
    return BlockTridiagonalization(
        basis=U,
        trid=T,
        block_sizes=tuple(sizes),
        breakdown_events=tuple(events),
        restarted=bool(events),
        skew_outside_start=skew,
    )


def _lanczos_steps(A, Z, tol):
    """The recurrence of :func:`block_lanczos`, with its operand checks.
    Yields ``(U, T, sizes, events, skew)`` each time a diagonal block of T
    is complete, so ``sizes`` has one more block each time; the last yield
    is the whole reduction.  The same arrays are yielded each time, and
    ``skew`` is the ``skew_outside_start`` of the run."""
    A = as_square(A, "A")
    n = A.shape[0]
    floor = n * np.finfo(float).eps
    if not tol >= floor:
        raise ContractError(
            f"tol must be at least n * eps = {floor:.3e} for n = {n}, got {tol!r}"
        )
    Z = as_block(Z, "Z")
    if Z.shape[0] != n:
        raise DimensionError(f"Z has {Z.shape[0]} rows, A is {n}x{n}")
    if fro(Z) == 0.0:
        raise ValueError("starting block Z is zero")
    norm_a = fro(A)

    U = np.zeros((n, n), dtype=np.complex128)
    T = np.zeros((n, n), dtype=np.complex128)
    Q0, s0 = orthonormal_range(Z, tol)
    U[:, :s0] = Q0
    cols = s0
    sizes = [s0]
    events: list[tuple[int, int]] = []

    # A^H U_k = A U_k - (A - A^H) U_k, and the second term lies in the first
    # block when range(A - A^H) does: then A U_k alone carries the new block
    D = A - A.conj().T
    D -= Q0 @ (Q0.conj().T @ D)
    skew = fro(D) / norm_a if norm_a else 0.0
    del D  # the generator's frame would hold it for the whole run
    pair = skew > tol
    cutoff = tol * np.sqrt(2.0) * norm_a if pair else tol * norm_a

    # Each pass applies A (and A^H on the pair path) to the newest block U_k.
    # The product gives U_k's diagonal block and the block above it,
    # U_{k-1}^H (A U_k); the SVD of the projected product R gives the next
    # block with U_{k+1}^H R = diag(s) Vh, whose first columns are the block
    # below the diagonal.  ``lo`` is the first column of U_{k-1}, or of U_k
    # when a run starts: the blocks that the recurrence couples to U_{k+1}.
    start = lo = 0
    while True:
        width = sizes[-1]
        Uk = U[:, start:cols]
        AUk = A @ Uk
        T[lo:cols, start:cols] = U[:, lo:cols].conj().T @ AUk
        yield U, T, sizes, events, skew
        if cols == n:
            return
        R = np.hstack((AUk, (Uk.conj().T @ A).conj().T)) if pair else AUk
        s, Vh = _append_range(U, lo, cols, R, cutoff)
        if s.size == 0:
            events.append((len(sizes), cols))
            _restart_vector(U, cols)
            sizes.append(1)
            lo = cols
        else:
            T[cols : cols + s.size, start:cols] = s[:, None] * Vh[:, :width]
            sizes.append(s.size)
            lo = start
        start = cols
        cols += sizes[-1]


def _restart_vector(U, cols):
    """Write into U[:, cols] the e_j with the smallest row norm ||P[j, :]|| of
    P = U[:, :cols] (lowest j on ties), orthogonalized against P and
    normalized by :func:`_append_range`.  The squared row norms sum to cols,
    so e_j keeps a residual of at least sqrt(1 - cols / n) above the cut 0.
    Both passes are full: e_j couples to no block."""
    e = np.zeros((U.shape[0], 1), dtype=np.complex128)
    e[np.argmin(np.linalg.norm(U[:, :cols], axis=1))] = 1.0
    _append_range(U, 0, cols, e, 0.0)


def krylov_levels(M, Z, j_max: int, tol: float = DEFAULT_TOL):
    """Orthonormal bases of the nested levels 0 .. j_max of a block Lanczos run.

    Level j is spanned by Z and every word of at most j factors M and M^H
    applied to Z; when M^H is a multiple of M (the Hermitian and
    antihermitian parts :func:`krylov_inclusion_check` passes) that is the
    block Krylov space K_j(M, Z) = range([Z, M Z, ..., M^j Z]).  Returns
    ``(B, dims)`` where the level-j basis is ``B[:, :dims[j]]``: the basis of
    ``block_lanczos(M, Z, tol)`` up to its j-th block boundary, or up to its
    first breakdown, after which the levels stay put.  The run stops at level
    ``j_max`` or at that breakdown, so columns of B past ``dims[-1]`` may be
    left unfilled.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    for B, _, sizes, events, _ in _lanczos_steps(M, Z, tol):
        if events or len(sizes) > j_max:
            break
    ends = np.cumsum(sizes)
    stop = events[0][0] if events else len(ends)
    return B, [int(ends[min(j, stop - 1)]) for j in range(j_max + 1)]


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
