"""Block Lanczos reduction of a Hermitian matrix to block tridiagonal form.

The driver orthonormalizes the starting block, then repeatedly applies the
matrix to the newest block and orthogonalizes against everything computed so
far (two passes of block Gram-Schmidt, so the certified block profile is not
destroyed by loss of orthogonality).  Rank loss in a candidate block shrinks
the block width permanently; a candidate of numerical rank zero before n
columns is a breakdown, which is logged and handled by restarting from the
canonical basis vector least captured by the computed columns.  Across a
breakdown boundary the reduced matrix is block diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .matcore import (
    DEFAULT_TOL,
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

    ``basis`` is unitary with ``basis^H H basis = trid``; ``trid`` is Hermitian
    and exactly zero outside the block tridiagonal envelope induced by
    ``block_sizes``.  ``breakdown_events`` holds ``(step, columns_completed)``
    pairs, where ``step`` counts diagonal blocks finished when the breakdown
    was detected.
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


def _check_operands(M, Z, name: str):
    """Checked ``(M, Z)``: square M, nonzero Z of its rows (1-D Z is one column)."""
    M = as_square(M, name)
    n = M.shape[0]
    Z = np.asarray(Z, dtype=np.complex128)
    if Z.ndim == 1:
        Z = Z[:, None]
    Z = as_matrix(Z, "Z")
    if Z.shape[0] != n:
        raise DimensionError(f"Z has {Z.shape[0]} rows, {name} is {n}x{n}")
    if fro(Z) == 0.0:
        raise ValueError("starting block Z is zero")
    return M, Z


def _append_range(B, cols, R, cutoff):
    """Orthogonalize R against B[:, :cols] (two Gram-Schmidt passes) and write
    its left singular vectors with singular values above ``cutoff`` into B
    from column ``cols`` on.  Returns those singular values ``s`` and right
    singular vectors ``Vh``: the new block B_new has ``B_new^H R = diag(s) Vh``.
    """
    if cols > 0:
        P = B[:, :cols]
        for _ in range(2):
            R = R - P @ (R.conj().T @ P).conj().T
    Q, s, Vh = np.linalg.svd(R, full_matrices=False)
    keep = int(np.count_nonzero(s > cutoff))
    B[:, cols : cols + keep] = Q[:, :keep]
    return s[:keep], Vh[:keep]


def block_lanczos(H, Z, tol: float = DEFAULT_TOL) -> BlockTridiagonalization:
    """Reduce Hermitian H to block tridiagonal form starting from block Z.

    Parameters
    ----------
    H : array_like (n, n)
        Hermitian matrix (checked to relative tolerance 1e-12).
    Z : array_like (n, l)
        Nonzero starting block, l <= n.  A 1-D array is taken as one column.
    tol : float
        Relative rank tolerance.  The orthonormal width of Z is decided
        against Z's own largest singular value; candidate blocks inside the
        iteration are ranked against ``tol * ||H||_F`` so that an invariant
        subspace registers as a breakdown.

    Returns
    -------
    BlockTridiagonalization
        The first ``rank(Z)`` basis columns span range(Z).  Block widths never
        grow within an unbroken run; each restart opens a width-1 run from the
        least captured canonical vector, and trid is block diagonal across it.

    Raises
    ------
    ContractError
        If H is not Hermitian to relative tolerance 1e-12.
    ValueError
        If Z is identically zero.
    """
    H, Z = _check_operands(H, Z, "H")
    n = H.shape[0]
    if Z.shape[1] > n:
        raise DimensionError(f"Z has {Z.shape[1]} > n = {n} columns")
    scale = fro(H)
    if fro(H - H.conj().T) > 1e-12 * scale:
        raise ContractError("H is not Hermitian to relative tolerance 1e-12")

    cutoff = tol * scale

    U = np.zeros((n, n), dtype=np.complex128)
    T = np.zeros((n, n), dtype=np.complex128)
    Q0, s0 = orthonormal_range(Z, tol)
    U[:, :s0] = Q0
    cols = s0
    sizes = [s0]
    events: list[tuple[int, int]] = []

    # Each pass applies H once to the newest block U_k, which gives its
    # diagonal block A_k = U_k^H (H U_k) and, from the SVD of the projected
    # product, the next block and B_k = U_{k+1}^H H U_k = diag(s) Vh.
    start = 0
    while True:
        width = sizes[-1]
        Uk = U[:, start : start + width]
        HUk = H @ Uk
        Ak = Uk.conj().T @ HUk
        T[start : start + width, start : start + width] = hermitian_part(Ak)
        if cols == n:
            break
        s, Vh = _append_range(U, cols, HUk, cutoff)
        if s.size == 0:
            events.append((len(sizes), cols))
            _restart_vector(U, cols)
            sizes.append(1)
        else:
            Bk = s[:, None] * Vh
            T[cols : cols + s.size, start : start + width] = Bk
            T[start : start + width, cols : cols + s.size] = Bk.conj().T
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
    """Orthonormal bases of the nested block Krylov spaces K_0 .. K_{j_max}.

    K_j(M, Z) = range([Z, M Z, ..., M^j Z]).  Returns ``(B, dims)`` where the
    level-j basis is ``B[:, :dims[j]]``; new directions are only ever appended,
    so level bases are prefixes of one another.  New directions are kept above
    ``tol * ||M||_F``, the cut of :func:`block_lanczos`.
    """
    M, Z = _check_operands(M, Z, "M")
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    n = M.shape[0]
    cutoff = tol * fro(M)
    B = np.zeros((n, n), dtype=np.complex128)
    Q0, s0 = orthonormal_range(Z, tol)
    B[:, :s0] = Q0
    dims = [s0]
    f_start, f_width = 0, s0
    for _ in range(j_max):
        c = dims[-1]
        if f_width > 0 and c < n:
            R = M @ B[:, f_start : f_start + f_width]
            f_start = c
            f_width = _append_range(B, c, R, cutoff)[0].size
        else:
            f_width = 0
        dims.append(c + f_width)
    return B, dims


def krylov_basis(M, Z, j: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of K_j(M, Z) = range([Z, M Z, ..., M^j Z])."""
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
