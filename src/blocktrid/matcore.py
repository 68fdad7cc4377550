"""Dense complex matrix primitives.

Every matrix in this package is a numpy array of dtype complex128 stored in
row-major (C) order; this module is the single place that fixes that
convention.  File interchange lives in :mod:`blocktrid.mmio`, so the
in-memory layout never leaks into a file format.

The commutator convention used throughout is

    commutator(A) = A^H A - A A^H,

which is Hermitian for every square A and vanishes exactly when A is normal.
Given a perturbation C, ``commutator(A, C)`` is the defect of the relation
A^H A - A A^H = C A - A C that the whole package is about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

#: Default relative tolerance for numerical rank decisions.  Well above the
#: roundoff accumulated by the reductions at desk scale (n <= 512), well below
#: the structural singular values of the matrix families handled here.
DEFAULT_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a validated 2-D complex128 array (rows, cols >= 1, finite)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a validated 1-D complex128 array; (n, 1) columns are accepted."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionError(f"{name} must be a nonempty vector")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_square(a, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` for a square matrix; other shapes raise
    ``DimensionError``."""
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def fro(a) -> float:
    """Frobenius norm (2-norm for vectors).

    ``np.linalg.norm`` sums unscaled squares, which over- or underflow once
    entries pass about 1e+-154; a result outside (1e-150, 1e150) is therefore
    recomputed as m ||a / m|| with m the largest modulus.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(a))
        if not 1e-150 < norm < 1e150:
            m = float(np.max(np.abs(a), initial=0.0))
            if 0.0 < m < np.inf:
                norm = m * float(np.linalg.norm(np.divide(a, m)))
    return norm


def hermitian_part(A) -> np.ndarray:
    """(A + A^H) / 2 for square A."""
    A = as_square(A)
    return (A + A.conj().T) / 2


def antihermitian_part(A) -> np.ndarray:
    """(A - A^H) / 2 for square A."""
    A = as_square(A)
    return (A - A.conj().T) / 2


def commutator(A, C=None) -> np.ndarray:
    """(A^H - C) A - A (A^H - C), the defect of A^H A - A A^H = C A - A C.

    Two matrix products.  Without C this is A^H A - A A^H, Hermitian and zero
    iff A is normal.  C must be a square matrix of A's shape.
    """
    A = as_square(A, "A")
    D = A.conj().T
    if C is not None:
        C = as_matrix(C, "C")
        if C.shape != A.shape:
            raise DimensionError(f"C must have A's shape {A.shape}, got {C.shape}")
        D = D - C
    return D @ A - A @ D


@dataclass(frozen=True)
class SvdResult:
    """Full singular value decomposition M = left @ diag(s) @ right^H.

    ``numerical_rank`` counts singular values above ``tol * max(s)`` (zero for
    the zero matrix).
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    numerical_rank: int


def _checked_svd(M, **kwargs):
    """``np.linalg.svd(M, **kwargs)`` for a validated matrix M, the package's
    one SVD; a LAPACK non-convergence raises ``NumericalError``."""
    try:
        return np.linalg.svd(M, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD iteration failed to converge for a {'x'.join(map(str, M.shape))} "
            f"matrix with Frobenius norm {fro(M):.3e}"
        ) from exc


def _ranked_svd(M, tol: float, compute_uv: bool, full_matrices: bool = True):
    """``np.linalg.svd`` of a validated M, and the number of singular values
    above ``tol * max(s)`` (zero for the zero matrix)."""
    M = as_matrix(M)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    out = _checked_svd(M, full_matrices=full_matrices, compute_uv=compute_uv)
    s = out[1] if compute_uv else out
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0
    return out, rank


def svd(M, tol: float = DEFAULT_TOL) -> SvdResult:
    """Full SVD with a numerical rank decision at relative tolerance ``tol``."""
    (U, s, Vh), rank = _ranked_svd(M, tol, compute_uv=True)
    return SvdResult(U, s, Vh.conj().T, rank)


def numerical_rank(M, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol * max(s)``, the rank rule of
    :func:`svd`, computed from the singular values alone."""
    return _ranked_svd(M, tol, compute_uv=False)[1]


def orthonormal_range(Z, tol: float = DEFAULT_TOL):
    """Orthonormal basis of range(Z) at relative tolerance ``tol``.

    Returns ``(Q, s)`` where Q has s orthonormal columns, the leading left
    singular vectors of the thin SVD under the rank rule of :func:`svd`.  The
    zero matrix yields s = 0 and an n x 0 array.
    """
    (U, _, _), s = _ranked_svd(Z, tol, compute_uv=True, full_matrices=False)
    return U[:, :s].copy(), s


def subspace_inclusion_residual(X, Y, tol: float = DEFAULT_TOL) -> float:
    """How far range(X) sticks out of range(Y).

    Returns ``||(I - P_Y) X||_F / max(1, ||X||_F)`` with P_Y the orthogonal
    projector onto range(Y); zero exactly when range(X) is numerically
    contained in range(Y).  Vectors are treated as single columns.
    """
    X = np.asarray(X, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise DimensionError(
            f"row counts differ: X has {X.shape[0]}, Y has {Y.shape[0]}"
        )
    if fro(Y) == 0.0:
        raise ValueError("Y must be nonzero")
    Q, _ = orthonormal_range(Y, tol)
    R = X - Q @ (Q.conj().T @ X)
    return fro(R) / max(1.0, fro(X))
