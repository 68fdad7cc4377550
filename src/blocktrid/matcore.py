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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

#: Default relative tolerance for numerical rank decisions.  Well above the
#: roundoff accumulated by the reductions at desk scale (n <= 512), well below
#: the structural singular values of the matrix families handled here.
DEFAULT_TOL = 1e-10


#: Entries that :func:`_check_finite` checks per row chunk (one row at least).
_FINITE_CHUNK = 1 << 16


def _check_finite(arr, name: str) -> None:
    """Raise ``ValueError`` unless every entry of the nonempty complex 1-D or
    2-D ``arr`` is finite.  Rows are checked a chunk of at most
    ``_FINITE_CHUNK`` entries (or one row) at a time, over the chunk's
    float64 view when it is contiguous, so the check holds one chunk's
    boolean mask, never one of the whole array."""
    rows = arr.reshape(arr.shape[0], -1)
    step = max(1, _FINITE_CHUNK // rows.shape[1])
    for i in range(0, rows.shape[0], step):
        part = rows[i : i + step]
        if part.flags.c_contiguous:
            part = part.view(np.float64)
        if not np.isfinite(part).all():
            raise ValueError(f"{name} contains non-finite entries")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a validated 2-D complex128 array (rows, cols >= 1, finite)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must be nonempty, got shape {arr.shape}")
    _check_finite(arr, name)
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a validated 1-D complex128 array; (n, 1) columns are accepted."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionError(f"{name} must be a nonempty vector")
    _check_finite(arr, name)
    return arr


def as_square(a, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` for a square matrix; other shapes raise
    ``DimensionError``."""
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_pair(A, C, names=("A", "C")):
    """``A`` validated by :func:`as_square` and ``C`` by :func:`as_matrix` as
    a matrix of A's shape; ``names`` label them in errors."""
    a, c = names
    A = as_square(A, a)
    C = as_matrix(C, c)
    if C.shape != A.shape:
        raise DimensionError(f"{c} must have {a}'s shape {A.shape}, got {C.shape}")
    return A, C


def as_vectors(u, v, names=("u", "v"), n=None):
    """``u`` and ``v`` validated by :func:`as_vector` as vectors of equal
    length, and of length ``n`` when it is given."""
    a, b = names
    u = as_vector(u, a)
    v = as_vector(v, b)
    if u.shape != v.shape or n not in (None, u.size):
        want = "equal length" if n is None else f"length {n}"
        raise DimensionError(f"{a} and {b} must have {want}, got {u.size} and {v.size}")
    return u, v


def as_block(Z, name: str = "block") -> np.ndarray:
    """:func:`as_matrix`, with a 1-D array taken as one column."""
    Z = np.asarray(Z, dtype=np.complex128)
    return as_matrix(Z[:, None] if Z.ndim == 1 else Z, name)


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
    if C is None:
        A = as_square(A, "A")
        D = A.conj().T
    else:
        A, C = as_pair(A, C)
        D = A.conj().T - C
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


def _check_tol(tol) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _count_rule(s, tol: float, scale=None) -> int:
    """Number of the values ``s`` (descending) above ``tol * scale``; the
    scale defaults to ``max(s)``, and then a zero maximum counts nothing."""
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
        if not scale > 0:
            return 0
    return int(np.count_nonzero(s > tol * scale))


def _ranked_svd(M, tol: float, full_matrices: bool = True):
    """``np.linalg.svd`` of a validated M, and the number of singular values
    above ``tol * max(s)`` (zero for the zero matrix)."""
    M = as_matrix(M)
    _check_tol(tol)
    out = _checked_svd(M, full_matrices=full_matrices)
    return out, _count_rule(out[1], tol)


#: Columns of the fixed Gaussian sketch with which :func:`_count_above`
#: tries to decide a count before it computes a full spectrum, and with which
#: the QR tracker estimates each step's commutator residual.
SKETCH_COLUMNS = 8
_SKETCH_SEED = 0x5CE7C8


@functools.lru_cache(maxsize=8)
def _sketch(rows: int) -> np.ndarray:
    """The package's one sketch: a fixed-seed rows x ``SKETCH_COLUMNS``
    complex Gaussian block with standard normal real and imaginary parts,
    so E|g|^2 = 2.  Drawn once per size and cached, hence read-only."""
    rng = np.random.default_rng(_SKETCH_SEED)
    G = rng.standard_normal((rows, 2 * SKETCH_COLUMNS)).view(np.complex128)
    G.flags.writeable = False
    return G


def _estimated_commutator_residual(A, L, R) -> float:
    """``||M G||_F / sqrt(2 s) / ||A||_F^2`` with M = commutator(A, L R^H)
    and G the n x s :func:`_sketch`, for validated row-major A and n x k
    factors L and R of the perturbation.

    As E||M G||_F^2 = 2 s ||M||_F^2, this estimates the relative residual
    ||M||_F / ||A||_F^2 of a nonzero A in O(n^2 s + n k s) work:
    M G = A^H (A G) - C (A G) - A (A^H G - C G) takes four products of n x n
    by n x s, each adjoint product as (X^H A)^H so that A^H is never copied,
    and forms C W as L (R^H W), so that C is never formed.
    """
    G = _sketch(A.shape[0])
    s = G.shape[1]
    W = np.hstack((A @ G, G))
    AhW = (W.conj().T @ A).conj().T
    CW = L @ (R.conj().T @ W)
    MG = AhW[:, :s] - CW[:, :s] - A @ (AhW[:, s:] - CW[:, s:])
    return fro(MG) / np.sqrt(2 * s) / fro(A) ** 2


def _sketch_basis(M):
    """Q = qr(M G)[0], B = Q^H M and e = ||M - Q B||_F for a validated M
    with more than ``SKETCH_COLUMNS`` columns and G the :func:`_sketch` of
    its column count: the rank-``SKETCH_COLUMNS`` sketch M = Q B + E, with
    its a-posteriori error (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011)."""
    Q = np.linalg.qr(M @ _sketch(M.shape[1]))[0]
    B = Q.conj().T @ M
    E = Q @ B
    E -= M  # -E, one n x n temporary
    return Q, B, fro(E)


def _sketch_applies(M, norm: float) -> bool:
    """Whether the sketch may stand in for a validated M of Frobenius norm
    ``norm``: both sides above ``SKETCH_COLUMNS`` and 1e-250 < norm < 1e250,
    so that its products can neither over- nor underflow."""
    return min(M.shape) > SKETCH_COLUMNS and 1e-250 < norm < 1e250


def _perturbation_factors(C):
    """``(L, R, sketch)`` with C = L R^H + E for a validated square C: the
    package's one form of a perturbation, which ``certify``,
    ``blocktrid reduce`` and the QR tracker take as it comes.

    The zero C gives n x 0 factors.  When the sketch applies to C (see
    :func:`_sketch_applies`), ``sketch`` is :func:`_sketch_basis`'s
    (Q, B, e), C = Q B + E with e = ||E||_F, else None; the factors are
    (Q, B^H), n x 8, when e <= sqrt(n) eps ||C||_F, the probabilistic
    rounding bound of one product with n-term inner products (Higham &
    Mary, SISC 41, 2019), below what forming C left in it (a reduced
    C_trid = U^H C U takes two such products).  So no rank is truncated:
    only an E at roundoff is dropped, and it moves the relative residual
    ||commutator(A, C)||_F / ||A||_F^2 by at most
    ||A E - E A||_F / ||A||_F^2 <= 2 ||E||_F / ||A||_F.  Every other C
    (rank above 8, order at most 8) gets the exact pair (C, I), E = 0,
    which costs its users an n x n identity and products of n x n, not
    n x 8, factors.
    """
    n = C.shape[0]
    norm = fro(C)
    if norm == 0.0:
        return C[:, :0].copy(), C[:, :0].copy(), None
    sketch = _sketch_basis(C) if _sketch_applies(C, norm) else None
    if sketch is not None and sketch[2] <= np.sqrt(n) * np.finfo(np.float64).eps * norm:
        Q, B, _ = sketch
        return Q, B.conj().T, sketch
    return C, np.eye(n, dtype=C.dtype), sketch


def _count_above(M, tol: float, scale=None, hermitian: bool = False, sketch=None) -> int:
    """``_count_rule`` of the singular values of a validated M, proven from a
    rank-``SKETCH_COLUMNS`` sketch when it can be, else from all of them.

    With G a fixed-seed complex Gaussian n x 8 block and
    :func:`_sketch_basis`'s Q = qr(M G), B = Q^H M and E = M - Q B,
    Q^H E = 0 gives M^H M = B^H B + E^H E, so
    sigma_i(B) <= sigma_i(M) <= sigma_i(B) + ||E||_2 (sigma_i(B) = 0 past
    the eighth).  With e = ||E||_F plus a slack of 64 eps sqrt(n) ||M||_F
    for the rounding of the sketch and of the full spectrum it stands in
    for, the cut ``tol * scale`` lies in [low, high] (tol (sigma_1(B) -+ e)
    for the default scale sigma_max), and the count of sigma_i(B) - e > high
    is proven when e <= low and every other sigma_i(B) + e <= low.  Any
    other case (a value within e of the cut, rank above 8, a side of at
    most 8, a norm outside (1e-250, 1e250), where the products could over-
    or underflow) takes the full singular values, or the eigenvalue moduli
    when ``hermitian``.  The zero matrix counts 0.  ``sketch``, when given,
    is :func:`_sketch_basis` of M, already formed by the caller.
    """
    _check_tol(tol)
    norm = fro(M)
    if norm == 0.0:
        return 0
    if _sketch_applies(M, norm):
        _, B, e = sketch or _sketch_basis(M)
        e += 64 * np.finfo(np.float64).eps * np.sqrt(max(M.shape)) * norm
        s = _checked_svd(B, compute_uv=False)
        if scale is None:
            low, high = tol * (s[0] - e), tol * (s[0] + e)
        else:
            low = high = tol * scale
        above = s - e > high
        if e <= low and np.all(above | (s + e <= low)):
            return int(np.count_nonzero(above))
    s = _checked_svd(M, compute_uv=False, hermitian=hermitian)
    return _count_rule(s, tol, scale)


def svd(M, tol: float = DEFAULT_TOL) -> SvdResult:
    """Full SVD with a numerical rank decision at relative tolerance ``tol``."""
    (U, s, Vh), rank = _ranked_svd(M, tol)
    return SvdResult(U, s, Vh.conj().T, rank)


def numerical_rank(M, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol * max(s)``, the rank rule of
    :func:`svd`, without singular vectors.

    A rank-8 Gaussian sketch with an a-posteriori error bound decides the
    count when the bound proves it (rank at most 8, no singular value near
    the cut); otherwise all singular values are computed.  Either way the
    count is that of the full spectrum.
    """
    return _count_above(as_matrix(M), tol)


def orthonormal_range(Z, tol: float = DEFAULT_TOL):
    """Orthonormal basis of range(Z) at relative tolerance ``tol``.

    Returns ``(Q, s)`` where Q has s orthonormal columns, the leading left
    singular vectors of the thin SVD under the rank rule of :func:`svd`.  The
    zero matrix yields s = 0 and an n x 0 array.
    """
    (U, _, _), s = _ranked_svd(Z, tol, full_matrices=False)
    return U[:, :s].copy(), s


def subspace_inclusion_residual(X, Y, tol: float = DEFAULT_TOL) -> float:
    """How far range(X) sticks out of range(Y).

    Returns ``||(I - P_Y) X||_F / max(1, ||X||_F)`` with P_Y the orthogonal
    projector onto range(Y); zero exactly when range(X) is numerically
    contained in range(Y).  Vectors are treated as single columns.
    """
    X = as_block(X, "X")
    Y = as_block(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise DimensionError(
            f"row counts differ: X has {X.shape[0]}, Y has {Y.shape[0]}"
        )
    if fro(Y) == 0.0:
        raise ValueError("Y must be nonzero")
    Q, _ = orthonormal_range(Y, tol)
    R = X - Q @ (Q.conj().T @ X)
    return fro(R) / max(1.0, fro(X))
