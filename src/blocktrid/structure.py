"""Block profile detection and rank tracking under shifted QR iteration.

``block_profile`` certifies the shape of a reduced matrix: it finds the
partition with the smallest achievable maximum block size whose block
tridiagonal envelope covers every entry above the threshold.  The QR tracker
runs explicit single-shift steps on a block tridiagonal matrix while carrying
the commutator perturbation along the same similarity, recording the numerical
ranks of the upper triangular blocks that lie outside the initial profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .matcore import DEFAULT_TOL, as_matrix, as_square, commutator, fro


@dataclass(frozen=True)
class BlockProfile:
    """A block tridiagonal envelope: sizes, their maximum, and the Frobenius
    norm of whatever the matrix leaves outside it."""

    block_sizes: tuple[int, ...]
    max_block: int
    off_profile_norm: float


def _envelope_mask(sizes, n: int) -> np.ndarray:
    idx = np.repeat(np.arange(len(sizes)), sizes)
    if idx.size != n:
        raise DimensionError(
            f"profile sizes sum to {idx.size}, matrix has order {n}"
        )
    return np.abs(idx[:, None] - idx[None, :]) <= 1


def _column_reach(T: np.ndarray, thr: float) -> np.ndarray:
    """For each column j, the last row index where T or T^T exceeds thr
    (at least j itself)."""
    n = T.shape[0]
    big = np.maximum(np.abs(T), np.abs(T).T) > thr
    rows = np.where(big, np.arange(n)[:, None], -1)
    return np.maximum(rows.max(axis=0), np.arange(n))


def block_profile(T, tol: float = DEFAULT_TOL) -> BlockProfile:
    """Detect the block tridiagonal profile of T at threshold tol * ||T||_F.

    A boundary pair (c, c') is admissible when no column left of c reaches a
    row at or beyond c', which makes validity a condition on consecutive
    boundaries only.  A dynamic program over boundary positions then yields
    the partition with the smallest achievable maximum block size, taking the
    earliest boundary whenever there is a choice.  A dense matrix degenerates
    to one or two large blocks.
    """
    T = as_square(T, "T")
    n = T.shape[0]
    thr = tol * fro(T)
    low = _column_reach(T, thr)
    # M[c] = furthest row reached by any column left of boundary c
    M = [-1] + np.maximum.accumulate(low).tolist()
    # f[c] = smallest achievable maximum block size on [c, n).  The scan over
    # the next boundary cp stops once cp - c reaches the best value found:
    # max(cp - c, f[cp]) cannot go lower from there on.
    f = [0] * (n + 1)
    for c in range(n - 1, -1, -1):
        best = n - c
        for cp in range(max(c + 1, M[c] + 1), n):
            if cp - c >= best:
                break
            best = min(best, max(cp - c, f[cp]))
        f[c] = best
    bounds = [0]
    c = 0
    while c < n:
        lo = max(c + 1, M[c] + 1)
        for cp in range(lo, n + 1):
            if max(cp - c, f[cp]) == f[c]:
                bounds.append(cp)
                c = cp
                break
    sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    return BlockProfile(
        block_sizes=sizes,
        max_block=max(sizes),
        off_profile_norm=off_profile_residual(T, sizes),
    )


def off_profile_residual(T, profile) -> float:
    """Frobenius norm of T outside the envelope of the given profile.

    ``profile`` is a BlockProfile or a plain sequence of block sizes, letting
    a claimed shape be checked instead of the detected one.
    """
    T = as_square(T, "T")
    sizes = tuple(getattr(profile, "block_sizes", profile))
    if any(w < 1 for w in sizes):
        raise DimensionError("profile sizes must be positive")
    mask = _envelope_mask(sizes, T.shape[0])
    return float(np.linalg.norm(T[~mask]))


@dataclass(frozen=True)
class QrStepRecord:
    """One shifted QR step: the shift, the ranks of the upper blocks outside
    the initial profile, the perturbation residual, and the relative mass
    outside the initial envelope."""

    step: int
    shift: complex
    off_profile_block_ranks: tuple[int, ...]
    c_residual: float
    profile_growth: float


@dataclass(frozen=True)
class QrTrackReport:
    """``discarded_norm`` is the Frobenius norm of the fill below the initial
    envelope that was zeroed before the first step."""

    iterations: tuple[QrStepRecord, ...]
    converged_eigenvalues: tuple[complex, ...]
    initial_profile: BlockProfile
    final_matrix: np.ndarray
    final_perturbation: np.ndarray
    discarded_norm: float


def _outside_shapes(sizes):
    """Index arrays of the blocks strictly above the block tridiagonal
    envelope (column block at least two right of the row block), grouped by
    block shape so one stacked SVD serves each shape.

    Returns the number of such blocks and, per shape present, the positions
    of its blocks in row-major order with broadcast row (g x r x 1) and
    column (g x 1 x c) indices into the matrix.
    """
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    bi, bj = np.triu_indices(sizes.size, 2)
    rows_w, cols_w = sizes[bi], sizes[bj]
    groups = []
    for r in range(1, 5):
        for c in range(1, 5):
            pos = np.flatnonzero((rows_w == r) & (cols_w == c))
            if pos.size:
                rows = starts[bi[pos], None, None] + np.arange(r)[:, None]
                cols = starts[bj[pos], None, None] + np.arange(c)
                groups.append((pos, rows, cols))
    return bi.size, groups


def _wilkinson_shift(block) -> complex:
    (a, b), (c, d) = block
    tr = a + d
    disc = np.sqrt((a - d) ** 2 + 4 * b * c + 0j)
    mu1 = (tr + disc) / 2
    mu2 = (tr - disc) / 2
    return complex(mu1) if abs(mu1 - d) <= abs(mu2 - d) else complex(mu2)


def qr_iteration_tracked(
    A0, C0, steps: int, tol: float = DEFAULT_TOL
) -> QrTrackReport:
    """Run explicit Wilkinson-shifted QR steps, tracking rank structure.

    The input must already be block tridiagonal with blocks of size at most 4
    (reduce it first otherwise).  Entries of A below the detected envelope
    (block row index at least two greater than the block column index) are
    zeroed before the first step and their Frobenius norm is reported as
    ``discarded_norm``: explicit QR amplifies such roundoff fill step by step
    until the blocks outside the profile lose their low rank.  Each step
    factors A_k - shift I of the active window, forms the similarity
    A_{k+1} = Q^H A_k Q, and applies the same congruence to the perturbation
    C_k, which preserves the commutator relation.  Per step the report
    records the numerical rank of every upper triangular block strictly
    outside the initial profile (row block index at least two below the
    column block index, enumerated row-major) at cutoff tol * ||A_0||_F,
    with one stacked SVD per block shape.  Trailing eigenvalues deflate when
    the last active row below the diagonal falls under the same cutoff; the
    iteration stops early once everything has converged.
    """
    A = as_matrix(A0, "A0").copy()
    C = as_matrix(C0, "C0").copy()
    if A.shape != C.shape or A.shape[0] != A.shape[1]:
        raise DimensionError("A0 and C0 must be square with equal shape")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = A.shape[0]
    profile = block_profile(A, tol)
    if profile.max_block > 4:
        raise ContractError(
            f"input is not block tridiagonal with blocks <= 4 "
            f"(detected maximum {profile.max_block}); reduce the matrix first"
        )
    cut = tol * fro(A)
    below = np.tril(~_envelope_mask(profile.block_sizes, n))
    discarded = fro(A[below])
    A[below] = 0
    n_outside, shapes = _outside_shapes(profile.block_sizes)
    eigs: list[complex] = []
    m = n

    def deflate():
        nonlocal m
        while m >= 2 and np.linalg.norm(A[m - 1, : m - 1]) <= cut:
            eigs.append(complex(A[m - 1, m - 1]))
            m -= 1
        if m == 1:
            eigs.append(complex(A[0, 0]))
            m = 0

    def block_ranks():
        ranks = np.zeros(n_outside, dtype=int)
        for pos, rows, cols in shapes:
            sv = np.linalg.svd(A[rows, cols], compute_uv=False)
            ranks[pos] = np.count_nonzero(sv > cut, axis=-1)
        return tuple(ranks.tolist())

    records = []
    deflate()
    for step in range(1, steps + 1):
        if m == 0:
            break
        shift = _wilkinson_shift(A[m - 2 : m, m - 2 : m])
        diag = np.arange(m)
        A[diag, diag] -= shift
        try:
            Q, R = np.linalg.qr(A[:m, :m])
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ContractError(f"QR factorization failed: {exc}") from exc
        A[:m, :m] = R @ Q
        A[diag, diag] += shift
        A[:m, m:] = Q.conj().T @ A[:m, m:]
        A[m:, :m] = A[m:, :m] @ Q
        C[:m, :m] = Q.conj().T @ C[:m, :m] @ Q
        C[:m, m:] = Q.conj().T @ C[:m, m:]
        C[m:, :m] = C[m:, :m] @ Q
        c_res = fro(commutator(A, C)) / fro(A) ** 2
        records.append(
            QrStepRecord(
                step=step,
                shift=shift,
                off_profile_block_ranks=block_ranks(),
                c_residual=float(c_res),
                profile_growth=float(off_profile_residual(A, profile) / fro(A)),
            )
        )
        deflate()
    return QrTrackReport(
        iterations=tuple(records),
        converged_eigenvalues=tuple(eigs),
        initial_profile=profile,
        final_matrix=A,
        final_perturbation=C,
        discarded_norm=discarded,
    )
