"""Block profile detection and rank tracking under shifted QR iteration.

``block_profile`` certifies the shape of a reduced matrix: it finds the
partition with the smallest achievable maximum block size whose block
tridiagonal envelope covers every entry above the threshold.  The QR tracker
runs explicit single-shift steps on a block tridiagonal matrix while carrying
the commutator perturbation along the same similarity, recording per block row
the numerical rank of the maximal submatrix above the initial envelope, which
contains every upper block outside the initial profile.  It estimates each
step's commutator residual from the package's fixed 8-column sketch and
computes the exact residual once, for the final pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .matcore import (
    DEFAULT_TOL,
    _checked_svd,
    _estimated_commutator_residual,
    as_matrix,
    as_square,
    commutator,
    fro,
)

PANEL_WIDTH = 32


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
    boundaries only.  One dynamic program over boundary positions yields the
    smallest achievable maximum block size and records, per boundary, the
    earliest next boundary attaining it; the partition is read off that
    record.  A dense matrix degenerates to one or two large blocks.
    """
    T = as_square(T, "T")
    n = T.shape[0]
    thr = tol * fro(T)
    low = _column_reach(T, thr)
    # M[c] = furthest row reached by any column left of boundary c
    M = [-1] + np.maximum.accumulate(low).tolist()
    # f[c] = smallest achievable maximum block size on [c, n), and nxt[c] the
    # first next boundary cp attaining it (n when no cp < n beats n - c, as
    # f[cp] <= n - cp).  The scan over cp stops once cp - c reaches the best
    # value found: max(cp - c, f[cp]) cannot go lower from there on.
    f = [0] * (n + 1)
    nxt = [n] * (n + 1)
    for c in range(n - 1, -1, -1):
        best = n - c
        for cp in range(max(c + 1, M[c] + 1), n):
            if cp - c >= best:
                break
            if max(cp - c, f[cp]) < best:
                best, nxt[c] = max(cp - c, f[cp]), cp
        f[c] = best
    bounds = [0]
    while bounds[-1] < n:
        bounds.append(nxt[bounds[-1]])
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
    return fro(T[~mask])


@dataclass(frozen=True)
class QrStepRecord:
    """One shifted QR step: the shift, the rank of the maximal submatrix above
    the initial envelope at each block row, how close those rank decisions
    came to the cutoff, the sketched estimate of the perturbation residual,
    and the relative mass outside the initial envelope."""

    step: int
    shift: complex
    off_profile_block_ranks: tuple[int, ...]
    rank_margin: tuple[float | None, float | None]
    c_residual_estimate: float
    profile_growth: float


@dataclass(frozen=True)
class QrTrackReport:
    """``discarded_norm`` is the Frobenius norm of the fill below the initial
    envelope that was zeroed before the first step; ``c_residual`` is the
    exact commutator residual of the final pair."""

    iterations: tuple[QrStepRecord, ...]
    converged_eigenvalues: tuple[complex, ...]
    initial_profile: BlockProfile
    final_matrix: np.ndarray
    final_perturbation: np.ndarray
    discarded_norm: float
    c_residual: float


def _wilkinson_shift(block) -> complex:
    (a, b), (c, d) = block
    tr = a + d
    disc = np.sqrt((a - d) ** 2 + 4 * b * c + 0j)
    mu1 = (tr + disc) / 2
    mu2 = (tr - disc) / 2
    return complex(mu1) if abs(mu1 - d) <= abs(mu2 - d) else complex(mu2)


def _banded_qr_step(A, C, m, band):
    """In place A <- Q^H A Q, C <- Q^H C Q for QR = A[:m, :m], by panels."""
    panels = []
    for j in range(0, m, PANEL_WIDTH):
        je, re = min(j + PANEL_WIDTH, m), min(j + PANEL_WIDTH + band, m)
        Qp, A[j:re, j:je] = np.linalg.qr(A[j:re, j:je], mode="complete")
        A[j:re, je:] = Qp.conj().T @ A[j:re, je:]
        C[j:re] = Qp.conj().T @ C[j:re]
        C[:, j:re] = C[:, j:re] @ Qp
        panels.append((j, re, Qp))
    for j, re, Qp in panels:
        A[:, j:re] = A[:, j:re] @ Qp


def qr_iteration_tracked(
    A0, C0, steps: int, tol: float = DEFAULT_TOL
) -> QrTrackReport:
    """Run explicit Wilkinson-shifted QR steps, tracking rank structure.

    The input must already be block tridiagonal with blocks of size at most 4
    (reduce it first otherwise).  Entries of A below the detected envelope
    (block row index at least two greater than the block column index) are
    zeroed before the first step and their Frobenius norm is reported as
    ``discarded_norm``: explicit QR amplifies such roundoff fill step by step
    until the blocks outside the profile lose their low rank.  The window
    then keeps lower bandwidth b = 2 max_block - 1, so each step factors
    A_k - shift I in column panels of w = PANEL_WIDTH columns and w + b rows
    and applies the similarity Q^H . Q to A_k and C_k (which keeps the
    commutator relation) in O(n^2 (w + b)^2 / w) work, not O(n^3).

    Per step the report records, for each block row i < p - 2 of the initial
    profile (rows end at r_{i+1}, block i + 2 starts at column c_{i+2}), the
    rank of the maximal submatrix A_k[:r_{i+1}, c_{i+2}:] above the envelope
    at cutoff tol * ||A_0||_F.  Every upper block outside the profile lies in
    one of them.  One nested sweep gives all p - 2 ranks: W, the kept row
    space of the previous submatrix scaled by its singular values, loses the
    columns of block i + 2 and gains block row i beneath it, and the thin
    SVD of that stack of at most rank + max_block rows yields the next rank
    and W.  ``rank_margin`` is the largest singular value the sweep dropped
    and the smallest it kept, in units of the cutoff (None for an empty
    side).  ``profile_growth`` is ||A_k||_F outside the envelope over
    ||A_k||_F.  Trailing eigenvalues deflate while the last active row left
    of the diagonal is under the same cutoff (tol must be positive); the
    iteration stops early once everything has converged.

    The relation A^H A - A A^H = C A - A C is checked through its defect
    M = commutator(A_k, C_k).  Each step records ``c_residual_estimate`` =
    ||M G||_F / sqrt(16) / ||A_k||_F^2, with G the package's fixed-seed
    n x 8 complex Gaussian sketch (E|g|^2 = 2, so E||M G||_F^2 =
    16 ||M||_F^2), in O(n^2) work that only reads A_k and C_k.  The
    report's ``c_residual`` is the exact ||M||_F / ||A||_F^2 of the final
    pair (0 for A = 0), computed once after the loop, also when no step ran.
    """
    A = as_square(A0, "A0").copy()
    C = as_matrix(C0, "C0").copy()
    if C.shape != A.shape:
        raise DimensionError(f"C0 has shape {C.shape}, A0 is {A.shape}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = A.shape[0]
    profile = block_profile(A, tol)
    if profile.max_block > 4:
        raise ContractError(
            f"input is not block tridiagonal with blocks <= 4 "
            f"(detected maximum {profile.max_block}); reduce the matrix first"
        )
    cut = tol * fro(A)
    outside = ~_envelope_mask(profile.block_sizes, n)
    below = np.tril(outside)
    discarded = fro(A[below])
    A[below] = 0
    bounds = np.cumsum((0,) + profile.block_sizes).tolist()
    eigs: list[complex] = []
    m = n

    def deflate():
        nonlocal m
        while m and fro(A[m - 1, : m - 1]) <= cut:
            eigs.append(complex(A[m - 1, m - 1]))
            m -= 1

    def maximal_ranks():
        ranks, dropped, kept = [], [], []
        W = A[:0, bounds[1] :]
        for r0, r1, c2 in zip(bounds, bounds[1:], bounds[2:-1]):
            _, s, Vh = _checked_svd(
                np.concatenate((W[:, c2 - r1 :], A[r0:r1, c2:])), full_matrices=False
            )
            sv = s.tolist()
            k = sum(x > cut for x in sv)
            ranks.append(k)
            dropped += sv[k : k + 1]
            kept += sv[k - 1 : k]
            W = s[:k, None] * Vh[:k]
        return tuple(ranks), (
            max(dropped) / cut if dropped else None,
            min(kept) / cut if kept else None,
        )

    records = []
    deflate()
    for step in range(1, steps + 1):
        if m == 0:
            break
        shift = _wilkinson_shift(A[m - 2 : m, m - 2 : m])
        diag = np.arange(m)
        A[diag, diag] -= shift
        try:
            _banded_qr_step(A, C, m, 2 * profile.max_block - 1)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ContractError(f"QR factorization failed: {exc}") from exc
        A[diag, diag] += shift
        ranks, margin = maximal_ranks()
        records.append(
            QrStepRecord(
                step=step,
                shift=shift,
                off_profile_block_ranks=ranks,
                rank_margin=margin,
                c_residual_estimate=_estimated_commutator_residual(A, C),
                profile_growth=fro(A[outside]) / fro(A),
            )
        )
        deflate()
    norm_a = fro(A)
    return QrTrackReport(
        iterations=tuple(records),
        converged_eigenvalues=tuple(eigs),
        initial_profile=profile,
        final_matrix=A,
        final_perturbation=C,
        discarded_norm=discarded,
        c_residual=fro(commutator(A, C)) / norm_a**2 if norm_a else 0.0,
    )
