import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktrid import (
    ContractError,
    DimensionError,
    arrow_hermitian_plus_rank_one,
    block_lanczos,
    block_profile,
    certify,
    chebyshev_colleague,
    commutator,
    commutator_residual,
    companion,
    curve_normal_plus_rank_one,
    fro,
    hermitian_part,
    off_profile_residual,
    orthonormal_range,
    qr_iteration_tracked,
    random_unitary_plus_rank_one,
    structure,
)
from blocktrid.cli import main
from blocktrid.matcore import _estimated_commutator_residual, _perturbation_factors, _sketch
from blocktrid.mmio import read_matrix, write_matrix

from helpers import colleague_coeffs, companion_coeffs, crandn, planted_tridiagonal


def reduced_companion(n=32, seed=12345):
    rng = np.random.default_rng(seed)
    coeffs = np.concatenate([[1.0 + 0j], crandn(rng, n)])
    inst = companion(coeffs)
    red = block_lanczos(hermitian_part(inst.matrix), inst.certificate.range_basis)
    U = red.basis
    A_trid = U.conj().T @ inst.matrix @ U
    C_trid = U.conj().T @ inst.perturbation_data["C"] @ U
    return A_trid, C_trid


def reduced_unitary(n, seed):
    return reduced_from_commutator_range(random_unitary_plus_rank_one(n, seed))


def reduced_random_companion(n, seed):
    """Companion matrix of a monic polynomial whose other coefficients have
    moduli uniform in [0.5, 1] and uniform phases."""
    rng = np.random.default_rng([0xC0, seed])
    coeffs = rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return reduced_from_commutator_range(companion(np.concatenate([[1.0], coeffs])))


def reduced_from_commutator_range(inst):
    """An instance reduced from the orthonormal basis of its commutator range
    (at most 4 columns), the block the paper's bound is stated for."""
    Z, dim = orthonormal_range(commutator(inst.matrix))
    U = block_lanczos(hermitian_part(inst.matrix), Z[:, : min(dim, 4)]).basis
    A_trid = U.conj().T @ inst.matrix @ U
    C_trid = U.conj().T @ inst.perturbation_data["C"] @ U
    return A_trid, C_trid


def reduced_by_cli(tmp_path, *generate_args):
    gen, red = tmp_path / "gen", tmp_path / "red"
    assert main(["generate", *generate_args, "--out", str(gen)]) == 0
    assert main(["reduce", str(gen), "--out", str(red)]) == 0
    return read_matrix(red / "A_trid.mtx"), read_matrix(red / "C_trid.mtx")


def hermitian_tridiagonal(n, seed):
    """Hermitian tridiagonal T (lower bandwidth 1) with the commuting
    perturbation C = T^2."""
    rng = np.random.default_rng(seed)
    e = crandn(rng, n - 1)
    T = np.diag(rng.standard_normal(n)) + np.diag(e, -1) + np.diag(e.conj(), 1)
    return T, T @ T


def maximal_singular_values(A, sizes):
    """Singular values of A[:r_{i+1}, c_{i+2}:], block row by block row, from
    one direct SVD each."""
    b = np.cumsum((0,) + tuple(sizes))
    return [
        np.linalg.svd(A[: b[i + 1], b[i + 2] :], compute_uv=False)
        for i in range(len(sizes) - 2)
    ]


def maximal_ranks(A, sizes, cut):
    """Ranks at ``cut`` of A[:r_{i+1}, c_{i+2}:], block row by block row, from
    one direct SVD each."""
    return tuple(
        int(np.count_nonzero(s > cut)) for s in maximal_singular_values(A, sizes)
    )


def sweep_svd_shapes(rep, n):
    """The shape of each matrix the rank sweep of ``rep`` hands to the SVD,
    step by step: block row i stacks the kept rows of row i - 1 over its own
    rows, a q x N stack with q = rank_{i-1} + b_i and N = n - c_{i+2}.  A
    wide stack (q N >= ``structure._WIDE_STACK``) goes in as its q x min(q, N)
    factor R^H, a narrow one as itself."""
    sizes = rep.initial_profile.block_sizes
    starts = np.cumsum((0,) + sizes).tolist()
    shapes = []
    for rec in rep.iterations:
        ranks = (0,) + rec.off_profile_block_ranks
        for i in range(len(ranks) - 1):
            q = ranks[i] + sizes[i]
            N = n - starts[i + 2]
            wide = q * N >= structure._WIDE_STACK
            shapes.append(((q, min(q, N)) if wide else (q, N), wide))
    return shapes


@pytest.fixture
def sweep_shapes(monkeypatch):
    """Shapes of the matrices the QR tracker's rank sweep decomposes."""
    seen = []
    checked = structure._checked_svd

    def record(M, **kwargs):
        seen.append(M.shape)
        return checked(M, **kwargs)

    monkeypatch.setattr(structure, "_checked_svd", record)
    return seen


def tracked_against_direct_ranks(A, C):
    """30 tracked steps; at steps 1, 10 and 30 the sweep's ranks must be those
    of direct SVDs of the maximal submatrices of that step's iterate, the
    final matrix of a run of that many steps."""
    rep = qr_iteration_tracked(A, C, 30)
    assert len(rep.iterations) == 30
    for step in (1, 10, 30):
        iterate = qr_iteration_tracked(A, C, step).final_matrix
        assert rep.iterations[step - 1].off_profile_block_ranks == maximal_ranks(
            iterate, rep.initial_profile.block_sizes, 1e-10 * fro(A)
        )
    return rep


def dense_qr_step(A, F, m, band):
    """Reference for ``structure._banded_qr_step``: one dense QR of the
    whole window, its RQ product, and the transport of everything else,
    the perturbation's factors F = [L, R] by their rows."""
    Q, R = np.linalg.qr(A[:m, :m])
    A[:m, :m] = R @ Q
    A[:m, m:] = Q.conj().T @ A[:m, m:]
    A[m:, :m] = A[m:, :m] @ Q
    F[:m] = Q.conj().T @ F[:m]


class DenseTransport:
    """The tracker's earlier dense perturbation, as a reference: ``step``
    replaces ``structure._banded_qr_step`` and applies each panel's Q to
    A as it does and to the dense C_k from both sides, and ``estimate``
    replaces ``_estimated_commutator_residual`` and reads C_k itself.  The
    factors the tracker passes are left as they are."""

    def __init__(self, C):
        self.C = C.copy()

    def step(self, A, F, m, band):
        C, panels = self.C, []
        for j in range(0, m, structure.PANEL_WIDTH):
            je = min(j + structure.PANEL_WIDTH, m)
            re = min(j + structure.PANEL_WIDTH + band, m)
            Qp, A[j:re, j:je] = np.linalg.qr(A[j:re, j:je], mode="complete")
            A[j:re, je:] = Qp.conj().T @ A[j:re, je:]
            C[j:re] = Qp.conj().T @ C[j:re]
            C[:, j:re] = C[:, j:re] @ Qp
            panels.append((j, re, Qp))
        for j, re, Qp in panels:
            A[:, j:re] = A[:, j:re] @ Qp

    def estimate(self, A, L, R):
        G = _sketch(A.shape[0])
        s = G.shape[1]
        W = np.hstack((A @ G, G))
        AhW = (W.conj().T @ A).conj().T
        CW = self.C @ W
        MG = AhW[:, :s] - CW[:, :s] - A @ (AhW[:, s:] - CW[:, s:])
        return fro(MG) / np.sqrt(2 * s) / fro(A) ** 2


@pytest.fixture(
    params=["unitary-128", "circle-64-324", "tridiagonal-33", "tridiagonal-100"]
)
def banded_instance(request, tmp_path):
    """Blocks of 4 (unitary, circle) and Hermitian tridiagonals (band 1);
    within 30 steps the tridiagonals deflate across the panel boundaries at
    columns 32 and 96."""
    if request.param == "unitary-128":
        return reduced_unitary(128, 1)
    if request.param == "circle-64-324":
        return reduced_by_cli(
            tmp_path, "--family", "curve", "--curve", "circle", "--n", "64",
            "--seed", "324",
        )
    return hermitian_tridiagonal(int(request.param.split("-")[1]), 5)


def full_scan_partition(T, tol):
    """The block_profile dynamic program with every admissible next boundary
    scanned, O(n^2) per matrix."""
    n = T.shape[0]
    big = np.maximum(np.abs(T), np.abs(T).T) > tol * fro(T)
    reach = [max([j] + np.flatnonzero(big[:, j]).tolist()) for j in range(n)]
    M = [-1] + list(itertools.accumulate(reach, max))
    f = [0] * (n + 1)
    for c in range(n - 1, -1, -1):
        f[c] = min(max(cp - c, f[cp]) for cp in range(max(c + 1, M[c] + 1), n + 1))
    bounds = [0]
    while bounds[-1] < n:
        c = bounds[-1]
        bounds.append(
            next(
                cp
                for cp in range(max(c + 1, M[c] + 1), n + 1)
                if max(cp - c, f[cp]) == f[c]
            )
        )
    return tuple(np.diff(bounds).tolist())


def brute_force_min_max_block(T, thr):
    """Exhaust all partitions of the index range; return the smallest maximum
    block size over partitions whose envelope covers every large entry."""
    n = T.shape[0]
    big = np.abs(T) > thr
    best = n
    for cuts in itertools.product([False, True], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        idx = np.repeat(np.arange(len(sizes)), sizes)
        mask = np.abs(idx[:, None] - idx[None, :]) <= 1
        if not np.any(big & ~mask):
            best = min(best, max(sizes))
    return best


class TestBlockProfile:
    def test_scalar_tridiagonal(self):
        T = np.diag(np.arange(1.0, 9.0)) + np.diag(np.full(7, 0.3), 1) + np.diag(
            np.full(7, 0.3), -1
        )
        assert block_profile(T).block_sizes == (1,) * 8

    def test_diagonal(self):
        assert block_profile(np.diag(np.arange(1.0, 7.0))).block_sizes == (1,) * 6

    def test_dense_random(self):
        rng = np.random.default_rng(0)
        p = block_profile(crandn(rng, 8, 8))
        assert len(p.block_sizes) <= 2

    def test_reduced_companion(self):
        A_trid, _ = reduced_companion()
        p = block_profile(A_trid)
        assert p.max_block <= 4
        assert p.off_profile_norm <= 1e-10 * fro(A_trid)

    def test_two_by_two_blocks_detected(self):
        inst = arrow_hermitian_plus_rank_one(16, 1)
        Z = np.column_stack(
            [inst.perturbation_data["x"], inst.perturbation_data["y"]]
        )
        red = block_lanczos(hermitian_part(inst.matrix), Z)
        A_trid = red.basis.conj().T @ inst.matrix @ red.basis
        assert block_profile(A_trid).block_sizes == (2,) * 8

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_minimum(self, seed):
        rng = np.random.default_rng(seed)
        n = 9
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(int(rng.integers(1, 4)), n - sum(sizes)))
        idx = np.repeat(np.arange(len(sizes)), sizes)
        mask = np.abs(idx[:, None] - idx[None, :]) <= 1
        T = crandn(rng, n, n) * mask
        if fro(T) == 0.0:
            return
        p = block_profile(T)
        thr = 1e-10 * fro(T)
        assert p.max_block == brute_force_min_max_block(T, thr)
        assert off_profile_residual(T, p) <= thr * n

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 121, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_scan(self, n, seed):
        rng = np.random.default_rng([n, seed])
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(int(rng.integers(1, 7)), n - sum(sizes)))
        idx = np.repeat(np.arange(len(sizes)), sizes)
        T = crandn(rng, n, n) * (np.abs(idx[:, None] - idx[None, :]) <= 1)
        # scattered fill far from the diagonal, and noise below the threshold
        T[rng.integers(0, n, 3), rng.integers(0, n, 3)] += 1.0
        T += 1e-14 * crandn(rng, n, n)
        assert block_profile(T).block_sizes == full_scan_partition(T, 1e-10)

    def test_monotone_in_tolerance(self):
        A_trid, _ = reduced_companion()
        maxima = [
            block_profile(A_trid, tol).max_block
            for tol in (1e-13, 1e-10, 1e-6, 1e-2)
        ]
        assert all(a >= b for a, b in zip(maxima, maxima[1:]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            block_profile(np.ones((2, 3)))


class TestOffProfileResidual:
    def test_full_profile_is_zero(self):
        rng = np.random.default_rng(1)
        T = crandn(rng, 6, 6)
        assert off_profile_residual(T, (6,)) == 0.0

    def test_diagonal_against_scalar_profile(self):
        assert off_profile_residual(np.diag(np.arange(1.0, 6.0)), (1,) * 5) == 0.0

    def test_reduced_arrow_against_claimed_profile(self):
        inst = arrow_hermitian_plus_rank_one(16, 1)
        Z = np.column_stack(
            [inst.perturbation_data["x"], inst.perturbation_data["y"]]
        )
        red = block_lanczos(hermitian_part(inst.matrix), Z)
        A_trid = red.basis.conj().T @ inst.matrix @ red.basis
        assert off_profile_residual(A_trid, (2,) * 8) <= 1e-10 * fro(A_trid)

    def test_accepts_block_profile_object(self):
        T = np.diag(np.arange(1.0, 5.0))
        assert off_profile_residual(T, block_profile(T)) == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            off_profile_residual(np.eye(4), (2, 3))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            off_profile_residual(np.ones((2, 3)), (1, 1))


class TestQrIterationTracked:
    def test_hermitian_tridiagonal_stays_clean(self):
        n = 10
        T = (
            np.diag(np.arange(1.0, n + 1))
            + np.diag(np.full(n - 1, 0.4), 1)
            + np.diag(np.full(n - 1, 0.4), -1)
        ).astype(complex)
        rep = qr_iteration_tracked(T, np.zeros((n, n), dtype=complex), 10)
        assert all(
            all(r == 0 for r in rec.off_profile_block_ranks)
            for rec in rep.iterations
        )
        assert all(rec.c_residual_estimate <= 1e-10 for rec in rep.iterations)
        assert rep.c_residual <= 1e-10

    def test_deflated_eigenvalues_match_reference(self):
        n = 10
        T = (
            np.diag(np.linspace(-2.0, 3.0, n))
            + np.diag(np.full(n - 1, 0.5), 1)
            + np.diag(np.full(n - 1, 0.5), -1)
        ).astype(complex)
        rep = qr_iteration_tracked(T, np.zeros((n, n), dtype=complex), 60, tol=1e-10)
        assert len(rep.converged_eigenvalues) >= 3
        ref = np.linalg.eigvalsh(T)
        for lam in rep.converged_eigenvalues:
            assert np.min(np.abs(ref - lam)) <= 1e-8

    def test_reduced_companion_rank_bound(self):
        A_trid, C_trid = reduced_companion()
        rep = qr_iteration_tracked(A_trid, C_trid, 30, tol=1e-9)
        assert len(rep.iterations) == 30
        for rec in rep.iterations:
            assert max(rec.off_profile_block_ranks) <= 2
            assert rec.c_residual_estimate <= 1e-9
        assert rep.c_residual <= 1e-9

    def test_hermitian_rank_one_perturbation_residual(self):
        inst = arrow_hermitian_plus_rank_one(32, 2)
        Z = np.column_stack(
            [inst.perturbation_data["x"], inst.perturbation_data["y"]]
        )
        red = block_lanczos(hermitian_part(inst.matrix), Z)
        U = red.basis
        A_trid = U.conj().T @ inst.matrix @ U
        C_trid = U.conj().T @ inst.perturbation_data["C"] @ U
        rep = qr_iteration_tracked(A_trid, C_trid, 20, tol=1e-9)
        assert all(rec.c_residual_estimate <= 1e-9 for rec in rep.iterations)
        assert rep.c_residual <= 1e-9

    def test_spectrum_preserved(self):
        A_trid, C_trid = reduced_companion(n=16, seed=3)
        rep = qr_iteration_tracked(A_trid, C_trid, 20, tol=1e-9)
        before = np.linalg.eigvals(A_trid)
        after = np.linalg.eigvals(rep.final_matrix)
        for lam in after:
            assert np.min(np.abs(before - lam)) <= 1e-8

    def test_perturbation_rank_constant(self):
        from blocktrid import svd

        A_trid, C_trid = reduced_companion(n=16, seed=3)
        r0 = svd(C_trid).numerical_rank
        rep = qr_iteration_tracked(A_trid, C_trid, 20, tol=1e-9)
        assert svd(rep.final_perturbation).numerical_rank == r0

    @pytest.mark.parametrize(
        "n, seed",
        [(128, 0), (128, 1), (128, 2), (128, 3), (256, 0), (256, 1), (256, 2)],
    )
    def test_unitary_rank_bound_at_scale(self, n, seed):
        A_trid, C_trid = reduced_unitary(n, seed)
        rep = tracked_against_direct_ranks(A_trid, C_trid)
        for rec in rep.iterations:
            assert max(rec.off_profile_block_ranks) <= 2
            assert rec.c_residual_estimate <= 1e-10
        assert rep.c_residual <= 1e-10
        assert 0.0 < rep.discarded_norm <= 1e-10 * fro(A_trid)

    @pytest.mark.parametrize("n, seed", [(128, 0), (128, 1), (256, 0)])
    def test_companion_rank_bound_at_scale(self, n, seed):
        A_trid, C_trid = reduced_random_companion(n, seed)
        rep = tracked_against_direct_ranks(A_trid, C_trid)
        for rec in rep.iterations:
            assert max(rec.off_profile_block_ranks) <= 2
            assert rec.c_residual_estimate <= 1e-10
        assert rep.c_residual <= 1e-10
        assert 0.0 < rep.discarded_norm <= 1e-10 * fro(A_trid)

    @pytest.mark.parametrize("n", [128, 256])
    def test_circle_rank_bound_at_scale(self, n, tmp_path):
        A_trid, C_trid = reduced_by_cli(
            tmp_path, "--family", "curve", "--curve", "circle", "--n", str(n),
            "--seed", "0",
        )
        rep = tracked_against_direct_ranks(A_trid, C_trid)
        for rec in rep.iterations:
            assert max(rec.off_profile_block_ranks) <= 2
            assert rec.c_residual_estimate <= 1e-10
        assert rep.c_residual <= 1e-10

    def test_banded_step_matches_dense_step(self, banded_instance, monkeypatch):
        A, C = banded_instance
        rep = qr_iteration_tracked(A, C, 30)
        monkeypatch.setattr(structure, "_banded_qr_step", dense_qr_step)
        ref = qr_iteration_tracked(A, C, 30)
        assert len(rep.iterations) == len(ref.iterations)
        assert [r.off_profile_block_ranks for r in rep.iterations] == [
            r.off_profile_block_ranks for r in ref.iterations
        ]
        assert len(rep.converged_eigenvalues) == len(ref.converged_eigenvalues)
        assert len(rep.converged_eigenvalues) > 0
        np.testing.assert_allclose(
            rep.converged_eigenvalues, ref.converged_eigenvalues,
            rtol=0, atol=1e-12 * fro(A),
        )
        assert all(rec.c_residual_estimate <= 1e-10 for rec in rep.iterations)
        assert rep.c_residual <= 1e-10

    def test_active_window_exactly_zero_below_band(self, banded_instance):
        A, C = banded_instance
        rep = qr_iteration_tracked(A, C, 30)
        m = A.shape[0] - len(rep.converged_eigenvalues)
        band = 2 * rep.initial_profile.max_block - 1
        assert np.count_nonzero(np.tril(rep.final_matrix[:m, :m], -band - 1)) == 0

    def test_fill_below_envelope_is_discarded(self):
        n = 8
        T = (
            np.diag(np.arange(1.0, n + 1))
            + np.diag(np.full(n - 1, 0.5), 1)
            + np.diag(np.full(n - 1, 0.5), -1)
        ).astype(complex)
        T[5, 1] = 3e-14j
        T[1, 5] = 4e-14
        rep = qr_iteration_tracked(T, np.zeros((n, n), dtype=complex), 0)
        assert rep.initial_profile.block_sizes == (1,) * n
        assert rep.discarded_norm == 3e-14
        assert rep.final_matrix[5, 1] == 0
        assert rep.final_matrix[1, 5] == 4e-14

    def test_sweep_ranks_match_maximal_submatrix_svds(self):
        rng = np.random.default_rng(0)
        sizes = (1, 2, 3, 4, 2, 1, 4, 3, 1, 3, 2, 4, 1, 1, 2)
        idx = np.repeat(np.arange(len(sizes)), sizes)
        T = crandn(rng, idx.size, idx.size) * (np.abs(idx[:, None] - idx[None, :]) <= 1)
        rep = qr_iteration_tracked(T, np.zeros_like(T), 30, tol=1e-10)
        assert rep.initial_profile.block_sizes == sizes
        assert rep.converged_eigenvalues
        ranks = rep.iterations[-1].off_profile_block_ranks
        assert ranks == maximal_ranks(rep.final_matrix, sizes, 1e-10 * fro(T))
        assert all(type(r) is int for r in ranks)
        assert len(ranks) == len(sizes) - 2
        assert max(ranks) > max(sizes)

    def test_planted_rank_no_block_shows(self):
        """A complex tridiagonal matrix has only 1 x 1 blocks outside its
        profile, so no block can exceed rank 1; under QR its upper part
        fills in, and the maximal submatrices show rank 3 and more."""
        A = planted_tridiagonal(16)
        rep = qr_iteration_tracked(A, A.conj().T - A, 10)
        assert rep.initial_profile.block_sizes == (1,) * 16
        ranks = rep.iterations[-1].off_profile_block_ranks
        assert max(ranks) >= 3
        assert ranks == maximal_ranks(rep.final_matrix, (1,) * 16, 1e-10 * fro(A))
        assert all(rec.c_residual_estimate <= 1e-10 for rec in rep.iterations)
        assert rep.c_residual <= 1e-10

    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=16).filter(
            lambda sizes: sum(sizes) <= 40
        ),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_sweep_ranks_property(self, sizes, seed, steps):
        rng = np.random.default_rng(seed)
        idx = np.repeat(np.arange(len(sizes)), sizes)
        T = crandn(rng, idx.size, idx.size) * (np.abs(idx[:, None] - idx[None, :]) <= 1)
        rep = qr_iteration_tracked(T, np.zeros_like(T), steps)
        if rep.iterations:
            assert rep.iterations[-1].off_profile_block_ranks == maximal_ranks(
                rep.final_matrix, rep.initial_profile.block_sizes, 1e-10 * fro(T)
            )

    def test_rank_margin_brackets_the_cutoff(self):
        A_trid, C_trid = reduced_unitary(64, 1)
        rep = qr_iteration_tracked(A_trid, C_trid, 30)
        for rec in rep.iterations:
            dropped, kept = rec.rank_margin
            assert dropped is None or dropped <= 1.0
            assert kept is not None and kept > 1.0
        assert any(rec.rank_margin[0] is not None for rec in rep.iterations)

    def test_wide_stacks_take_the_r_factor(self, sweep_shapes):
        """At n = 256 the sweep meets both wide stacks, decomposed through
        their R factor, and narrow ones, decomposed whole.  At steps 1, 10 and
        30 the smallest kept value is that of direct SVDs of the maximal
        submatrices to 1e-10 relative, and so are the ranks."""
        A_trid, C_trid = reduced_unitary(256, 1)
        n = A_trid.shape[0]
        rep = qr_iteration_tracked(A_trid, C_trid, 30)
        expected = sweep_svd_shapes(rep, n)
        assert sweep_shapes == [shape for shape, _ in expected]
        assert {wide for _, wide in expected} == {True, False}
        cut = 1e-10 * fro(A_trid)
        sizes = rep.initial_profile.block_sizes
        for step in (1, 10, 30):
            iterate = qr_iteration_tracked(A_trid, C_trid, step).final_matrix
            values = maximal_singular_values(iterate, sizes)
            rec = rep.iterations[step - 1]
            assert rec.off_profile_block_ranks == tuple(
                int(np.count_nonzero(s > cut)) for s in values
            )
            smallest_kept = min(s[s > cut].min() for s in values if s[0] > cut)
            np.testing.assert_allclose(rec.rank_margin[1], smallest_kept / cut,
                                       rtol=1e-10, atol=0)

    @pytest.mark.parametrize("family", ["arrow", "unitary"])
    def test_no_wide_stack_at_n_64(self, sweep_shapes, family):
        inst = {"arrow": arrow_hermitian_plus_rank_one,
                "unitary": random_unitary_plus_rank_one}[family](64, 3)
        rep = qr_iteration_tracked(*reduced_from_commutator_range(inst), 30)
        expected = sweep_svd_shapes(rep, 64)
        assert expected and sweep_shapes == [shape for shape, _ in expected]
        assert not any(wide for _, wide in expected)

    def test_dense_input_rejected(self):
        rng = np.random.default_rng(2)
        A = crandn(rng, 12, 12)
        with pytest.raises(ContractError):
            qr_iteration_tracked(A, crandn(rng, 12, 12), 5)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_two_block_profile_has_no_outside_blocks(self, n):
        rng = np.random.default_rng(n)
        A = crandn(rng, n, n)
        rep = qr_iteration_tracked(A, np.zeros_like(A), 3)
        assert len(rep.initial_profile.block_sizes) <= 2
        assert rep.iterations
        assert all(rec.off_profile_block_ranks == () for rec in rep.iterations)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tolerance_rejected(self, tol):
        T = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(ValueError, match="tol must be positive"):
            qr_iteration_tracked(T, np.zeros_like(T), 1, tol=tol)

    def test_zero_steps(self):
        T = np.diag([1.0, 2.0, 3.0]).astype(complex)
        rep = qr_iteration_tracked(T, np.zeros((3, 3), dtype=complex), 0)
        assert rep.iterations == ()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            qr_iteration_tracked(np.eye(3), np.eye(4), 1)

    def test_step_residual_is_the_certificate_residual(self):
        A_trid, C_trid = reduced_companion()
        rep = qr_iteration_tracked(A_trid, C_trid, 5)
        assert rep.c_residual == commutator_residual(
            rep.final_matrix, rep.final_perturbation
        )


_CONVERGED_FAMILIES = {
    "arrow": lambda: arrow_hermitian_plus_rank_one(128, 0),
    "colleague": lambda: chebyshev_colleague(colleague_coeffs(128, 0)),
    "line": lambda: curve_normal_plus_rank_one(128, "line", 0),
    "unitary": lambda: random_unitary_plus_rank_one(128, 0),
    "companion": lambda: companion(companion_coeffs(128, 0)),
    "circle": lambda: curve_normal_plus_rank_one(128, "circle", 0),
}


@pytest.mark.parametrize("family", list(_CONVERGED_FAMILIES))
def test_rank_bound_to_full_convergence(family):
    """From the family's own start, as ``blocktrid reduce`` runs it, the QR
    iteration at the CLI's tol converges every eigenvalue within 1000 steps
    with no maximal submatrix above the envelope of rank above 2."""
    inst = _CONVERGED_FAMILIES[family]()
    A, C = inst.matrix, inst.perturbation_data["C"]
    U = block_lanczos(A, inst.start).basis
    rep = qr_iteration_tracked(U.conj().T @ A @ U, U.conj().T @ C @ U, 1000, tol=1e-8)
    assert all(max(rec.off_profile_block_ranks) <= 2 for rec in rep.iterations)
    assert len(rep.converged_eigenvalues) == 128


def with_rank_one_defect(A, C, residual, seed=5):
    """C plus a rank-one E scaled so that the pair's commutator residual,
    ||commutator(A, C + E)||_F / ||A||_F^2 = ||(A^H - C) A - A (A^H - C)
    + A E - E A||_F / ||A||_F^2, is ``residual`` when that of (A, C) is
    roundoff.  A unitary similarity keeps it, so every QR step sees it."""
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    E = np.outer(crandn(rng, n), crandn(rng, n).conj())
    return C + residual * fro(A) ** 2 / fro(A @ E - E @ A) * E


class TestResidualProbe:
    """Each tracked step's ``c_residual_estimate`` against the exact residual
    of the same pair, which ``rep.c_residual`` gives for the final pair."""

    @pytest.mark.parametrize("instance", [
        lambda: reduced_unitary(256, 1),
        lambda: reduced_from_commutator_range(arrow_hermitian_plus_rank_one(128, 1)),
        lambda: reduced_random_companion(64, 1),
    ], ids=["unitary-256", "arrow-128", "companion-64"])
    def test_estimate_within_factor_two_of_exact(self, instance):
        A, C = instance()
        for k in range(1, 13):
            rep = qr_iteration_tracked(A, C, k)
            assert len(rep.iterations) == k
            assert 0.5 <= rep.iterations[-1].c_residual_estimate / rep.c_residual <= 2

    def test_planted_defect_trips_every_step(self, tmp_path):
        """A rank-one change to C at 10 tol leaves A's iterates and their
        ranks as they are, yet every step's estimate exceeds tol."""
        A, C = reduced_unitary(64, 1)
        C = with_rank_one_defect(A, C, 1e-7)
        rep = qr_iteration_tracked(A, C, 10)
        assert len(rep.iterations) == 10
        assert all(max(rec.off_profile_block_ranks) <= 2 for rec in rep.iterations)
        assert all(rec.c_residual_estimate > 1e-8 for rec in rep.iterations)
        assert rep.c_residual > 1e-8
        a, c, out = tmp_path / "A.mtx", tmp_path / "C.mtx", tmp_path / "track.json"
        write_matrix(a, A)
        write_matrix(c, C)
        assert main(["qr-track", str(a), str(c), "--steps", "10", "--out", str(out)]) == 2

    def test_reports_are_byte_identical(self, tmp_path):
        A, C = reduced_unitary(64, 1)
        a, c, out = tmp_path / "A.mtx", tmp_path / "C.mtx", tmp_path / "track.json"
        write_matrix(a, A)
        write_matrix(c, C)
        reports = []
        for _ in range(2):
            assert main(["qr-track", str(a), str(c), "--steps", "10", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("family", ["tridiagonal-16", "unitary-64-defect"])
    def test_estimate_is_scale_invariant(self, family):
        """Scaling each step's pair by 1e8 or 1e-8 leaves its estimate, the
        one the tracker recorded, unchanged to a relative 1e-12.  The pairs
        carry a relation defect well above roundoff, which the rounding of
        the scaled entries would otherwise dominate."""
        if family == "tridiagonal-16":
            A = planted_tridiagonal(16)
            C = np.zeros_like(A)
        else:
            A, C = reduced_unitary(64, 1)
            C = with_rank_one_defect(A, C, 1e-1)
        for k in range(1, 11):
            rep = qr_iteration_tracked(A, C, k)
            Ak, (Lk, Rk) = rep.final_matrix, rep.perturbation_factors
            estimate = rep.iterations[-1].c_residual_estimate
            assert estimate == _estimated_commutator_residual(Ak, Lk, Rk)
            for scale in (1e8, 1e-8):
                np.testing.assert_allclose(
                    _estimated_commutator_residual(scale * Ak, scale * Lk, Rk),
                    estimate, rtol=1e-12, atol=0,
                )


def step_decisions(rep):
    return [
        (rec.step, rec.shift, rec.off_profile_block_ranks, rec.rank_margin,
         rec.profile_growth)
        for rec in rep.iterations
    ]


class TestFactoredPerturbation:
    """The tracker carries C_k as factors L_k R_k^H; A's iterates never read
    them, so every decision is that of the dense transport."""

    @pytest.mark.parametrize("instance", [
        lambda tmp: reduced_unitary(256, 1),
        lambda tmp: reduced_from_commutator_range(arrow_hermitian_plus_rank_one(128, 1)),
        lambda tmp: reduced_random_companion(64, 1),
        lambda tmp: reduced_by_cli(tmp, "--family", "curve", "--curve", "circle",
                                   "--n", "64", "--seed", "0"),
    ], ids=["unitary-256", "arrow-128", "companion-64", "circle-64"])
    def test_same_decisions_as_dense_transport(self, instance, tmp_path, monkeypatch):
        A, C = instance(tmp_path)
        rep = qr_iteration_tracked(A, C, 30)
        assert [f.shape for f in rep.perturbation_factors] == [(A.shape[0], 8)] * 2
        dense = DenseTransport(C)
        monkeypatch.setattr(structure, "_banded_qr_step", dense.step)
        monkeypatch.setattr(structure, "_estimated_commutator_residual", dense.estimate)
        ref = qr_iteration_tracked(A, C, 30)
        assert len(rep.iterations) == 30
        assert np.array_equal(rep.final_matrix, ref.final_matrix)
        assert step_decisions(rep) == step_decisions(ref)
        assert rep.converged_eigenvalues == ref.converged_eigenvalues
        np.testing.assert_allclose(
            [rec.c_residual_estimate for rec in rep.iterations],
            [rec.c_residual_estimate for rec in ref.iterations], rtol=0, atol=1e-14,
        )
        exact = commutator_residual(ref.final_matrix, dense.C)
        np.testing.assert_allclose(rep.c_residual, exact, rtol=0, atol=1e-14)

    def test_reduced_perturbation_takes_sixteen_columns(self):
        """``matcore``'s one rule gives a reduced C the 64 x 8 factors of
        its sketch, F = [L, R] of 16 columns, and the zero C none."""
        A, C = reduced_unitary(64, 1)
        L, R, sketch = _perturbation_factors(C)
        assert L.shape == R.shape == (64, 8)
        assert np.hstack((L, R)).shape == (64, 16)
        assert sketch is not None and sketch[0] is L
        eps = np.finfo(np.float64).eps
        assert fro(C - L @ R.conj().T) <= np.sqrt(64) * eps * fro(C)
        L, R, sketch = _perturbation_factors(np.zeros_like(C))
        assert L.shape == R.shape == (64, 0) and sketch is None

    @pytest.mark.parametrize("n, perturbation", [
        (16, "adjoint-difference"), (8, "rank-one"), (5, "rank-one"),
    ])
    def test_fallback_carries_c_and_identity(self, n, perturbation):
        """A C of full rank 16, above the sketch's 8 columns, and any C of
        order at most 8 come as the exact pair (C, I) from ``matcore``'s
        one rule, and travel as [C, I]."""
        from blocktrid import svd

        A = planted_tridiagonal(n)
        if perturbation == "adjoint-difference":
            C = A.conj().T - A
            assert svd(C).numerical_rank == 16
        else:
            rng = np.random.default_rng(n)
            C = np.outer(crandn(rng, n), crandn(rng, n).conj())
        L, R, _ = _perturbation_factors(C)
        assert np.array_equal(L, C)
        assert np.array_equal(R, np.eye(n))
        rep = qr_iteration_tracked(A, C, 3)
        assert [f.shape for f in rep.perturbation_factors] == [(n, n)] * 2

    def test_zero_perturbation_has_no_columns(self):
        A = planted_tridiagonal(12)
        rep = qr_iteration_tracked(A, np.zeros_like(A), 3)
        assert [f.shape for f in rep.perturbation_factors] == [(12, 0)] * 2
        assert np.array_equal(rep.final_perturbation, np.zeros_like(A))


def scaled_decisions(inst, scale):
    """Every rank and size decision on an instance with A and C scaled by
    ``scale``: the reduction starts from the instance's own block, as
    ``blocktrid reduce`` does."""
    A, C = scale * inst.matrix, scale * inst.perturbation_data["C"]
    red = block_lanczos(A, inst.start)
    U = red.basis
    A_trid, C_trid = U.conj().T @ A @ U, U.conj().T @ C @ U
    cert = certify(A, C, 2)
    rep = qr_iteration_tracked(A_trid, C_trid, 10)
    decisions = (
        red.block_sizes,
        block_profile(A_trid).block_sizes,
        (cert.valid, cert.range_dim, cert.perturbation_rank),
        [rec.off_profile_block_ranks for rec in rep.iterations],
        len(rep.converged_eigenvalues),
    )
    return decisions, np.array([rec.rank_margin for rec in rep.iterations], dtype=float)


_SCALED_FAMILIES = {
    "arrow": arrow_hermitian_plus_rank_one,
    "unitary": random_unitary_plus_rank_one,
    "circle": lambda n, seed: curve_normal_plus_rank_one(n, "circle", seed),
}


@pytest.mark.parametrize("family", list(_SCALED_FAMILIES))
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-8.0, 8.0))
@example(seed=0, exponent=0.5)
@settings(max_examples=10, deadline=None)
def test_decisions_are_scale_invariant(family, seed, exponent):
    """Scaling an n = 48 instance's A and C together by 1e8, 1e-8 or
    10^exponent changes no block size, no certificate verdict and no
    per-step QR rank or converged count, and moves no rank margin by more
    than 1e-2 of the cutoff (singular values agreeing to 1e-12 ||A||_F)."""
    inst = _SCALED_FAMILIES[family](48, seed)
    reference, margins = scaled_decisions(inst, 1.0)
    for scale in (1e8, 1e-8, 10.0**exponent):
        decisions, scaled_margins = scaled_decisions(inst, scale)
        assert decisions == reference
        np.testing.assert_allclose(scaled_margins, margins, rtol=1e-8, atol=1e-2)
