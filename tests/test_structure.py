import itertools

import numpy as np
import pytest

from blocktrid import (
    ContractError,
    DimensionError,
    arrow_hermitian_plus_rank_one,
    block_lanczos,
    block_profile,
    commutator,
    commutator_residual,
    companion,
    fro,
    hermitian_part,
    off_profile_residual,
    orthonormal_range,
    qr_iteration_tracked,
    random_unitary_plus_rank_one,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


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
    """A unitary-plus-rank-one instance reduced from its commutator range,
    as ``blocktrid reduce`` does for the unitary family."""
    inst = random_unitary_plus_rank_one(n, seed)
    Z, dim = orthonormal_range(commutator(inst.matrix))
    U = block_lanczos(hermitian_part(inst.matrix), Z[:, : min(dim, 4)]).basis
    A_trid = U.conj().T @ inst.matrix @ U
    C_trid = U.conj().T @ inst.perturbation_data["C"] @ U
    return A_trid, C_trid


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
        assert all(rec.c_residual <= 1e-10 for rec in rep.iterations)

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
            assert rec.c_residual <= 1e-9

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
        assert all(rec.c_residual <= 1e-9 for rec in rep.iterations)

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

    @pytest.mark.parametrize("n", [128, 256])
    def test_unitary_rank_bound_at_scale(self, n):
        A_trid, C_trid = reduced_unitary(n, 1)
        rep = qr_iteration_tracked(A_trid, C_trid, 30)
        assert len(rep.iterations) == 30
        for rec in rep.iterations:
            assert max(rec.off_profile_block_ranks) <= 2
            assert rec.c_residual <= 1e-10
        assert 0.0 < rep.discarded_norm <= 1e-10 * fro(A_trid)

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

    def test_stacked_ranks_match_per_block_svds(self):
        rng = np.random.default_rng(0)
        sizes = (1, 2, 3, 4, 2, 1, 4, 3, 1, 3, 2, 4, 1, 1, 2)
        idx = np.repeat(np.arange(len(sizes)), sizes)
        T = crandn(rng, idx.size, idx.size) * (np.abs(idx[:, None] - idx[None, :]) <= 1)
        rep = qr_iteration_tracked(T, np.zeros_like(T), 30, tol=1e-10)
        assert rep.initial_profile.block_sizes == sizes
        assert rep.converged_eigenvalues
        starts = np.cumsum(sizes) - sizes
        expected = tuple(
            int(
                np.count_nonzero(
                    np.linalg.svd(
                        rep.final_matrix[r0 : r0 + sizes[i], c0 : c0 + sizes[j]],
                        compute_uv=False,
                    )
                    > 1e-10 * fro(T)
                )
            )
            for i, r0 in enumerate(starts)
            for j, c0 in enumerate(starts)
            if j >= i + 2
        )
        ranks = rep.iterations[-1].off_profile_block_ranks
        assert ranks == expected
        assert all(type(r) is int for r in ranks)
        assert set(ranks) == {1, 2, 3, 4}

    def test_dense_input_rejected(self):
        rng = np.random.default_rng(2)
        A = crandn(rng, 12, 12)
        with pytest.raises(ContractError):
            qr_iteration_tracked(A, crandn(rng, 12, 12), 5)

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
        assert rep.iterations[-1].c_residual == commutator_residual(
            rep.final_matrix, rep.final_perturbation
        )
