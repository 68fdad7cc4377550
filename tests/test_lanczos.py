import numpy as np
import pytest

from blocktrid import (
    DimensionError,
    NumericalError,
    antihermitian_part,
    arrow_hermitian_plus_rank_one,
    block_lanczos,
    curve_normal_plus_rank_one,
    fourier_sum,
    fro,
    hermitian_part,
    krylov_basis,
    krylov_inclusion_check,
    krylov_levels,
    numerical_rank,
    off_profile_residual,
    orthonormal_range,
    random_unitary_plus_rank_one,
    subspace_inclusion_residual,
)

from helpers import crandn


def random_hermitian(rng, n):
    A = crandn(rng, n, n)
    return A + A.conj().T


class TestBlockLanczos:
    def test_full_starting_block_returns_input(self):
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        red = block_lanczos(H, np.eye(3, dtype=complex))
        assert red.block_sizes == (3,)
        assert red.breakdown_events == ()
        assert not red.restarted
        assert np.allclose(red.trid, H, atol=1e-14)
        # basis equals the identity up to unimodular column scalings
        assert np.allclose(np.abs(red.basis), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_invariants_random_hermitian(self, width):
        rng = np.random.default_rng(width)
        n = 48
        H = random_hermitian(rng, n)
        Z = crandn(rng, n, width)
        red = block_lanczos(H, Z)
        U, T = red.basis, red.trid
        assert sum(red.block_sizes) == n
        assert fro(U.conj().T @ U - np.eye(n)) <= 1e-11 * np.sqrt(n)
        assert fro(U.conj().T @ H @ U - T) <= 1e-10 * fro(H)
        assert fro(T - T.conj().T) <= 1e-12 * fro(H)
        # block widths never exceed the starting width and never grow in a run
        assert all(w <= max(width, 1) for w in red.block_sizes)
        for a, b in zip(red.block_sizes, red.block_sizes[1:]):
            assert b <= a

    def test_first_columns_span_starting_block(self):
        rng = np.random.default_rng(11)
        n = 20
        H = random_hermitian(rng, n)
        Z = crandn(rng, n, 3)
        red = block_lanczos(H, Z)
        s = red.block_sizes[0]
        assert subspace_inclusion_residual(Z, red.basis[:, :s]) <= 1e-11

    def test_profile_entries_exactly_zero(self):
        rng = np.random.default_rng(2)
        n = 18
        H = random_hermitian(rng, n)
        red = block_lanczos(H, crandn(rng, n, 2))
        T = red.trid
        bounds = red.block_boundaries
        idx = np.repeat(np.arange(len(red.block_sizes)), red.block_sizes)
        mask = np.abs(idx[:, None] - idx[None, :]) <= 1
        assert np.all(T[~mask] == 0)
        assert len(bounds) == len(red.block_sizes) + 1

    def test_fourier_breakdown_and_restart(self):
        inst = fourier_sum(8, 1)
        H = inst.matrix
        red = block_lanczos(H, inst.start)
        assert red.restarted
        assert red.breakdown_events[0][0] <= 3
        # block diagonal across every breakdown boundary
        M = red.basis.conj().T @ H @ red.basis
        for _, col in red.breakdown_events:
            assert np.linalg.norm(M[:col, col:]) <= 1e-10 * fro(H)

    @pytest.mark.parametrize("n, seed", [(8, 1), (64, 163), (128, 0), (256, 0)])
    def test_trid_exactly_zero_across_breakdowns(self, n, seed):
        inst = fourier_sum(n, seed)
        H, Z = inst.matrix, inst.start
        red = block_lanczos(H, Z)
        assert red.breakdown_events
        for _, col in red.breakdown_events:
            assert np.all(red.trid[:col, col:] == 0)
            assert np.all(red.trid[col:, :col] == 0)
        # a Krylov space meets ker H only in the kernel part of its start, so
        # covering the kernel takes at least dim ker H - rank Z restarts
        assert len(red.breakdown_events) >= (n - numerical_rank(H)) - Z.shape[1]

    def test_fourier_restarts_keep_residuals_at_roundoff(self):
        # F + F^H has eigenvalues 2, -2 and 0 only, so every run breaks down
        # within three steps; a restart direction almost inside the computed
        # span would turn roundoff into blocks right at the rank cut
        for seed in [*range(150), 163]:
            inst = fourier_sum(64, seed)
            H = inst.matrix
            red = block_lanczos(H, inst.start)
            U, T = red.basis, red.trid
            M = U.conj().T @ H @ U
            assert fro(M - T) <= 1e-10 * fro(H)
            assert off_profile_residual(M, red.block_sizes) <= 1e-10 * fro(H)

    def test_block_narrows_inside_run(self):
        # a 4-fold eigenvalue caps the Krylov space of a generic 3-column
        # block at dimension n - 1: the last block of the run has width 2
        rng = np.random.default_rng(0)
        lam = np.concatenate([np.zeros(4), np.arange(1.0, 12.0)])
        n = lam.size
        Q, _ = np.linalg.qr(crandn(rng, n, n))
        H = (Q * lam) @ Q.conj().T
        H = (H + H.conj().T) / 2
        red = block_lanczos(H, crandn(rng, n, 3))
        assert red.block_sizes == (3, 3, 3, 3, 2, 1)
        assert red.breakdown_events == ((5, 14),)
        U, T = red.basis, red.trid
        c = red.block_boundaries
        B = T[c[4] : c[5], c[3] : c[4]]
        assert B.shape == (2, 3)
        assert np.linalg.matrix_rank(B) == 2
        assert fro(U.conj().T @ H @ U - T) <= 1e-10 * fro(H)
        idx = np.repeat(np.arange(len(red.block_sizes)), red.block_sizes)
        mask = np.abs(idx[:, None] - idx[None, :]) <= 1
        assert np.all(T[~mask] == 0)

    def test_arrow_two_by_two_blocks(self):
        inst = arrow_hermitian_plus_rank_one(16, 1)
        x = inst.perturbation_data["x"]
        y = inst.perturbation_data["y"]
        red = block_lanczos(hermitian_part(inst.matrix), np.column_stack([x, y]))
        assert max(red.block_sizes) <= 2

    def test_invariants_hold_at_larger_scale(self):
        rng = np.random.default_rng(7)
        n = 256
        H = random_hermitian(rng, n)
        red = block_lanczos(H, crandn(rng, n, 2))
        U, T = red.basis, red.trid
        assert fro(U.conj().T @ U - np.eye(n)) <= 1e-11 * np.sqrt(n)
        assert fro(U.conj().T @ H @ U - T) <= 1e-10 * fro(H)

    def test_zero_matrix_breaks_down_every_block(self):
        red = block_lanczos(np.zeros((6, 6)), np.eye(6)[:, :2])
        assert red.block_sizes == (2, 1, 1, 1, 1)
        assert len(red.breakdown_events) == 4
        assert fro(red.basis.conj().T @ red.basis - np.eye(6)) <= 1e-14
        assert not red.trid.any()

    def test_non_hermitian_reduces(self):
        rng = np.random.default_rng(0)
        A = crandn(rng, 5, 5)
        red = block_lanczos(A, crandn(rng, 5, 1))
        U = red.basis
        assert fro(U.conj().T @ U - np.eye(5)) <= 1e-11 * np.sqrt(5)
        assert fro(U.conj().T @ A @ U - red.trid) <= 1e-10 * fro(A)

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_circle_reduces_at_scale(self, n):
        # from the Hermitian part alone, the fill outside the envelope grew
        # along the block rows to 3e-7 (n = 256) and 3.5e-2 (n = 512) of ||A||_F
        for seed in range(10):
            inst = curve_normal_plus_rank_one(n, "circle", seed)
            A = inst.matrix
            red = block_lanczos(A, inst.start)
            assert max(red.block_sizes) <= 4
            M = red.basis.conj().T @ A @ red.basis
            assert off_profile_residual(M, red.block_sizes) <= 1e-10 * fro(A)

    def test_blocks_do_not_depend_on_phase(self):
        # [A U, A^H U] spans what [A_H U, A_AH U] spans, for A and e^{i phi} A
        inst = curve_normal_plus_rank_one(32, "parabola_arc", 3)
        sizes = block_lanczos(inst.matrix, inst.start).block_sizes
        assert sizes[0] == 6 and max(sizes[1:]) == 4
        for k in range(1, 6):
            A = np.exp(1j * np.pi * k / 6) * inst.matrix
            assert block_lanczos(A, inst.start).block_sizes == sizes

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            block_lanczos(np.eye(4, dtype=complex), np.zeros((4, 2)))

    def test_wide_start_reduces(self):
        # a 3 x 4 start: its orthonormal range is the first block
        rng = np.random.default_rng(1)
        A = crandn(rng, 3, 3)
        for rank in (1, 3):
            Z = crandn(rng, 3, rank) @ crandn(rng, rank, 4)
            red = block_lanczos(A, Z)
            assert red.block_sizes[0] == np.linalg.matrix_rank(Z) == rank
            assert sum(red.block_sizes) == 3
            assert fro(red.basis.conj().T @ red.basis - np.eye(3)) <= 1e-11 * np.sqrt(3)

    def test_tiny_tol_never_writes_past_n(self):
        # at tol 1e-17 roundoff in the projected pair passes the cut, so a
        # candidate can have more columns above it than the basis has left;
        # the blocks are then noise, which `reduce` reports, but they fit
        inst = arrow_hermitian_plus_rank_one(16, 0)
        red = block_lanczos(inst.matrix, inst.start, tol=1e-17)
        assert sum(red.block_sizes) == 16
        assert red.basis.shape == red.trid.shape == (16, 16)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            block_lanczos(np.ones((3, 2)), np.ones((3, 1)))

    def test_svd_failure_in_loop_is_numerical_error(self, monkeypatch):
        rng = np.random.default_rng(3)
        H, Z = random_hermitian(rng, 12), crandn(rng, 12, 2)
        svd, calls = np.linalg.svd, []

        def fail_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fail_second)
        with pytest.raises(NumericalError, match="failed to converge for a 12x4 matrix "):
            block_lanczos(H, Z)
        assert len(calls) == 2


class TestKrylovBasis:
    def test_level_zero_is_range(self):
        rng = np.random.default_rng(4)
        M = random_hermitian(rng, 8)
        Z = crandn(rng, 8, 2)
        B = krylov_basis(M, Z, 0)
        Q, s = orthonormal_range(Z)
        assert B.shape[1] == s
        assert subspace_inclusion_residual(B, Q) <= 1e-12
        assert subspace_inclusion_residual(Q, B) <= 1e-12

    def test_identity_stagnates(self):
        rng = np.random.default_rng(5)
        Z = crandn(rng, 7, 2)
        for j in (1, 3, 6):
            assert krylov_basis(np.eye(7, dtype=complex), Z, j).shape[1] == 2

    def test_shift_matrix_fills_space(self):
        # powers of the shift applied to e1 are exactly e1, e2, e3, e4
        S = np.zeros((4, 4), dtype=complex)
        S[np.arange(1, 4), np.arange(3)] = 1.0
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        B = krylov_basis(S, e1, 3)
        assert B.shape[1] == 4
        assert subspace_inclusion_residual(np.eye(4), B) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_basis_change_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        M = crandn(rng, n, n)
        Z = crandn(rng, n, 3)
        R = crandn(rng, 3, 3) + 2 * np.eye(3)
        # the non-normal M's levels fill n by j = 2; the Hermitian part's do not
        for M in (M, hermitian_part(M)):
            for j in (0, 2, 4):
                B1 = krylov_basis(M, Z, j)
                B2 = krylov_basis(M, Z @ R, j)
                assert subspace_inclusion_residual(B1, B2) <= 1e-11
                assert subspace_inclusion_residual(B2, B1) <= 1e-11

    @staticmethod
    def _assert_power_spaces(M, Z, j_max):
        """Level j is range([Z, M Z, ..., M^j Z]), the columns of each power
        scaled by ||M||_F^-j, and has that range's numerical rank."""
        _, dims = krylov_levels(M, Z, j_max)
        powers = [Z]
        for j in range(j_max + 1):
            P = np.column_stack(powers)
            B = krylov_basis(M, Z, j)
            assert B.shape[1] == dims[j] == numerical_rank(P)
            assert subspace_inclusion_residual(B, P) <= 1e-10
            assert subspace_inclusion_residual(P, B) <= 1e-10
            powers.append(M @ powers[-1] / fro(M))

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("part", [hermitian_part, antihermitian_part])
    @pytest.mark.parametrize("seed", range(3))
    def test_levels_are_power_spaces(self, seed, part, width):
        # [M U, M^H U] spans M U when M^H = +-M, so the levels are K_j(M, Z)
        rng = np.random.default_rng(seed)
        M = part(crandn(rng, 12, 12))
        self._assert_power_spaces(M, crandn(rng, 12, width), 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_fourier_levels_stop_at_first_breakdown(self, seed):
        # H = F + F^H has minimal polynomial dividing t (t^2 - 4): the powers
        # stagnate, block_lanczos breaks down and the levels stay put
        inst = fourier_sum(32, seed)
        assert block_lanczos(inst.matrix, inst.start).restarted
        _, dims = krylov_levels(inst.matrix, inst.start, 4)
        assert dims[-1] == dims[-2] < 32
        self._assert_power_spaces(inst.matrix, inst.start, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            krylov_basis(np.eye(3, dtype=complex), np.ones((4, 1)), 1)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            krylov_basis(np.ones((3, 2)), np.ones((3, 1)), 1)


class TestKrylovInclusion:
    def test_hermitian_matrix_trivial(self):
        rng = np.random.default_rng(9)
        A = random_hermitian(rng, 10)
        res = krylov_inclusion_check(A, crandn(rng, 10, 2), 4)
        assert len(res) == 5
        assert max(res) <= 1e-13

    def test_hermitian_plus_rank_one(self):
        inst = arrow_hermitian_plus_rank_one(32, 0)
        Z = np.column_stack(
            [inst.perturbation_data["x"], inst.perturbation_data["y"]]
        )
        res = krylov_inclusion_check(inst.matrix, Z, 5)
        assert max(res) <= 1e-9

    def test_unitary_plus_rank_one_from_commutator_range(self):
        inst = random_unitary_plus_rank_one(32, 0)
        res = krylov_inclusion_check(inst.matrix, inst.certificate.range_basis, 5)
        assert max(res) <= 1e-9

    def test_generic_matrix_has_no_inclusion(self):
        # negative control: a random dense matrix leaks out of the Hermitian
        # Krylov spaces almost surely
        rng = np.random.default_rng(1)
        A = crandn(rng, 16, 16)
        res = krylov_inclusion_check(A, crandn(rng, 16, 2), 3)
        assert max(res) > 1e-3
