from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocktrid
from blocktrid import (
    DimensionError,
    NumericalError,
    antihermitian_part,
    commutator,
    fro,
    hermitian_part,
    numerical_rank,
    orthonormal_range,
    subspace_inclusion_residual,
    svd,
)

from helpers import crandn


def ge_rank(M, tol=1e-10):
    """Gaussian elimination rank oracle with partial pivoting."""
    M = np.array(M, dtype=np.complex128)
    rows, cols = M.shape
    thr = tol * max(1.0, np.abs(M).max())
    r = 0
    for c in range(cols):
        pivot = r + int(np.argmax(np.abs(M[r:, c]))) if r < rows else r
        if r >= rows or abs(M[pivot, c]) <= thr:
            continue
        M[[r, pivot]] = M[[pivot, r]]
        M[r + 1 :] -= np.outer(M[r + 1 :, c] / M[r, c], M[r])
        r += 1
    return r


def gram_schmidt(cols):
    """Classical Gram-Schmidt oracle, drops dependent columns."""
    basis = []
    for v in cols:
        w = np.array(v, dtype=np.complex128)
        for q in basis:
            w = w - q * np.vdot(q, w)
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            basis.append(w / norm)
    return np.column_stack(basis) if basis else np.zeros((len(cols[0]), 0))


class TestParts:
    def test_hermitian_fixed_point(self):
        A = np.array([[2.0, 1 + 1j], [1 - 1j, -3.0]])
        assert np.allclose(hermitian_part(A), A, atol=1e-15)

    def test_antihermitian_maps_to_zero(self):
        A = np.array([[2.0, 1 + 1j], [1 - 1j, -3.0]])
        assert fro(antihermitian_part(A)) == pytest.approx(0.0, abs=1e-15)

    def test_hermitian_of_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(hermitian_part(A), [[0, 0.5], [0.5, 0]], atol=1e-16)

    def test_antihermitian_of_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(antihermitian_part(A), [[0, 0.5], [-0.5, 0]], atol=1e-16)

    def test_antihermitian_fixed_point(self):
        A = 1j * np.eye(3)
        assert np.allclose(antihermitian_part(A), A, atol=1e-16)

    def test_hermitian_of_antihermitian_is_zero(self):
        assert fro(hermitian_part(1j * np.eye(3))) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            hermitian_part(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            antihermitian_part(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            commutator(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hermitian_part(np.array([[np.nan, 0], [0, 1.0]]))


class TestCommutator:
    def test_diagonal_is_normal(self):
        assert fro(commutator(np.diag([1.0, 2.0, 3.0]))) == 0.0

    def test_unitary_is_normal(self):
        n = 8
        grid = np.arange(n)
        F = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
        assert fro(commutator(F)) < 1e-14

    def test_nilpotent_value(self):
        # A^H A - A A^H computed by direct dense arithmetic
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = A.conj().T @ A - A @ A.conj().T
        got = commutator(A)
        assert np.array_equal(got, expected)
        assert np.allclose(got, np.diag([-1.0, 1.0]), atol=1e-16)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hermitian_and_traceless(self, seed):
        rng = np.random.default_rng(seed)
        A = crandn(rng, 6, 6)
        D = commutator(A)
        bound = 1e-13 * fro(A) ** 2
        assert fro(D - D.conj().T) <= bound
        assert abs(np.trace(D)) <= bound

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
    @settings(max_examples=25, deadline=None)
    def test_defect_of_the_relation(self, seed, n):
        rng = np.random.default_rng(seed)
        A, C = crandn(rng, n, n), crandn(rng, n, n)
        Ah = A.conj().T
        assert np.array_equal(commutator(A), Ah @ A - A @ Ah)
        expected = (Ah @ A - A @ Ah) - (C @ A - A @ C)
        bound = 1e-14 * (fro(A) + fro(C)) * fro(A)
        assert fro(commutator(A, C) - expected) <= bound

    def test_mismatched_perturbation_rejected(self):
        with pytest.raises(DimensionError):
            commutator(np.eye(3), np.eye(4))
        with pytest.raises(DimensionError):
            commutator(np.eye(3), np.ones((3, 2)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_part_identity(self, seed):
        rng = np.random.default_rng(seed)
        A = crandn(rng, 5, 5)
        H = hermitian_part(A)
        K = antihermitian_part(A)
        assert np.allclose(H + K, A, atol=1e-15 * max(1.0, fro(A)))
        assert fro(commutator(A) - 2 * (H @ K - K @ H)) <= 1e-12 * fro(A) ** 2


class TestSvd:
    def test_zero_matrix(self):
        res = svd(np.zeros((4, 3)))
        assert res.numerical_rank == 0

    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])
        assert res.numerical_rank == 3

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(7)
        u = crandn(rng, 6)
        v = crandn(rng, 6)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        M = np.outer(u, v.conj())
        res = svd(M)
        assert res.numerical_rank == 1
        assert res.singular_values[0] == pytest.approx(1.0, abs=1e-12)
        assert res.singular_values[1] == pytest.approx(0.0, abs=1e-12)
        assert ge_rank(M) == 1

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_reconstruction_and_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        M = crandn(rng, m, n)
        res = svd(M)
        U, s, V = res.left_vectors, res.singular_values, res.right_vectors
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s >= 0)
        assert fro(U.conj().T @ U - np.eye(m)) <= 1e-12
        assert fro(V.conj().T @ V - np.eye(n)) <= 1e-12
        k = s.size
        recon = U[:, :k] @ np.diag(s) @ V[:, :k].conj().T
        assert fro(M - recon) <= 1e-12 * max(1.0, fro(M))

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            svd(np.eye(2), tol=0.0)

    def test_failed_stack_names_its_shape(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="for a 5x4x3 matrix stack with"):
            blocktrid.matcore._checked_svd(np.ones((5, 4, 3)), compute_uv=False)

    def test_only_matcore_calls_numpy_svd(self):
        package = Path(blocktrid.__file__).parent
        callers = sorted(
            path.name for path in package.glob("*.py")
            if "np.linalg.svd" in path.read_text(encoding="utf-8")
        )
        assert callers == ["matcore.py"]


class TestNumericalRank:
    @pytest.mark.parametrize("rank", range(6))
    def test_matches_svd_rule(self, rank):
        rng = np.random.default_rng(rank)
        M = crandn(rng, 8, rank) @ crandn(rng, rank, 6)
        assert numerical_rank(M) == svd(M).numerical_rank == ge_rank(M) == rank

    def test_relative_to_largest_singular_value(self):
        M = np.diag([1e-20, 1e-31, 0.0])
        assert numerical_rank(M) == 1
        assert numerical_rank(M, tol=1e-12) == 2

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), tol=-1.0)


class TestOrthonormalRange:
    def test_single_canonical_vector(self):
        e1 = np.zeros((4, 1))
        e1[0] = 1.0
        Q, s = orthonormal_range(e1)
        assert s == 1
        assert abs(np.vdot(Q[:, 0], e1[:, 0])) == pytest.approx(1.0, abs=1e-14)

    def test_duplicated_column(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        Q, s = orthonormal_range(np.column_stack([e1, e1]))
        assert s == 1

    def test_orthogonal_pair_matches_gram_schmidt(self):
        rng = np.random.default_rng(3)
        u = crandn(rng, 5)
        u /= np.linalg.norm(u)
        w = crandn(rng, 5)
        v = w - u * np.vdot(u, w)
        v /= np.linalg.norm(v)
        Z = np.column_stack([u, v])
        Q, s = orthonormal_range(Z)
        assert s == 2
        assert fro(Q.conj().T @ Q - np.eye(2)) <= 1e-13
        G = gram_schmidt([u, v])
        assert subspace_inclusion_residual(Q, G) <= 1e-12
        assert subspace_inclusion_residual(G, Q) <= 1e-12

    @pytest.mark.parametrize("rank", range(1, 4))
    def test_tall_block_matches_the_svd_rule(self, rank):
        rng = np.random.default_rng(rank)
        Z = crandn(rng, 300, rank) @ crandn(rng, rank, 3) + 1e-14 * crandn(rng, 300, 3)
        Q, s = orthonormal_range(Z)
        res = svd(Z)
        assert s == res.numerical_rank == rank
        assert Q.shape == (300, rank)
        assert fro(Q.conj().T @ Q - np.eye(rank)) <= 1e-13
        assert subspace_inclusion_residual(Q, res.left_vectors[:, :rank]) <= 1e-12

    def test_zero_matrix_gives_empty_basis(self):
        Q, s = orthonormal_range(np.zeros((3, 2)))
        assert s == 0
        assert Q.shape == (3, 0)


class TestInclusionResidual:
    def test_equal_spaces(self):
        rng = np.random.default_rng(0)
        X = crandn(rng, 6, 2)
        assert subspace_inclusion_residual(X, X) <= 1e-13

    def test_orthogonal_complement(self):
        e1 = np.zeros(3)
        e2 = np.zeros(3)
        e1[0] = 1.0
        e2[1] = 1.0
        assert subspace_inclusion_residual(e1, e2) == pytest.approx(1.0, abs=1e-14)

    def test_contained_after_mixing(self):
        rng = np.random.default_rng(5)
        Y = crandn(rng, 8, 3)
        R = crandn(rng, 3, 3)
        X = Y @ R
        assert subspace_inclusion_residual(X, Y) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_basis_change_invariance(self, seed):
        # mixing the columns of X by any nonsingular matrix keeps the residual zero
        rng = np.random.default_rng(seed)
        Y = crandn(rng, 7, 3)
        X = Y @ crandn(rng, 3, 2)
        R = crandn(rng, 2, 2) + 2 * np.eye(2)
        assert subspace_inclusion_residual(X, Y) <= 1e-11
        assert subspace_inclusion_residual(X @ R, Y) <= 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            subspace_inclusion_residual(np.ones((3, 1)), np.ones((4, 1)))

    def test_zero_y_rejected(self):
        with pytest.raises(ValueError):
            subspace_inclusion_residual(np.ones((3, 1)), np.zeros((3, 1)))
