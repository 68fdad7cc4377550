import numpy as np
import pytest

from blocktrid import (
    ConicCoefficients,
    block_lanczos,
    ConicFitError,
    ContractError,
    DimensionError,
    LinearVarietyError,
    SingularityError,
    antihermitian_rescaling,
    arrow_hermitian_plus_rank_one,
    certify,
    chebyshev_colleague,
    commutation_identity_residual,
    commutator,
    commutator_residual,
    companion,
    conic_fit,
    curve_normal_plus_rank_one,
    fro,
    hermitian_part,
    krylov_basis,
    leading_part_decomposition,
    orthonormal_range,
    perturbation_hermitian_rank_one,
    perturbation_unitary_rank_one,
    random_unitary_plus_rank_one,
    rotate_leading_form,
    solve_commutator_equation,
    starting_block_curve,
    starting_block_rank_one,
    subspace_inclusion_residual,
)
from blocktrid import matcore

from helpers import crandn


def unit(rng, n):
    g = crandn(rng, n)
    return g / np.linalg.norm(g)


def make_conic(a20, a11, a02, a10=0j, a01=0j, a00=0j):
    return ConicCoefficients(
        a20=a20, a11=a11, a02=a02, a10=a10, a01=a01, a00=a00,
        real_form=(0.0,) * 6,
    )


class TestCertify:
    def test_normal_matrix_zero_perturbation(self):
        A = np.diag([1.0 + 1j, 2.0, -3.0 + 0.5j])
        cert = certify(A, np.zeros((3, 3)), 0)
        assert cert.residual <= 1e-14
        assert cert.range_dim == 0
        assert cert.perturbation_rank == 0
        assert cert.valid

    def test_hermitian_plus_rank_one(self):
        rng = np.random.default_rng(16)
        n = 16
        G = crandn(rng, n, n)
        H = G + G.conj().T
        x, y = unit(rng, n), unit(rng, n)
        A = H + np.outer(x, y.conj())
        C = perturbation_hermitian_rank_one(x, y)
        cert = certify(A, C, 2)
        assert cert.residual <= 1e-12
        assert cert.range_dim <= 4
        assert cert.perturbation_rank <= 2
        assert cert.valid

    def test_shift_leaves_residual_unchanged(self):
        rng = np.random.default_rng(3)
        n = 10
        G = crandn(rng, n, n)
        H = G + G.conj().T
        x, y = unit(rng, n), unit(rng, n)
        A = H + np.outer(x, y.conj())
        C = perturbation_hermitian_rank_one(x, y)
        r1 = certify(A, C, 2).residual
        r2 = certify(A + (0.7 - 0.3j) * np.eye(n), C, 2).residual
        assert abs(r1 - r2) <= 1e-13

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_residual_is_scale_invariant(self, scale):
        rng = np.random.default_rng(5)
        A, C = crandn(rng, 8, 8), crandn(rng, 8, 8)
        r = commutator_residual(A, C)
        assert commutator_residual(scale * A, scale * C) == pytest.approx(r, rel=1e-12)
        assert commutator_residual(np.zeros((8, 8)), C) == 0.0

    def test_rank_bound_in_validity(self):
        rng = np.random.default_rng(8)
        A = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        C = crandn(rng, 4, 4)  # full rank, but A normal so residual involves C
        cert = certify(A, np.zeros((4, 4)), 0)
        assert cert.valid
        cert2 = certify(A, C, 1)
        assert cert2.perturbation_rank > 1
        assert not cert2.valid

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            certify(np.eye(3), np.eye(4), 1)

    def test_range_dim_uses_the_residual_scale(self):
        # A normal matrix plus 1e-12 noise certifies with C = 0: its
        # commutator is about 1e-12 ||A||_F^2, far below the residual's
        # scale, so none of its range counts.
        n = 32
        rng = np.random.default_rng(0)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cert = certify(np.diag(d) + 1e-12 * G, np.zeros((n, n)), 2)
        assert cert.valid
        assert cert.range_dim == 0
        assert cert.range_basis.shape == (n, 0)


    @pytest.mark.parametrize("k", [-1, 2.7, 2.0, True, "2", None])
    def test_claimed_rank_must_be_a_non_negative_integer(self, k):
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(ValueError, match="non-negative integer"):
            certify(A, np.zeros((3, 3)), k)

    def test_numpy_integer_rank_accepted(self):
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        cert = certify(A, np.zeros((3, 3)), np.int64(0))
        assert cert.valid
        assert cert.claimed_rank == 0 and type(cert.claimed_rank) is int


def _certify_instances(family, n):
    """(A, C, k) of the generated instances of ``family`` at size n, seeds 0-4."""
    for seed in range(5):
        if family == "arrow":
            inst = arrow_hermitian_plus_rank_one(n, seed)
        elif family == "unitary":
            inst = random_unitary_plus_rank_one(n, seed)
        elif family == "companion":
            rng = np.random.default_rng([0xC0, seed])
            mod = rng.uniform(0.5, 1.0, n)
            inst = companion(np.concatenate(
                [[1.0], mod * np.exp(2j * np.pi * rng.uniform(size=n))]))
        elif family == "colleague":
            rng = np.random.default_rng([0xC1, seed])
            inst = chebyshev_colleague(np.concatenate([[1.0], rng.uniform(-1.0, 1.0, n)]))
        elif family in ("circle", "line"):
            inst = curve_normal_plus_rank_one(n, family, seed)
        elif family == "full-rank":
            # any invertible A satisfies the relation with the dense
            # C = A^H - A^{-1}, which the rank-8 sketch cannot hold
            A = crandn(np.random.default_rng([0xF0, seed]), n, n)
            yield A, A.conj().T - np.linalg.inv(A), 2
            continue
        else:
            C = np.zeros((n, n), dtype=complex)
            C[0, seed % 2] = 2.0  # dependent (0, 0) and independent (0, 1)
            inst = solve_commutator_equation(C, seed=seed)
        cert = inst.certificate
        yield inst.matrix, cert.perturbation, cert.claimed_rank


def _negative_control(name):
    if name == "normal-plus-noise":
        n = 32
        rng = np.random.default_rng(0)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.diag(d) + 1e-12 * G, np.zeros((n, n)), 2
    rng = np.random.default_rng(20130621)
    dense = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    scale = 1e-6 if name == "dense-scaled" else 1.0
    return scale * dense, np.zeros((64, 64)), 2


_CERTIFY_CASES = [
    (family, n)
    for family in ("arrow", "unitary", "companion", "colleague", "circle", "line")
    for n in (8, 64, 256)
] + [("solved", 8), ("solved", 16), ("solved", 64), ("solved", 256)] + [
    ("arrow", 512), ("unitary", 512), ("full-rank", 64), ("full-rank", 512)]


class TestCertifyAgainstFullSvd:
    """``certify`` against a reference that takes a plain full SVD of
    Delta(A) and of C."""

    @staticmethod
    def fields(A, C, k, tol):
        """(residual, range_dim, perturbation_rank, valid) from full SVDs."""
        A = np.asarray(A, dtype=np.complex128)
        C = np.asarray(C, dtype=np.complex128)
        scale = np.linalg.norm(A) ** 2
        D = A.conj().T - C
        residual = np.linalg.norm(D @ A - A @ D) / scale
        s_delta = np.linalg.svd(A.conj().T @ A - A @ A.conj().T, compute_uv=False)
        s_c = np.linalg.svd(C, compute_uv=False)
        dim = int(np.count_nonzero(s_delta > tol * scale))
        rank_c = int(np.count_nonzero(s_c > tol * s_c[0])) if s_c[0] > 0 else 0
        return residual, dim, rank_c, residual <= tol and rank_c <= k

    @classmethod
    def check(cls, A, C, k):
        A = np.asarray(A, dtype=np.complex128)
        left = np.linalg.svd(A.conj().T @ A - A @ A.conj().T)[0]
        n = A.shape[0]
        for tol in (1e-10, 1e-8):
            residual, dim, rank_c, valid = cls.fields(A, C, k, tol)
            cert = certify(A, C, k, tol)
            assert cert.residual == residual  # bit for bit
            assert cert.range_dim == dim
            assert cert.perturbation_rank == rank_c
            assert cert.valid == valid
            basis = cert.range_basis
            assert basis.shape == (n, dim)
            assert fro(basis.conj().T @ basis - np.eye(dim)) <= 1e-12
            if dim:
                assert subspace_inclusion_residual(basis, left[:, :dim]) <= 1e-10
                assert subspace_inclusion_residual(left[:, :dim], basis) <= 1e-10
            assert cert.range_basis is basis

    @pytest.mark.parametrize("family, n", _CERTIFY_CASES)
    def test_generated_instances(self, family, n):
        for A, C, k in _certify_instances(family, n):
            self.check(A, C, k)

    @pytest.mark.parametrize("name", ["dense", "dense-scaled", "normal-plus-noise"])
    def test_negative_controls(self, name):
        self.check(*_negative_control(name))


class TestCertifyFastPath:
    @pytest.mark.parametrize("family", ["arrow", "unitary", "circle"])
    def test_no_full_spectrum_at_n_128(self, monkeypatch, family):
        """Generated certificates at n = 128 are decided by the sketch: a
        square spectrum of order 64 or more would be the O(n^3) fallback."""
        cases = list(_certify_instances(family, 128))
        checked = matcore._checked_svd

        def guard(M, **kwargs):
            if M.shape[0] == M.shape[1] >= 64:
                raise AssertionError(f"full spectrum of a {M.shape} matrix")
            return checked(M, **kwargs)

        for A, C, k in cases:
            reference = TestCertifyAgainstFullSvd.fields(A, C, k, 1e-10)
            with monkeypatch.context() as patch:
                patch.setattr(matcore, "_checked_svd", guard)
                cert = certify(A, C, k)
            assert (cert.residual, cert.range_dim, cert.perturbation_rank,
                    cert.valid) == reference


class TestHermitianPerturbation:
    def test_equal_vectors_vanish(self):
        rng = np.random.default_rng(0)
        x = unit(rng, 5)
        assert fro(perturbation_hermitian_rank_one(x, x)) <= 1e-15

    def test_canonical_formula(self):
        e1 = np.zeros(3)
        e2 = np.zeros(3)
        e1[0] = 1.0
        e2[1] = 1.0
        C = perturbation_hermitian_rank_one(e1, e2)
        expected = np.outer(e2, e1) - np.outer(e1, e2)
        assert np.array_equal(C, expected)

    def test_exactly_antihermitian(self):
        rng = np.random.default_rng(2)
        C = perturbation_hermitian_rank_one(crandn(rng, 7), crandn(rng, 7))
        assert fro(C + C.conj().T) <= 1e-15 * fro(C)

    def test_commutes_with_antihermitian_part(self):
        rng = np.random.default_rng(16)
        n = 16
        G = crandn(rng, n, n)
        H = G + G.conj().T
        x, y = unit(rng, n), unit(rng, n)
        A = H + np.outer(x, y.conj())
        C = perturbation_hermitian_rank_one(x, y)
        K = A - A.conj().T
        assert fro(K @ C - C @ K) <= 1e-12 * fro(A) * fro(C)


class TestUnitaryPerturbation:
    def test_zero_x_gives_zero(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(crandn(rng, 5, 5))
        C = perturbation_unitary_rank_one(Q, np.zeros(5), unit(rng, 5))
        assert fro(C) == 0.0

    def test_quartic_root_companion(self):
        # companion of z^4 - 1 is the cyclic shift itself: A unitary, C = 0
        inst = companion([1, 0, 0, 0, -1])
        assert fro(inst.perturbation_data["x"]) == 0.0
        assert fro(commutator(inst.matrix)) <= 1e-14
        assert inst.certificate.residual <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_defining_identities(self, seed):
        rng = np.random.default_rng(seed)
        n = 32
        Q, R = np.linalg.qr(crandn(rng, n, n))
        Q = Q * (np.diag(R) / np.abs(np.diag(R)))
        x, y = unit(rng, n), unit(rng, n)
        A = Q + np.outer(x, y.conj())
        C = perturbation_unitary_rank_one(Q, x, y)
        scale = fro(A) ** 2
        eye = np.eye(n)
        assert fro(A.conj().T @ A - C @ A - eye) <= 1e-12 * scale
        assert fro(A @ A.conj().T - A @ C - eye) <= 1e-12 * scale
        assert certify(A, C, 2).residual <= 1e-11

    def test_singular_matrix_rejected(self):
        x = np.zeros(4)
        x[0] = 1.0
        with pytest.raises(SingularityError):
            perturbation_unitary_rank_one(np.eye(4), x, -x)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            perturbation_unitary_rank_one(np.ones((3, 2)), np.ones(3), np.ones(3))


#: every entry point that takes a vector pair, with a 4 x 4 matrix where it
#: needs one
VECTOR_PAIR_ENTRY_POINTS = {
    "perturbation_hermitian_rank_one": perturbation_hermitian_rank_one,
    "perturbation_unitary_rank_one":
        lambda u, v: perturbation_unitary_rank_one(np.eye(4), u, v),
    "starting_block_rank_one": lambda u, v: starting_block_rank_one(np.eye(4), u, v),
    "antihermitian_rescaling": antihermitian_rescaling,
    "starting_block_curve": lambda u, v: starting_block_curve(np.eye(4), u, v),
}


class TestVectorPairs:
    @pytest.mark.parametrize("name", sorted(VECTOR_PAIR_ENTRY_POINTS))
    def test_unequal_lengths_rejected(self, name):
        with pytest.raises(DimensionError):
            VECTOR_PAIR_ENTRY_POINTS[name](np.ones(3), np.ones(4))

    @pytest.mark.parametrize("name", ["perturbation_unitary_rank_one",
                                      "starting_block_rank_one",
                                      "starting_block_curve"])
    def test_length_must_match_the_matrix(self, name):
        with pytest.raises(DimensionError, match="must have length 4, got 3 and 3"):
            VECTOR_PAIR_ENTRY_POINTS[name](np.ones(3), np.ones(3))


class TestStartingBlocks:
    def test_independent_pair_passthrough(self):
        e1 = np.zeros(4)
        e2 = np.zeros(4)
        e1[0] = 1.0
        e2[1] = 1.0
        Z = starting_block_rank_one(np.eye(4), e1, e2)
        assert Z.shape == (4, 2)
        assert np.array_equal(Z[:, 0], e1.astype(complex))

    def test_dependent_pair_collapses(self):
        rng = np.random.default_rng(4)
        u = unit(rng, 6)
        Z = starting_block_rank_one(np.eye(6), u, 3.0 * u)
        assert Z.shape == (6, 1)

    def test_zero_v_collapses(self):
        rng = np.random.default_rng(4)
        u = unit(rng, 6)
        assert starting_block_rank_one(np.eye(6), u, np.zeros(6)).shape == (6, 1)

    def test_zero_u_rejected(self):
        with pytest.raises(ValueError):
            starting_block_rank_one(np.eye(3), np.zeros(3), np.ones(3))

    def test_antihermitian_rescaling_value(self):
        rng = np.random.default_rng(6)
        u = unit(rng, 5)
        alpha = 1.5 - 0.8j
        v = np.conj(alpha) * u
        w = antihermitian_rescaling(u, v)
        assert w == pytest.approx(-1j / np.conj(alpha), abs=1e-13)

    def test_dependent_reduction_tridiagonalizes_within_runs(self):
        # complex scale, larger instance; the closed-form instance reduces
        # in one run, with no breakdown, so A itself is tridiagonal
        C = np.zeros((8, 8), dtype=complex)
        C[0, 0] = 1.0 - 0.5j
        inst = solve_commutator_equation(C, seed=3)
        X = inst.matrix
        u = inst.perturbation_data["u"]
        v = inst.perturbation_data["v"]
        w = antihermitian_rescaling(u, v)
        red = block_lanczos(hermitian_part(w * X), u[:, None])
        assert all(s == 1 for s in red.block_sizes)
        assert not red.breakdown_events
        At = red.basis.conj().T @ X @ red.basis
        off = np.abs(At[np.abs(np.subtract.outer(range(8), range(8))) > 1])
        assert off.max() <= 1e-10 * fro(X)

    def test_antihermitian_rescaling_zero_rejected(self):
        with pytest.raises(ValueError):
            antihermitian_rescaling(np.zeros(3), np.ones(3))


class TestConicFit:
    def test_unit_circle(self):
        pts = np.exp(1j * np.linspace(0.1, 2 * np.pi, 12, endpoint=False))
        c = conic_fit(pts)
        scale = abs(c.a11)
        assert scale > 0
        assert abs(c.a00 + c.a11) <= 1e-12 * scale
        for other in (c.a20, c.a02, c.a10, c.a01):
            assert abs(other) <= 1e-10 * scale
        assert not c.degenerate_fit

    def test_real_axis_gives_line(self):
        c = conic_fit(np.linspace(-1.0, 1.0, 7) + 0j)
        assert max(abs(t) for t in c.real_form[:3]) <= 1e-12
        # a10 z + a01 conj(z) proportional to z - conj(z), an imaginary-unit
        # multiple of (1, -1)
        assert abs(c.a10 + c.a01) <= 1e-12
        assert abs(c.a10.real) <= 1e-12
        assert abs(c.a10.imag) > 0.1

    def test_parabola_with_held_out_points(self):
        t = np.linspace(-1.0, 1.0, 9)
        c = conic_fit(t + 1j * t * t)
        a, b, _, _, e, f = c.real_form
        assert a == pytest.approx(-e, abs=1e-12)
        assert abs(b) <= 1e-12 and abs(f) <= 1e-12
        fresh = np.linspace(-0.95, 0.95, 23)
        assert np.max(np.abs(c.evaluate(fresh + 1j * fresh**2))) <= 1e-10

    def test_few_points_flagged_degenerate(self):
        c = conic_fit(np.array([0.0 + 0j, 1.0 + 0.3j, -0.4 + 1j, 0.2 - 0.7j]))
        assert c.degenerate_fit
        assert c.max_residual <= 1e-12

    def test_identical_points_rejected(self):
        with pytest.raises(ConicFitError):
            conic_fit(np.full(6, 1.0 + 1j))

    def test_generic_points_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ConicFitError):
            conic_fit(crandn(rng, 12))

    def test_conjugate_symmetry(self):
        t = np.linspace(-1.0, 1.0, 8)
        c = conic_fit(t + 1j * t * t)
        assert c.a02 == np.conj(c.a20)
        assert c.a01 == np.conj(c.a10)
        assert c.a11.imag == 0.0
        assert c.a00.imag == 0.0


class TestRotation:
    def test_unit_circle_needs_no_rotation(self):
        c = make_conic(0j, 1.0 + 0j, 0j, a00=-1.0 + 0j)
        rot = rotate_leading_form(c)
        assert rot.theta == 0.0
        assert rot.a20 + rot.a02 - rot.a11 == -1.0

    def test_cancelling_leading_form_rotated(self):
        c = make_conic(1.0 + 0j, 2.0 + 0j, 1.0 + 0j)
        rot = rotate_leading_form(c)
        base = abs(c.a20) + abs(c.a02) + abs(c.a11)
        assert rot.theta != 0.0
        assert abs(rot.a20 + rot.a02 - rot.a11) >= 0.1 * base
        assert rot.a02 == np.conj(rot.a20)

    def test_parabola_violates_condition(self):
        t = np.linspace(-1.0, 1.0, 9)
        c = conic_fit(t + 1j * t * t)
        assert abs(c.a20 + c.a02 - c.a11) <= 1e-12
        rot = rotate_leading_form(c)
        assert abs(rot.a20 + rot.a02 - rot.a11) >= 0.1 * (
            abs(c.a20) + abs(c.a02) + abs(c.a11)
        )

    def test_parabola_rotation_is_closed_form(self):
        t = np.linspace(-1.0, 1.0, 9)
        c = conic_fit(t + 1j * t * t)
        rot = rotate_leading_form(c)
        assert rot.theta == pytest.approx(np.pi / 2, abs=1e-15)
        base = abs(c.a20) + abs(c.a02) + abs(c.a11)
        assert abs(rot.a20 + rot.a02 - rot.a11) == pytest.approx(base, rel=1e-15)

    def test_linear_variety_signal(self):
        c = make_conic(0j, 0j, 0j, a10=1.0 + 0j, a01=1.0 + 0j)
        with pytest.raises(LinearVarietyError):
            rotate_leading_form(c)

    def test_rotation_preserves_curve_membership(self):
        t = np.linspace(-1.0, 1.0, 9)
        pts = t + 1j * t * t
        rot = rotate_leading_form(conic_fit(pts))
        rotated_pts = np.exp(1j * rot.theta) * pts
        assert np.max(np.abs(rot.evaluate(rotated_pts))) <= 1e-10


class TestLeadingPartDecomposition:
    def test_unit_circle_exact(self):
        c = make_conic(0j, 1.0 + 0j, 0j, a00=-1.0 + 0j)
        alpha, beta, gamma = leading_part_decomposition(c, "first")
        assert alpha == pytest.approx(-0.5, abs=1e-15)
        assert beta == pytest.approx(0.5, abs=1e-15)
        assert gamma == pytest.approx(0.0, abs=1e-15)

    def test_pure_z_squared_both_variants(self):
        # alpha, beta, gamma solved by hand from the triangular systems
        c = make_conic(1.0 + 0j, 0j, 0j)
        assert leading_part_decomposition(c, "first") == (0.5 + 0j, 0.5 + 0j, 0j)
        assert leading_part_decomposition(c, "second") == (-0.5 + 0j, 1.0 + 0j, -0.5 + 0j)

    @pytest.mark.parametrize("variant", ["first", "second"])
    def test_identity_at_random_samples(self, variant):
        pts = np.exp(1j * np.linspace(0.2, 2 * np.pi, 11, endpoint=False))
        c = conic_fit(pts)
        alpha, beta, gamma = leading_part_decomposition(c, variant)
        assert abs(alpha) > 0
        rng = np.random.default_rng(12)
        z = crandn(rng, 20)
        zc = z.conj()
        if variant == "first":
            lhs = alpha * (z - zc) * z + beta * (z + zc) * z + gamma * (z + zc) * zc
        else:
            lhs = alpha * (z - zc) * zc + beta * (z + zc) * z + gamma * (z + zc) * zc
        rhs = c.a20 * z * z + c.a11 * z * zc + c.a02 * zc * zc
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_degenerate_leading_form_rejected(self):
        t = np.linspace(-1.0, 1.0, 9)
        c = conic_fit(t + 1j * t * t)  # a20 + a02 - a11 = 0 for this parabola
        with pytest.raises(ContractError):
            leading_part_decomposition(c, "first")

    def test_unknown_variant_rejected(self):
        c = make_conic(0j, 1.0 + 0j, 0j, a00=-1.0 + 0j)
        with pytest.raises(ValueError):
            leading_part_decomposition(c, "third")


class TestStartingBlockCurve:
    def test_parabola_needs_six_columns(self):
        inst = curve_normal_plus_rank_one(12, "parabola_arc", 0)
        u = inst.perturbation_data["u"]
        v = inst.perturbation_data["v"]
        Z = starting_block_curve(inst.matrix, u, v)
        assert Z.shape == (12, 6)
        A = inst.matrix
        cols = [u, v, A.conj().T @ u, A.conj().T @ v, A @ u, A @ v]
        assert np.array_equal(Z, np.column_stack(cols))

    def test_degenerate_directions_accepted(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        A = np.diag(np.arange(1.0, 7.0)).astype(complex)
        Z = starting_block_curve(A, e1, e1)
        _, width = orthonormal_range(Z)
        assert width < 6

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            starting_block_curve(np.eye(4), np.zeros(4), np.ones(4))


class TestCommutationIdentity:
    def test_hermitian_vanishes(self):
        rng = np.random.default_rng(0)
        G = crandn(rng, 6, 6)
        assert commutation_identity_residual(G + G.conj().T, 3) <= 1e-15

    def test_nilpotent_two_by_two(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert commutation_identity_residual(A, 1) <= 1e-15

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_random_matrix(self, j):
        rng = np.random.default_rng(j)
        A = crandn(rng, 16, 16)
        assert commutation_identity_residual(A, j) <= 1e-12

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            commutation_identity_residual(np.eye(3), 0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            commutation_identity_residual(np.ones((2, 3)), 1)


class TestKrylovMembership:
    def test_rank_one_certified_instance(self):
        # A A_H^k u and A^H A_H^k v stay inside the Krylov spaces of A_H
        C = np.zeros((6, 6), dtype=complex)
        C[0, 1] = 1.0
        inst = solve_commutator_equation(C, seed=7)
        A = inst.matrix
        u = inst.perturbation_data["u"]
        v = inst.perturbation_data["v"]
        AH = hermitian_part(A)
        Z = np.column_stack([u, v])
        for k in range(1, 5):
            basis = krylov_basis(AH, Z, k)
            lhs_u = A @ np.linalg.matrix_power(AH, k) @ u
            lhs_v = A.conj().T @ np.linalg.matrix_power(AH, k) @ v
            assert subspace_inclusion_residual(lhs_u, basis) <= 1e-9
            assert subspace_inclusion_residual(lhs_v, basis) <= 1e-9

    def test_rank_two_certified_instance(self):
        inst = random_unitary_plus_rank_one(16, 1)
        A = inst.matrix
        Uu = inst.perturbation_data["unitary"]
        x = inst.perturbation_data["x"]
        y = inst.perturbation_data["y"]
        d = 1 + np.vdot(y, Uu.conj().T @ x)
        Ub = np.column_stack([y, (Uu.conj().T @ x) / d])
        Vb = np.column_stack([x, Uu @ y])
        Z = np.hstack([Ub, Vb])
        AH = hermitian_part(A)
        for j in range(1, 5):
            basis = krylov_basis(AH, Z, j)
            assert (
                subspace_inclusion_residual(
                    A @ np.linalg.matrix_power(AH, j) @ Ub, basis
                )
                <= 1e-9
            )
            assert (
                subspace_inclusion_residual(
                    A.conj().T @ np.linalg.matrix_power(AH, j) @ Vb, basis
                )
                <= 1e-9
            )


class TestSpectralAnnihilation:
    @pytest.mark.parametrize("curve", ["circle", "parabola_arc"])
    def test_fitted_polynomial_annihilates(self, curve):
        inst = curve_normal_plus_rank_one(24, curve, 4)
        lam = inst.perturbation_data["eigenvalues"]
        assert np.max(np.abs(inst.conic.evaluate(lam))) <= 1e-9

    def test_matrix_level_evaluation(self):
        # slow path: evaluate the polyanalytic polynomial on the normal part
        inst = curve_normal_plus_rank_one(16, "circle", 2)
        N = inst.perturbation_data["normal"]
        c = inst.conic
        Nh = N.conj().T
        P = (
            c.a20 * N @ N
            + c.a11 * N @ Nh
            + c.a02 * Nh @ Nh
            + c.a10 * N
            + c.a01 * Nh
            + c.a00 * np.eye(16)
        )
        assert fro(P) <= 1e-9
