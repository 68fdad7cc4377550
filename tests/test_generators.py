import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

from blocktrid import generators
from blocktrid import (
    DimensionError,
    GenerationError,
    LinearVarietyError,
    SingularityError,
    SolverFailure,
    arrow_hermitian_plus_rank_one,
    block_lanczos,
    chebyshev_colleague,
    commutator,
    companion,
    curve_normal_plus_rank_one,
    fourier_sum,
    fro,
    hermitian_part,
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

from helpers import crandn


def _always_singular(U, x, y):
    raise SingularityError("inside the margin")


def nearest_match_error(got, reference):
    return max(np.min(np.abs(reference - g)) for g in got)


class TestArrow:
    def test_small_instance_certified(self):
        inst = arrow_hermitian_plus_rank_one(3, 0)
        assert inst.certificate.residual <= 1e-12
        assert inst.certificate.valid

    def test_reconstruction_exact(self):
        inst = arrow_hermitian_plus_rank_one(10, 4)
        H = inst.perturbation_data["hermitian"]
        x = inst.perturbation_data["x"]
        y = inst.perturbation_data["y"]
        rebuilt = H + np.outer(x, y.conj())
        assert fro(inst.matrix - rebuilt) <= 1e-13 * fro(inst.matrix)

    def test_arrow_shape(self):
        inst = arrow_hermitian_plus_rank_one(8, 2)
        H = inst.perturbation_data["hermitian"]
        assert np.all(np.abs(np.diag(H)) > 0)
        assert np.all(np.abs(H[0, 1:]) > 0)
        interior = H[1:, 1:] - np.diag(np.diag(H[1:, 1:]))
        assert fro(interior) == 0.0

    def test_reduction_block_bound(self):
        inst = arrow_hermitian_plus_rank_one(16, 1)
        Z = np.column_stack(
            [inst.perturbation_data["x"], inst.perturbation_data["y"]]
        )
        red = block_lanczos(hermitian_part(inst.matrix), Z)
        assert max(red.block_sizes) <= 2

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            arrow_hermitian_plus_rank_one(2, 0)

    def test_reproducible(self):
        a = arrow_hermitian_plus_rank_one(12, 9)
        b = arrow_hermitian_plus_rank_one(12, 9)
        c = arrow_hermitian_plus_rank_one(12, 10)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)


class TestCompanion:
    def test_quadratic_with_real_roots(self):
        inst = companion([1, 0, -1])  # z^2 - 1
        A = inst.matrix
        assert np.allclose(A, [[0, 1], [1, 0]], atol=1e-15)
        assert fro(commutator(A)) <= 1e-14

    def test_quartic_certificate(self):
        inst = companion([1, 0, 0, 0, 1])  # z^4 + 1
        assert inst.certificate is not None
        assert inst.certificate.residual <= 1e-12

    def test_eigenvalues_are_roots(self):
        coeffs = [1, 0.3, -0.2 + 0.1j, 0, 1.1, -0.7]
        inst = companion(coeffs)
        roots = np.roots(np.asarray(coeffs, dtype=complex))
        eigs = np.linalg.eigvals(inst.matrix)
        assert nearest_match_error(eigs, roots) <= 1e-10

    def test_unitary_part_is_unitary(self):
        inst = companion([1, 0, 0, 0, 0, 0, 0, 1, 1])  # z^8 + z + 1
        Z = inst.perturbation_data["unitary"]
        assert fro(Z.conj().T @ Z - np.eye(8)) <= 1e-14

    def test_octic_reduction_block_bound(self):
        inst = companion([1, 0, 0, 0, 0, 0, 0, 1, 1])
        red = block_lanczos(
            hermitian_part(inst.matrix), inst.certificate.range_basis
        )
        assert max(red.block_sizes) <= 4

    def test_singular_instance_has_no_certificate(self):
        inst = companion([1, 2.0, 0])  # constant coefficient zero
        assert inst.certificate is None

    @pytest.mark.parametrize("c, certified", [
        (1e-13, False), (1e-10, False), (1e-7, False), (1e-5, True),
    ])
    def test_certificate_needs_the_unitary_margin(self, c, certified):
        # |1 + y^H U^H x| = |c|, against the unitary class's 1e-6 margin
        inst = companion([1, 0.3, -0.2, c])
        assert ("C" in inst.perturbation_data) is certified
        if certified:
            assert inst.certificate.valid and inst.certificate.residual <= 1e-10
        else:
            assert inst.certificate is None

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            companion([2, 0, 1])

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            companion([1, 1])


class TestChebyshevColleague:
    def test_pure_basis_polynomial_is_hermitian(self):
        inst = chebyshev_colleague([1.0, 0.0, 0.0])  # T_2 alone
        assert fro(np.asarray(inst.perturbation_data["x"])) == 0.0
        assert fro(commutator(inst.matrix)) <= 1e-14
        lam = np.sort(np.linalg.eigvals(inst.matrix).real)
        assert np.allclose(lam, [-np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_seeded_degree_eight_certified(self):
        rng = np.random.default_rng(2)
        coeffs = np.concatenate([[1.0], rng.standard_normal(8)])
        inst = chebyshev_colleague(coeffs)
        assert inst.family == "hermitian_h1"
        assert inst.certificate.residual <= 1e-12

    def test_seeded_reduction_block_bound(self):
        rng = np.random.default_rng(2)
        coeffs = np.concatenate([[1.0], rng.standard_normal(8)])
        inst = chebyshev_colleague(coeffs)
        Z = np.column_stack(
            [inst.perturbation_data["x"], inst.perturbation_data["y"]]
        )
        red = block_lanczos(hermitian_part(inst.matrix), Z)
        assert max(red.block_sizes) <= 2

    def test_eigenvalues_match_chebyshev_roots(self):
        coeffs = [1.0, 0.5, -0.3, 0.2, 0.7, -0.1]
        inst = chebyshev_colleague(coeffs)
        roots = cheb.chebroots(np.asarray(coeffs[::-1], dtype=complex))
        eigs = np.linalg.eigvals(inst.matrix)
        assert nearest_match_error(eigs, roots) <= 1e-8

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_colleague([1.0, 0.5])

    def test_zero_leading_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_colleague([0.0, 1.0, 1.0])


class TestFourierSum:
    def test_fourier_matrix_unitary(self):
        inst = fourier_sum(16, 0)
        H, Z = inst.matrix, inst.start
        n = 16
        grid = np.arange(n)
        F = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
        assert fro(F.conj().T @ F - np.eye(n)) <= 1e-13
        assert fro(H - (F + F.conj().T)) == 0.0
        assert np.allclose(Z[:, 1], F @ Z[:, 0], atol=1e-15)
        assert np.array_equal(Z[:, 0], inst.perturbation_data["z"])
        assert inst.certificate is None

    @pytest.mark.parametrize("n", [4, 16])
    def test_breakdown_within_three_steps(self, n):
        inst = fourier_sum(n, 1)
        red = block_lanczos(inst.matrix, inst.start)
        assert red.restarted
        assert red.breakdown_events[0][0] <= 3

    def test_block_diagonal_after_restart(self):
        inst = fourier_sum(16, 1)
        H = inst.matrix
        red = block_lanczos(H, inst.start)
        M = red.basis.conj().T @ H @ red.basis
        for _, col in red.breakdown_events:
            assert np.linalg.norm(M[:col, col:]) <= 1e-10 * fro(H)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            fourier_sum(6 + 1, 0)

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            fourier_sum(2, 0)


class TestCurveNormal:
    def test_circle_conic_ratio(self):
        inst = curve_normal_plus_rank_one(16, "circle", 0)
        c = inst.conic
        assert abs(c.a00 + c.a11) <= 1e-10 * abs(c.a11)
        assert inst.conic.max_residual <= 1e-10

    def test_circle_certificate(self):
        inst = curve_normal_plus_rank_one(16, "circle", 0)
        assert inst.certificate is not None
        assert inst.certificate.residual <= 1e-10

    @pytest.mark.parametrize(
        "n, seed",
        [(16, 2)] + [(64, s) for s in (30, 32, 35, 39, 51, 59, 70, 93, 113, 119,
                                       124, 131, 137, 138, 141, 145)],
    )
    def test_line_routes_to_hermitian_path(self, n, seed):
        inst = curve_normal_plus_rank_one(n, "line", seed)
        with pytest.raises(LinearVarietyError):
            rotate_leading_form(inst.conic)
        assert inst.certificate is not None
        assert inst.certificate.residual <= 1e-10

    def test_parabola_reduction_shrinks_to_four(self):
        inst = curve_normal_plus_rank_one(16, "parabola_arc", 3)
        red = block_lanczos(inst.matrix, inst.start)
        assert red.block_sizes[0] <= 6
        assert all(w <= 4 for w in red.block_sizes[1:])

    def test_normal_part_is_normal(self):
        inst = curve_normal_plus_rank_one(12, "parabola_arc", 1)
        N = inst.perturbation_data["normal"]
        assert fro(commutator(N)) <= 1e-12

    def test_singular_circle_keeps_its_start(self, monkeypatch):
        ref = curve_normal_plus_rank_one(12, "circle", 3)
        monkeypatch.setattr(generators, "perturbation_unitary_rank_one", _always_singular)
        inst = curve_normal_plus_rank_one(12, "circle", 3)
        assert inst.certificate is None
        assert "C" not in inst.perturbation_data
        assert np.array_equal(inst.matrix, ref.matrix)
        assert np.array_equal(inst.start, ref.start)
        A, u, v = inst.matrix, inst.perturbation_data["u"], inst.perturbation_data["v"]
        want = np.column_stack([u, v, A.conj().T @ u, A @ v])
        assert fro(inst.start - want) <= 1e-14 * fro(want)

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            curve_normal_plus_rank_one(8, "hyperbola", 0)

    def test_reproducible(self):
        a = curve_normal_plus_rank_one(10, "circle", 5)
        b = curve_normal_plus_rank_one(10, "circle", 5)
        assert np.array_equal(a.matrix, b.matrix)


class TestRandomUnitary:
    def test_minimal_size_certified(self):
        inst = random_unitary_plus_rank_one(2, 0)
        assert inst.certificate.residual <= 1e-12

    def test_reduction_block_bound(self):
        inst = random_unitary_plus_rank_one(64, 5)
        red = block_lanczos(
            hermitian_part(inst.matrix), inst.certificate.range_basis
        )
        assert max(red.block_sizes) <= 4

    def test_unitary_factor(self):
        inst = random_unitary_plus_rank_one(12, 3)
        U = inst.perturbation_data["unitary"]
        assert fro(U.conj().T @ U - np.eye(12)) <= 1e-13

    def test_reproducible(self):
        a = random_unitary_plus_rank_one(8, 1)
        b = random_unitary_plus_rank_one(8, 1)
        assert np.array_equal(a.matrix, b.matrix)

    def test_singular_draws_take_the_next_stream(self, monkeypatch):
        # the first two draws fall within the singularity margin
        real = generators.perturbation_unitary_rank_one
        calls = []

        def singular_twice(U, x, y):
            calls.append(U)
            if len(calls) <= 2:
                raise SingularityError("inside the margin")
            return real(U, x, y)

        monkeypatch.setattr(generators, "perturbation_unitary_rank_one", singular_twice)
        inst = random_unitary_plus_rank_one(8, 4)
        rng = generators._rng("unitary_u1", 4, (2,))
        U = generators._haar_unitary(rng, 8)
        x = generators._unit_vector(rng, 8)
        y = generators._unit_vector(rng, 8)
        assert len(calls) == 3
        assert np.array_equal(inst.perturbation_data["unitary"], U)
        assert np.array_equal(inst.matrix, U + np.outer(x, y.conj()))
        assert np.array_equal(inst.perturbation_data["C"], real(U, x, y))
        assert inst.certificate.valid

    def test_always_singular_names_the_seed(self, monkeypatch):
        monkeypatch.setattr(generators, "perturbation_unitary_rank_one", _always_singular)
        with pytest.raises(GenerationError, match=r"16 attempts \(seed 7\)"):
            random_unitary_plus_rank_one(8, 7)


class TestCommutatorSolver:
    def test_zero_perturbation_yields_normal(self):
        inst = solve_commutator_equation(np.zeros((5, 5)), seed=1)
        assert fro(commutator(inst.matrix)) <= 1e-13 * max(
            1.0, fro(inst.matrix) ** 2
        )
        assert inst.certificate.residual <= 1e-13

    def test_independent_rank_one(self):
        C = np.zeros((6, 6), dtype=complex)
        C[0, 1] = 1.0
        inst = solve_commutator_equation(C, seed=7)
        X = inst.matrix
        gap = fro(commutator(X) - (C @ X - X @ C))
        assert gap <= 1e-10 * max(1.0, fro(X) ** 2)
        assert inst.certificate.valid

    def test_rank_two_rejected(self):
        with pytest.raises(ValueError):
            solve_commutator_equation(np.diag([1.0, 2.0, 0.0]))

    def test_large_sizes_certify(self):
        for n in (17, 256):
            for c_kind in ("independent", "dependent"):
                cert = _solved(n, 0, c_kind).certificate
                assert cert.valid and cert.perturbation_rank == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            solve_commutator_equation(np.zeros((3, 4)))

    @pytest.mark.parametrize("n", [2, 5, 12])
    @pytest.mark.parametrize("c_kind", ["independent", "dependent"])
    def test_operands_rebuild_the_instance(self, c_kind, n):
        """X is the class's formula of the recorded operands, bit for bit,
        and C is the class's perturbation of them (times conj(w) for the
        rescaled Hermitian class)."""
        rng = np.random.default_rng([n, c_kind == "dependent"])
        a, b = crandn(rng, n), crandn(rng, n)
        if c_kind == "dependent":
            b = (0.3 - 1.7j) * a
        C = np.outer(a, b.conj())
        inst = solve_commutator_equation(C, seed=n)
        data = inst.perturbation_data
        assert np.array_equal(data["C"], C)
        x, y = data["x"], data["y"]
        if c_kind == "dependent":
            assert list(data) == ["u", "v", "hermitian", "x", "y", "w", "C"]
            H = data["hermitian"]
            assert np.array_equal(H, H.conj().T)
            rebuilt = data["w"] * (H + np.outer(x, y.conj()))
            formula = np.conj(data["w"]) * perturbation_hermitian_rank_one(x, y)
        else:
            assert list(data) == ["u", "v", "unitary", "x", "y", "C"]
            U = data["unitary"]
            assert fro(U.conj().T @ U - np.eye(n)) <= 1e-14 * np.sqrt(n)
            rebuilt = U + np.outer(x, y.conj())
            formula = perturbation_unitary_rank_one(U, x, y)
        assert np.array_equal(inst.matrix, rebuilt)
        assert fro(formula - C) <= 1e-14 * fro(C)
        assert inst.start.shape[1] == (1 if c_kind == "dependent" else 2)

    @pytest.mark.parametrize("eps", [10.0**-k for k in range(4, 13)])
    def test_near_parallel_certifies_or_raises(self, eps):
        """Between the kinds, a call returns a valid certificate or raises."""
        rng = np.random.default_rng(32)
        a = crandn(rng, 32)
        a /= np.linalg.norm(a)
        z = crandn(rng, 32)
        z -= a * np.vdot(a, z)
        z /= np.linalg.norm(z)
        C = (2 + 1j) * np.outer(a, (np.cos(eps) * a + np.sin(eps) * z).conj())
        try:
            inst = solve_commutator_equation(C, seed=0)
        except SolverFailure:
            return
        assert inst.certificate.valid

    def test_near_parallel_at_start_cut_takes_independent_kind(self):
        """b at an angle of 1e-8 to a passes the start's cut as dependent,
        where the dependent X certifies only to about that angle; the
        independent X then certifies and reduces with blocks of 2."""
        rng = np.random.default_rng(32)
        a = crandn(rng, 32)
        a /= np.linalg.norm(a)
        z = crandn(rng, 32)
        z -= a * np.vdot(a, z)
        z /= np.linalg.norm(z)
        eps = 1e-8
        C = (2 + 1j) * np.outer(a, (np.cos(eps) * a + np.sin(eps) * z).conj())
        inst = solve_commutator_equation(C, seed=0)
        assert inst.certificate.valid
        assert inst.start.shape[1] == 2
        assert list(inst.perturbation_data) == ["u", "v", "unitary", "x", "y", "C"]
        red = block_lanczos(inst.matrix, inst.start)
        assert max(red.block_sizes) <= 2
        assert red.breakdown_events == ()


def _solved(n, seed, c_kind):
    C = np.zeros((n, n), dtype=complex)
    if c_kind == "dependent":
        C[0, 0] = 2.0
    else:
        C[0, 1] = 1.0
    return solve_commutator_equation(C, seed=seed)


def _family_rule(inst):
    """Starting block of a Hermitian, curve or solved instance, derived from
    its ingredients by the paper's rule for its structure."""
    A, data = inst.matrix, inst.perturbation_data
    if inst.family in ("arrow_h1", "hermitian_h1"):
        return np.column_stack([data["x"], data["y"]])
    u, v = data["u"], data["v"]
    if inst.family == "solved_commutator":
        return starting_block_rank_one(A, u, v)
    if np.allclose(np.abs(data["eigenvalues"]), 1.0):  # N unitary
        return np.column_stack([u, v, (u.conj() @ A).conj(), A @ v])
    try:
        rotate_leading_form(inst.conic)
    except LinearVarietyError:
        return np.column_stack([u, v])
    return starting_block_curve(A, u, v)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: arrow_hermitian_plus_rank_one(24, 3), id="arrow"),
    pytest.param(lambda: chebyshev_colleague(
        np.concatenate([[1.0], np.random.default_rng(4).uniform(-1, 1, 24)])),
        id="colleague"),
    pytest.param(lambda: curve_normal_plus_rank_one(24, "circle", 1), id="circle"),
    pytest.param(lambda: curve_normal_plus_rank_one(16, "line", 2), id="line"),
    pytest.param(lambda: curve_normal_plus_rank_one(24, "parabola_arc", 3),
                 id="parabola"),
    pytest.param(lambda: _solved(6, 7, "independent"), id="solved-independent"),
    pytest.param(lambda: _solved(4, 0, "dependent"), id="solved-dependent"),
])
def test_start_is_the_family_rule(build):
    inst = build()
    assert np.array_equal(inst.start, _family_rule(inst))


def _companion_of_degree(n, seed):
    rng = np.random.default_rng(seed)
    mod = rng.uniform(0.5, 1.0, n)
    return companion(np.concatenate([[1.0], mod * np.exp(2j * np.pi * rng.uniform(size=n))]))


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("build", [
    pytest.param(lambda n: random_unitary_plus_rank_one(n, 2), id="unitary"),
    pytest.param(lambda n: _companion_of_degree(n, 5), id="companion"),
    pytest.param(lambda n: curve_normal_plus_rank_one(n, "circle", 2), id="circle"),
])
def test_unitary_start_spans_commutator_range(build, n):
    """[x, y, A^H x, A y] spans the commutator range and reduces A into the
    same block sizes as the range's orthonormal basis."""
    inst = build(n)
    S, dim = orthonormal_range(commutator(inst.matrix))
    S = S[:, : min(dim, 4)]
    Z = orthonormal_range(inst.start)[0]
    assert subspace_inclusion_residual(Z, S) <= 1e-12
    assert subspace_inclusion_residual(S, Z) <= 1e-12
    A = inst.matrix
    assert block_lanczos(A, inst.start).block_sizes == block_lanczos(A, S).block_sizes


@pytest.mark.parametrize("build, rule", [
    pytest.param(lambda: random_unitary_plus_rank_one(2, 0), "commutator", id="unitary-2"),
    pytest.param(lambda: random_unitary_plus_rank_one(3, 1), "commutator", id="unitary-3"),
    pytest.param(lambda: companion([1, 0.5, 0.3]), "commutator", id="companion-2"),
    pytest.param(lambda: companion([1, 0.5, 0.3, 0.2]), "commutator", id="companion-3"),
    pytest.param(lambda: curve_normal_plus_rank_one(4, "circle", 0), "commutator",
                 id="circle-4"),
    pytest.param(lambda: curve_normal_plus_rank_one(4, "parabola_arc", 0), "curve",
                 id="parabola-4"),
    pytest.param(lambda: curve_normal_plus_rank_one(5, "parabola_arc", 1), "curve",
                 id="parabola-5"),
])
def test_start_wider_than_n_is_its_range(build, rule):
    """At the smallest sizes the family's block can have as many columns as
    rows or more; block_lanczos takes its range as the first block."""
    inst = build()
    n = inst.matrix.shape[0]
    if rule == "commutator":
        S, dim = orthonormal_range(commutator(inst.matrix))
        S = S[:, : min(dim, 4)]
        data = inst.perturbation_data
        x, y = (data["x"], data["y"]) if "x" in data else (data["u"], data["v"])
        rule_block = np.column_stack([x, y, inst.matrix.conj().T @ x, inst.matrix @ y])
    else:
        S = rule_block = _family_rule(inst)
    assert subspace_inclusion_residual(inst.start, rule_block) <= 1e-12
    assert subspace_inclusion_residual(rule_block, inst.start) <= 1e-12
    assert subspace_inclusion_residual(S, inst.start) <= 1e-12
    red = block_lanczos(inst.matrix, inst.start)
    assert sum(red.block_sizes) == n
