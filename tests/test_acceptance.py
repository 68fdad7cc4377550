"""Acceptance suite.

One test per acceptance criterion, each asserting the documented tolerances
and printing a PASS line (run with ``pytest -v -s tests/test_acceptance.py``
to see them).  Desk scale throughout: n <= 64, every item well under ten
seconds.
"""

import numpy as np
import pytest

from blocktrid import (
    SolverFailure,
    antihermitian_rescaling,
    arrow_hermitian_plus_rank_one,
    block_lanczos,
    commutation_identity_residual,
    companion,
    conic_fit,
    curve_normal_plus_rank_one,
    fourier_sum,
    fro,
    hermitian_part,
    krylov_inclusion_check,
    leading_part_decomposition,
    off_profile_residual,
    perturbation_unitary_rank_one,
    qr_iteration_tracked,
    random_unitary_plus_rank_one,
    solve_commutator_equation,
    starting_block_rank_one,
)
from blocktrid.almostnormal import ConicCoefficients
from blocktrid.cli import main as cli_main
from blocktrid.mmio import write_matrix

from helpers import crandn


def seeded_companion_32():
    rng = np.random.default_rng(12345)
    coeffs = np.concatenate([[1.0 + 0j], crandn(rng, 32)])
    assert abs(coeffs[-1]) > 0.1
    return companion(coeffs)


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_01_arrow_reduction_from_perturbation_vectors():
    n = 64
    inst = arrow_hermitian_plus_rank_one(n, 1)
    A = inst.matrix
    Z = np.column_stack([inst.perturbation_data["x"], inst.perturbation_data["y"]])
    red = block_lanczos(hermitian_part(A), Z)
    U, T = red.basis, red.trid
    assert max(red.block_sizes) <= 2
    assert fro(U.conj().T @ U - np.eye(n)) <= 1e-11 * np.sqrt(n)
    assert fro(U.conj().T @ hermitian_part(A) @ U - T) <= 1e-10 * fro(A)
    A_trid = U.conj().T @ A @ U
    assert off_profile_residual(A_trid, red.block_sizes) <= 1e-10 * fro(A)
    report("1 arrow n=64: blocks <= 2, unitary/similar/profile residuals")


def test_02_arrow_reduction_from_commutator_range():
    inst = arrow_hermitian_plus_rank_one(64, 1)
    S = inst.certificate.range_basis
    red = block_lanczos(hermitian_part(inst.matrix), S)
    assert red.block_sizes[0] <= 4
    assert all(w <= 2 for w in red.block_sizes[2:])
    report("2 arrow n=64 from commutator range: first <= 4, then <= 2")


def test_03_companion_identities_and_reduction():
    inst = seeded_companion_32()
    A = inst.matrix
    Uu = inst.perturbation_data["unitary"]
    x = inst.perturbation_data["x"]
    y = inst.perturbation_data["y"]
    C = perturbation_unitary_rank_one(Uu, x, y)
    eye = np.eye(32)
    scale = fro(A) ** 2
    assert fro(A.conj().T @ A - C @ A - eye) <= 1e-12 * scale
    assert fro(A @ A.conj().T - A @ C - eye) <= 1e-12 * scale
    red = block_lanczos(hermitian_part(A), inst.certificate.range_basis)
    assert max(red.block_sizes) <= 4
    report("3 companion deg 32: perturbation identities 1e-12, blocks <= 4")


def test_04_curve_normal_parabola_arc():
    inst = curve_normal_plus_rank_one(32, "parabola_arc", 3)
    assert inst.conic.max_residual <= 1e-10
    A, Z = inst.phase * inst.matrix, inst.start
    assert Z.shape[1] == 6
    red = block_lanczos(hermitian_part(A), Z)
    assert red.block_sizes[0] <= 6
    assert all(w <= 4 for w in red.block_sizes[1:])
    A_trid = red.basis.conj().T @ inst.matrix @ red.basis
    assert off_profile_residual(A_trid, red.block_sizes) <= 1e-10 * fro(inst.matrix)
    report("4 parabola arc n=32: conic fit 1e-10, first block <= 6 then <= 4")


def test_05_fourier_sum_breakdown_and_restart():
    H, Z = fourier_sum(16, 1)
    red = block_lanczos(H, Z)
    assert red.restarted
    assert red.breakdown_events[0][0] <= 3
    M = red.basis.conj().T @ H @ red.basis
    assert off_profile_residual(M, red.block_sizes) <= 1e-10 * fro(H)
    for _, col in red.breakdown_events:
        assert np.linalg.norm(M[:col, col:]) <= 1e-10 * fro(H)
    report("5 fourier n=16: breakdown step <= 3, block diagonal restart")


def test_06_krylov_inclusion_suites():
    worst = 0.0
    for seed in range(10):
        inst = arrow_hermitian_plus_rank_one(24, seed)
        worst = max(worst, max(krylov_inclusion_check(inst.matrix, inst.start, 5)))
    for seed in range(10):
        inst = random_unitary_plus_rank_one(32, seed)
        worst = max(
            worst,
            max(krylov_inclusion_check(inst.matrix, inst.certificate.range_basis, 5)),
        )
    for seed in range(10):
        inst = curve_normal_plus_rank_one(24, "parabola_arc", seed)
        A = inst.phase * inst.matrix
        worst = max(worst, max(krylov_inclusion_check(A, inst.start, 5)))
    assert worst <= 1e-9
    report(f"6 krylov inclusion, 30 instances, j <= 5: worst {worst:.2e} <= 1e-9")


def test_07_commutation_identity_unconditional():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = (4, 8, 16)[seed % 3]
        A = crandn(rng, n, n)
        for j in range(1, 5):
            worst = max(worst, commutation_identity_residual(A, j))
    assert worst <= 1e-12
    report(f"7 commutation identity, 20 matrices: worst {worst:.2e} <= 1e-12")


def test_08_leading_part_decomposition():
    circle = ConicCoefficients(
        a20=0j, a11=1.0 + 0j, a02=0j, a10=0j, a01=0j, a00=-1.0 + 0j,
        real_form=(0.5, 0.5, 0.0, 0.0, 0.0, -0.5),
    )
    alpha, beta, gamma = leading_part_decomposition(circle, "first")
    assert abs(alpha - (-0.5)) <= 1e-15
    assert abs(beta - 0.5) <= 1e-15
    assert abs(gamma) <= 1e-15
    pts = np.exp(1j * np.linspace(0.3, 2 * np.pi, 13, endpoint=False))
    fitted = conic_fit(pts)
    rng = np.random.default_rng(88)
    z = crandn(rng, 20)
    zc = z.conj()
    rhs = fitted.a20 * z * z + fitted.a11 * z * zc + fitted.a02 * zc * zc
    for variant in ("first", "second"):
        al, be, ga = leading_part_decomposition(fitted, variant)
        if variant == "first":
            lhs = al * (z - zc) * z + be * (z + zc) * z + ga * (z + zc) * zc
        else:
            lhs = al * (z - zc) * zc + be * (z + zc) * z + ga * (z + zc) * zc
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    report("8 leading form: unit circle (-1/2, 1/2, 0) exact, identities 1e-12")


def test_09_solver_backed_rank_one_instances():
    skipped = []
    C = np.zeros((6, 6), dtype=complex)
    C[0, 1] = 1.0
    try:
        inst = solve_commutator_equation(C, seed=7)
        X = inst.matrix
        Z = starting_block_rank_one(
            X, inst.perturbation_data["u"], inst.perturbation_data["v"]
        )
        assert Z.shape[1] == 2
        red = block_lanczos(hermitian_part(X), Z)
        assert max(red.block_sizes) <= 2
    except SolverFailure:
        skipped.append("independent")
    Cd = np.zeros((4, 4), dtype=complex)
    Cd[0, 0] = 2.0
    try:
        inst = solve_commutator_equation(Cd, seed=0)
        X = inst.matrix
        u = inst.perturbation_data["u"]
        v = inst.perturbation_data["v"]
        Z = starting_block_rank_one(X, u, v)
        assert Z.shape[1] == 1
        w = antihermitian_rescaling(u, v)
        red = block_lanczos(hermitian_part(w * X), Z)
        assert all(s == 1 for s in red.block_sizes)
        A_trid = red.basis.conj().T @ X @ red.basis
        assert off_profile_residual(A_trid, red.block_sizes) <= 1e-8 * fro(X)
    except SolverFailure:
        skipped.append("dependent")
    if skipped:
        pytest.skip(
            "commutator solver did not converge for: " + ", ".join(skipped)
            + " (heuristic, reported not failed)"
        )
    report("9 solver instances: blocks <= 2 independent, scalar dependent")


def test_10_qr_tracking_reduced_companion():
    inst = seeded_companion_32()
    red = block_lanczos(hermitian_part(inst.matrix), inst.certificate.range_basis)
    U = red.basis
    A_trid = U.conj().T @ inst.matrix @ U
    C_trid = U.conj().T @ inst.perturbation_data["C"] @ U
    rep = qr_iteration_tracked(A_trid, C_trid, 30, tol=1e-9)
    assert len(rep.iterations) == 30
    for rec in rep.iterations:
        assert max(rec.off_profile_block_ranks) <= 2
        assert rec.c_residual_estimate <= 1e-8
    assert rep.c_residual <= 1e-8
    assert rep.converged_eigenvalues
    reference = np.linalg.eigvals(A_trid)
    worst = max(
        np.min(np.abs(reference - lam)) for lam in rep.converged_eigenvalues
    )
    assert worst <= 1e-8
    report(
        f"10 qr tracking, 30 steps: ranks <= 2, {len(rep.converged_eigenvalues)} "
        f"eigenvalues converged, worst error {worst:.2e} <= 1e-8"
    )


def test_11_negative_control_verify(tmp_path, capsys):
    rng = np.random.default_rng(99)
    A = crandn(rng, 24, 24)
    Cbad = np.outer(crandn(rng, 24), crandn(rng, 24).conj())
    a_path = tmp_path / "A.mtx"
    c_path = tmp_path / "C.mtx"
    write_matrix(a_path, A)
    write_matrix(c_path, Cbad)
    code = cli_main(["verify", str(a_path), str(c_path), "--k", "1"])
    assert code != 0
    import json

    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["residual"] > 1e-3
    report("11 negative control: verify exits nonzero, residual > 1e-3")
