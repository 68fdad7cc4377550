"""Seeded constructors for every matrix family the library handles.

Randomness comes from numpy's default PCG64 generator, seeded with a
SeedSequence over (family code, seed, extra stream keys), so every instance is
bit-reproducible from its parameters on a fixed numpy version.  Complex
Gaussians are (standard_normal + 1j * standard_normal) / sqrt(2); Haar
unitaries are the QR factor of a complex Gaussian matrix with the phases of
diag(R) absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .almostnormal import (
    CommutatorCertificate,
    ConicCoefficients,
    certify,
    conic_fit,
    perturbation_hermitian_rank_one,
    perturbation_unitary_rank_one,
    starting_block_curve,
    starting_block_rank_one,
)
from .errors import GenerationError, SingularityError, SolverFailure
from .matcore import as_square, commutator, fro, svd
from .structure import _envelope_mask

FAMILIES = (
    "arrow_h1",
    "hermitian_h1",
    "unitary_u1",
    "companion",
    "chebyshev_colleague",
    "fourier_sum",
    "curve_normal_h1",
    "solved_commutator",
)

_FAMILY_CODES = {name: i + 1 for i, name in enumerate(FAMILIES)}

CURVES = ("circle", "line", "parabola_arc")

#: Damped Gauss-Newton steps per attempt of :func:`solve_commutator_equation`.
GAUSS_NEWTON_ITERS = 50


@dataclass(frozen=True)
class GeneratedInstance:
    """A concrete matrix with its structural data, certificate and start.

    ``perturbation_data`` holds the named vectors and factors of the
    structural definition (for example ``x``, ``y`` and the Hermitian part for
    a Hermitian-plus-rank-one instance), so the matrix can be rebuilt exactly.

    ``start`` (n x l) is the family's starting block, as the family's rule
    gives it, so l can exceed n at the smallest sizes:
    ``block_lanczos(matrix, start)`` block tridiagonalizes ``matrix`` within
    the family's block bound.  ``start`` is None only for the
    zero-perturbation :func:`solve_commutator_equation`.
    """

    matrix: np.ndarray
    family: str
    perturbation_data: dict
    certificate: CommutatorCertificate | None
    seed: int
    start: np.ndarray | None
    conic: ConicCoefficients | None = field(default=None)


def _rng(family: str, seed: int, extra: tuple[int, ...] = ()) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_FAMILY_CODES[family], int(seed), *extra])
    )


def _crandn(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _unit_vector(rng, n: int) -> np.ndarray:
    g = _crandn(rng, n)
    return g / np.linalg.norm(g)


def _haar_unitary(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(_crandn(rng, n, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _unitary_start(A, x, y) -> np.ndarray:
    """[x, y, A^H x, A y] for A = U + x y^H, U unitary: since U^H x = A^H x -
    y ||x||^2 and U y = A y - x ||y||^2, it spans {x, y, U^H x, U y}, which
    contains range(A^H A - A A^H).  O(n^2), without forming A^H."""
    return np.column_stack([x, y, (x.conj() @ A).conj(), A @ y])


def arrow_hermitian_plus_rank_one(n: int, seed: int) -> GeneratedInstance:
    """Real arrow matrix (nonzero diagonal plus first row and column) with a
    random rank-one modification x y^H and its antihermitian perturbation C."""
    if n < 3:
        raise ValueError(f"arrow instances need n >= 3, got {n}")
    rng = _rng("arrow_h1", seed)
    diag = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    wing = rng.uniform(0.5, 2.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    H = np.diag(diag).astype(np.complex128)
    H[0, 1:] = wing
    H[1:, 0] = wing
    x = _unit_vector(rng, n)
    y = _unit_vector(rng, n)
    A = H + np.outer(x, y.conj())
    C = perturbation_hermitian_rank_one(x, y)
    return GeneratedInstance(
        matrix=A,
        family="arrow_h1",
        perturbation_data={"hermitian": H, "x": x, "y": y, "C": C},
        certificate=certify(A, C, 2),
        seed=seed,
        start=np.column_stack([x, y]),
    )


def companion(coeffs) -> GeneratedInstance:
    """Frobenius companion matrix of a monic polynomial, split as a cyclic
    shift (unitary) plus a rank-one correction in the last column.

    ``coeffs`` lists the coefficients leading-first, so ``[1, 0, 0, 0, 1]``
    is z^4 + 1.  When the constant coefficient is nonzero the matrix is
    invertible and carries a closed-form perturbation certificate; otherwise
    the certificate is unavailable.
    """
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size < 3:
        raise ValueError("polynomial degree must be at least 2")
    if abs(c[0] - 1.0) > 1e-14:
        raise ValueError("polynomial must be monic (leading coefficient 1)")
    d = c.size - 1
    shift = np.zeros((d, d), dtype=np.complex128)
    shift[np.arange(1, d), np.arange(d - 1)] = 1.0
    shift[0, d - 1] = 1.0
    last_col = -c[1:][::-1]
    x = last_col.copy()
    x[0] -= 1.0
    y = np.zeros(d, dtype=np.complex128)
    y[d - 1] = 1.0
    A = shift + np.outer(x, y.conj())
    cert = None
    if abs(c[-1]) > 1e-12:
        C = perturbation_unitary_rank_one(shift, x, y)
        cert = certify(A, C, 2)
    data = {"unitary": shift, "x": x, "y": y}
    if cert is not None:
        data["C"] = cert.perturbation
    return GeneratedInstance(
        matrix=A,
        family="companion",
        perturbation_data=data,
        certificate=cert,
        seed=0,
        start=_unitary_start(A, x, y),
    )


def chebyshev_colleague(coeffs) -> GeneratedInstance:
    """Colleague matrix of a polynomial given in the Chebyshev basis.

    ``coeffs`` lists Chebyshev coefficients leading-first.  After a diagonal
    similarity the matrix is a real symmetric tridiagonal multiplication
    matrix plus a rank-one correction in the last column, so the family is
    Hermitian plus rank one with certificate C = y x^H - x y^H.
    """
    a = np.asarray(coeffs, dtype=np.complex128).ravel()
    if a.size < 3:
        raise ValueError("polynomial degree must be at least 2")
    if abs(a[0]) <= 1e-14:
        raise ValueError("leading Chebyshev coefficient must be nonzero")
    d = a.size - 1
    off = np.full(d - 1, 0.5)
    off[0] = 1.0 / np.sqrt(2.0)
    H = (np.diag(off, 1) + np.diag(off, -1)).astype(np.complex128)
    ascending = a[::-1]
    w = -ascending[:d] / (2.0 * a[0])
    x = w.copy()
    x[0] *= np.sqrt(2.0)
    y = np.zeros(d, dtype=np.complex128)
    y[d - 1] = 1.0
    A = H + np.outer(x, y.conj())
    C = perturbation_hermitian_rank_one(x, y)
    return GeneratedInstance(
        matrix=A,
        family="hermitian_h1",
        perturbation_data={"hermitian": H, "x": x, "y": y, "C": C},
        certificate=certify(A, C, 2),
        seed=0,
        start=np.column_stack([x, y]),
    )


def fourier_sum(n: int, seed: int) -> GeneratedInstance:
    """H = F + F^H for the unitary discrete Fourier matrix F of even order n,
    with the two-column starting block [z, F z] for a seeded random z, which
    ``perturbation_data`` holds.  H is Hermitian and has no certificate.

    H has minimal polynomial dividing t (t^2 - 4), so the reduction breaks
    down within the first few steps from any start.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"order must be even and at least 4, got {n}")
    rng = _rng("fourier_sum", seed)
    grid = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
    H = F + F.conj().T
    z = _unit_vector(rng, n)
    return GeneratedInstance(
        matrix=H,
        family="fourier_sum",
        perturbation_data={"z": z},
        certificate=None,
        seed=seed,
        start=np.column_stack([z, F @ z]),
    )


def curve_normal_plus_rank_one(n: int, curve: str, seed: int) -> GeneratedInstance:
    """N + u v^H with N normal and its spectrum on a named degree-2 curve.

    ``curve`` is one of ``circle`` (unit circle, N unitary), ``line`` (real
    axis, N Hermitian) or ``parabola_arc`` (t + i t^2 for t equispaced in
    [-1, 1]).  The eigenvalue set always refits its curve with residual at
    the default tolerance.  Circle and line instances carry closed-form
    certificates; parabola instances have none.
    """
    if n < 4:
        raise ValueError(f"curve instances need n >= 4, got {n}")
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; expected one of {CURVES}")
    rng = _rng("curve_normal_h1", seed, (CURVES.index(curve),))
    if curve == "circle":
        lam = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    elif curve == "line":
        lam = rng.uniform(-1.0, 1.0, n).astype(np.complex128)
    else:
        t = np.linspace(-1.0, 1.0, n)
        lam = t + 1j * t * t
    Q = _haar_unitary(rng, n)
    N = (Q * lam[None, :]) @ Q.conj().T
    u = _unit_vector(rng, n)
    v = _unit_vector(rng, n)
    A = N + np.outer(u, v.conj())
    cert = None
    if curve == "circle":
        try:
            C = perturbation_unitary_rank_one(N, u, v, tol=1e-6)
            cert = certify(A, C, 2)
        except SingularityError:
            cert = None
    elif curve == "line":
        C = perturbation_hermitian_rank_one(u, v)
        cert = certify(A, C, 2)
    data = {"normal": N, "u": u, "v": v, "eigenvalues": lam}
    if cert is not None:
        data["C"] = cert.perturbation
    conic = conic_fit(lam)
    if conic.real_form[:3] == (0.0, 0.0, 0.0):
        # conic_fit zeroes the quadratic part of a line: A is Hermitian plus
        # rank one, up to a shift and a phase
        start = np.column_stack([u, v])
    else:
        start = starting_block_curve(A, u, v, conic)
    return GeneratedInstance(
        matrix=A,
        family="curve_normal_h1",
        perturbation_data=data,
        certificate=cert,
        seed=seed,
        start=start,
        conic=conic,
    )


def random_unitary_plus_rank_one(n: int, seed: int) -> GeneratedInstance:
    """Haar unitary plus a random rank-one modification x y^H.

    Draws are retried with a fresh stream while the invertibility margin
    |1 + y^H U^H x| stays below 1e-6; sixteen failures raise
    ``GenerationError``.
    """
    if n < 2:
        raise ValueError(f"unitary instances need n >= 2, got {n}")
    for attempt in range(16):
        rng = _rng("unitary_u1", seed, (attempt,))
        U = _haar_unitary(rng, n)
        x = _unit_vector(rng, n)
        y = _unit_vector(rng, n)
        if abs(1.0 + np.vdot(y, U.conj().T @ x)) > 1e-6:
            break
    else:
        raise GenerationError(
            f"no invertible unitary-plus-rank-one draw in 16 attempts (seed {seed})"
        )
    A = U + np.outer(x, y.conj())
    C = perturbation_unitary_rank_one(U, x, y, tol=1e-6)
    cert = certify(A, C, 2)
    return GeneratedInstance(
        matrix=A,
        family="unitary_u1",
        perturbation_data={"unitary": U, "x": x, "y": y, "C": C},
        certificate=cert,
        seed=seed,
        start=_unitary_start(A, x, y),
    )


def _vec(M):
    return M.reshape(-1, order="F")


def _unvec(p, n):
    return p.reshape((n, n), order="F")


def _real_residual(X, C):
    g = _vec(commutator(X, C))
    return np.concatenate([g.real, g.imag])


def _gauss_newton(X, C):
    """Damped Gauss-Newton on the real parametrization of the commutator
    equation.  Returns (X, converged).

    Convergence means a residual at most 1e-10 * max(1, ||X||_F^2), but the
    iteration keeps polishing down to the 1e-13 level so that converged
    instances carry their block structure well below the rank tolerances.
    """
    n = X.shape[0]
    eye = np.eye(n)
    q = np.arange(n * n)
    transpose = (q % n) * n + q // n  # vec(M^T) = vec(M)[transpose]

    def done(M):
        return fro(commutator(M, C)) <= 1e-10 * max(1.0, fro(M) ** 2)

    for _ in range(GAUSS_NEWTON_ITERS):
        if fro(commutator(X, C)) <= 1e-13 * max(1.0, fro(X) ** 2):
            return X, True
        J1 = (
            np.kron(eye, X.conj().T)
            - np.kron(X.conj(), eye)
            - np.kron(eye, C)
            + np.kron(C.T, eye)
        )
        J2 = (np.kron(X.T, eye) - np.kron(eye, X))[:, transpose]
        A_ = J1 + J2
        B_ = J1 - J2
        J = np.block([[A_.real, -B_.imag], [A_.imag, B_.real]])
        r = _real_residual(X, C)
        g = J.T @ r
        Hmat = J.T @ J + 1e-8 * np.eye(J.shape[1])
        step = -np.linalg.solve(Hmat, g)
        base = np.linalg.norm(r)
        t = 1.0
        improved = False
        while t >= 2.0**-20:
            Xt = X + _unvec(
                t * (step[: n * n] + 1j * step[n * n :]), n
            )
            if np.linalg.norm(_real_residual(Xt, C)) < base:
                X = Xt
                improved = True
                break
            t /= 2.0
        if not improved:
            break
    return X, done(X)


def _block_tridiagonal_init(rng, n: int) -> np.ndarray:
    X = _crandn(rng, n, n)
    X[~_envelope_mask((2,) * (n // 2) + (1,) * (n % 2), n)] = 0.0
    return X


def solve_commutator_equation(C, seed: int = 0) -> GeneratedInstance:
    """Numerically solve X^H X - X X^H = C X - X C for a rank-one C.

    Uses damped Gauss-Newton over the real parametrization, started from
    seeded random matrices confined to a block tridiagonal envelope with
    2 x 2 blocks (the shape in which solutions are known to exist).  Up to
    eight restarts with fresh streams are attempted; success means a residual
    at most ``1e-10 * max(1, ||X||_F^2)``.  The zero perturbation is answered
    directly with a seeded random normal matrix, which has no start.  Other
    starts are :func:`starting_block_rank_one`.

    Sizes above 16 are rejected; the dense Jacobian makes larger systems
    pointless for a test-instance generator.

    Raises ``SolverFailure`` when no restart converges; convergence of the
    iteration is heuristic.
    """
    C = as_square(C, "C")
    n = C.shape[0]
    if n > 16:
        raise ValueError(f"solver is limited to n <= 16, got {n}")
    sv = svd(C)
    if sv.numerical_rank > 1:
        raise ValueError(f"C must have rank at most 1, got rank {sv.numerical_rank}")
    if sv.numerical_rank == 0:
        rng = _rng("solved_commutator", seed)
        lam = _crandn(rng, n)
        Q = _haar_unitary(rng, n)
        X = (Q * lam[None, :]) @ Q.conj().T
        return GeneratedInstance(
            matrix=X,
            family="solved_commutator",
            perturbation_data={"u": np.zeros(n, complex), "v": np.zeros(n, complex)},
            certificate=certify(X, C, 1),
            seed=seed,
            start=None,
        )
    u = sv.singular_values[0] * sv.left_vectors[:, 0]
    v = sv.right_vectors[:, 0]
    for attempt in range(8):
        rng = _rng("solved_commutator", seed, (attempt,))
        X0 = _block_tridiagonal_init(rng, n)
        X, ok = _gauss_newton(X0, C)
        if ok:
            return GeneratedInstance(
                matrix=X,
                family="solved_commutator",
                perturbation_data={"u": u, "v": v, "C": C},
                certificate=certify(X, C, 1),
                seed=seed,
                start=starting_block_rank_one(X, u, v),
            )
    raise SolverFailure(
        "commutator equation solver did not converge after 8 restarts "
        f"(n = {n}, seed = {seed}); retry with a different seed"
    )
