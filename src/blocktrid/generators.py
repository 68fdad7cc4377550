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
from .matcore import as_square, svd

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


def _hermitian_plus_rank_one(H, x, y, family, seed, data, conic=None):
    """The Hermitian-plus-rank-one instance A = H + x y^H: its closed-form
    C = y x^H - x y^H (:func:`perturbation_hermitian_rank_one`), certified
    with rank 2, and the start [x, y].  ``data`` names the operands in
    ``perturbation_data``; C is added last."""
    A = H + np.outer(x, y.conj())
    C = perturbation_hermitian_rank_one(x, y)
    return GeneratedInstance(
        matrix=A,
        family=family,
        perturbation_data={**data, "C": C},
        certificate=certify(A, C, 2),
        seed=seed,
        start=np.column_stack([x, y]),
        conic=conic,
    )


def _unitary_plus_rank_one(U, x, y, family, seed, data, conic=None):
    """The unitary-plus-rank-one instance A = U + x y^H: its closed-form C
    (:func:`perturbation_unitary_rank_one`), certified with rank 2 and added
    last to ``data``, or within that formula's 1e-6 singularity margin no C
    and no certificate.  The start [x, y, A^H x, A y] spans {x, y, U^H x,
    U y}, since U^H x = A^H x - y ||x||^2 and U y = A y - x ||y||^2, which
    contains range(A^H A - A A^H); it is built in O(n^2) without forming
    A^H."""
    A = U + np.outer(x, y.conj())
    try:
        C = perturbation_unitary_rank_one(U, x, y)
    except SingularityError:
        cert = None
    else:
        cert = certify(A, C, 2)
        data = {**data, "C": C}
    return GeneratedInstance(
        matrix=A,
        family=family,
        perturbation_data=data,
        certificate=cert,
        seed=seed,
        start=np.column_stack([x, y, (x.conj() @ A).conj(), A @ y]),
        conic=conic,
    )


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
    return _hermitian_plus_rank_one(
        H, x, y, "arrow_h1", seed, {"hermitian": H, "x": x, "y": y}
    )


def companion(coeffs) -> GeneratedInstance:
    """Frobenius companion matrix of a monic polynomial, split as a cyclic
    shift (unitary) plus a rank-one correction in the last column.

    ``coeffs`` lists the coefficients leading-first, so ``[1, 0, 0, 0, 1]``
    is z^4 + 1.  Here |1 + y^H U^H x| equals the modulus of the constant
    coefficient c_d, so the matrix is invertible iff c_d != 0.  It carries
    the closed-form certificate when |c_d| clears the 1e-6 margin of
    :func:`perturbation_unitary_rank_one`, and none otherwise.
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
    return _unitary_plus_rank_one(
        shift, x, y, "companion", 0, {"unitary": shift, "x": x, "y": y}
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
    return _hermitian_plus_rank_one(
        H, x, y, "hermitian_h1", 0, {"hermitian": H, "x": x, "y": y}
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
    [-1, 1]).  The start is the rule of the curve's matrix class: the
    unitary [u, v, A^H u, A v] for a circle, the Hermitian [u, v] for a line
    and :func:`starting_block_curve` for a parabola.  The eigenvalue set
    always refits its curve with residual at the default tolerance.  Circle
    and line instances carry closed-form certificates; parabola instances
    have none.
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
    data = {"normal": N, "u": u, "v": v, "eigenvalues": lam}
    conic = conic_fit(lam)
    if curve == "circle":
        return _unitary_plus_rank_one(N, u, v, "curve_normal_h1", seed, data, conic)
    if curve == "line":
        return _hermitian_plus_rank_one(N, u, v, "curve_normal_h1", seed, data, conic)
    A = N + np.outer(u, v.conj())
    return GeneratedInstance(
        matrix=A,
        family="curve_normal_h1",
        perturbation_data=data,
        certificate=None,
        seed=seed,
        start=starting_block_curve(A, u, v),
        conic=conic,
    )


def random_unitary_plus_rank_one(n: int, seed: int) -> GeneratedInstance:
    """Haar unitary plus a random rank-one modification x y^H.

    Draws are retried with a fresh stream while the invertibility margin
    |1 + y^H U^H x| of :func:`perturbation_unitary_rank_one` is at most 1e-6;
    sixteen failures raise ``GenerationError``.
    """
    if n < 2:
        raise ValueError(f"unitary instances need n >= 2, got {n}")
    for attempt in range(16):
        rng = _rng("unitary_u1", seed, (attempt,))
        U = _haar_unitary(rng, n)
        x = _unit_vector(rng, n)
        y = _unit_vector(rng, n)
        data = {"unitary": U, "x": x, "y": y}
        inst = _unitary_plus_rank_one(U, x, y, "unitary_u1", seed, data)
        if inst.certificate is not None:
            return inst
    raise GenerationError(
        f"no invertible unitary-plus-rank-one draw in 16 attempts (seed {seed})"
    )


def solve_commutator_equation(C, seed: int = 0) -> GeneratedInstance:
    """An X with X^H X - X X^H = C X - X C for a rank-one C, in closed form.

    With C = sigma a b^H (its SVD), u = sigma a and v = b, the block
    :func:`starting_block_rank_one` ``(C, u, v)`` picks the class and is the
    start.  For [u], C = alpha a a^H with alpha = sigma b^H a, and
    X = w (H + x y^H) with H seeded Hermitian, x = (i/2) a, y = a and
    w = -i conj(alpha): the Hermitian class's C = -i a a^H times conj(w).
    For [u, v], X = U + x y^H with x = c b, y = a, a seeded Haar unitary
    reflected so that U a = b, and c = (sigma - 2 + sqrt(sigma^2 + 4)) / 2:
    the unitary class's C is c a b^H (1 + 1 / (1 + c)) = C, with margin
    1 + c.  ``perturbation_data`` holds u, v, the operands under the class
    constructors' keys (and ``w``), and C last.  Any size is accepted.  The
    zero perturbation is answered with a seeded random normal matrix, which
    has no start.

    Raises ``SolverFailure`` when X does not certify against the given C
    with rank 1, as for a C near but not within roundoff of alpha a a^H.
    """
    C = as_square(C, "C")
    n = C.shape[0]
    sv = svd(C)
    if sv.numerical_rank > 1:
        raise ValueError(f"C must have rank at most 1, got rank {sv.numerical_rank}")
    rng = _rng("solved_commutator", seed)
    if sv.numerical_rank == 0:
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
    sigma = sv.singular_values[0]
    a = sv.left_vectors[:, 0]
    b = sv.right_vectors[:, 0]
    u, v = sigma * a, b
    start = starting_block_rank_one(C, u, v)
    if start.shape[1] == 1:
        G = _crandn(rng, n, n)
        H = (G + G.conj().T) / 2
        x, y = 0.5j * a, a
        w = -1j * np.conj(sigma * np.vdot(b, a))
        X = w * (H + np.outer(x, y.conj()))
        data = {"u": u, "v": v, "hermitian": H, "x": x, "y": y, "w": w}
    else:
        U = _haar_unitary(rng, n)
        # reflect p = U a onto phase * b, where the phase makes b^H p real
        p = U @ a
        phase = np.exp(1j * np.angle(np.vdot(b, p)))
        r = p - phase * b
        r /= np.linalg.norm(r)
        U = (U - 2.0 * np.outer(r, r.conj() @ U)) / phase
        c = (sigma - 2.0 + np.sqrt(sigma * sigma + 4.0)) / 2.0
        x, y = c * b, a
        X = U + np.outer(x, y.conj())
        data = {"u": u, "v": v, "unitary": U, "x": x, "y": y}
    cert = certify(X, C, 1)
    if not cert.valid:
        raise SolverFailure(
            f"the closed-form X does not certify against C (residual "
            f"{cert.residual:.3e}, n = {n}, seed = {seed})"
        )
    return GeneratedInstance(
        matrix=X,
        family="solved_commutator",
        perturbation_data={**data, "C": C},
        certificate=cert,
        seed=seed,
        start=start,
    )
