"""Almost-normal and curve-normal structure.

A square matrix A is k-almost normal when its commutator A^H A - A A^H equals
C A - A C for some matrix C of rank k.  This module certifies candidate
perturbations C, builds the closed-form C for rank-one modifications of
Hermitian and unitary matrices, produces the starting blocks that make the
block Lanczos reduction respect the structural block-size bounds, and handles
the degree-2 spectral curves of normal-plus-rank-one matrices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConicFitError,
    ContractError,
    DimensionError,
    LinearVarietyError,
    SingularityError,
)
from .matcore import (
    DEFAULT_TOL,
    _checked_svd,
    antihermitian_part,
    as_matrix,
    as_square,
    as_vector,
    commutator,
    fro,
    hermitian_part,
    numerical_rank,
    orthonormal_range,
    svd,
)


@dataclass(frozen=True)
class CommutatorCertificate:
    """Evidence that C acts as the commutator perturbation of A.

    ``residual`` is ``commutator_residual(A, C)``, the scale-invariant
    ``||Delta(A) - (C A - A C)||_F / ||A||_F^2`` with Delta(A) = A^H A - A A^H
    (zero for A = 0).  Delta(A) is Hermitian, so its singular values are the
    moduli of its eigenvalues; ``range_dim`` counts those above
    ``tol * ||A||_F^2``, the residual's own scale.  When C has rank at most k
    and the residual is at most ``tol``, Weyl's inequality puts the
    (2k+1)-th of them at or below that cut, so ``range_dim <= 2k``.

    ``range_basis`` is an orthonormal n x ``range_dim`` basis of
    S = range(Delta(A)), the leading eigenvectors of Delta(A) by modulus.  It
    is computed on first read from the Delta(A) the certificate keeps, and
    cached.
    """

    perturbation: np.ndarray
    claimed_rank: int
    residual: float
    range_dim: int
    perturbation_rank: int
    valid: bool
    _delta: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def range_basis(self) -> np.ndarray:
        left = _checked_svd(self._delta, hermitian=True)[0]
        return left[:, : self.range_dim].copy()


def certify(A, C, k: int, tol: float = DEFAULT_TOL) -> CommutatorCertificate:
    """Measure how well C solves the commutator equation for A.

    The certificate is valid when the relative residual is at most ``tol``
    and the numerical rank of C does not exceed ``k``.  ``range_dim`` comes
    from the eigenvalue moduli of the Hermitian Delta(A) alone; no singular
    vectors are computed until ``range_basis`` is read.  A claimed rank
    ``k`` that is not a non-negative integer raises ``ValueError``.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"claimed rank k must be a non-negative integer, got {k!r}")
    residual = commutator_residual(A, C)
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    delta = commutator(A)
    moduli = _checked_svd(delta, compute_uv=False, hermitian=True)
    dim = int(np.count_nonzero(moduli > tol * fro(A) ** 2))
    rank_c = numerical_rank(C, tol)
    return CommutatorCertificate(
        perturbation=C,
        claimed_rank=int(k),
        residual=float(residual),
        range_dim=dim,
        perturbation_rank=int(rank_c),
        valid=bool(residual <= tol and rank_c <= k),
        _delta=delta,
    )


def commutator_residual(A, C) -> float:
    """Relative residual of the commutator equation A^H A - A A^H = C A - A C.

    Returns ``||commutator(A, C)||_F / ||A||_F^2``, which is unchanged when A
    and C are scaled together, and 0 for A = 0.
    """
    A = as_matrix(A, "A")
    defect = commutator(A, C)
    scale = fro(A) ** 2
    if scale == 0.0:
        return 0.0
    return fro(defect) / scale


def perturbation_hermitian_rank_one(x, y) -> np.ndarray:
    """Commutator perturbation C = y x^H - x y^H for A = H + x y^H, H Hermitian.

    The result is exactly antihermitian.
    """
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.shape != y.shape:
        raise DimensionError("x and y must have equal length")
    M = np.outer(y, x.conj())
    return M - M.conj().T


def perturbation_unitary_rank_one(unitary, x, y, tol: float = 1e-8) -> np.ndarray:
    """Commutator perturbation for an invertible A = U + x y^H with U unitary.

    Returns C = y x^H + (U^H x)(U y)^H / (1 + y^H U^H x), which equals
    A^H - A^{-1} and therefore satisfies A^H A - C A = I and
    A A^H - A C = I exactly.  Invertibility of A is equivalent to
    1 + y^H U^H x != 0 and is checked against ``tol``.
    """
    U = as_square(unitary, "unitary")
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.shape[0] != U.shape[0] or y.shape[0] != U.shape[0]:
        raise DimensionError("x and y must match the unitary factor's size")
    Uhx = U.conj().T @ x
    denom = 1.0 + np.vdot(y, Uhx)
    if abs(denom) <= tol:
        raise SingularityError(
            f"matrix is singular (|1 + y^H U^H x| = {abs(denom):.3e}); "
            "the perturbation formula is undefined"
        )
    return np.outer(y, x.conj()) + np.outer(Uhx, (U @ y).conj()) / denom


def starting_block_rank_one(A, u, v, tol: float = 1e-8) -> np.ndarray:
    """Starting block for a matrix certified with C = u v^H.

    Returns [u, v] when u and v are linearly independent (smallest singular
    value of the column-normalized pair above ``tol``), otherwise the single
    column [u].  Feeding the block to ``block_lanczos`` on the Hermitian part
    keeps the blocks at size at most 2 (scalar tridiagonal in the dependent
    case).
    """
    as_matrix(A, "A")
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionError("u and v must have equal length")
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise ValueError("u is zero, so the perturbation C = u v^H vanishes")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return u[:, None].copy()
    pair = np.column_stack([u / nu, v / nv])
    smin = _checked_svd(pair, compute_uv=False)[-1]
    if smin > tol:
        return np.column_stack([u, v])
    return u[:, None].copy()


def antihermitian_rescaling(u, v) -> complex:
    """Scalar w making the perturbation of the dependent pair antihermitian.

    When C = u v^H with v parallel to u (so C = alpha u u^H), the matrix
    B = w A with w = -i / conj(alpha) satisfies the commutator equation with
    the antihermitian perturbation i u u^H, whose range the antihermitian part
    of B leaves invariant.  Running the scalar Lanczos reduction on the
    Hermitian part of w A from u therefore tridiagonalizes A itself, as long
    as the reduction completes without breakdown (after a restart only the
    completed run is invariant for the antihermitian part).
    """
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionError("u and v must have equal length")
    nu2 = np.vdot(u, u).real
    if nu2 == 0.0:
        raise ValueError("u is zero")
    alpha_conj = np.vdot(u, v) / nu2
    if abs(alpha_conj) == 0.0:
        raise ValueError("v is zero, so the perturbation vanishes")
    return complex(-1j / alpha_conj)


def starting_block_rank_two(A, U, V, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Starting block for a matrix certified with C = U V^H, U and V n x 2.

    Returns the four columns [U, V] when they are numerically independent;
    otherwise falls back to an orthonormal basis of S = range(commutator(A)),
    truncated to at most four columns.
    """
    A = as_matrix(A, "A")
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    if U.shape != (A.shape[0], 2) or V.shape != (A.shape[0], 2):
        raise DimensionError("U and V must both be n x 2 blocks")
    if svd(U @ V.conj().T, tol).numerical_rank < 2:
        raise ValueError(
            "perturbation U V^H has numerical rank below 2; "
            "use the rank-one starting block instead"
        )
    full = np.hstack([U, V])
    if svd(full, tol).numerical_rank == 4:
        return full
    basis, dim = orthonormal_range(commutator(A), tol)
    if dim == 0:
        raise ValueError("commutator vanishes; the matrix is already normal")
    return basis[:, : min(dim, 4)].copy()


@dataclass(frozen=True)
class ConicCoefficients:
    """A degree-2 curve in the complex plane, in two equivalent forms.

    The polyanalytic form is

        p(z) = a20 z^2 + a11 z conj(z) + a02 conj(z)^2 + a10 z + a01 conj(z) + a00

    with conjugate symmetry a02 = conj(a20), a01 = conj(a10) and a11, a00
    real.  ``real_form`` holds (a, b, c, d, e, f) of
    f(x, y) = a x^2 + b y^2 + c x y + d x + e y + f, normalized to unit
    2-norm.  ``theta`` is the spectral rotation already applied (radians).
    """

    a20: complex
    a11: complex
    a02: complex
    a10: complex
    a01: complex
    a00: complex
    real_form: tuple[float, float, float, float, float, float]
    theta: float = 0.0
    max_residual: float = 0.0
    degenerate_fit: bool = False

    def evaluate(self, z) -> np.ndarray:
        """p(z) for scalar or array z."""
        z = np.asarray(z, dtype=np.complex128)
        zc = z.conj()
        return (
            self.a20 * z * z
            + self.a11 * z * zc
            + self.a02 * zc * zc
            + self.a10 * z
            + self.a01 * zc
            + self.a00
        )


def _real_to_polyanalytic(coef):
    a, b, c, d, e, f = (float(t) for t in coef)
    a20 = (a - b) / 4 - 1j * c / 4
    a11 = (a + b) / 2
    a10 = d / 2 - 1j * e / 2
    return a20, complex(a11), np.conj(a20), a10, np.conj(a10), complex(f)


def _polyanalytic_to_real(a20, a11, a10, a00):
    a = a11.real + 2 * a20.real
    b = a11.real - 2 * a20.real
    c = -4 * a20.imag
    d = 2 * a10.real
    e = -2 * a10.imag
    return (a, b, c, d, e, a00.real)


def conic_fit(eigenvalues, tol: float = DEFAULT_TOL) -> ConicCoefficients:
    """Fit a degree-2 real algebraic curve through points in the complex plane.

    Finds the unit-norm real coefficient vector (a, b, c, d, e, f) minimizing
    the residuals of a x^2 + b y^2 + c x y + d x + e y + f over the points,
    then converts to the polyanalytic form via x = (z + conj(z)) / 2,
    y = (z - conj(z)) / (2i).  A nullspace of dimension two or more (always
    the case for fewer than five points) sets ``degenerate_fit``; ties are
    resolved by taking a purely linear member of the nullspace when one
    exists, otherwise the combination with the largest |a + b|.  This is the
    one place where a line is recognized: the linear member is returned with
    its quadratic part set exactly to zero and renormalized, so
    ``rotate_leading_form`` raises ``LinearVarietyError`` for it.  The sign is
    normalized so the first nonvanishing coefficient is positive.

    Raises ``ConicFitError`` when all points coincide or when the best fit
    leaves a residual above ``tol``.
    """
    pts = np.asarray(eigenvalues, dtype=np.complex128).ravel()
    if pts.size < 1:
        raise ValueError("at least one point is required")
    if not tol > 0:
        raise ValueError("tol must be positive")
    spread = np.max(np.abs(pts - pts[0])) if pts.size > 1 else 0.0
    if spread <= 1e-15 * max(1.0, np.max(np.abs(pts))):
        raise ConicFitError("degenerate input: all points coincide")
    x = pts.real
    y = pts.imag
    design = np.column_stack([x * x, y * y, x * y, x, y, np.ones_like(x)])
    _, s, Vh = _checked_svd(design, full_matrices=True)
    s_full = np.zeros(6)
    s_full[: s.size] = s
    null_dim = int(np.count_nonzero(s_full <= tol * s_full[0]))
    degenerate = null_dim >= 2
    if degenerate:
        W = Vh[6 - null_dim :].T  # orthonormal nullspace basis, shape (6, k)
        uq, sq, vq = _checked_svd(W[:3, :], full_matrices=True)
        sq_full = np.zeros(null_dim)
        sq_full[: sq.size] = sq
        if sq_full[-1] <= 1e-8:
            # A combination with vanishing quadratic part exists: the points
            # admit a purely linear fit, so return the line itself, exactly.
            coef = W @ vq[-1]
            coef[:3] = 0.0
            coef /= np.linalg.norm(coef)
        else:
            q = W[0, :] + W[1, :]
            norm = np.linalg.norm(q)
            coef = W[:, 0] if norm <= 1e-12 else W @ (q / norm)
    else:
        coef = Vh[-1]
    for entry in coef:
        if abs(entry) > 1e-12:
            if entry < 0:
                coef = -coef
            break
    residual = float(np.max(np.abs(design @ coef)))
    if residual > tol:
        raise ConicFitError(
            f"points do not lie on a degree-2 curve (max residual {residual:.3e})"
        )
    a20, a11, a02, a10, a01, a00 = _real_to_polyanalytic(coef)
    return ConicCoefficients(
        a20=a20,
        a11=a11,
        a02=a02,
        a10=a10,
        a01=a01,
        a00=a00,
        real_form=tuple(float(t) for t in coef),
        theta=0.0,
        max_residual=residual,
        degenerate_fit=degenerate,
    )


def rotate_leading_form(c: ConicCoefficients) -> ConicCoefficients:
    """Rotate the spectrum so the leading form a20 + a02 - a11 is nondegenerate.

    Returns coefficients for the curve of e^{i theta} z.  The rotation maps
    a20 to a20 e^{-2i theta} and keeps a11, so the leading form becomes
    2 |a20| cos(arg a20 - 2 theta) - a11.  theta = 0 when that is already at
    least one tenth of |a20| + |a02| + |a11|; otherwise theta is the
    maximizer (arg a20 - pi [a11 > 0]) / 2 mod pi, where the leading form
    reaches 2 |a20| + |a11|.

    Raises ``LinearVarietyError`` when a20 = a02 = a11 = 0, in which case the
    curve is a line and the Hermitian-plus-rank-one treatment applies.
    """
    base = abs(c.a20) + abs(c.a02) + abs(c.a11)
    if base == 0.0:
        raise LinearVarietyError(
            "quadratic part vanishes: the spectrum lies on a line; "
            "use the Hermitian-plus-rank-one path"
        )
    if abs(c.a20 + c.a02 - c.a11) >= 0.1 * base:
        return dataclasses.replace(c, theta=0.0)
    theta = float((np.angle(c.a20) - np.pi * (c.a11.real > 0)) / 2 % np.pi)
    rot = np.exp(-1j * theta)
    a20 = c.a20 * rot * rot
    a10 = c.a10 * rot
    return ConicCoefficients(
        a20=a20,
        a11=c.a11,
        a02=np.conj(a20),
        a10=a10,
        a01=np.conj(a10),
        a00=c.a00,
        real_form=_polyanalytic_to_real(a20, c.a11, a10, c.a00),
        theta=theta,
        max_residual=c.max_residual,
        degenerate_fit=c.degenerate_fit,
    )


def leading_part_decomposition(c: ConicCoefficients, variant: str):
    """Solve for (alpha, beta, gamma) reproducing the quadratic leading form.

    Variant ``"first"`` satisfies

        alpha (z - conj(z)) z + beta (z + conj(z)) z + gamma (z + conj(z)) conj(z)
            = a20 z^2 + a11 z conj(z) + a02 conj(z)^2,

    variant ``"second"`` the same identity with the alpha term replaced by
    alpha (z - conj(z)) conj(z).  Both require the nondegeneracy condition
    a20 + a02 - a11 != 0, which makes alpha nonzero.
    """
    if variant not in ("first", "second"):
        raise ValueError(f"variant must be 'first' or 'second', got {variant!r}")
    h = c.a20 + c.a02 - c.a11
    base = abs(c.a20) + abs(c.a02) + abs(c.a11)
    if abs(h) <= 1e-10 * base:
        raise ContractError(
            "leading form is degenerate (a20 + a02 - a11 vanishes); rotate first"
        )
    if variant == "first":
        alpha = h / 2
        beta = c.a20 - alpha
        gamma = c.a02
    else:
        alpha = -h / 2
        beta = c.a20
        gamma = c.a02 + alpha
    return complex(alpha), complex(beta), complex(gamma)


def _is_unit_circle(c: ConicCoefficients) -> bool:
    scale = (
        abs(c.a20) + abs(c.a11) + abs(c.a02) + abs(c.a10) + abs(c.a01) + abs(c.a00)
    )
    if scale == 0.0 or abs(c.a11) == 0.0:
        return False
    return (
        abs(c.a20) <= 1e-8 * scale
        and abs(c.a10) <= 1e-8 * scale
        and abs(c.a00 + c.a11) <= 1e-8 * scale
    )


def starting_block_curve(A, u, v, conic: ConicCoefficients | None = None) -> np.ndarray:
    """Starting block for A = N + u v^H with N normal on a degree-2 curve.

    Returns the six columns [u, v, A^H u, A^H v, A u, A v].  When ``conic``
    describes the unit circle (N unitary) the reduced four-column block
    [u, v, A u, A v] suffices and is returned instead.  Columns may be
    linearly dependent; the Lanczos driver orthonormalizes them.
    """
    A = as_matrix(A, "A")
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape[0] != A.shape[0] or v.shape[0] != A.shape[0]:
        raise DimensionError("u and v must match the matrix size")
    if np.linalg.norm(u) == 0.0 or np.linalg.norm(v) == 0.0:
        raise ValueError("u and v must be nonzero")
    if conic is not None and _is_unit_circle(conic):
        return np.column_stack([u, v, A @ u, A @ v])
    Ah = A.conj().T
    return np.column_stack([u, v, Ah @ u, Ah @ v, A @ u, A @ v])


def commutation_identity_residual(A, j: int) -> float:
    """Residual of the power commutation identity between A_AH and A_H^j.

    For every square A and j >= 1,

        A_AH A_H^j - A_H^j A_AH
            = -1/2 * sum_{k=0}^{j-1} A_H^k Delta(A) A_H^{j-1-k},

    with Delta(A) = A^H A - A A^H.  Returns the Frobenius norm of the
    difference scaled by ||A||_F^{j+1}; the identity is unconditional, so the
    result is at roundoff level for any input.
    """
    A = as_square(A, "A")
    if j < 1:
        raise ValueError("j must be >= 1")
    norm_a = fro(A)
    if norm_a == 0.0:
        return 0.0
    AH = hermitian_part(A)
    AAH = antihermitian_part(A)
    delta = commutator(A)
    powers = [np.eye(A.shape[0], dtype=np.complex128)]
    for _ in range(j):
        powers.append(powers[-1] @ AH)
    acc = np.zeros_like(A)
    for k in range(j):
        acc += powers[k] @ delta @ powers[j - 1 - k]
    lhs = AAH @ powers[j] - powers[j] @ AAH + acc / 2
    return fro(lhs) / norm_a ** (j + 1)
