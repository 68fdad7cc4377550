"""Checks of the CLI's outputs, computed apart from the program.

Matrix files are read with this module's own Matrix Market parser, never with
``blocktrid.mmio``, and every property is recomputed with plain numpy and
scipy.  A failed check raises ``CheckFailure`` with a one-line reason.
"""

from __future__ import annotations

import json
import os

import numpy as np

#: Relative tolerance for identities that hold up to roundoff (unitarity,
#: similarity, fill outside the envelope).  The program's own default rank
#: tolerance is 1e-10; the reductions land near 1e-14 at n <= 512.
ROUNDOFF_RTOL = 1e-10
#: Relative tolerance for the commutator relation AᴴA − AAᴴ = CA − AC, the
#: default of ``blocktrid verify``.
RELATION_RTOL = 1e-8
#: Relative tolerance for eigenvalue agreement, measured against ||A||_F.
EIG_RTOL = 1e-6


class CheckFailure(Exception):
    """An output of the program is wrong."""


def read_mtx(path) -> np.ndarray:
    """Read a dense Matrix Market array file (complex or real, general)."""
    with open(path, "r", encoding="ascii") as fh:
        banner = fh.readline().split()
        if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
            raise CheckFailure(f"{path}: no Matrix Market banner")
        if [t.lower() for t in banner[1:3]] != ["matrix", "array"]:
            raise CheckFailure(f"{path}: not a dense array file")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        rows, cols = (int(t) for t in line.split())
        body = np.loadtxt(fh, ndmin=2, comments="%")
    if banner[3].lower() == "complex":
        values = body[:, 0] + 1j * body[:, 1]
    else:
        values = body[:, 0].astype(np.complex128)
    if values.size != rows * cols:
        raise CheckFailure(f"{path}: {values.size} entries for a {rows}x{cols} array")
    return values.reshape((rows, cols), order="F")


def write_mtx(path, M) -> None:
    """Write a dense complex array file with the standard banner."""
    M = np.asarray(M, dtype=np.complex128)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array complex general\n")
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for z in M.ravel(order="F"):
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _fro(M) -> float:
    return float(np.linalg.norm(M))


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailure(reason)


def numerical_rank(M, rtol: float = ROUNDOFF_RTOL) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > rtol * s[0])) if s[0] > 0 else 0


def envelope_mask(sizes) -> np.ndarray:
    """True on the block tridiagonal envelope of the given block sizes."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    return np.abs(block[:, None] - block[None, :]) <= 1


def match_spectra(lam, mu) -> float:
    """Largest distance of an optimal one-to-one matching of two spectra."""
    # imported here: scipy.optimize takes 0.5 s to import, which would
    # otherwise count in setup_s
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.asarray(lam)[:, None] - np.asarray(mu)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_generate(gen_dir, family: str, n: int, has_c: bool) -> None:
    """The instance has the requested shape, and its C certifies it:
    AᴴA − AAᴴ = CA − AC relative to ||A||_F², with rank(C) <= 2."""
    manifest = read_json(os.path.join(gen_dir, "manifest.json"))
    _need(manifest.get("family") == family, f"manifest family {manifest.get('family')!r}")
    _need(manifest.get("n") == n, f"manifest n {manifest.get('n')} != {n}")
    if family == "fourier-sum":
        H = read_mtx(os.path.join(gen_dir, "H.mtx"))
        Z = read_mtx(os.path.join(gen_dir, "Z.mtx"))
        _need(H.shape == (n, n) and Z.shape == (n, 2), "fourier-sum shapes")
        _need(_fro(H - H.conj().T) <= ROUNDOFF_RTOL * _fro(H), "H is not Hermitian")
        return
    A = read_mtx(os.path.join(gen_dir, "A.mtx"))
    _need(A.shape == (n, n), f"A has shape {A.shape}")
    c_path = os.path.join(gen_dir, "C.mtx")
    _need(os.path.exists(c_path) == has_c, f"C.mtx present: {not has_c}")
    if not has_c:
        return
    C = read_mtx(c_path)
    Ah = A.conj().T
    rel = _fro(Ah @ A - A @ Ah - (C @ A - A @ C)) / _fro(A) ** 2
    _need(rel <= RELATION_RTOL, f"commutator relation residual {rel:.3e}")
    rank = numerical_rank(C)
    _need(rank <= 2, f"rank(C) = {rank} > 2")


def check_reduce(gen_dir, red_dir, family: str, max_block: int) -> None:
    """U is unitary, UᴴAU = A_trid, A_trid vanishes outside the envelope of
    the reported block sizes, the largest block is within the family's bound,
    and A_trid has the spectrum of A."""
    matrix = "H.mtx" if family == "fourier-sum" else "A.mtx"
    A = read_mtx(os.path.join(gen_dir, matrix))
    n = A.shape[0]
    U = read_mtx(os.path.join(red_dir, "U.mtx"))
    A_trid = read_mtx(os.path.join(red_dir, "A_trid.mtx"))
    report = read_json(os.path.join(red_dir, "report.json"))
    sizes = report["block_sizes"]
    norm_a = _fro(A)
    _need(U.shape == (n, n) and A_trid.shape == (n, n), "reduced shapes")
    _need(sum(sizes) == n and min(sizes) >= 1, f"block sizes {sizes} do not partition {n}")
    _need(max(sizes) <= max_block, f"largest block {max(sizes)} > bound {max_block}")
    off = _fro(A_trid[~envelope_mask(sizes)]) / norm_a
    _need(off <= ROUNDOFF_RTOL, f"A_trid outside the envelope ({off:.3e})")
    unit = _fro(U.conj().T @ U - np.eye(n)) / np.sqrt(n)
    _need(unit <= ROUNDOFF_RTOL, f"U is not unitary ({unit:.3e})")
    sim = _fro(U.conj().T @ A @ U - A_trid) / norm_a
    _need(sim <= ROUNDOFF_RTOL, f"UᴴAU != A_trid ({sim:.3e})")
    gap = match_spectra(np.linalg.eigvals(A_trid), np.linalg.eigvals(A)) / norm_a
    _need(gap <= EIG_RTOL, f"spectrum of A_trid differs from A ({gap:.3e})")
    c_path = os.path.join(gen_dir, "C.mtx")
    if os.path.exists(c_path):
        C = read_mtx(c_path)
        C_trid = read_mtx(os.path.join(red_dir, "C_trid.mtx"))
        rel = _fro(U.conj().T @ C @ U - C_trid) / max(_fro(C), 1e-300)
        _need(rel <= ROUNDOFF_RTOL, f"UᴴCU != C_trid ({rel:.3e})")


def check_qr_track(gen_dir, track_json) -> None:
    """Every converged eigenvalue is an eigenvalue of the original A, and
    every block outside the initial profile has rank <= 2 at every step."""
    report = read_json(track_json)
    ranks = [r for it in report["iterations"] for r in it["off_profile_block_ranks"]]
    worst = max(ranks, default=0)
    _need(worst <= 2, f"an off-profile block reached rank {worst}")
    _need(report["within_rank_bound"] is True, "within_rank_bound is not true")
    A = read_mtx(os.path.join(gen_dir, "A.mtx"))
    lam = np.linalg.eigvals(A)
    for re, im in report["converged_eigenvalues"]:
        dist = float(np.min(np.abs(lam - complex(re, im)))) / _fro(A)
        _need(dist <= EIG_RTOL, f"converged eigenvalue {complex(re, im):.6g} is "
              f"{dist:.3e} from the spectrum of A")
