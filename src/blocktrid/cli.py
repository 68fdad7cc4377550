"""Command-line front end.

Subcommands chain into reproducible file-based pipelines::

    blocktrid generate --family companion --coeffs 1,0,0,0,1 --out work/
    blocktrid reduce work/ --out red/
    blocktrid spy red/T.mtx
    blocktrid qr-track red/A_trid.mtx red/C_trid.mtx --steps 30 --out track.json
    blocktrid verify work/A.mtx work/C.mtx --k 2

Exit codes: 0 success, 2 verification failure, 3 I/O error, 4 contract
violation or numerical failure (a solver or SVD that does not converge).
All reports are JSON with a fixed schema version and relative residuals;
complex numbers are encoded as [real, imag] pairs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np
import orjson

from . import __version__
from .almostnormal import (
    ConicCoefficients,
    antihermitian_rescaling,
    certify,
    commutator_residual,
    rotate_leading_form,
    starting_block_curve,
    starting_block_rank_one,
)
from .errors import ContractError, GenerationError, LinearVarietyError
from .errors import NumericalError, SolverFailure
from .generators import (
    arrow_hermitian_plus_rank_one,
    chebyshev_colleague,
    companion,
    curve_normal_plus_rank_one,
    fourier_sum,
    random_unitary_plus_rank_one,
    solve_commutator_equation,
)
from .lanczos import block_lanczos
from .matcore import commutator, fro, hermitian_part, orthonormal_range
from .mmio import MatrixMarketError, read_matrix, read_vector, write_matrix, write_vector
from .structure import off_profile_residual, qr_iteration_tracked

SCHEMA_VERSION = "1"
_STDOUT_JSON_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
_JSON_OPTIONS = _STDOUT_JSON_OPTIONS | orjson.OPT_INDENT_2

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_CONTRACT = 4

_CLI_FAMILIES = (
    "arrow",
    "companion",
    "colleague",
    "fourier-sum",
    "curve",
    "unitary",
    "solved",
)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _cplx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _conic_to_json(c: ConicCoefficients) -> dict:
    """Every field of ``c``; complex fields as [real, imag] pairs."""
    out = {}
    for f in dataclasses.fields(ConicCoefficients):
        value = getattr(c, f.name)
        out[f.name] = _cplx(value) if f.type == "complex" else value
    return out


def _conic_from_json(d: dict) -> ConicCoefficients:
    def decode(f):
        value = d[f.name]
        if f.type == "complex":
            return complex(*value)
        return tuple(value) if isinstance(value, list) else value

    return ConicCoefficients(
        **{f.name: decode(f) for f in dataclasses.fields(ConicCoefficients)}
    )


def _cert_to_json(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "residual": cert.residual,
        "claimed_rank": cert.claimed_rank,
        "perturbation_rank": cert.perturbation_rank,
        "range_dim": cert.range_dim,
        "valid": cert.valid,
    }


def _write_json(path, payload) -> None:
    """Write ``payload`` as indented UTF-8 JSON with sorted keys.

    orjson writes a non-finite float as ``null``; it raises
    ``orjson.JSONEncodeError`` for an integer outside 64 bits or a string
    that is not valid UTF-8, before the file is opened.
    """
    text = orjson.dumps(payload, option=_JSON_OPTIONS)
    with open(path, "wb") as fh:
        fh.write(text + b"\n")


def _print_json(payload) -> None:
    """Print ``payload`` on one line, encoded as :func:`_write_json` encodes
    it but compact; ``print`` also works on a stdout without a byte buffer."""
    print(orjson.dumps(payload, option=_STDOUT_JSON_OPTIONS).decode())


def _parse_coeffs(text: str) -> list[complex]:
    try:
        return [complex(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ContractError(f"cannot parse coefficient list {text!r}") from exc


def cmd_generate(args, argv) -> int:
    out = args.out
    os.makedirs(out, exist_ok=True)
    files: dict[str, str] = {}
    manifest: dict = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "seed": args.seed,
        "tool_version": __version__,
        "params": {},
    }

    def save(role, name, data, vector=False):
        path = os.path.join(out, name)
        if vector:
            write_vector(path, data)
        else:
            write_matrix(path, data)
        files[role] = name

    if args.family == "fourier-sum":
        H, Z = fourier_sum(args.n, args.seed)
        save("matrix", "H.mtx", H)
        save("start", "Z.mtx", Z)
        manifest["n"] = args.n
    else:
        inst = _build_instance(args)
        save("matrix", "A.mtx", inst.matrix)
        for role in ("x", "y", "u", "v"):
            if role in inst.perturbation_data:
                save(role, f"{role}.mtx", inst.perturbation_data[role], vector=True)
        if "C" in inst.perturbation_data:
            save("perturbation", "C.mtx", inst.perturbation_data["C"])
        manifest["n"] = int(inst.matrix.shape[0])
        manifest["certificate"] = _cert_to_json(inst.certificate)
        manifest["instance_family"] = inst.family
        if inst.conic is not None:
            manifest["conic"] = _conic_to_json(inst.conic)
    if args.family in ("companion", "colleague"):
        manifest["params"]["coeffs"] = [_cplx(z) for z in _parse_coeffs(args.coeffs)]
    if args.family == "curve":
        manifest["params"]["curve"] = args.curve
    if args.family == "solved":
        manifest["params"]["c_kind"] = args.c_kind
        manifest["params"]["alpha"] = _cplx(complex(args.alpha))
    manifest["files"] = files
    _write_json(os.path.join(out, "manifest.json"), manifest)
    _print_json({"out": out, "files": files})
    return EXIT_OK


def _build_instance(args):
    fam = args.family
    if fam == "arrow":
        return arrow_hermitian_plus_rank_one(args.n, args.seed)
    if fam == "companion":
        if not args.coeffs:
            raise ContractError("--coeffs is required for the companion family")
        return companion(_parse_coeffs(args.coeffs))
    if fam == "colleague":
        if not args.coeffs:
            raise ContractError("--coeffs is required for the colleague family")
        return chebyshev_colleague(_parse_coeffs(args.coeffs))
    if fam == "curve":
        curve = args.curve.replace("-", "_")
        return curve_normal_plus_rank_one(args.n, curve, args.seed)
    if fam == "unitary":
        return random_unitary_plus_rank_one(args.n, args.seed)
    if fam == "solved":
        n = args.n
        if n < 2:
            raise ValueError(f"solved instances need n >= 2, got {n}")
        C = np.zeros((n, n), dtype=np.complex128)
        if args.c_kind == "independent":
            C[0, 1] = 1.0
        else:
            C[0, 0] = complex(args.alpha)
        return solve_commutator_equation(C, seed=args.seed)
    raise ContractError(f"unknown family {fam!r}")


def _starting_block(manifest, in_dir, A, inputs):
    """Starting block and reduction phase for the manifest's family.

    Returns ``(Z, phase)``: the block Lanczos run reduces the Hermitian part
    of ``phase * A``, whose basis block-tridiagonalizes A itself.  The phase
    differs from 1 for curve instances violating the leading-form condition
    and for dependent rank-one perturbations.  Every file read is recorded
    in ``inputs`` with its SHA-256.
    """
    fam = manifest["family"]
    files = manifest["files"]

    def path(role):
        p = os.path.join(in_dir, files[role])
        inputs[p] = _sha256(p)
        return p

    def vec(role):
        return read_vector(path(role))

    if fam in ("arrow", "colleague"):
        return np.column_stack([vec("x"), vec("y")]), 1.0 + 0j
    if fam in ("companion", "unitary"):
        basis, dim = orthonormal_range(commutator(A))
        if dim == 0:
            raise ContractError("commutator vanishes; nothing to reduce structurally")
        return basis[:, : min(dim, 4)], 1.0 + 0j
    if fam == "curve":
        conic = _conic_from_json(manifest["conic"])
        u, v = vec("u"), vec("v")
        try:
            rotated = rotate_leading_form(conic)
        except LinearVarietyError:
            # Spectrum on a line: the matrix is Hermitian plus rank one.
            return np.column_stack([u, v]), 1.0 + 0j
        phase = np.exp(1j * rotated.theta)
        return starting_block_curve(phase * A, phase * u, v, rotated), phase
    if fam == "fourier-sum":
        return read_matrix(path("start")), 1.0 + 0j
    if fam == "solved":
        u, v = vec("u"), vec("v")
        Z = starting_block_rank_one(A, u, v)
        if Z.shape[1] == 1:
            w = antihermitian_rescaling(u, v)
            return Z, w / abs(w)
        return Z, 1.0 + 0j
    raise ContractError(f"no automatic starting block rule for family {fam!r}")


def cmd_reduce(args, argv) -> int:
    t0 = time.perf_counter()
    in_path = args.input
    if os.path.isdir(in_path):
        manifest_path = os.path.join(in_path, "manifest.json")
        with open(manifest_path, "rb") as fh:
            manifest = orjson.loads(fh.read())
        in_dir = in_path
        matrix_path = os.path.join(in_dir, manifest["files"]["matrix"])
    else:
        manifest = None
        in_dir = os.path.dirname(in_path) or "."
        matrix_path = in_path
    A = read_matrix(matrix_path)
    inputs = {matrix_path: _sha256(matrix_path)}
    if manifest is not None:
        inputs[manifest_path] = _sha256(manifest_path)
    phase = 1.0 + 0j
    if args.start != "auto":
        Z = read_matrix(args.start)
        inputs[args.start] = _sha256(args.start)
    else:
        if manifest is None:
            raise ContractError(
                "automatic starting blocks need a manifest directory; "
                "pass --start with an explicit block file instead"
            )
        Z, phase = _starting_block(manifest, in_dir, A, inputs)
    red = block_lanczos(hermitian_part(phase * A), Z, tol=args.tol)
    U, T = red.basis, red.trid
    n = A.shape[0]
    norm_a = fro(A)
    A_trid = U.conj().T @ A @ U
    similarity = fro(hermitian_part(phase * A_trid) - T)
    off_profile = off_profile_residual(A_trid, red.block_sizes)
    residuals = {
        "unitarity": fro(U.conj().T @ U - np.eye(n)) / np.sqrt(n),
        # relative to ||A||_F; the zero matrix has zero residuals
        "similarity": similarity / norm_a if norm_a else 0.0,
        "off_profile": off_profile / norm_a if norm_a else 0.0,
        "certificate": None,
    }
    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "U.mtx"), U)
    write_matrix(os.path.join(args.out, "T.mtx"), T)
    write_matrix(os.path.join(args.out, "A_trid.mtx"), A_trid)
    files = {"basis": "U.mtx", "trid": "T.mtx", "matrix_trid": "A_trid.mtx"}
    if manifest is not None and "perturbation" in manifest.get("files", {}):
        c_path = os.path.join(in_dir, manifest["files"]["perturbation"])
        C = read_matrix(c_path)
        inputs[c_path] = _sha256(c_path)
        C_trid = U.conj().T @ C @ U
        write_matrix(os.path.join(args.out, "C_trid.mtx"), C_trid)
        files["perturbation_trid"] = "C_trid.mtx"
        residuals["certificate"] = commutator_residual(A_trid, C_trid)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": " ".join(argv),
        "tool_version": __version__,
        "inputs": inputs,
        "block_sizes": list(red.block_sizes),
        "breakdown_events": [list(e) for e in red.breakdown_events],
        "restarted": red.restarted,
        "rotation_phase": _cplx(phase),
        "residuals": residuals,
        "files": files,
        "elapsed_ms": (time.perf_counter() - t0) * 1e3,
    }
    _write_json(os.path.join(args.out, "report.json"), report)
    _print_json({k: v for k, v in report.items() if k != "elapsed_ms"})
    checked = [v for v in residuals.values() if v is not None]
    return EXIT_OK if all(v <= args.tol for v in checked) else EXIT_VERIFY


def cmd_verify(args, argv) -> int:
    A = read_matrix(args.matrix)
    C = read_matrix(args.perturbation)
    cert = certify(A, C, args.k, tol=args.tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        **_cert_to_json(cert),
    }
    _print_json(report)
    return EXIT_OK if cert.valid else EXIT_VERIFY


def cmd_spy(args, argv) -> int:
    M = read_matrix(args.matrix)
    thr = args.tol * fro(M)
    stars = np.abs(M) > thr
    if args.format == "ascii":
        lines = ["".join("*" if s else "." for s in row) for row in stars]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        if not args.out:
            raise ContractError("--out is required for pgm output")
        rows, cols = stars.shape
        pixels = np.where(stars, 0, 255).astype(np.uint8)
        with open(args.out, "wb") as fh:
            fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    return EXIT_OK


def cmd_qr_track(args, argv) -> int:
    A = read_matrix(args.matrix)
    C = read_matrix(args.perturbation)
    try:
        report = qr_iteration_tracked(A, C, args.steps, tol=args.tol)
    except ContractError as exc:
        raise ContractError(f"{exc}; run `blocktrid reduce` to produce one") from exc
    ok = all(
        all(r <= 2 for r in rec.off_profile_block_ranks)
        and rec.c_residual <= args.tol
        for rec in report.iterations
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": " ".join(argv),
        "tool_version": __version__,
        "inputs": {
            args.matrix: _sha256(args.matrix),
            args.perturbation: _sha256(args.perturbation),
        },
        "initial_block_sizes": list(report.initial_profile.block_sizes),
        "discarded_norm": report.discarded_norm,
        "iterations": [
            {
                "step": rec.step,
                "shift": _cplx(rec.shift),
                "off_profile_block_ranks": list(rec.off_profile_block_ranks),
                "c_residual": rec.c_residual,
                "profile_growth": rec.profile_growth,
            }
            for rec in report.iterations
        ],
        "converged_eigenvalues": [_cplx(z) for z in report.converged_eigenvalues],
        "within_rank_bound": ok,
    }
    if args.out:
        _write_json(args.out, payload)
    _print_json({"within_rank_bound": ok,
                 "steps_run": len(report.iterations),
                 "converged": len(report.converged_eigenvalues)})
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocktrid",
        description="Block tridiagonal reduction and rank tracking for "
        "almost normal and perturbed normal matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded matrix family to disk")
    gen.add_argument("--family", required=True, choices=_CLI_FAMILIES)
    gen.add_argument("--n", type=int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--coeffs", help="comma-separated coefficients, leading first")
    gen.add_argument(
        "--curve", default="parabola-arc", choices=("circle", "line", "parabola-arc")
    )
    gen.add_argument(
        "--c-kind", default="independent", choices=("independent", "dependent"),
        help="shape of the rank-one perturbation for the solved family",
    )
    gen.add_argument("--alpha", default="2.0", help="scale for the dependent perturbation")
    gen.add_argument("--out", default=".")
    gen.set_defaults(func=cmd_generate)

    red = sub.add_parser("reduce", help="reduce to block tridiagonal form")
    red.add_argument("input", help="manifest directory or matrix file")
    red.add_argument("--start", default="auto", help="starting block file, or 'auto'")
    red.add_argument("--tol", type=float, default=1e-10)
    red.add_argument("--out", default=".")
    red.set_defaults(func=cmd_reduce)

    ver = sub.add_parser("verify", help="check a commutator perturbation")
    ver.add_argument("matrix")
    ver.add_argument("perturbation")
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--tol", type=float, default=1e-8)
    ver.set_defaults(func=cmd_verify)

    spy = sub.add_parser("spy", help="render the sparsity pattern")
    spy.add_argument("matrix")
    spy.add_argument("--tol", type=float, default=1e-10)
    spy.add_argument("--format", default="ascii", choices=("ascii", "pgm"))
    spy.add_argument("--out")
    spy.set_defaults(func=cmd_spy)

    track = sub.add_parser("qr-track", help="run shifted QR steps, tracking ranks")
    track.add_argument("matrix", help="block tridiagonal matrix file")
    track.add_argument("perturbation", help="reduced perturbation file")
    track.add_argument("--steps", type=int, default=30)
    track.add_argument("--tol", type=float, default=1e-8)
    track.add_argument("--out")
    track.set_defaults(func=cmd_qr_track)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, list(argv))
    except (OSError, MatrixMarketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyError as exc:
        print(f"error: manifest is missing the {exc} field", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, GenerationError, NumericalError, SolverFailure,
            orjson.JSONEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


def entry() -> None:
    raise SystemExit(main())
