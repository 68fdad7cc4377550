"""Command-line front end.

Subcommands chain into reproducible file-based pipelines::

    blocktrid generate --family companion --coeffs 1,0,0,0,1 --out work/
    blocktrid reduce work/ --out red/
    blocktrid spy red/T.mtx
    blocktrid qr-track red/A_trid.mtx red/C_trid.mtx --steps 30 --out track.json
    blocktrid verify work/A.mtx work/C.mtx --k 2

``generate`` writes each instance with its family's starting block
(``Z.mtx``) and records the reduction phase in the manifest; ``reduce``
Lanczos-reduces the Hermitian part of ``phase * A`` from that block, the
same path for every family, so it holds no family rules.

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
from .almostnormal import ConicCoefficients, certify, commutator_residual
from .errors import ContractError, GenerationError, NumericalError, SolverFailure
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
from .matcore import fro, hermitian_part
from .mmio import MatrixMarketError, read_matrix, write_matrix, write_vector
from .structure import off_profile_residual, qr_iteration_tracked

# unused here: clibench/layers.py traces these names on this module
from .almostnormal import antihermitian_rescaling, rotate_leading_form  # noqa: F401
from .almostnormal import starting_block_curve, starting_block_rank_one  # noqa: F401
from .matcore import commutator, orthonormal_range  # noqa: F401
from .mmio import read_vector  # noqa: F401

SCHEMA_VERSION = "4"
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


def _encode_json(payload) -> bytes:
    """``payload`` as indented UTF-8 JSON with sorted keys and a final newline.

    orjson writes a non-finite float as ``null``; it raises
    ``orjson.JSONEncodeError`` for an integer outside 64 bits or a string
    that is not valid UTF-8.
    """
    return orjson.dumps(payload, option=_JSON_OPTIONS) + b"\n"


def _write_json(path, payload) -> None:
    """Write ``payload`` as :func:`_encode_json` encodes it; an unencodable
    payload raises before the file is opened."""
    text = _encode_json(payload)
    with open(path, "wb") as fh:
        fh.write(text)


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
    if args.family == "fourier-sum":
        matrix, Z = fourier_sum(args.n, args.seed)
        inst, params, phase = None, {}, 1.0
    else:
        inst, params = _build_instance(args)
        if inst.start is None:
            raise ContractError("C vanishes, so the instance has no starting block")
        matrix, Z, phase = inst.matrix, inst.start, inst.phase
    out = args.out
    files: dict[str, str] = {}
    writes = []
    manifest: dict = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "seed": args.seed,
        "tool_version": __version__,
        "params": params,
        "n": int(matrix.shape[0]),
        "phase": _cplx(phase),
    }

    def save(role, name, data, vector=False):
        writes.append((os.path.join(out, name), data, vector))
        files[role] = name

    save("matrix", "H.mtx" if inst is None else "A.mtx", matrix)
    save("start", "Z.mtx", Z)
    if inst is not None:
        for role in ("x", "y", "u", "v"):
            if role in inst.perturbation_data:
                save(role, f"{role}.mtx", inst.perturbation_data[role], vector=True)
        if "C" in inst.perturbation_data:
            save("perturbation", "C.mtx", inst.perturbation_data["C"])
        manifest["certificate"] = _cert_to_json(inst.certificate)
        manifest["instance_family"] = inst.family
        if inst.conic is not None:
            manifest["conic"] = _conic_to_json(inst.conic)
    manifest["files"] = files
    # a manifest orjson cannot encode raises here, before any file is written
    _encode_json(manifest)
    os.makedirs(out, exist_ok=True)
    for path, data, vector in writes:
        (write_vector if vector else write_matrix)(path, data)
    _write_json(os.path.join(out, "manifest.json"), manifest)
    _print_json({"out": out, "files": files})
    return EXIT_OK


def _build_instance(args):
    """The instance of every family but fourier-sum, and the manifest
    ``params`` of its arguments, all parsed before any file is written."""
    fam = args.family
    if fam in ("companion", "colleague"):
        if not args.coeffs:
            raise ContractError(f"--coeffs is required for the {fam} family")
        coeffs = _parse_coeffs(args.coeffs)
        build = companion if fam == "companion" else chebyshev_colleague
        return build(coeffs), {"coeffs": [_cplx(z) for z in coeffs]}
    if fam == "curve":
        inst = curve_normal_plus_rank_one(args.n, args.curve.replace("-", "_"), args.seed)
        return inst, {"curve": args.curve}
    if fam == "solved":
        n = args.n
        if n < 2:
            raise ValueError(f"solved instances need n >= 2, got {n}")
        alpha = complex(args.alpha)
        C = np.zeros((n, n), dtype=np.complex128)
        if args.c_kind == "independent":
            C[0, 1] = 1.0
        else:
            C[0, 0] = alpha
        inst = solve_commutator_equation(C, seed=args.seed)
        return inst, {"c_kind": args.c_kind, "alpha": _cplx(alpha)}
    if fam == "arrow":
        return arrow_hermitian_plus_rank_one(args.n, args.seed), {}
    return random_unitary_plus_rank_one(args.n, args.seed), {}


def _read(path, inputs):
    """The matrix in the file ``path``; records the SHA-256 of the bytes the
    reader parsed in ``inputs[path]``."""
    digest = hashlib.sha256()
    data = read_matrix(path, digest=digest)
    inputs[path] = digest.hexdigest()
    return data


def cmd_reduce(args, argv) -> int:
    t0 = time.perf_counter()
    inputs: dict[str, str] = {}
    manifest = None

    def read(role):
        return _read(os.path.join(args.input, manifest["files"][role]), inputs)

    if os.path.isdir(args.input):
        manifest_path = os.path.join(args.input, "manifest.json")
        with open(manifest_path, "rb") as fh:
            text = fh.read()
        manifest = orjson.loads(text)
        inputs[manifest_path] = hashlib.sha256(text).hexdigest()
        A = read("matrix")
    else:
        A = _read(args.input, inputs)
    if args.start != "auto":
        Z, phase = _read(args.start, inputs), 1.0 + 0j
    elif manifest is None:
        raise ContractError(
            "automatic starting blocks need a manifest directory; "
            "pass --start with an explicit block file instead"
        )
    else:
        Z, phase = read("start"), complex(*manifest["phase"])
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
    if manifest is not None and "perturbation" in manifest["files"]:
        C = read("perturbation")
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
    inputs: dict[str, str] = {}
    A = _read(args.matrix, inputs)
    C = _read(args.perturbation, inputs)
    try:
        report = qr_iteration_tracked(A, C, args.steps, tol=args.tol)
    except ContractError as exc:
        raise ContractError(f"{exc}; run `blocktrid reduce` to produce one") from exc
    ok = report.c_residual <= args.tol and all(
        all(r <= 2 for r in rec.off_profile_block_ranks)
        and rec.c_residual_estimate <= args.tol
        for rec in report.iterations
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": " ".join(argv),
        "tool_version": __version__,
        "inputs": inputs,
        "initial_block_sizes": list(report.initial_profile.block_sizes),
        "discarded_norm": report.discarded_norm,
        "iterations": [
            {
                "step": rec.step,
                "shift": _cplx(rec.shift),
                "off_profile_block_ranks": list(rec.off_profile_block_ranks),
                "rank_margin": list(rec.rank_margin),
                "c_residual_estimate": rec.c_residual_estimate,
                "profile_growth": rec.profile_growth,
            }
            for rec in report.iterations
        ],
        "converged_eigenvalues": [_cplx(z) for z in report.converged_eigenvalues],
        "c_residual": report.c_residual,
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
