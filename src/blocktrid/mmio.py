"""Matrix Market array interchange.

Matrices travel as Matrix Market dense arrays (``%%MatrixMarket matrix array
complex general``, column-major entry order) with 17 significant decimal
digits per component, enough to round-trip binary64 exactly.  Real arrays are
accepted on input for convenience.
"""

from __future__ import annotations

import warnings

import numpy as np

from .matcore import as_matrix


class MatrixMarketError(Exception):
    """The file is not a readable Matrix Market dense array."""


_BANNER = "%%MatrixMarket matrix array complex general\n"


def write_matrix(path, M) -> None:
    """Write a dense complex matrix as a Matrix Market array file."""
    M = as_matrix(M)
    rows, cols = M.shape
    column = "%.16e %.16e\n" * rows
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_BANNER)
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            parts = np.ascontiguousarray(M[:, j]).view(np.float64)
            fh.write(column % tuple(parts.tolist()))


def read_matrix(path) -> np.ndarray:
    """Read a Matrix Market dense array file (complex or real, general)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        tokens = header.strip().lower().split()
        if len(tokens) != 5 or tokens[0] != "%%matrixmarket":
            raise MatrixMarketError(f"{path}: not a Matrix Market file")
        _, obj, fmt, field, symmetry = tokens
        if obj != "matrix" or fmt != "array":
            raise MatrixMarketError(f"{path}: only dense 'matrix array' files are supported")
        if field not in ("complex", "real", "integer"):
            raise MatrixMarketError(f"{path}: unsupported field {field!r}")
        if symmetry != "general":
            raise MatrixMarketError(f"{path}: only 'general' symmetry is supported")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            rows, cols = (int(t) for t in line.split())
        except ValueError as exc:
            raise MatrixMarketError(f"{path}: malformed size line {line!r}") from exc
        if rows < 1 or cols < 1:
            raise MatrixMarketError(f"{path}: empty array {rows}x{cols}")
        with warnings.catch_warnings():
            # an empty body is reported below as a wrong entry count
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                body = np.loadtxt(fh, comments="%", ndmin=2)
            except ValueError as exc:
                raise MatrixMarketError(f"{path}: malformed entry: {exc}") from exc
    width = 2 if field == "complex" else 1
    if body.shape != (rows * cols, width):
        raise MatrixMarketError(
            f"{path}: expected {rows * cols} {field} entries of {width} numbers, "
            f"found {body.shape[0]} lines of {body.shape[1]}"
        )
    if field == "complex":
        values = body[:, 0] + 1j * body[:, 1]
    else:
        values = body[:, 0].astype(np.complex128)
    return values.reshape((rows, cols), order="F")


def write_vector(path, v) -> None:
    """Write a vector as an n x 1 array file."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 1:
        v = v[:, None]
    write_matrix(path, v)


def read_vector(path) -> np.ndarray:
    """Read an n x 1 (or 1 x n) array file as a 1-D vector."""
    M = read_matrix(path)
    if M.shape[1] == 1:
        return M[:, 0]
    if M.shape[0] == 1:
        return M[0, :]
    raise MatrixMarketError(f"{path}: expected a vector, got shape {M.shape}")
