"""Matrix Market array interchange.

Matrices travel as Matrix Market dense arrays (``%%MatrixMarket matrix array
complex general``, column-major entry order).  Each component is written as
the shortest decimal that round-trips binary64 (orjson's formatter, whole
columns per call, up to 2,048 entries or one longer column, so the text stays
bounded, as does ``as_matrix``'s finiteness check, one row chunk at a time);
every value reads back bit for bit, the sign of a zero included, and
``scipy.io.mmread`` reads the files.  Real arrays are accepted on input.

Reading parses a body in the writer's layout (one entry per line, tokens
separated by single spaces) with orjson, ``PANEL_BYTES`` of whole lines at a
time, so memory beyond the result stays near one panel.  Any other body
(comment lines, CRLF, other spacing, ``nan``, ``%.17g`` integers such as
``-0``) is parsed by ``np.loadtxt``, with the same values and errors.  A
non-ASCII byte in a file raises ``MatrixMarketError``.  A reader given a
``digest`` (a :mod:`hashlib` object) feeds it every byte of the file as it
reads, so a caller gets the file's hash without reading it twice.
"""

from __future__ import annotations

import io
import os
import warnings

import numpy as np
import orjson

from .matcore import as_block, as_matrix


class MatrixMarketError(Exception):
    """The file is not a readable Matrix Market dense array."""


_BANNER = "%%MatrixMarket matrix array complex general\n"

# bytes of whole body lines parsed per orjson call
PANEL_BYTES = 1 << 16
_WRITE_ENTRIES = 2048  # entries per orjson call of the writer, unless one column has more
_NUMBER_BYTES = b"0123456789.eE+-"
_TO_COMMAS = bytes.maketrans(b" \n", b",,")


def write_matrix(path, M) -> None:
    """Write a dense complex matrix as a Matrix Market array file, whole
    columns per orjson call: up to 2,048 entries, or one longer column."""
    M = as_matrix(M)
    rows, cols = M.shape
    width = max(1, _WRITE_ENTRIES // rows)
    with open(path, "wb") as fh:
        fh.write(f"{_BANNER}{rows} {cols}\n".encode("ascii"))
        for j in range(0, cols, width):
            parts = np.ascontiguousarray(M[:, j:j + width].T).view(np.float64).reshape(-1)
            # [re,im,re,im,...] -> "re im\nre im\n...", "]" ending the last line
            text = bytearray(orjson.dumps(parts, option=orjson.OPT_SERIALIZE_NUMPY))
            codes = np.frombuffer(text, np.uint8)
            commas = np.flatnonzero(codes == ord(","))
            codes[commas[0::2]] = ord(" ")
            codes[commas[1::2]] = codes[-1] = ord("\n")
            fh.write(codes[1:])


def read_matrix(path, *, digest=None) -> np.ndarray:
    """Read a Matrix Market dense array file (complex or real, general).

    ``digest.update`` receives every byte of the file, in order, from the
    same reads that parse it.
    """
    update = digest.update if digest is not None else _ignore
    with open(path, "rb") as fh:
        tokens = _header_line(fh, path, update).strip().lower().split()
        if len(tokens) != 5 or tokens[0] != "%%matrixmarket":
            raise MatrixMarketError(f"{path}: not a Matrix Market file")
        _, obj, fmt, field, symmetry = tokens
        if obj != "matrix" or fmt != "array":
            raise MatrixMarketError(f"{path}: only dense 'matrix array' files are supported")
        if field not in ("complex", "real", "integer"):
            raise MatrixMarketError(f"{path}: unsupported field {field!r}")
        if symmetry != "general":
            raise MatrixMarketError(f"{path}: only 'general' symmetry is supported")
        line = _header_line(fh, path, update)
        while line.startswith("%"):
            line = _header_line(fh, path, update)
        try:
            rows, cols = (int(t) for t in line.split())
        except ValueError as exc:
            raise MatrixMarketError(f"{path}: malformed size line {line!r}") from exc
        if rows < 1 or cols < 1:
            raise MatrixMarketError(f"{path}: empty array {rows}x{cols}")
        width = 2 if field == "complex" else 1
        start = fh.tell()
        body = _read_panels(fh, rows * cols, width, update)
        if body is None:
            # hash the bytes the panels did not reach, then parse them all
            while block := fh.read(PANEL_BYTES):
                update(block)
            fh.seek(start)
            with warnings.catch_warnings():
                # an empty body is reported below as a wrong entry count
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    text = io.TextIOWrapper(fh, encoding="ascii")
                    body = np.loadtxt(text, comments="%", ndmin=2)
                except ValueError as exc:
                    raise MatrixMarketError(f"{path}: malformed entry: {exc}") from exc
    if body.shape != (rows * cols, width):
        raise MatrixMarketError(
            f"{path}: expected {rows * cols} {field} entries of {width} numbers, "
            f"found {body.shape[0]} lines of {body.shape[1]}"
        )
    if field == "complex":
        # a view keeps each component's bits, signed zeros included
        values = body.view(np.complex128)[:, 0]
    else:
        values = body[:, 0].astype(np.complex128)
    return values.reshape((rows, cols), order="F")


def _ignore(data) -> None:
    pass


def _header_line(fh, path, update) -> str:
    raw = fh.readline()
    update(raw)
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MatrixMarketError(f"{path}: non-ASCII header line {raw!r}") from exc


def _read_panels(fh, entries: int, width: int, update=_ignore) -> np.ndarray | None:
    """The rest of ``fh`` as an ``(entries, width)`` array, or None.

    Each panel of whole lines goes through one ``orjson.loads`` of its
    comma-joined tokens.  Returns None, with part of the body consumed,
    unless there are ``entries`` lines of ``width`` JSON floats separated by
    single spaces; a JSON integer counts as foreign, since orjson reads
    ``-0`` as the int 0.  Every byte read goes to ``update`` first.
    """
    if 2 * entries * width > os.fstat(fh.fileno()).st_size - fh.tell():
        return None  # too short for the declared size, whatever the layout
    out = np.empty(entries * width)
    line = b" " * (width - 1) + b"\n"
    filled, rest = 0, b""
    while block := fh.read(PANEL_BYTES):
        update(block)
        cut = block.rfind(b"\n") + 1
        if cut == 0:
            return None
        panel, rest = rest + block[:cut], block[cut:]
        seps = panel.translate(None, _NUMBER_BYTES)
        if seps != line * (len(seps) // width):
            return None
        try:
            values = orjson.loads(b"[" + panel[:-1].translate(_TO_COMMAS) + b"]")
        except orjson.JSONDecodeError:
            return None
        count = len(values)
        if filled + count > out.size or set(map(type, values)) != {float}:
            return None
        out[filled:filled + count] = np.fromiter(values, np.float64, count)
        filled += count
    if rest or filled != out.size:
        return None
    return out.reshape(entries, width)


def write_vector(path, v) -> None:
    """Write a vector as an n x 1 array file."""
    write_matrix(path, as_block(v, "vector"))


def read_vector(path, *, digest=None) -> np.ndarray:
    """Read an n x 1 (or 1 x n) array file as a 1-D vector; ``digest`` as
    in :func:`read_matrix`."""
    M = read_matrix(path, digest=digest)
    if M.shape[1] == 1:
        return M[:, 0]
    if M.shape[0] == 1:
        return M[0, :]
    raise MatrixMarketError(f"{path}: expected a vector, got shape {M.shape}")
