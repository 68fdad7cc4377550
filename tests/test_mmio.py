import gc
import hashlib
import os
import tracemalloc
import warnings

import numpy as np
import orjson
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blocktrid.cli import EXIT_IO, main
from blocktrid.mmio import (
    PANEL_BYTES,
    MatrixMarketError,
    _read_panels,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)

from helpers import crandn


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (8, 8), (1, 7), (7, 1)])
def test_round_trip_exact(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    M = crandn(rng, *shape) * 10.0 ** rng.integers(-8, 8)
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    back = read_matrix(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


# binary64 values whose shortest decimal is easy to get wrong: subnormals, the
# smallest normal, the largest finite, integers past 2**53 and the powers of
# ten around the last exactly representable one
EDGE_VALUES = np.array([
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    2.0**53 + 2, -(2.0**60), 2.0**63 + 2048, 1e16, 1e22, 1e23, -1e23,
])


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def test_round_trip_keeps_signed_zeros(tmp_path):
    zeros = np.array(
        [[complex(-0.0, -0.0), complex(-0.0, 1.5)],
         [complex(2.5, -0.0), complex(0.0, -0.0)],
         [complex(-0.0, 0.0), complex(-1e-300, -0.0)]]
    )
    edges = EDGE_VALUES + 1j * EDGE_VALUES[::-1]
    path = tmp_path / "z.mtx"
    for M in (zeros, edges[None, :], edges[:, None]):
        write_matrix(path, M)
        assert_same_bits(read_matrix(path), M)
        assert np.array_equal(scipy.io.mmread(path), M)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_any_finite_array_round_trips(tmp_path_factory, parts):
    M = np.ascontiguousarray(parts).view(np.complex128)[:, :, 0]
    path = tmp_path_factory.mktemp("prop") / "m.mtx"
    write_matrix(path, M)
    assert_same_bits(read_matrix(path), M)
    assert np.array_equal(scipy.io.mmread(path), M)


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_write_formats_bounded_chunks(tmp_path, n):
    """The writer holds one chunk's text, never the body's: under the
    matrix's own size, and under a fixed 2 MiB (at 1024 the body is about
    40 MiB of text)."""
    M = crandn(np.random.default_rng(11), n, n)
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "big.mtx", M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < M.nbytes
    assert peak < 2 << 20


def oracle_text(M):
    """The writer's bytes, built one component at a time: the banner, the
    size line, then ``re im`` per entry in column-major order, each
    component as orjson writes a lone float."""
    lines = [
        orjson.dumps(float(z.real)) + b" " + orjson.dumps(float(z.imag)) + b"\n"
        for z in M.ravel(order="F").tolist()
    ]
    head = f"{BANNER}\n{M.shape[0]} {M.shape[1]}\n".encode("ascii")
    return head + b"".join(lines)


EDGE_ENTRIES = (EDGE_VALUES + 1j * EDGE_VALUES[::-1]).tolist() + [
    complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
    complex(1e-5, -123456.789), complex(-1e16, 5e-324),
]


@pytest.mark.parametrize(
    "shape", [(2049, 1), (1, 2049), (700, 3), (3, 1000), (2048, 2), (1, 1)]
)
def test_write_matches_per_component_oracle(tmp_path, shape):
    """Shapes whose columns straddle the writer's 2,048-entry chunks, with
    edge values and signed zeros scattered through them."""
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    M = crandn(rng, *shape) * 10.0 ** rng.integers(-300, 300, shape)
    spots = rng.choice(M.size, min(M.size, len(EDGE_ENTRIES)), replace=False)
    M.flat[spots] = EDGE_ENTRIES[:spots.size]
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    assert path.read_bytes() == oracle_text(M)


def test_write_matches_oracle_on_edge_values(tmp_path):
    edges = np.array(EDGE_ENTRIES)
    path = tmp_path / "e.mtx"
    for M in (edges[None, :], edges[:, None], np.full((5, 5), complex(-0.0, -0.0))):
        write_matrix(path, M)
        assert path.read_bytes() == oracle_text(M)


def foreign(path, text):
    """Write ``text`` (the writer's layout) with a comment after the size
    line, a layout the orjson panels refuse, so ``np.loadtxt`` parses it."""
    banner, size, body = text.split(b"\n", 2)
    path.write_bytes(b"\n".join([banner, size, b"% loadtxt", body]))
    return path


def read_fast(path, entries, width):
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        return _read_panels(fh, entries, width)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_panels_and_loadtxt_agree(tmp_path_factory, parts):
    M = np.ascontiguousarray(parts).view(np.complex128)[:, :, 0]
    d = tmp_path_factory.mktemp("agree")
    write_matrix(d / "m.mtx", M)
    fast = read_fast(d / "m.mtx", M.size, 2)
    assert fast is not None
    assert_same_bits(fast.view(np.complex128)[:, 0].reshape(M.shape, order="F"), M)
    assert_same_bits(read_matrix(foreign(d / "f.mtx", (d / "m.mtx").read_bytes())), M)


def big_text(rng, rows=64, cols=64):
    """A matrix whose written body spans several panels, and its text."""
    M = crandn(rng, rows, cols)
    M[::7, ::5] = complex(-0.0, 0.0)
    M[3::11, 2::3] = complex(3.0, -0.0)
    lines = [f"{z.real!r} {z.imag!r}" for z in M.ravel(order="F").tolist()]
    return M, lines


BANNER = "%%MatrixMarket matrix array complex general"


@pytest.mark.parametrize(
    "layout", ["mid-comments", "crlf", "spaces", "17g", "trailing-comment"]
)
def test_foreign_layouts_read_like_loadtxt(tmp_path, layout):
    M, lines = big_text(np.random.default_rng(8))
    size = f"{M.shape[0]} {M.shape[1]}"
    if layout == "mid-comments":
        for at in (len(lines) - 10, len(lines) // 2, 3000):
            lines.insert(at, "% a comment inside the body")
    elif layout == "spaces":
        lines = [" " + ln.replace(" ", "  ") + " " for ln in lines]
    elif layout == "17g":
        lines = ["%.17g %.17g" % (z.real, z.imag) for z in M.ravel(order="F")]
        assert {"-0 0", "3 -0"} <= set(lines)
    elif layout == "trailing-comment":
        lines[-1] += " % last"
    eol = "\r\n" if layout == "crlf" else "\n"
    text = eol.join([BANNER, size, *lines]) + eol
    assert len(text) > 2 * PANEL_BYTES
    path = tmp_path / "f.mtx"
    path.write_bytes(text.encode("ascii"))
    assert read_fast(path, M.size, 2) is None
    assert_same_bits(read_matrix(path), M)


@pytest.mark.parametrize(
    "field, tokens, fast",
    [
        ("real", ["1.5", "-0.0", "2e-300", "1.7976931348623157e308"], True),
        ("real", ["1.5", "-0", "7", "1e400"], False),
        ("integer", ["1", "-0", "123456789012345678901234567", "-5"], False),
    ],
)
def test_real_and_integer_fields(tmp_path, field, tokens, fast):
    text = f"%%MatrixMarket matrix array {field} general\n2 2\n" + "\n".join(tokens) + "\n"
    path = tmp_path / "r.mtx"
    path.write_text(text)
    expected = np.array([float(t) for t in tokens]).reshape(2, 2, order="F")
    assert (read_fast(path, 4, 1) is not None) == fast
    M = read_matrix(path)
    assert_same_bits(M.real, expected)
    assert not M.imag.any()


def test_malformed_token_after_first_panel(tmp_path):
    M, lines = big_text(np.random.default_rng(9))
    lines[-5] = "1.0 x"
    path = tmp_path / "bad.mtx"
    path.write_text("\n".join([BANNER, "64 64", *lines]) + "\n")
    assert lines.index("1.0 x") * 30 > PANEL_BYTES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixMarketError, match="malformed entry"):
            read_matrix(path)
        gc.collect()


@pytest.mark.parametrize(
    "text",
    [
        b"%%MatrixMarket matrix array complex g\xe9n\xe9ral\n1 1\n1.0 0.0\n",
        b"%%MatrixMarket matrix array complex general\n% caf\xe9\n1 1\n1.0 0.0\n",
        b"%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\xe9\n",
    ],
    ids=["banner", "header-comment", "body"],
)
def test_non_ascii_byte_is_an_io_error(tmp_path, capsys, text):
    path = tmp_path / "bad.mtx"
    path.write_bytes(text)
    with pytest.raises(MatrixMarketError, match="bad.mtx"):
        read_matrix(path)
    assert main(["spy", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_read_parses_one_panel_at_a_time(tmp_path):
    M = crandn(np.random.default_rng(11), 256, 256)
    path = tmp_path / "big.mtx"
    write_matrix(path, M)
    tracemalloc.start()
    try:
        back = read_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, M)
    # the result plus a few panels' bytes, tokens and floats; parsing the
    # whole body at once would hold the 2.6 MB text and more
    assert peak < M.nbytes + 8 * PANEL_BYTES < os.path.getsize(path) / 1.5


@pytest.mark.parametrize(
    "layout", ["writer", "first-panel", "mid-comments", "trailing-comment", "crlf"]
)
def test_digest_covers_every_byte(tmp_path, layout):
    """The digest the reader feeds equals the SHA-256 of the file, whether
    the orjson panels parse all of it, refuse its first panel, or refuse one
    later and hand the rest to ``np.loadtxt``."""
    M, lines = big_text(np.random.default_rng(12))
    path = tmp_path / "m.mtx"
    if layout == "writer":
        write_matrix(path, M)
    elif layout == "first-panel":
        write_matrix(tmp_path / "w.mtx", M)
        foreign(path, (tmp_path / "w.mtx").read_bytes())
    else:
        if layout == "mid-comments":
            lines.insert(3000, "% a comment inside the body")
        elif layout == "trailing-comment":
            lines[-1] += " % last"
        eol = "\r\n" if layout == "crlf" else "\n"
        path.write_bytes((eol.join([BANNER, "64 64", *lines]) + eol).encode("ascii"))
    assert (read_fast(path, M.size, 2) is None) == (layout != "writer")
    digest = hashlib.sha256()
    assert_same_bits(read_matrix(path, digest=digest), M)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_vector_digest(tmp_path):
    v = crandn(np.random.default_rng(13), 300)
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    digest = hashlib.sha256()
    assert np.array_equal(read_vector(path, digest=digest), v)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_digest_keeps_one_panel_in_memory(tmp_path):
    M = crandn(np.random.default_rng(11), 256, 256)
    path = tmp_path / "big.mtx"
    write_matrix(path, M)
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        back = read_matrix(path, digest=digest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, M)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < M.nbytes + 8 * PANEL_BYTES


def test_banner_is_standard(tmp_path):
    rng = np.random.default_rng(4)
    M = crandn(rng, 6, 4)
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    first = path.read_text().splitlines()[0]
    assert first == "%%MatrixMarket matrix array complex general"
    assert np.array_equal(scipy.io.mmread(path), M)


def test_vector_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    v = crandn(rng, 7)
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_reads_real_arrays(tmp_path):
    path = tmp_path / "r.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1.5\n-2.0\n0.25\n3.0\n"
    )
    M = read_matrix(path)
    assert np.array_equal(M, np.array([[1.5, 0.25], [-2.0, 3.0]], dtype=complex))


def test_skips_comment_lines(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%matrixmarket matrix array complex general\n"
        "% a comment\n"
        "1 2\n"
        "1.0 0.0\n"
        "% another\n"
        "2.0 -1.0\n"
    )
    M = read_matrix(path)
    assert np.array_equal(M, np.array([[1.0, 2.0 - 1.0j]]))


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("hello world\n1 1\n0 0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix(path)


def test_coordinate_format_rejected(tmp_path):
    path = tmp_path / "coord.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix(path)


def test_symmetric_storage_rejected(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n1 1\n2.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix(path)


def test_entry_count_mismatch_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%matrixmarket matrix array complex general\n2 2\n1.0 0.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix(path)


@pytest.mark.parametrize(
    "body",
    [
        "2 1\n1.0 0.0\n2.0 x\n",  # malformed token
        "2 1\n1.0\n2.0\n",  # one number per complex entry
        "1 1\n1.0 0.0\n2.0 0.0\n",  # more entries than declared
        "2 2\n",  # size line and no entries
        "100000000 100000000\n1.0 0.0\n",  # far more entries than bytes
    ],
    ids=["token", "one-number", "extra-entry", "no-body", "huge-size"],
)
def test_malformed_body_rejected(tmp_path, capsys, body):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixMarketError):
            read_matrix(path)
    assert main(["spy", str(path)]) == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_matrix_as_vector_rejected(tmp_path):
    path = tmp_path / "mat.mtx"
    write_matrix(path, np.eye(3))
    with pytest.raises(MatrixMarketError):
        read_vector(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "absent.mtx")
