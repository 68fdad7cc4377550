import warnings

import numpy as np
import pytest
import scipy.io

from blocktrid.cli import EXIT_IO, main
from blocktrid.mmio import (
    MatrixMarketError,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (8, 8)])
def test_round_trip_exact(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    M = crandn(rng, *shape) * 10.0 ** rng.integers(-8, 8)
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    back = read_matrix(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


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
    ],
    ids=["token", "one-number", "extra-entry", "no-body"],
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
