import json

import numpy as np
import pytest

from blocktrid.almostnormal import certify
from blocktrid.cli import main
from blocktrid.mmio import read_matrix, write_matrix


def run(*argv):
    return main(list(argv))


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestGenerate:
    def test_companion_writes_files(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--family", "companion",
                   "--coeffs", "1,0,0,0,1", "--out", str(out)) == 0
        manifest = load_report(out / "manifest.json")
        assert manifest["schema_version"] == "1"
        assert (out / manifest["files"]["matrix"]).exists()
        assert (out / manifest["files"]["perturbation"]).exists()
        assert manifest["certificate"]["residual"] <= 1e-10

    def test_fourier_writes_matrix_and_start(self, tmp_path):
        out = tmp_path / "fs"
        assert run("generate", "--family", "fourier-sum", "--n", "16",
                   "--seed", "1", "--out", str(out)) == 0
        assert (out / "H.mtx").exists()
        assert (out / "Z.mtx").exists()
        assert read_matrix(out / "Z.mtx").shape == (16, 2)

    def test_curve_manifest_lists_conic(self, tmp_path):
        out = tmp_path / "cur"
        assert run("generate", "--family", "curve", "--curve", "parabola-arc",
                   "--n", "32", "--seed", "3", "--out", str(out)) == 0
        manifest = load_report(out / "manifest.json")
        assert "conic" in manifest
        assert set(manifest["conic"]) >= {"a20", "a11", "a02", "a10", "a01", "a00"}

    def test_identical_runs_are_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--family", "arrow", "--n", "12",
                       "--seed", "4", "--out", str(out)) == 0
        assert (a / "A.mtx").read_text() == (b / "A.mtx").read_text()
        assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()

    def test_unknown_family_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run("generate", "--family", "nonsense", "--out", str(tmp_path))


class TestReduce:
    def test_arrow_pipeline(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "arrow", "--n", "16", "--seed", "1",
            "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        assert max(report["block_sizes"]) <= 2
        for key in ("unitarity", "similarity", "off_profile", "certificate"):
            assert report["residuals"][key] <= 1e-10
        assert (red / "U.mtx").exists()
        assert (red / "T.mtx").exists()
        assert (red / "A_trid.mtx").exists()
        assert (red / "C_trid.mtx").exists()

    def test_companion_block_bound(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "companion",
            "--coeffs", "1,0.3,0,0.2,1,0,0,0.5,1.2", "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        assert max(load_report(red / "report.json")["block_sizes"]) <= 4

    def test_curve_first_block_six_then_four(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "curve", "--curve", "parabola-arc",
            "--n", "24", "--seed", "3", "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        sizes = report["block_sizes"]
        assert sizes[0] <= 6
        assert all(s <= 4 for s in sizes[1:])
        assert report["rotation_phase"] != [1.0, 0.0]

    def test_curve_line_routes_to_hermitian_path(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "curve", "--curve", "line",
            "--n", "16", "--seed", "2", "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        assert max(report["block_sizes"]) <= 2
        assert report["rotation_phase"] == [1.0, 0.0]

    def test_fourier_breakdown_reported_not_failed(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "fourier-sum", "--n", "16", "--seed", "1",
            "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        assert report["restarted"]
        assert report["breakdown_events"][0][0] <= 3

    def test_explicit_start_block(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "arrow", "--n", "10", "--seed", "0",
            "--out", str(gen))
        x = read_matrix(gen / "x.mtx")
        y = read_matrix(gen / "y.mtx")
        start = tmp_path / "Z.mtx"
        write_matrix(start, np.hstack([x, y]))
        assert run("reduce", str(gen / "A.mtx"), "--start", str(start),
                   "--out", str(red)) == 0
        assert max(load_report(red / "report.json")["block_sizes"]) <= 2

    def test_report_deterministic_except_timing(self, tmp_path):
        gen = tmp_path / "gen"
        run("generate", "--family", "arrow", "--n", "12", "--seed", "2",
            "--out", str(gen))
        reports = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run("reduce", str(gen), "--out", str(out))
            rep = load_report(out / "report.json")
            rep.pop("elapsed_ms")
            rep.pop("command")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_solved_dependent_pipeline(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        code = run("generate", "--family", "solved", "--n", "4", "--seed", "0",
                   "--c-kind", "dependent", "--alpha", "2.0", "--out", str(gen))
        if code != 0:
            pytest.skip("commutator solver did not converge (heuristic)")
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        assert all(s == 1 for s in report["block_sizes"])
        assert report["rotation_phase"] != [1.0, 0.0]

    def test_matrix_without_manifest_needs_start(self, tmp_path):
        path = tmp_path / "A.mtx"
        write_matrix(path, np.eye(4))
        assert run("reduce", str(path), "--out", str(tmp_path / "o")) == 4

    def test_malformed_manifest_is_contract_error(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text('{"schema_version": "1"}')
        assert run("reduce", str(bad), "--out", str(tmp_path / "o")) == 4
        assert "manifest" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("reduce", str(tmp_path / "nope"), "--out", str(tmp_path)) == 3


class TestVerify:
    def test_valid_certificate(self, tmp_path):
        gen = tmp_path / "gen"
        run("generate", "--family", "unitary", "--n", "12", "--seed", "5",
            "--out", str(gen))
        assert run("verify", str(gen / "A.mtx"), str(gen / "C.mtx"), "--k", "2") == 0

    def test_normal_matrix_zero_perturbation(self, tmp_path):
        a, c = tmp_path / "A.mtx", tmp_path / "C.mtx"
        write_matrix(a, np.diag([1.0 + 1j, 2.0, 3.0]))
        write_matrix(c, np.zeros((3, 3)))
        assert run("verify", str(a), str(c), "--k", "0") == 0

    def test_wrong_perturbation_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a, c = tmp_path / "A.mtx", tmp_path / "C.mtx"
        write_matrix(a, crandn(rng, 12, 12))
        write_matrix(c, np.outer(crandn(rng, 12), crandn(rng, 12).conj()))
        assert run("verify", str(a), str(c), "--k", "1") == 2
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["residual"] > 1e-3

    def test_scaled_dense_matrix_fails(self, tmp_path, capsys):
        # the commutator of a dense matrix is far from zero at every scale
        rng = np.random.default_rng(64)
        A = 1e-6 * crandn(rng, 64, 64)
        C = np.zeros((64, 64))
        assert not certify(A, C, 2).valid
        a, c = tmp_path / "A.mtx", tmp_path / "C.mtx"
        write_matrix(a, A)
        write_matrix(c, C)
        assert run("verify", str(a), str(c), "--k", "2") == 2
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["residual"] > 1e-3


class TestSpy:
    def test_identity_ascii(self, tmp_path, capsys):
        path = tmp_path / "I.mtx"
        write_matrix(path, np.eye(4))
        assert run("spy", str(path)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["*...", ".*..", "..*.", "...*"]

    def test_reduced_arrow_staircase(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "arrow", "--n", "12", "--seed", "1",
            "--out", str(gen))
        run("reduce", str(gen), "--out", str(red))
        out = tmp_path / "spy.txt"
        assert run("spy", str(red / "A_trid.mtx"), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        # first row couples only to the first two blocks
        assert set(lines[0][4:]) == {"."}
        assert set(lines[4][:2]) == {"."}
        assert set(lines[4][8:]) == {"."}

    def test_pgm_requires_output_path(self, tmp_path):
        path = tmp_path / "I.mtx"
        write_matrix(path, np.eye(3))
        assert run("spy", str(path), "--format", "pgm") == 4

    def test_pgm_output(self, tmp_path):
        path = tmp_path / "I.mtx"
        write_matrix(path, np.eye(3))
        out = tmp_path / "spy.pgm"
        assert run("spy", str(path), "--format", "pgm", "--out", str(out)) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n3 3\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert len(pixels) == 9
        assert pixels[0] == 0 and pixels[1] == 255


class TestQrTrack:
    def test_tracked_pipeline(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "companion",
            "--coeffs", "1,0.3,0,0.2,1,0,0,0.5,1.2", "--out", str(gen))
        run("reduce", str(gen), "--out", str(red))
        out = tmp_path / "track.json"
        assert run("qr-track", str(red / "A_trid.mtx"), str(red / "C_trid.mtx"),
                   "--steps", "12", "--out", str(out)) == 0
        payload = load_report(out)
        assert payload["within_rank_bound"]
        for rec in payload["iterations"]:
            assert all(r <= 2 for r in rec["off_profile_block_ranks"])
            assert rec["c_residual"] <= 1e-8

    def test_dense_input_names_reduce(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a, c = tmp_path / "A.mtx", tmp_path / "C.mtx"
        write_matrix(a, crandn(rng, 10, 10))
        write_matrix(c, crandn(rng, 10, 10))
        assert run("qr-track", str(a), str(c), "--steps", "3") == 4
        assert "reduce" in capsys.readouterr().err
