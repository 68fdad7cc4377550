import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

from blocktrid.almostnormal import CommutatorCertificate, certify, commutator_residual
from blocktrid import cli, mmio
from blocktrid.cli import main
from blocktrid.mmio import read_matrix, write_matrix

from helpers import crandn, planted_tridiagonal


def run(*argv):
    return main(list(argv))


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestGenerate:
    def test_companion_writes_files(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--family", "companion",
                   "--coeffs", "1,0,0,0,1", "--out", str(out)) == 0
        manifest = load_report(out / "manifest.json")
        assert manifest["schema_version"] == "5"
        assert (out / manifest["files"]["matrix"]).exists()
        assert (out / manifest["files"]["perturbation"]).exists()
        assert manifest["certificate"]["residual"] <= 1e-10

    @pytest.mark.parametrize("family, extra, width", [
        ("arrow", (), 2),
        ("unitary", (), 4),
        ("companion", ("--coeffs", "1,0.3,0,0.2,1,0,0,0.5,1.2"), 4),
        ("colleague", ("--coeffs", "1,0.3,0,0.2,1,0,0,0.5,1.2"), 2),
        ("curve", ("--curve", "parabola-arc"), 6),
    ])
    def test_every_family_writes_start_and_phase(self, tmp_path, family, extra, width):
        out = tmp_path / "gen"
        assert run("generate", "--family", family, "--n", "16", "--seed", "3",
                   *extra, "--out", str(out)) == 0
        manifest = load_report(out / "manifest.json")
        assert (out / manifest["files"]["matrix"]).exists()
        assert manifest["files"]["start"] == "Z.mtx"
        assert read_matrix(out / "Z.mtx").shape == (manifest["n"], width)
        # the reduction applies A and A^H together, so no family needs a phase
        assert "phase" not in manifest

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

    @pytest.mark.parametrize("c_kind", ["independent", "dependent"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_solved_below_two_is_contract_error(self, tmp_path, capsys, n, c_kind):
        out = tmp_path / "gen"
        assert run("generate", "--family", "solved", "--n", str(n),
                   "--c-kind", c_kind, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err == f"error: solved instances need n >= 2, got {n}\n"
        assert not (out / "A.mtx").exists()

    def test_bad_alpha_writes_no_file(self, tmp_path, capsys):
        # the default --c-kind independent never uses --alpha, but it is
        # checked with every other argument before the first file is written
        out = tmp_path / "gen"
        assert run("generate", "--family", "solved", "--n", "4", "--alpha", "bogus",
                   "--out", str(out)) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.rglob("*.mtx"))

    def test_zero_perturbation_writes_no_file(self, tmp_path, capsys):
        # --alpha 0 makes C = 0: the instance has nothing to start a reduction from
        out = tmp_path / "gen"
        assert run("generate", "--family", "solved", "--n", "4", "--c-kind", "dependent",
                   "--alpha", "0", "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


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
        assert sorted(p.name for p in red.iterdir()) == [
            "A_trid.mtx", "C_trid.mtx", "U.mtx", "report.json"]
        assert report["blocks_grow"] is False

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
        assert "rotation_phase" not in report

    @pytest.mark.parametrize("n, seed", [(16, 2), (64, 159)])
    def test_curve_line_routes_to_hermitian_path(self, tmp_path, n, seed):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "curve", "--curve", "line",
            "--n", str(n), "--seed", str(seed), "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        assert max(report["block_sizes"]) <= 2
        assert load_report(gen / "manifest.json")["files"]["start"] == "Z.mtx"
        assert read_matrix(gen / "Z.mtx").shape[1] == 2

    def test_fourier_breakdown_reported_not_failed(self, tmp_path):
        for n, seed in ((16, 1), (128, 0)):
            gen, red = tmp_path / f"gen{n}", tmp_path / f"red{n}"
            run("generate", "--family", "fourier-sum", "--n", str(n),
                "--seed", str(seed), "--out", str(gen))
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

    @pytest.mark.parametrize("family, read", [
        ("arrow", ("A.mtx", "manifest.json", "Z.mtx", "C.mtx")),
        ("fourier-sum", ("H.mtx", "manifest.json", "Z.mtx")),
    ])
    def test_inputs_hash_every_file_read(self, tmp_path, family, read):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", family, "--n", "16", "--seed", "1",
            "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        assert load_report(red / "report.json")["inputs"] == {
            str(gen / name): hashlib.sha256((gen / name).read_bytes()).hexdigest()
            for name in read
        }

    def test_each_input_is_opened_once(self, tmp_path, monkeypatch):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "arrow", "--n", "16", "--seed", "1",
            "--out", str(gen))
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        monkeypatch.setattr(mmio, "open", recording_open, raising=False)
        assert run("reduce", str(gen), "--out", str(red)) == 0
        read = [p for p in opened if p.startswith(str(gen))]
        assert sorted(read) == sorted(load_report(red / "report.json")["inputs"])

    def test_zero_matrix_has_zero_residuals(self, tmp_path):
        a, start, red = tmp_path / "zero.mtx", tmp_path / "Z.mtx", tmp_path / "red"
        write_matrix(a, np.zeros((6, 6)))
        write_matrix(start, np.eye(6)[:, :2])
        assert run("reduce", str(a), "--start", str(start), "--out", str(red)) == 0
        residuals = load_report(red / "report.json")["residuals"]
        assert residuals == {"unitarity": 0.0, "similarity": 0.0,
                             "off_profile": 0.0, "certificate": None}

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
        assert "rotation_phase" not in report

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

    def test_manifest_without_start_names_field(self, tmp_path, capsys):
        # a schema "2" manifest lists no start block
        gen = tmp_path / "gen"
        assert run("generate", "--family", "curve", "--n", "16", "--seed", "3",
                   "--out", str(gen)) == 0
        manifest = load_report(gen / "manifest.json")
        manifest["schema_version"] = "2"
        del manifest["files"]["start"]
        (gen / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("reduce", str(gen), "--out", str(tmp_path / "red")) == 4
        assert capsys.readouterr().err == "error: manifest is missing the 'start' field\n"

    def test_normal_companion_reduces(self, tmp_path):
        # z^6 - 1: A is the cyclic shift, so A^H A - A A^H = 0
        gen, red = tmp_path / "gen", tmp_path / "red"
        assert run("generate", "--family", "companion", "--coeffs", "1,0,0,0,0,0,-1",
                   "--out", str(gen)) == 0
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        assert report["block_sizes"] == [2, 2, 2]
        assert report["residuals"] == {"unitarity": 0.0, "similarity": 0.0,
                                       "off_profile": 0.0, "certificate": 0.0}

    @pytest.mark.parametrize("family", [
        ("unitary", "--n", "2"),
        ("unitary", "--n", "3"),
        ("companion", "--coeffs", "1,0.5,0.3"),
        ("companion", "--coeffs", "1,0.5,0.3,0.2"),
        ("curve", "--curve", "circle", "--n", "4"),
        ("curve", "--curve", "parabola-arc", "--n", "4"),
        ("curve", "--curve", "parabola-arc", "--n", "5"),
    ])
    def test_smallest_sizes_reduce(self, tmp_path, family):
        # the family's block has more columns than n here; Z.mtx holds it as is
        gen, red = tmp_path / "gen", tmp_path / "red"
        name, *extra = family
        assert run("generate", "--family", name, *extra, "--out", str(gen)) == 0
        assert run("reduce", str(gen), "--out", str(red)) == 0
        report = load_report(red / "report.json")
        assert sum(report["block_sizes"]) == load_report(gen / "manifest.json")["n"]

    # squares of entries at 1e+-160 over- and underflow; the norms rescale
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
    def test_stdout_is_report_without_timing(self, tmp_path, capsys, scale):
        rng = np.random.default_rng(0)
        a, start, red = tmp_path / "A.mtx", tmp_path / "Z.mtx", tmp_path / "red"
        write_matrix(a, scale * crandn(rng, 6, 6))
        write_matrix(start, np.eye(6)[:, :2])
        capsys.readouterr()
        run("reduce", str(a), "--start", str(start), "--out", str(red))
        report = orjson.loads((red / "report.json").read_bytes())
        for key in ("similarity", "off_profile", "unitarity"):
            assert np.isfinite(report["residuals"][key])
        del report["elapsed_ms"]
        expected = orjson.dumps(report, option=orjson.OPT_SORT_KEYS).decode()
        assert capsys.readouterr().out == expected + "\n"


class TestBlocksGrow:
    """``reduce`` exits 2 when a block is wider than the block before it: the
    instance lacks the structure behind the family's block bound."""

    def test_circle_pipeline_at_256(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        assert run("generate", "--family", "curve", "--curve", "circle", "--n", "256",
                   "--seed", "2", "--out", str(gen)) == 0
        assert run("reduce", str(gen), "--out", str(red)) == 0
        assert run("qr-track", str(red / "A_trid.mtx"), str(red / "C_trid.mtx"),
                   "--steps", "30", "--out", str(tmp_path / "track.json")) == 0

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("c_kind", ["independent", "dependent"])
    def test_solved_exit_codes(self, tmp_path, c_kind, seed, n):
        # Gauss-Newton converges to reducible solutions, which the reduction
        # theorem does not cover, and their blocks widen; only independent
        # n = 8 seed 2 keeps its blocks
        gen, red = tmp_path / "gen", tmp_path / "red"
        assert run("generate", "--family", "solved", "--n", str(n), "--seed", str(seed),
                   "--c-kind", c_kind, "--out", str(gen)) == 0
        code = run("reduce", str(gen), "--out", str(red))
        report = load_report(red / "report.json")
        if (c_kind, n, seed) == ("independent", 8, 2):
            assert code == 0 and report["blocks_grow"] is False
        else:
            assert code == 2 and report["blocks_grow"] is True
        assert report["residuals"]["off_profile"] <= 1e-10

    def test_planted_growth_exits_2(self, tmp_path):
        rng = np.random.default_rng(12)
        a, start, red = tmp_path / "A.mtx", tmp_path / "Z.mtx", tmp_path / "red"
        write_matrix(a, crandn(rng, 12, 12))
        write_matrix(start, crandn(rng, 12, 1))
        assert run("reduce", str(a), "--start", str(start), "--out", str(red)) == 2
        report = load_report(red / "report.json")
        assert report["blocks_grow"] is True
        assert report["residuals"]["off_profile"] <= 1e-10

    def test_tiny_tol_exits_2_not_4(self, tmp_path):
        # at tol 1e-18 roundoff passes the cut and a candidate block has more
        # columns above it than the basis has left; the blocks fit n and grow
        gen, red = tmp_path / "gen", tmp_path / "red"
        assert run("generate", "--family", "arrow", "--n", "16", "--seed", "0",
                   "--out", str(gen)) == 0
        assert run("reduce", str(gen), "--tol", "1e-18", "--out", str(red)) == 2
        report = load_report(red / "report.json")
        assert report["blocks_grow"] is True
        assert sum(report["block_sizes"]) == 16

    def test_schema_4_phase_is_not_read(self, tmp_path):
        gen = tmp_path / "gen"
        assert run("generate", "--family", "curve", "--curve", "parabola-arc",
                   "--n", "24", "--seed", "3", "--out", str(gen)) == 0
        manifest = load_report(gen / "manifest.json")
        sizes = []
        for name, extra in (("with", {"phase": [0.0, 1.0]}), ("without", {})):
            (gen / "manifest.json").write_text(
                json.dumps({**manifest, "schema_version": "4", **extra}))
            assert run("reduce", str(gen), "--out", str(tmp_path / name)) == 0
            sizes.append(load_report(tmp_path / name / "report.json")["block_sizes"])
        assert sizes[0] == sizes[1]


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

    def test_svd_failure_is_numerical_error_exit(self, tmp_path, capsys, monkeypatch):
        gen = tmp_path / "gen"
        run("generate", "--family", "unitary", "--n", "12", "--seed", "5",
            "--out", str(gen))

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        capsys.readouterr()
        assert run("verify", str(gen / "A.mtx"), str(gen / "C.mtx"), "--k", "2") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SVD iteration failed to converge")

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


    @pytest.mark.parametrize("k", ["-1", "-3"])
    def test_negative_claimed_rank_is_contract_error(self, tmp_path, capsys, k):
        a, c = tmp_path / "A.mtx", tmp_path / "C.mtx"
        write_matrix(a, np.diag([1.0 + 1j, 2.0, 3.0]))
        write_matrix(c, np.zeros((3, 3)))
        assert run("verify", str(a), str(c), "--k", k) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-negative integer" in captured.err

    @pytest.mark.parametrize("family, extra", [
        ("arrow", ()),
        ("unitary", ()),
        ("companion", ("--coeffs", "1" + ",0" * 15 + ",0.5")),
        ("colleague", ("--coeffs", "1,0.5,-0.25" + ",0.125" * 14)),
        ("curve", ("--curve", "circle")),
        ("curve", ("--curve", "line")),
        ("solved", ()),
    ])
    def test_generate_and_verify_never_read_the_range_basis(
        self, tmp_path, monkeypatch, family, extra
    ):
        def refuse(self):
            raise RuntimeError("range_basis computed")

        monkeypatch.setattr(CommutatorCertificate, "range_basis", property(refuse))
        gen = tmp_path / "gen"
        assert run("generate", "--family", family, "--n", "16", *extra,
                   "--out", str(gen)) == 0
        assert run("verify", str(gen / "A.mtx"), str(gen / "C.mtx")) == 0


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
            assert rec["c_residual_estimate"] <= 1e-8
            dropped, kept = rec["rank_margin"]
            assert dropped is None or dropped <= 1.0
            assert kept is None or kept > 1.0
        assert payload["c_residual"] <= 1e-8

    def test_circle_instance_keeps_rank_bound(self, tmp_path):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "curve", "--curve", "circle", "--n", "64",
            "--seed", "324", "--out", str(gen))
        run("reduce", str(gen), "--out", str(red))
        out = tmp_path / "track.json"
        assert run("qr-track", str(red / "A_trid.mtx"), str(red / "C_trid.mtx"),
                   "--steps", "30", "--out", str(out)) == 0
        payload = load_report(out)
        assert len(payload["iterations"]) == 30
        assert 0.0 < payload["discarded_norm"] <= 1e-10
        assert all(max(rec["off_profile_block_ranks"]) <= 2
                   for rec in payload["iterations"])

    def test_rank_above_two_that_no_block_shows_exits_2(self, tmp_path):
        """A complex tridiagonal matrix with C = A^H - A keeps the relation
        exactly, and its outside blocks are 1 x 1, yet under QR its upper
        part reaches rank 3 and more."""
        A = planted_tridiagonal(16)
        a, c, out = tmp_path / "A.mtx", tmp_path / "C.mtx", tmp_path / "track.json"
        write_matrix(a, A)
        write_matrix(c, A.conj().T - A)
        assert run("qr-track", str(a), str(c), "--steps", "10", "--out", str(out)) == 2
        payload = load_report(out)
        assert payload["initial_block_sizes"] == [1] * 16
        assert not payload["within_rank_bound"]
        assert max(payload["iterations"][-1]["off_profile_block_ranks"]) >= 3
        assert all(rec["c_residual_estimate"] <= 1e-10 for rec in payload["iterations"])
        assert payload["c_residual"] <= 1e-10

    @pytest.mark.parametrize("A, steps", [
        (crandn(np.random.default_rng(4), 4, 4), "0"),
        (np.triu(crandn(np.random.default_rng(8), 8, 8)), "30"),
    ], ids=["no-steps", "deflated-before-step-1"])
    def test_relation_checked_when_no_step_runs(self, tmp_path, A, steps):
        """With C = 0 a matrix that is not normal breaks the relation.  No
        step runs on a dense 4 x 4 with --steps 0, nor on an upper triangular
        8 x 8, which deflates fully before step 1; the exact residual of the
        final pair still decides the exit."""
        a, c, out = tmp_path / "A.mtx", tmp_path / "C.mtx", tmp_path / "track.json"
        write_matrix(a, A)
        write_matrix(c, np.zeros_like(A))
        assert run("qr-track", str(a), str(c), "--steps", steps, "--out", str(out)) == 2
        payload = load_report(out)
        assert payload["iterations"] == []
        assert not payload["within_rank_bound"]
        assert payload["c_residual"] == commutator_residual(A, np.zeros_like(A)) > 1e-8

    def test_dense_input_names_reduce(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a, c = tmp_path / "A.mtx", tmp_path / "C.mtx"
        write_matrix(a, crandn(rng, 10, 10))
        write_matrix(c, crandn(rng, 10, 10))
        assert run("qr-track", str(a), str(c), "--steps", "3") == 4
        assert "reduce" in capsys.readouterr().err

    def test_zero_tolerance_named(self, tmp_path, capsys):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "arrow", "--n", "16", "--seed", "1",
            "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0
        capsys.readouterr()
        assert run("qr-track", str(red / "A_trid.mtx"), str(red / "C_trid.mtx"),
                   "--tol", "0") == 4
        assert "tol must be positive, got 0.0" in capsys.readouterr().err

    def test_svd_failure_is_numerical_error_exit(self, tmp_path, capsys, monkeypatch):
        gen, red = tmp_path / "gen", tmp_path / "red"
        run("generate", "--family", "arrow", "--n", "16", "--seed", "1",
            "--out", str(gen))
        assert run("reduce", str(gen), "--out", str(red)) == 0

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        capsys.readouterr()
        assert run("qr-track", str(red / "A_trid.mtx"), str(red / "C_trid.mtx"),
                   "--steps", "2") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: SVD iteration failed to converge for a 2x12 matrix ")


class TestEntryPoints:
    """The installed launchers, run as separate processes."""

    @pytest.fixture(params=[["-m", "blocktrid"],
                            ["-c", "from blocktrid.cli import entry; entry()"]],
                    ids=["module", "entry"])
    def launch(self, request):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def call(*argv):
            return subprocess.run([sys.executable, *request.param, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        return call

    def test_version(self, launch):
        proc = launch("--version")
        assert (proc.returncode, proc.stdout) == (0, "0.1.0\n")

    def test_missing_file_is_io_error(self, launch, tmp_path):
        proc = launch("spy", str(tmp_path / "nope.mtx"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")


class TestReports:
    @pytest.fixture
    def payloads(self, monkeypatch):
        """Every payload a command hands to the report writer, by path."""
        seen = {}
        write = cli._write_json

        def record(path, payload):
            seen[str(path)] = payload
            write(path, payload)

        monkeypatch.setattr(cli, "_write_json", record)
        return seen

    def test_reports_read_back_as_built(self, tmp_path, payloads):
        gen, red, track = tmp_path / "gen", tmp_path / "red", tmp_path / "track.json"
        assert run("generate", "--family", "curve", "--curve", "circle", "--n", "24",
                   "--seed", "2", "--out", str(gen)) == 0
        assert run("reduce", str(gen), "--out", str(red)) == 0
        assert run("qr-track", str(red / "A_trid.mtx"), str(red / "C_trid.mtx"),
                   "--steps", "5", "--out", str(track)) == 0
        assert len(payloads) == 3
        for path, payload in payloads.items():
            # what json.dump(indent=2, sort_keys=True) wrote reads back the same
            old = json.loads(json.dumps(payload, indent=2, sort_keys=True))
            assert load_report(path) == old

    def test_numpy_scalars_and_arrays_serialize(self, tmp_path):
        path = tmp_path / "r.json"
        cli._write_json(path, {"f": np.float64(0.1), "i": np.int64(-3),
                               "b": np.bool_(True), "a": np.arange(3.0)})
        assert load_report(path) == {"f": 0.1, "i": -3, "b": True, "a": [0.0, 1.0, 2.0]}
        assert path.read_bytes().endswith(b"\n")

    def test_non_finite_floats_are_null(self, tmp_path):
        path = tmp_path / "r.json"
        cli._write_json(path, {"nan": float("nan"), "inf": -np.inf})
        assert load_report(path) == {"nan": None, "inf": None}

    def test_stdout_non_finite_floats_are_null(self, capsys):
        cli._print_json({"nan": float("nan"), "inf": -np.inf})
        assert capsys.readouterr().out == '{"inf":null,"nan":null}\n'

    def test_non_ascii_paths_round_trip_as_utf8(self, tmp_path):
        gen, red = tmp_path / "gén", tmp_path / "réduit"
        track = tmp_path / "suivi.json"
        assert run("generate", "--family", "arrow", "--n", "12", "--seed", "1",
                   "--out", str(gen)) == 0
        assert run("reduce", str(gen), "--out", str(red)) == 0
        a, c = str(red / "A_trid.mtx"), str(red / "C_trid.mtx")
        assert run("qr-track", a, c, "--steps", "2", "--out", str(track)) == 0
        report = load_report(red / "report.json")
        assert report["command"] == f"reduce {gen} --out {red}"
        assert str(gen / "A.mtx") in report["inputs"]
        tracked = load_report(track)
        assert set(tracked["inputs"]) == {a, c}
        assert "réduit".encode() in track.read_bytes()

    def test_unencodable_report_is_contract_error(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert run("generate", "--family", "arrow", "--n", "8",
                   "--seed", str(2**70), "--out", str(out)) == 4
        assert capsys.readouterr().err == "error: Integer exceeds 64-bit range\n"
        assert not (out / "manifest.json").exists()
        assert not list(out.glob("*.mtx"))
