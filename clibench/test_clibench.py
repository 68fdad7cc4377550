"""Quick tests of the benchmark itself.

    python3 -m pytest -q clibench/test_clibench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import driver  # noqa: E402
from workloads import reduce_arrow  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("clibench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "clibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "reduce-arrow-512", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def arrow_round(tmp_path_factory):
    ops = reduce_arrow(5, n=16).ops
    rdir = str(tmp_path_factory.mktemp("bench") / "r0")
    codes = driver.run_round(ops, rdir, driver.Reference())["codes"]
    return ops, rdir, codes


def _corrupt(rdir, name, edit):
    path = os.path.join(rdir, "arrow", "red", name)
    M = checks.read_mtx(path)
    with open(path, "rb") as fh:
        saved = fh.read()
    edit(M)
    checks.write_mtx(path, M)
    return path, saved


def _verdict(ops, rdir, codes):
    """(attempted, failed, unexpected reasons) of one round."""
    return driver.check_rounds(ops, [{"signature": "x", "dir": rdir, "codes": codes}])


def test_clean_round_passes(arrow_round):
    ops, rdir, codes = arrow_round
    assert _verdict(ops, rdir, codes) == (4, 0, [])


def _edit_unitary(U):
    U[:, 0] *= 2


def _edit_envelope(A_trid):
    A_trid[-1, 0] = A_trid[1, 0]


@pytest.mark.parametrize("name, edit, reason", [
    ("U.mtx", _edit_unitary, "not unitary"),
    ("A_trid.mtx", _edit_envelope, "outside the envelope"),
])
def test_corrupted_output_is_a_failed_operation(arrow_round, name, edit, reason):
    ops, rdir, codes = arrow_round
    path, saved = _corrupt(rdir, name, edit)
    try:
        attempted, failed, unexpected = _verdict(ops, rdir, codes)
    finally:
        with open(path, "wb") as fh:
            fh.write(saved)
    assert (attempted, failed) == (4, 1)
    assert len(unexpected) == 1 and unexpected[0].startswith("reduce")
    assert reason in unexpected[0]


def test_own_parser_round_trips(tmp_path):
    M = np.arange(6).reshape(2, 3) * (1 - 0.5j) / 3
    checks.write_mtx(tmp_path / "m.mtx", M)
    assert np.array_equal(checks.read_mtx(tmp_path / "m.mtx"), M)
