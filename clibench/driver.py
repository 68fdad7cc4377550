"""Run one workload of the CLI benchmark and print its result line.

Imported by ``run.py`` after it has pinned the BLAS thread count and put the
checkout's ``src`` on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import blocktrid.cli
import checks
import layers
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "clibench", "run.py")
KINDS = ("generate", "reduce", "qr-track", "verify")
END_TO_END = (
    ("setup_s", "s"),
    ("generate_s", "s"),
    ("reduce_s", "s"),
    ("track_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: set-ups in fresh interpreters per run, besides the run's own
SETUP_PROBES = 2
#: about the time of a ``Reference`` call when the host is idle
#: (2-vCPU Xeon VM); scaled times are roughly idle-host seconds
REFERENCE_IDLE_S = 0.017
#: least program time between two reference timings
CHUNK_S = 0.5


def parse_args(argv):
    p = argparse.ArgumentParser(prog="clibench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one round at the warm-up size, with no set-up probes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def call_cli(argv) -> int:
    """One in-process ``blocktrid`` call; its output is captured and dropped."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return blocktrid.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught program error fails the call
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            return -1


class Reference:
    """A fixed pass over the kinds of work the CLI does: float formatting and
    parsing, small complex matrix products and many 4x4 SVDs.

    Timed between the CLI calls, it measures how fast the host runs this
    process at that moment; it never touches the program.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(4000)
        self.square = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.small = rng.standard_normal((4, 4))

    def once(self) -> float:
        t = time.perf_counter()
        text = "".join(f"{v:.16e} {v:.16e}\n" for v in self.values)
        np.array([float(tok) for tok in text.split()])
        for _ in range(4):
            self.square @ self.square
        for _ in range(300):
            np.linalg.svd(self.small, compute_uv=False)
        return time.perf_counter() - t

    def __call__(self) -> float:
        """Median time of three passes."""
        return statistics.median(self.once() for _ in range(3))


def run_round(ops, rdir, reference, tracer=None) -> dict:
    """Run every op from ``rdir``, timing each one.

    A reference timing runs before the first op and after every stretch of
    at least ``CHUNK_S`` of ops; each op's time is scaled by
    ``REFERENCE_IDLE_S`` over the mean of the two timings around its stretch.
    """
    os.makedirs(rdir)
    cwd = os.getcwd()
    os.chdir(rdir)
    codes, op_times, scaled = [], [], []
    try:
        start = time.perf_counter()
        ticks = [reference()]
        stretch = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = i
            t = time.perf_counter()
            codes.append(call_cli(op.argv))
            op_times.append(time.perf_counter() - t)
            if time.perf_counter() - stretch >= CHUNK_S or i == len(ops) - 1:
                ticks.append(reference())
                speed = REFERENCE_IDLE_S / ((ticks[-2] + ticks[-1]) / 2)
                scaled += [x * speed for x in op_times[len(scaled):]]
                stretch = time.perf_counter()
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return {"wall": wall, "codes": codes, "scaled": scaled}


def signature(rdir, codes) -> str:
    """Digest of a round's exit codes and outputs, without the elapsed time
    that ``reduce`` writes into its report."""
    h = hashlib.sha256(repr(codes).encode())
    for base, dirs, files in sorted(os.walk(rdir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, rdir).encode())
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                doc = json.loads(data)
                doc.pop("elapsed_ms", None)
                data = json.dumps(doc, sort_keys=True).encode()
            h.update(data)
    return h.hexdigest()


def evaluate(ops, rdir, codes) -> list[str | None]:
    """Per op, why it failed, or None when its exit code and checks are right."""
    out = []
    for op, code in zip(ops, codes):
        reason = None
        if code != op.expect_exit:
            reason = f"exit {code}, expected {op.expect_exit}"
        elif op.check is not None:
            try:
                op.check(rdir)
            except (checks.CheckFailure, OSError, KeyError, ValueError, IndexError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        out.append(reason)
    return out


def measure(ops, work, seconds, reference, tracer=None) -> list[dict]:
    """Whole rounds for about ``seconds``; at least one, or two when traced.

    With a tracer every second round is traced, so plain and traced rounds
    see the same contention.  Each round's outputs stay under ``work`` for
    the checks, with a digest that lets rounds with identical outputs be
    checked once.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rdir = os.path.join(work, f"r{len(rounds)}")
        if tracer is not None and len(rounds) % 2 == 1:
            tracer.begin_round()
            with tracer:
                r = run_round(ops, rdir, reference, tracer)
            for op in ops:
                if op.report and os.path.exists(os.path.join(rdir, op.report)):
                    tracer.count_qr_report(os.path.join(rdir, op.report))
            r["layers"] = tracer.round_metrics()
        else:
            r = run_round(ops, rdir, reference)
        r["dir"] = rdir
        r["signature"] = signature(rdir, r["codes"])
        rounds.append(r)
        # stop at the round end nearest the deadline
        left = deadline - time.perf_counter()
        enough = len(rounds) >= (1 if tracer is None else 2)
        if enough and left < statistics.median(x["wall"] for x in rounds) / 2:
            return rounds


def check_rounds(ops, rounds) -> tuple[int, int, list[str]]:
    """Evaluate each distinct round once; returns (attempted, failed,
    unexpected failure reasons).  A failure is expected when the op names a
    program fault and exited with that fault's code."""
    verdicts: dict[str, list] = {}
    for r in rounds:
        if r["signature"] not in verdicts:
            verdicts[r["signature"]] = evaluate(ops, r["dir"], r["codes"])
    failed, unexpected = 0, []
    for r in rounds:
        for op, code, reason in zip(ops, r["codes"], verdicts[r["signature"]]):
            if reason is None:
                continue
            failed += 1
            if op.fault is None or code != op.fault_exit:
                unexpected.append(f"{' '.join(op.argv[:2])}: {reason}")
    return len(ops) * len(rounds), failed, unexpected


def setup(args, work, reference):
    """Warm-up at small n, then the workload's round-independent inputs."""
    full, small = WORKLOADS[args.workload]
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    warm = small(args.seed)
    if warm.prepare is not None:
        warm.prepare(inputs)
    run_round(warm.ops, os.path.join(work, "warmup"), reference)
    workload = warm if args.smoke else full(args.seed)
    if workload.prepare is not None:
        workload.prepare(inputs)
    return workload


def setup_probe(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [sys.executable, RUN_PY, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def typical(rounds, ops, kinds=KINDS) -> float:
    """Sum over the ops of the given kinds of each op's median scaled time
    over ``rounds``."""
    per_op = [statistics.median(t) for t in zip(*(r["scaled"] for r in rounds))]
    return sum(t for t, op in zip(per_op, ops) if op.kind in kinds)


def main(argv, t0) -> int:
    args = parse_args(argv)
    scratch = os.path.join(ROOT, ".clibench")
    work = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        reference = Reference()
        workload = setup(args, work, reference)
        setup_s = time.perf_counter() - t0
        setup_s *= REFERENCE_IDLE_S / reference()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ops = workload.ops
        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            tracer = layers.Tracer()
            rounds = measure(ops, work, seconds, reference, tracer)
            tracer.write_spans(os.path.join(
                scratch, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            traced = [r for r in rounds if "layers" in r]
            plain = [r for r in rounds if "layers" not in r]
            overhead = typical(traced, ops) - typical(plain, ops)
            values = {name: statistics.median_low(r["layers"].get(name, 0) for r in traced)
                      for name, _ in layers.METRICS[:-2]}
            values["trace.overhead_s"] = overhead
            values["trace.overhead_pct"] = (
                100 * overhead / typical(plain, ops))
            units = dict(layers.METRICS)
        else:
            rounds = measure(ops, work, seconds, reference)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            probes = [] if args.smoke else [setup_probe(args) for _ in range(SETUP_PROBES)]
            values = {
                "setup_s": statistics.median([setup_s, *probes]),
                "generate_s": typical(rounds, ops, ("generate",)),
                "reduce_s": typical(rounds, ops, ("reduce",)),
                "track_s": typical(rounds, ops, ("qr-track",)),
                "pipeline_s": typical(rounds, ops),
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
        attempted, failed, unexpected = check_rounds(ops, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in unexpected:
        print(f"unexpected failure: {reason}", file=sys.stderr)
    walls = " ".join(f"{r['wall']:.3f}" for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds ({walls} s), "
          f"{failed}/{attempted} operations failed", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0
