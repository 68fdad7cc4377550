"""Per-layer tracing from outside the program.

The tracer replaces public names where their caller binds them (for example
``blocktrid.cli.read_matrix`` or ``blocktrid.structure.commutator``) with
wrappers that record a span (name, start, end, parent, request) and the
counts of that call.  Spans stay in memory until the run writes them out.
A layer's time is its self time: span duration minus the time of the spans
it caused.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import blocktrid.almostnormal
import blocktrid.cli
import blocktrid.generators
import blocktrid.lanczos
import blocktrid.matcore
import blocktrid.structure

#: Every per-layer metric, with its unit, in report order.
METRICS = (
    ("cli.self_s", "s"),
    ("mmio.read_s", "s"),
    ("mmio.read_calls", "count"),
    ("mmio.read_bytes", "bytes"),
    ("mmio.write_s", "s"),
    ("mmio.write_calls", "count"),
    ("mmio.write_bytes", "bytes"),
    ("generators.build_s", "s"),
    ("generators.instances", "count"),
    ("almostnormal.certify_s", "s"),
    ("almostnormal.certify_calls", "count"),
    ("almostnormal.start_block_s", "s"),
    ("lanczos.block_lanczos_s", "s"),
    ("lanczos.blocks", "count"),
    ("lanczos.breakdowns", "count"),
    ("lanczos.applied_columns", "count"),
    ("matcore.commutator_s", "s"),
    ("matcore.commutator_calls", "count"),
    ("matcore.orthonormal_range_s", "s"),
    ("matcore.svd_calls", "count"),
    ("structure.qr_self_s", "s"),
    ("structure.block_profile_s", "s"),
    ("structure.off_profile_s", "s"),
    ("structure.qr_steps", "count"),
    ("structure.block_rank_svds", "count"),
    ("structure.deflations", "count"),
    ("structure.blocks_over_rank2", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)

_cli = blocktrid.cli
_gen = blocktrid.generators
_alm = blocktrid.almostnormal
_lan = blocktrid.lanczos
_mat = blocktrid.matcore
_str = blocktrid.structure

_GENERATORS = ("arrow_hermitian_plus_rank_one", "chebyshev_colleague", "companion",
               "curve_normal_plus_rank_one", "fourier_sum",
               "random_unitary_plus_rank_one", "solve_commutator_equation")

#: span name -> the (module, public name) bindings it wraps
TIMED = {
    "cli": [(_cli, "main")],
    "mmio.read": [(_cli, "read_matrix"), (_cli, "read_vector")],
    "mmio.write": [(_cli, "write_matrix"), (_cli, "write_vector")],
    "generators.build": [(_cli, name) for name in _GENERATORS],
    "almostnormal.certify": [(_cli, "certify"), (_gen, "certify")],
    "almostnormal.start_block": [
        (_cli, "starting_block_curve"), (_cli, "starting_block_rank_one"),
        (_cli, "rotate_leading_form"), (_cli, "antihermitian_rescaling"),
        (_gen, "conic_fit"),
    ],
    "lanczos.block_lanczos": [(_cli, "block_lanczos")],
    "matcore.commutator": [(_cli, "commutator"), (_alm, "commutator"),
                           (_str, "commutator")],
    "matcore.orthonormal_range": [(_cli, "orthonormal_range"),
                                  (_alm, "orthonormal_range"),
                                  (_lan, "orthonormal_range")],
    "structure.qr": [(_cli, "qr_iteration_tracked")],
    "structure.block_profile": [(_str, "block_profile")],
    "structure.off_profile": [(_str, "off_profile_residual")],
}
#: bindings of matcore.svd, counted but not timed (their time stays with
#: the caller)
COUNTED = [(_mat, "svd"), (_alm, "svd"), (_gen, "svd")]

#: span names whose self-time metric is not the span name + "_s"
SELF_METRIC = {
    "cli": "cli.self_s",
    "structure.qr": "structure.qr_self_s",
}


def _count_call(counts, name, args, out):
    if name == "mmio.read":
        counts["mmio.read_calls"] += 1
        counts["mmio.read_bytes"] += os.path.getsize(args[0])
    elif name == "mmio.write":
        counts["mmio.write_calls"] += 1
        counts["mmio.write_bytes"] += os.path.getsize(args[0])
    elif name == "generators.build":
        counts["generators.instances"] += 1
    elif name == "almostnormal.certify":
        counts["almostnormal.certify_calls"] += 1
    elif name == "matcore.commutator":
        counts["matcore.commutator_calls"] += 1
    elif name == "lanczos.block_lanczos":
        counts["lanczos.blocks"] += len(out.block_sizes)
        counts["lanczos.breakdowns"] += len(out.breakdown_events)
        # the Krylov loop applies H to every block but the last
        counts["lanczos.applied_columns"] += sum(out.block_sizes[:-1])


class Tracer:
    """Installs the wrappers while entered; sums one round at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.begin_round()

    def begin_round(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def round_metrics(self) -> dict[str, float]:
        out = {SELF_METRIC.get(name, name + "_s"): t for name, t in self.seconds.items()}
        out.update(self.counts)
        return out

    def count_qr_report(self, path) -> None:
        """Counts of one ``qr-track`` run, read from its JSON report."""
        with open(path, "r", encoding="ascii") as fh:
            report = json.load(fh)
        ranks = [r for it in report["iterations"] for r in it["off_profile_block_ranks"]]
        self.counts["structure.qr_steps"] += len(report["iterations"])
        self.counts["structure.block_rank_svds"] += len(ranks)
        self.counts["structure.deflations"] += len(report["converged_eigenvalues"])
        self.counts["structure.blocks_over_rank2"] += sum(r > 2 for r in ranks)

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, self.request, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
                duration = span[2] - span[1]
                self.seconds[name] += duration - span[5]
                if parent >= 0:
                    self.spans[parent][5] += duration
            _count_call(self.counts, name, args, out)
            return out
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["matcore.svd_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for name, bindings in TIMED.items():
            for module, attr in bindings:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._timed(name, fn))
        for module, attr in COUNTED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._counted(fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start, end, parent, request."""
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, request, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
