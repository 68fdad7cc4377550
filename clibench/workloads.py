"""The benchmark's workloads: one round of CLI operations each.

A round is a fixed list of ``blocktrid`` commands run from a fresh round
directory, with argument paths relative to it.  Every round of a run repeats
the same commands on the same inputs, so each run attempts whole rounds and
the share of failed operations is the same in every run.  Instance seeds come
from the benchmark's ``--seed``; the only seed-independent inputs are those of
the two operations that fail because of known program faults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

#: Generator seed of the unitary instance whose 30-step ``qr-track`` exits 2:
#: roundoff below the block tridiagonal envelope is amplified by every QR
#: step, so blocks outside the profile reach rank 4 by step 9.
FAULT_UNITARY_SEED = 1
#: QR steps on the seeded unitary instance: the rank bound first breaks at
#: step 7-9 at n = 256, so 4 steps keep a wide margin below the fault.
SEEDED_UNITARY_STEPS = 4
#: Seed of the dense random matrix behind the two ``verify`` negative controls.
NEGATIVE_CONTROL_SEED = 20130621
#: Instances per family in one sweep round.
SWEEP_SEEDS = 3
#: QR steps in the sweep: at 30 steps about one circle instance in fifty
#: breaks the rank bound (first at step 23), the fault the fixed unitary
#: instance above already shows.
SWEEP_STEPS = 12

FAULT_QR_ENVELOPE = (
    "qr-track: roundoff fill below the envelope grows under QR until "
    "off-profile blocks reach rank 4 (exit 2)"
)
FAULT_SCALE_VARIANT = (
    "verify: certify divides by max(1, ||A||_F^2) and never checks "
    "range_dim <= 2k, so a scaled non-normal matrix with C = 0 passes (exit 0)"
)


@dataclass(frozen=True)
class Op:
    """One CLI call of a round.

    ``expect_exit`` is the exit code a correct program gives; ``check`` gets
    the round directory and raises ``checks.CheckFailure`` on a wrong output.
    ``fault`` names the program fault the call is known to hit, and
    ``fault_exit`` the exit code it gives when it does.  ``report`` is the
    path of a ``qr-track`` JSON report, whose counts a traced run reads.
    """

    kind: str
    argv: tuple[str, ...]
    expect_exit: int = 0
    check: Callable[[str], None] | None = None
    fault: str | None = None
    fault_exit: int | None = None
    report: str | None = None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    #: writes the round-independent inputs into the directory it is given
    prepare: Callable[[str], None] | None = None


def _pipeline(tag, family, n, seed, extra=(), *, max_block=None, has_c=True,
              steps=30, fault=None):
    """generate -> reduce -> qr-track -> verify on one instance; ``qr-track``
    and ``verify`` need a perturbation C, and ``max_block=None`` leaves out
    ``reduce`` and ``qr-track``."""
    gen, red, track = f"{tag}/gen", f"{tag}/red", f"{tag}/track.json"
    j = os.path.join
    ops = [Op("generate",
              ("generate", "--family", family, "--n", str(n), "--seed", str(seed),
               *extra, "--out", gen),
              check=lambda root: checks.check_generate(j(root, gen), family, n, has_c))]
    if max_block is not None:
        ops.append(Op("reduce", ("reduce", gen, "--out", red),
                      check=lambda root: checks.check_reduce(
                          j(root, gen), j(root, red), family, max_block)))
        if has_c:
            ops.append(Op("qr-track",
                          ("qr-track", f"{red}/A_trid.mtx", f"{red}/C_trid.mtx",
                           "--steps", str(steps), "--out", track),
                          check=lambda root: checks.check_qr_track(j(root, gen),
                                                                   j(root, track)),
                          fault=fault, fault_exit=2 if fault else None, report=track))
    if has_c:
        ops.append(Op("verify", ("verify", f"{gen}/A.mtx", f"{gen}/C.mtx", "--k", "2")))
    return ops


def _coeff_arg(coeffs) -> str:
    return ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in np.asarray(coeffs, complex))


def _companion_coeffs(n, seed):
    """Monic degree-n coefficients with moduli in [0.5, 1] and random phases,
    so the constant term keeps the companion matrix invertible."""
    rng = np.random.default_rng([0xC0, seed])
    mod = rng.uniform(0.5, 1.0, n)
    return np.concatenate([[1.0], mod * np.exp(2j * np.pi * rng.uniform(size=n))])


def _colleague_coeffs(n, seed):
    """Real Chebyshev coefficients, leading 1, the rest uniform in [-1, 1]."""
    rng = np.random.default_rng([0xC1, seed])
    return np.concatenate([[1.0], rng.uniform(-1.0, 1.0, n)])


def reduce_arrow(seed: int, n: int = 512, steps: int = 2) -> Workload:
    return Workload(tuple(_pipeline("arrow", "arrow", n, seed, max_block=2, steps=steps)))


def track_unitary(seed: int, n: int = 256) -> Workload:
    ops = _pipeline("fixed", "unitary", n, FAULT_UNITARY_SEED, max_block=4,
                    fault=FAULT_QR_ENVELOPE)
    ops += _pipeline("seeded", "unitary", n, seed, max_block=4,
                     steps=SEEDED_UNITARY_STEPS)
    return Workload(tuple(ops))


def sweep_families(seed: int, n: int = 64, per_family: int = SWEEP_SEEDS) -> Workload:
    ops = []
    for i in range(per_family):
        s = seed * per_family + i
        ops += _pipeline(f"arrow{i}", "arrow", n, s, max_block=2, steps=SWEEP_STEPS)
        ops += _pipeline(f"unitary{i}", "unitary", n, s, max_block=4, steps=SWEEP_STEPS)
        ops += _pipeline(f"circle{i}", "curve", n, s, ("--curve", "circle"),
                         max_block=4, steps=SWEEP_STEPS)
        # line and fourier-sum stop before reduce: on about one seed in ten,
        # reduce gives a line instance blocks of 4 (the conic fit misses the
        # line), and exits 2 on a fourier-sum instance (residual 1.0-1.7e-10
        # after the restarts, against a 1e-10 tolerance)
        ops += _pipeline(f"line{i}", "curve", n, s, ("--curve", "line"))
        ops += _pipeline(f"parabola{i}", "curve", n, s, ("--curve", "parabola-arc"),
                         max_block=6, has_c=False)
        ops += _pipeline(f"fourier{i}", "fourier-sum", n, s, has_c=False)
        ops += _pipeline(f"companion{i}", "companion", n, s,
                         ("--coeffs", _coeff_arg(_companion_coeffs(n, s))),
                         max_block=4, steps=SWEEP_STEPS)
        ops += _pipeline(f"colleague{i}", "colleague", n, s,
                         ("--coeffs", _coeff_arg(_colleague_coeffs(n, s))),
                         max_block=2, steps=SWEEP_STEPS)
    ops += [
        Op("verify", ("verify", "../inputs/dense.mtx", "../inputs/zero.mtx", "--k", "2"),
           expect_exit=2),
        Op("verify", ("verify", "../inputs/dense_scaled.mtx", "../inputs/zero.mtx",
                      "--k", "2"),
           expect_exit=2, fault=FAULT_SCALE_VARIANT, fault_exit=0),
    ]

    def prepare(inputs):
        rng = np.random.default_rng(NEGATIVE_CONTROL_SEED)
        dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        checks.write_mtx(os.path.join(inputs, "dense.mtx"), dense)
        checks.write_mtx(os.path.join(inputs, "dense_scaled.mtx"), 1e-6 * dense)
        checks.write_mtx(os.path.join(inputs, "zero.mtx"), np.zeros((n, n)))

    return Workload(tuple(ops), prepare)


#: name -> (full-size builder, warm-up/smoke builder)
WORKLOADS = {
    "reduce-arrow-512": (reduce_arrow, lambda s: reduce_arrow(s, n=32)),
    "track-unitary-256": (track_unitary, lambda s: track_unitary(s, n=24)),
    "sweep-families-64": (sweep_families, lambda s: sweep_families(s, n=12, per_family=1)),
}
