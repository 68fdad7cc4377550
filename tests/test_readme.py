"""The README's library tour runs as written against the current API."""

import re
from pathlib import Path

from blocktrid import fro, off_profile_residual

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    (tour,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    ns = {}
    exec(compile(tour, str(README), "exec"), ns)
    inst, red = ns["inst"], ns["red"]
    assert set(red.block_sizes) == {2}
    assert off_profile_residual(ns["A_trid"], red.block_sizes) <= 1e-10 * fro(inst.matrix)
