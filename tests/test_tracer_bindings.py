"""The names the benchmark tracer wraps exist, so a renamed or dropped import
fails here in milliseconds instead of inside a traced benchmark run."""

import os
import sys

CLIBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "clibench")
sys.path.insert(0, CLIBENCH)

import layers  # noqa: E402


def test_every_traced_name_is_bound():
    bindings = [b for group in layers.TIMED.values() for b in group] + layers.COUNTED
    missing = [f"{module.__name__}.{name}" for module, name in bindings
               if not callable(getattr(module, name, None))]
    assert missing == []
