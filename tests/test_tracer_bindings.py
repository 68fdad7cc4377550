"""The names the benchmark tracer wraps exist, so a renamed or dropped import
fails here in milliseconds instead of inside a traced benchmark run."""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLIBENCH = os.path.join(ROOT, "clibench")
PACKAGE = os.path.join(ROOT, "src", "blocktrid")
sys.path.insert(0, CLIBENCH)

import layers  # noqa: E402

BINDINGS = [b for group in layers.TIMED.values() for b in group] + layers.COUNTED


def test_every_traced_name_is_bound():
    missing = [f"{module.__name__}.{name}" for module, name in BINDINGS
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_every_tracer_only_import_is_traced():
    # a name imported only for the tracer (a `# noqa: F401` line) that the
    # tracer no longer binds is a leftover import
    traced = {(module.__name__, name) for module, name in BINDINGS}
    untraced = []
    for file in sorted(os.listdir(PACKAGE)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, file), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        module = "blocktrid" if file == "__init__.py" else "blocktrid." + file[:-3]
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ImportFrom)
                    and "# noqa: F401" in lines[node.end_lineno - 1]):
                untraced += [f"{module}.{alias.asname or alias.name}"
                             for alias in node.names
                             if (module, alias.asname or alias.name) not in traced]
    assert untraced == []
