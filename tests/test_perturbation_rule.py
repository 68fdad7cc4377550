"""The perturbation C has one in-memory form, C = L R^H, decided by one rule
in ``matcore``: no other module sketches C itself or branches on what the
rule returned to take a dense fallback of its own."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "blocktrid")
RULE = "_perturbation_factors"
#: the sketch, its basis and the predicate that lets it stand in for C
SKETCH_NAMES = {"_sketch", "_sketch_basis", "_sketch_applies"}


def modules():
    for file in sorted(os.listdir(PACKAGE)):
        if file.endswith(".py"):
            with open(os.path.join(PACKAGE, file), encoding="utf-8") as fh:
                yield file[:-3], ast.parse(fh.read())


def called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def bound_names(target):
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def test_sketch_is_called_only_in_matcore():
    calls = [f"{module}:{node.lineno} {called_name(node)}"
             for module, tree in modules() if module != "matcore"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and called_name(node) in SKETCH_NAMES]
    assert calls == []


def test_rule_is_defined_once_in_matcore():
    defs = [module for module, tree in modules() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == RULE]
    assert defs == ["matcore"]


def test_no_caller_branches_on_the_rule():
    # a test that reads what the rule returned (held or not, factor width,
    # the sketch) is a fallback for C outside matcore
    branches = []
    for module, tree in modules():
        if module == "matcore":
            continue
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            results = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and any(
                        isinstance(call, ast.Call)
                        and called_name(call).startswith("_perturbation")
                        for call in ast.walk(node.value)):
                    for target in node.targets:
                        results |= bound_names(target)
            for node in ast.walk(func):
                if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                    read = bound_names(node.test) & results
                    if read:
                        branches.append(f"{module}.{func.name}:{node.lineno} {sorted(read)}")
    assert branches == []
