"""Source-level guards on the package's public surface."""

import ast
import importlib
import json
from pathlib import Path

from spacsim import checks, fock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spacsim"


def _is_cli_command(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_every_public_function_has_a_caller_in_src():
    # a public function only the tests use belongs in tests/_reference.py;
    # re-exports from the package root do not count as callers
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    public = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and not _is_cli_command(node)
    ]
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and module != "__init__.py":
                referenced.update(alias.name for alias in node.names)
    assert public
    unused = [f"{module}:{name}" for module, name in public if name not in referenced]
    assert unused == []


def test_branches_are_built_only_by_postselected_pointer():
    # one builder of conditioned states: outside their own definitions, the
    # branch builders are referenced only inside measurement.postselected_pointer
    builders = {"displaced_spacs", "branch_superposition"}
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            if (path.name, owner) == ("measurement.py", "postselected_pointer"):
                continue
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in builders:
                    stray.append(f"{path.stem}.{owner}:{node.lineno} {name}")
    assert stray == []


def test_benchmark_per_layer_names_resolve():
    # the traced benchmark reports a declared name as absent once its
    # function is renamed or removed, and a new check_* as undeclared
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    functions = {
        tuple(metric["name"].split(".")[:2]) for metric in declared
        if not metric["name"].startswith(("trace.", "fock.dim."))
    }
    for module, name in sorted(functions):
        fn = getattr(importlib.import_module(f"spacsim.{module}"), name, None)
        assert callable(fn), f"{module}.{name}"
    assert hasattr(fock.adaptive_dim, "cache_info")
    defined = {
        name for name, value in vars(checks).items()
        if name.startswith("check_") and callable(value)
        and getattr(value, "__module__", None) == checks.__name__
    }
    assert defined == {name for module, name in functions if module == "checks"}
