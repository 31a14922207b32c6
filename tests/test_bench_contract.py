"""The names the benchmark in bench/ reaches into the package by, read without importing bench code.

bench/launch.py wraps functions at the module attributes listed in TARGETS and
COUNTED, and its tracer reads some arguments by position or name. A renamed
function or parameter would make a per-layer metric absent from the traced
result line, so each of them is checked here.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# What Tracer._note reads for each kind of target: (position, parameter name).
# Kinds "hit" and None read no argument.
TRACED_ARGUMENTS = {
    "sample": (0, "sample"),
    "n_chunks": (1, "chunks"),
    "purpose": (1, "request"),
    "key": (1, "request"),
}


def module_constant(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


TARGETS = module_constant(BENCH / "launch.py", "TARGETS")
COUNTED = module_constant(BENCH / "launch.py", "COUNTED")


def resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    for part in dotted.split("."):
        assert hasattr(owner, part), f"{module_name}.{dotted}: no attribute {part!r}"
        owner = getattr(owner, part)
    return owner


def test_lists_are_not_empty():
    assert TARGETS and COUNTED


@pytest.mark.parametrize(
    "module_name,dotted,kind",
    [(m, p, k) for m, p, _, k in TARGETS] + [(m, p, None) for m, p, _ in COUNTED],
    ids=[name for _, _, name, _ in TARGETS] + [name for _, _, name in COUNTED],
)
def test_target_resolves_and_takes_the_traced_argument(module_name, dotted, kind):
    target = resolve(module_name, dotted)
    assert callable(target)
    assert kind in TRACED_ARGUMENTS or kind in (None, "hit"), f"unknown kind {kind!r}"
    if kind in TRACED_ARGUMENTS:
        position, name = TRACED_ARGUMENTS[kind]
        parameters = list(inspect.signature(target).parameters)
        assert parameters[position] == name


def test_fake_server_imports_exist():
    tree = ast.parse((BENCH / "fake.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sarcrag")
        for alias in node.names
    ]
    assert imported
    for module_name, name in imported:
        resolve(module_name, name)


def test_search_endpoint_is_a_class_attribute():
    client = resolve("sarcrag.retrieval", "GoogleSearchClient")
    assert isinstance(client.endpoint, str)


def test_cli_import_loads_requests_and_yaml():
    # bench/run.py reads their import times from `python -X importtime -c "import sarcrag.cli"`.
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sarcrag.cli; print('requests' in sys.modules, 'yaml' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == ["True", "True"]
