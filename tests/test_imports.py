"""Source hygiene, checked by AST: every name that a module under src/, tests/ or tools/
imports is used there, and only tests/fakes.py fakes an HTTP exchange or sets the
interpreter's thread switch interval."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names that source imports, `from __future__` aside, and never uses as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_only_the_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from a import b, c as d\n"
        "def f():\n"
        "    from e import g\n"
        "    return os.path.join(b, js.dumps(1))\n"
    )
    assert unused_imports(source) == ["d", "g"]


def test_every_imported_name_is_used():
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for folder in ("src", "tests", "tools")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


SESSION = ("requests.Session", "requests.sessions.Session")


def _dotted(node) -> str:
    """`a.b.c` for an attribute chain of names, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def http_fakes(source: str) -> list[int]:
    """The lines of source that patch an attribute of requests.Session or call requests.Response()."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            target = node.args[0] if node.args else None
            if isinstance(target, ast.Constant):  # setattr("requests.Session.post", post)
                owner = str(target.value).rpartition(".")[0]
            else:
                owner = _dotted(target)
            if name == "requests.Response" or name.endswith("setattr") and owner in SESSION:
                lines.append(node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Attribute) and _dotted(target.value) in SESSION for target in node.targets
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_http_fakes_finds_each_patch_of_the_session_and_each_built_response():
    source = (
        "import requests\n"
        "monkeypatch.setattr(requests.Session, 'post', post)\n"
        "mp.setattr(requests.sessions.Session, 'request', refuse)\n"
        "monkeypatch.setattr('requests.Session.get', get)\n"
        "requests.Session.post = post\n"
        "response = requests.Response()\n"
        "monkeypatch.setattr(requests, 'get', get)\n"
        "session = requests.Session()\n"
        "monkeypatch.setattr(gateway, 'BACKOFF_BASE_S', 0.5)\n"
    )
    assert http_fakes(source) == [2, 3, 4, 5, 6]


def test_only_fakes_py_patches_the_session_or_builds_a_response():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "tests").rglob("*.py"))
        if path.name != "fakes.py"
        for line in http_fakes(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def switch_interval_calls(source: str) -> list[int]:
    """The lines of source that call sys.setswitchinterval."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _dotted(node.func) in ("sys.setswitchinterval", "setswitchinterval")
    )


def test_switch_interval_calls_finds_each_call():
    source = (
        "import sys\n"
        "from sys import setswitchinterval\n"
        "interval = sys.getswitchinterval()\n"
        "sys.setswitchinterval(1e-6)\n"
        "setswitchinterval(interval)\n"
    )
    assert switch_interval_calls(source) == [4, 5]


def test_only_fakes_py_sets_the_switch_interval():
    # One race harness, fakes.at_once, so every race test runs by one recipe.
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "tests").rglob("*.py"))
        if path.name != "fakes.py"
        for line in switch_interval_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []
