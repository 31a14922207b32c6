"""Import hygiene: every name that a module under src/, tests/ or tools/ imports is used there."""

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
