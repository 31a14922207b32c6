"""The CI workflow names only test files, test classes, tests and scripts that exist.

A stale test id makes pytest exit 4, and a missing script fails its step, but only
where the workflow runs; these tests catch both in a local run.
"""

import ast
import re
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def run_commands():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [step["run"] for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]


COMMANDS = "\n".join(run_commands())
# `tests/test_<name>.py`, optionally with `::<Class>` and `::<test>`, wherever a command names one.
TEST_IDS = sorted(set(re.findall(r"\btests/test_\w+\.py(?:::\w+){0,2}", COMMANDS)))
# The file a `python` or `python3` command runs; `python -m ...` names no file.
SCRIPTS = sorted(set(re.findall(r"\bpython3?\s+([\w./-]+\.py)\b", COMMANDS)))


def test_the_workflow_names_test_classes_and_scripts():
    # Guards the patterns above: a test id or script they miss is not checked.
    assert any(test_id.count("::") == 1 for test_id in TEST_IDS)
    assert any(test_id.count("::") == 2 for test_id in TEST_IDS)
    assert "bench/run.py" in SCRIPTS


@pytest.mark.parametrize("test_id", TEST_IDS)
def test_named_test_file_and_class_exist(test_id):
    path, *names = test_id.split("::")
    assert (ROOT / path).is_file(), path
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        defined = {node.name: node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        assert name in defined, test_id
        body = defined[name].body


@pytest.mark.parametrize("script", SCRIPTS)
def test_run_script_exists(script):
    assert (ROOT / script).is_file(), script
