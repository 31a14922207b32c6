"""tools/check_bench_result.py: a result line passes only when correct and with every metric BENCHMARK.json names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(drop=None, nan=None, correct=True):
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    metrics = {name: {"value": 1.5, "unit": "x"} for name in names if name != drop}
    line = json.dumps({"correct": correct, "attempted": 30, "failed": 0, "metrics": metrics})
    if nan:
        line = line.replace(f'"{nan}": {{"value": 1.5', f'"{nan}": {{"value": NaN')
    return "log line before the result\n" + line + "\n"


def check(stdin, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_bench_result.py"), *flags],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("flags", [(), ("--traced",)])
def test_complete_line_passes(flags):
    done = check(result_line(), *flags)
    assert done.returncode == 0, done.stderr


def test_missing_per_layer_metric_fails_when_traced():
    done = check(result_line(drop="retrieval.cache_hit_ratio"), "--traced")
    assert done.returncode == 1
    assert "missing metric retrieval.cache_hit_ratio" in done.stderr


@pytest.mark.parametrize("flags", [(), ("--traced",)])
def test_incorrect_run_fails(flags):
    done = check(result_line(correct=False), *flags)
    assert done.returncode == 1
    assert "correct is False" in done.stderr


def test_nan_is_rejected():
    done = check(result_line(nan="samples_per_s"))
    assert done.returncode == 1
    assert "NaN" in done.stderr
