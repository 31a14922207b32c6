"""Check the benchmark's result line: strict JSON carrying every metric BENCHMARK.json names.

    python3 bench/run.py --workload W --seed N --seconds S | python3 tools/check_bench_result.py
    python3 bench/run.py ... --trace 1 | python3 tools/check_bench_result.py --traced

The last line on stdin must be a JSON object with `correct` true, `attempted`,
`failed` and `metrics`; `NaN` and `Infinity` are rejected. Each `end_to_end`
metric in BENCHMARK.json, or with --traced each `per_layer` one, must be in
`metrics` with a finite number as its value. Exits 1 and lists what is
missing or wrong, else prints a one-line summary and exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def problems(line: str, required: list[str]) -> list[str]:
    """What is wrong with one result line, given the metric names it must carry."""
    try:
        result = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["not a JSON object"]
    found = [f"missing key {key!r}" for key in ("correct", "attempted", "failed", "metrics") if key not in result]
    if "correct" in result and result["correct"] is not True:
        found.append(f"correct is {result['correct']!r}: the run's output failed its check")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found or ["metrics is not an object"]
    for name in required:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if entry is None:
            found.append(f"missing metric {name}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"metric {name} has no finite value: {entry!r}")
    return found


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true", help="require the per_layer metrics too")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    required = [m["name"] for m in spec["per_layer" if args.traced else "end_to_end"]]
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    found = problems(lines[-1], required) if lines else ["no result line on stdin"]
    if found:
        print("\n".join(found), file=sys.stderr)
        return 1
    print(f"ok: {len(required)} of {len(required)} {'per-layer' if args.traced else 'end-to-end'} metrics, all finite")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
