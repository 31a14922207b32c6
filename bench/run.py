"""Loopback benchmark for `sarcrag run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One process generates seeded inputs,
serves a deterministic fake chat model, search engine and web pages on
127.0.0.1, and runs the real CLI against them as a child process with
`--concurrency 2` (a closed loop: each worker waits for its reply). Children
are repeated on the same inputs until S seconds have passed; every output is
checked against what the fake services dictate. A workload with a replay pass
then replays the last child's recording once and checks that it reproduces it.
End-to-end metrics come from untraced children. With `--trace 1`, untraced and
traced children alternate: the traced ones give the per-layer metrics, and
their wall time against the untraced ones gives the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. `failed` counts samples whose outcome differs from the one
the fake services planned; planned skips are reported as `skipped_share`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

E2E_UNITS = {
    "samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "skipped_share": "ratio",
}
# Printed with the end-to-end metrics; zero on workloads that never reach the service,
# so the result line carries them only in traced runs.
CALL_UNITS = {
    "chat_calls_per_sample": "calls/sample",
    "search_calls_per_sample": "calls/sample",
    "page_fetches_per_sample": "calls/sample",
}

CONCURRENCY = 2
MIN_CHILDREN = 3
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
CHILD_WALL_LIMIT_S = 120.0
MODEL = "fake-model"


class CheckFailed(Exception):
    pass


def log(message: str) -> None:
    print(message, flush=True)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env(src: Path, search_url: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("LLM_ENDPOINT", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(src),
        BENCH_SEARCH_URL=search_url,
        SEARCH_API_KEY="bench-key",
        SEARCH_ENGINE_ID="bench-engine",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(cmd: list[str], env: dict, out_dir: Path) -> tuple[float, int, float]:
    """(wall seconds from spawn to exit, exit code, peak RSS in MB) of one child."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rss_file = out_dir / "peak_rss_kb"
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=dict(env, BENCH_RSS_FILE=str(rss_file)), stdout=out, stderr=err)
        # A blocking wait returns as the child exits; `wait(timeout=...)` polls every 50 ms.
        watchdog = threading.Timer(CHILD_WALL_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    if wall >= CHILD_WALL_LIMIT_S:
        raise CheckFailed(f"child hung past {CHILD_WALL_LIMIT_S:.0f} s and was killed")
    rss_mb = int(rss_file.read_text()) / 1024.0 if rss_file.exists() else float("nan")
    return wall, code, rss_mb


def measure_setup(src: Path, dataset: str, data_path: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and loads the dataset."""
    code = (
        "import sys, sarcrag.cli\n"
        "from sarcrag.core import DatasetKind\n"
        "from sarcrag.datasets import load_dataset\n"
        "load_dataset(DatasetKind(sys.argv[1]), sys.argv[2])\n"
    )
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, dataset, str(data_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    return time.perf_counter() - started


def measure_imports(src: Path) -> dict[str, float]:
    """Median cumulative import time in ms of sarcrag.cli, requests and yaml."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sarcrag.cli"],
            env=env, check=True, capture_output=True, text=True,
        )
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("sarcrag.cli", "requests", "yaml"):
                samples.setdefault(parts[2].strip(), []).append(int(parts[1]) / 1000.0)
    return {name: statistics.median(values) for name, values in samples.items()}


def read_records(run_dir: Path, spec) -> list[dict]:
    path = run_dir / "out" / spec.dataset / MODEL / spec.variant / "run.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_records(records: list[dict], plan) -> int:
    """Raise on a broken run log; return the number of samples with an unplanned outcome."""
    from workloads import sample_id

    expected = {sample_id(plan, row_id): outcome for row_id, outcome in plan.expected.items()}
    ids = [r["sample_id"] for r in records]
    if len(ids) != len(expected) or set(ids) != set(expected):
        raise CheckFailed(f"run.jsonl holds {len(ids)} records for {len(expected)} samples")
    wrong = 0
    for record in records:
        want = expected[record["sample_id"]]
        if want.startswith("skip:"):
            reason = f"{record.get('skip_class') or ''} {record.get('skipped_reason') or ''}"
            ok = record["verdict"] is None and want[len("skip:"):] in reason
        else:
            ok = record["verdict"] == want and not record.get("skipped_reason")
        if not ok:
            wrong += 1
            if wrong <= 3:
                log(f"  unplanned outcome for {record['sample_id']}: want {want}, got {record['verdict']} "
                    f"({record.get('skipped_reason')})")
    return wrong


def check_replay(records: list[dict], recording: list[dict]) -> int:
    """Number of samples whose verdict or P1/P2 digests differ from the recording run."""
    recorded = {r["sample_id"]: r for r in recording}
    wrong = 0
    for record in records:
        again = recorded[record["sample_id"]]
        same = record["verdict"] == again["verdict"] and (
            record["verdict"] is None
            or (record["p1_digest"], record["p2_digest"]) == (again["p1_digest"], again["p2_digest"])
        )
        if not same:
            wrong += 1
            if wrong <= 3:
                log(f"  replay of {record['sample_id']} differs from the recording: {record} vs {again}")
    return wrong


def check_faults(plan, fault_log: dict) -> None:
    """Transient chat faults must end in a successful retry."""
    from workloads import PERMANENT_FAULTS

    for tag, by_purpose in plan.chat_faults.items():
        for purpose, fault in by_purpose.items():
            outcomes = fault_log.get((tag, purpose), [])
            if fault not in PERMANENT_FAULTS and (len(outcomes) < 2 or outcomes[-1] != "ok"):
                raise CheckFailed(f"transient {fault} on {purpose} ended as {outcomes}, not a successful retry")


def run_workload(args, root: Path) -> tuple[dict, int, int]:
    from fake import FakeServer
    from layers import REPORTED, UNITS, TracedRun, layer_metrics
    from workloads import WORKLOADS, dataset_file_text, fault_counts, make_plan, property_shares

    spec = WORKLOADS[args.workload]
    src = root / "src"
    work = root / ".bench_work" / spec.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    plan = make_plan(spec, args.seed)
    data_path = work / ("data.tsv" if spec.dataset == "semeval" else "data.csv")
    data_path.write_text(dataset_file_text(plan), encoding="utf-8")
    log(f"workload {spec.name}: {len(plan.rows)} samples, variant {spec.variant}, concurrency {CONCURRENCY}, "
        f"chat delay {spec.chat_delay_s * 1e3:g} ms, search delay {spec.search_delay_s * 1e3:g} ms, seed {args.seed}")
    log(f"  why: {spec.why}")
    for name, share in property_shares(plan).items():
        log(f"  property {name}: {share:.3f}")
    for name, count in fault_counts(plan).items():
        log(f"  injected fault {name}: {count}")

    server = FakeServer(plan, spec.chat_delay_s, spec.search_delay_s)
    server.warm_pages()
    server.start()
    transcripts, cache = work / "transcripts", work / "cache"
    env = child_env(src, server.base_url + "/customsearch/v1")

    def run_cli(run_dir: Path, backend: str, tracing: bool):
        """Run one child; return its wall time, peak RSS, checked records and server counters."""
        cmd = [sys.executable, str(HERE / "launch.py")]
        if tracing:
            cmd += ["--spans", str(run_dir / "spans.json")]
        cmd += [
            "run", "--dataset", spec.dataset, "--data-path", str(data_path), "--variant", spec.variant,
            "--model", MODEL, "--backend", backend, "--concurrency", str(CONCURRENCY),
            "--out", str(run_dir / "out"), "--transcripts", str(transcripts), "--cache", str(cache),
        ]
        if backend == "live":
            cmd += ["--endpoint", server.base_url + spec.chat_path]
        server.reset()
        wall, code, rss_mb = run_child(cmd, env, run_dir)
        counters = server.reset()
        if code != 0:
            tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise CheckFailed(f"child exited with {code}:\n{tail}")
        records = read_records(run_dir, spec)
        exchange_log = run_dir / "out" / spec.dataset / MODEL / spec.variant / "exchanges.jsonl"
        counters.exchange_log_bytes = exchange_log.stat().st_size if exchange_log.exists() else None
        shutil.rmtree(run_dir / "out")
        return wall, rss_mb, records, counters

    def traced_run(run_dir: Path, records: list[dict], counters, summary: dict) -> TracedRun:
        return TracedRun(
            json.loads((run_dir / "spans.json").read_text(encoding="utf-8")),
            dict(summary, handle_s=counters.handle_s), counters.chat_log, len(records),
            counters.exchange_log_bytes,
        )

    try:
        import_ms = measure_imports(src) if args.trace else {}
        setups: list[float] = []
        untraced: list[dict] = []
        traced: list[TracedRun] = []
        traced_walls: list[float] = []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < MIN_CHILDREN or time.perf_counter() < deadline or (args.trace and not traced):
            tracing = bool(args.trace) and index % 2 == 1
            # Every live child starts from an empty transcript store and definition cache.
            shutil.rmtree(transcripts, ignore_errors=True)
            shutil.rmtree(cache, ignore_errors=True)
            # Set-up is timed between children, so its samples spread over the whole run.
            setups.append(measure_setup(src, spec.dataset, data_path))
            run_dir = work / f"child{index}"
            wall, rss_mb, records, counters = run_cli(run_dir, "live", tracing)
            failed += check_records(records, plan)
            attempted += len(records)
            check_faults(plan, counters.fault_log)
            summary = dict(counters.summary(), samples=len(records),
                           skipped=sum(1 for r in records if r["verdict"] is None))
            if tracing:
                traced.append(traced_run(run_dir, records, counters, summary))
                traced_walls.append(wall)
            else:
                untraced.append(dict(summary, wall=wall, rss_mb=rss_mb))
            index += 1
        while len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(src, spec.dataset, data_path))

        replay = None
        if spec.replay_pass:
            # The store and cache still hold what the last live child recorded.
            before = (tree_digest(transcripts), tree_digest(cache))
            run_dir = work / "replay"
            wall, _, replayed, counters = run_cli(run_dir, "replay", bool(args.trace))
            if counters.requests:
                raise CheckFailed(f"replay sent {counters.requests} requests to the fake server")
            if (tree_digest(transcripts), tree_digest(cache)) != before:
                raise CheckFailed("replay changed the transcript store or the definition cache")
            failed += check_records(replayed, plan) + check_replay(replayed, records)
            attempted += len(replayed)
            log(f"replay pass: {len(replayed)} samples in {wall:.3f} s{' (traced)' if args.trace else ''}, "
                "0 requests, store and cache unchanged")
            if args.trace:
                replay = traced_run(run_dir, replayed, counters, dict(counters.summary(), samples=len(replayed)))
    finally:
        server.stop()

    e2e = {
        "samples_per_s": statistics.median(u["samples"] / u["wall"] for u in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in untraced),
        "skipped_share": statistics.median(u["skipped"] / u["samples"] for u in untraced),
        "chat_calls_per_sample": statistics.median(u["chat_requests"] / u["samples"] for u in untraced),
        "search_calls_per_sample": statistics.median(u["search_requests"] / u["samples"] for u in untraced),
        "page_fetches_per_sample": statistics.median(u["page_requests"] / u["samples"] for u in untraced),
    }
    walls = [u["wall"] for u in untraced]
    log(f"children: {len(untraced)} untraced, {len(traced)} traced")
    log("  untraced wall s: " + " ".join(f"{w:.3f}" for w in walls))
    log("  untraced peak RSS MB: " + " ".join(f"{u['rss_mb']:.1f}" for u in untraced))
    log(f"  set-up s ({len(setups)}): " + " ".join(f"{s:.3f}" for s in setups))
    log("  chat requests of the last untraced child by purpose/outcome: "
        + " ".join(f"{k}={n}" for k, n in untraced[-1]["chat"].items()))
    log("end-to-end metrics (median over untraced children):")
    for name, unit in {**E2E_UNITS, **CALL_UNITS}.items():
        log(f"  {name:<28} {e2e[name]:>14.6g} {unit}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        layers, absent, tail_note = layer_metrics(traced, untraced, import_ms, overhead, replay)
        log(f"per-layer metrics ({len(traced)} traced children; sample tail is {tail_note}):")
        for name in sorted(UNITS):
            value = layers.get(name)
            shown = "absent" if name in absent else "n/a (layer not reached)" if value is None else f"{value:.6g}"
            log(f"  {name:<40} {shown:>14} {UNITS[name] if value is not None else ''}")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in REPORTED.items()
            if layers.get(name) is not None
        }
    return metrics, attempted, failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the running child is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "sarcrag" / "__init__.py").is_file():
        print("error: run from the root of a sarcrag source checkout (src/sarcrag not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed = run_workload(args, root)
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    correct = failed == 0
    if not correct:
        log(f"CHECK FAILED: {failed} samples ended differently from the plan")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
