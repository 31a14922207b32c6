"""Command-line experiment runner: run a dataset through a pipeline variant and report metrics."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import requests
import yaml

from .core import DATASET_LANGUAGE, DatasetKind, Label, PipelineVariant, RetrievalSource
from .datasets import load_dataset
from .errors import ConfigError, EmptyEvaluation, LogParseError, SampleError, SarcragError
from .evaluation import confusion, macro_metrics, report_to_json, report_to_table
from .gateway import Gateway, LiveBackend, TranscriptStore, writing
from .pipeline import PipelineDeps, run_pipeline
from .retrieval import GoogleSearchClient, WordInfoCache, fetch_page


@dataclass
class RunConfig:
    """A run's settings; each field is named by its config-file key."""

    dataset: DatasetKind
    data_path: Path
    variant: PipelineVariant
    model: str
    backend: str
    endpoint: str | None
    concurrency: int
    limit: int | None
    out: Path
    transcripts: Path
    cache: Path
    search_api_key: str | None
    search_engine_id: str | None

    @property
    def run_dir(self) -> Path:
        return self.out / self.dataset.value / self.model / self.variant.value

    @property
    def store_dir(self) -> Path:
        # Live runs answer from the store first, so each model keeps its own.
        return self.transcripts / self.model

    @property
    def cache_dir(self) -> Path:
        # A definition is one model's answer in one language's prompts.
        return self.cache / self.model / DATASET_LANGUAGE[self.dataset].value


# Each RunConfig field: its environment variable, default, and the conversion of
# its value. A config file gives the two counts as integers and every other
# setting as a string. Every field but the search credentials is also a flag.
_SETTINGS = {
    "dataset": (None, None, DatasetKind),
    "data_path": (None, None, Path),
    "variant": (None, None, PipelineVariant),
    "model": (None, None, str),
    "backend": (None, "live", str),
    "endpoint": ("LLM_ENDPOINT", None, str),
    "concurrency": (None, 4, int),
    "limit": (None, None, int),
    "out": (None, "runs", Path),
    "transcripts": (None, "transcripts", Path),
    "cache": (None, "cache", Path),
    "search_api_key": ("SEARCH_API_KEY", None, str),
    "search_engine_id": ("SEARCH_ENGINE_ID", None, str),
}
_REQUIRED = ("dataset", "data_path", "variant", "model")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if data is None:  # an empty or comment-only file
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a mapping of keys to values")
    unknown = sorted(str(key) for key in data.keys() - _SETTINGS.keys())
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: not a setting of sarcrag run")
    return data


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, else its environment variable, else the config file,
    else its default.

    Any fault raises ConfigError naming the setting's key, including a config-file
    value of the wrong type that a flag or environment variable overrides.
    """
    file_values = _load_config_file(args.config)
    values = {}
    for key, (env, default, convert) in _SETTINGS.items():
        file_value = file_values.get(key)
        expected = int if convert is int else str
        if file_value is not None and type(file_value) is not expected:
            raise ConfigError(f"{key}: expected {expected.__name__}, got {file_value!r}")
        value = getattr(args, key, None)
        if value is None and env:
            value = os.environ.get(env) or None
        if value is None:
            value = file_value if file_value is not None else default
        if key in _REQUIRED and not value:
            raise ConfigError(f"{key}: required, as a flag or in the config file")
        try:
            values[key] = None if value is None else convert(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    config = RunConfig(**values)
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    if config.backend not in ("live", "replay"):
        raise ConfigError(f"backend must be live or replay, got {config.backend!r}")
    if config.concurrency < 1:
        raise ConfigError("concurrency must be >= 1")
    if config.limit is not None and config.limit <= 0:
        raise ConfigError("limit must be a positive sample count")
    if config.backend == "replay" and not config.store_dir.is_dir():
        raise ConfigError(f"replay needs an existing transcript store: {config.store_dir}")
    url = urllib.parse.urlsplit(config.endpoint or "")
    if config.backend == "live" and (url.scheme not in ("http", "https") or not url.netloc):
        raise ConfigError(
            "live backend needs an http:// or https:// endpoint URL "
            f"(flag, LLM_ENDPOINT, or config file), got {config.endpoint!r}"
        )
    needs_search = config.variant.retrieval is RetrievalSource.GOOGLE_SEARCH
    if needs_search and config.backend == "live":
        if not (config.search_api_key and config.search_engine_id):
            raise ConfigError(
                "this variant searches the web: set SEARCH_API_KEY and SEARCH_ENGINE_ID"
            )


def build_deps(config: RunConfig, run_dir: Path) -> PipelineDeps:
    store = TranscriptStore(config.store_dir)
    web = None
    if config.backend == "replay":
        gateway = Gateway(None, store)
    else:
        in_flight = threading.BoundedSemaphore(2 * config.concurrency)
        backend = LiveBackend(config.endpoint, config.model, in_flight=in_flight)
        gateway = Gateway(backend, store=store, exchange_log=run_dir / "exchanges.jsonl")
        if config.variant.retrieval is RetrievalSource.GOOGLE_SEARCH:
            # One session for every search and page fetch, so connections are reused.
            session = requests.Session()
            search = GoogleSearchClient(
                config.search_api_key, config.search_engine_id, session=session, in_flight=in_flight
            )
            web = (search, functools.partial(fetch_page, session=session, in_flight=in_flight))
    return PipelineDeps(gateway=gateway, cache=WordInfoCache(config.cache_dir), web=web)


def cmd_run(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    samples = load_dataset(config.dataset, config.data_path)
    if not samples:
        raise ConfigError(f"data path holds no samples: {config.data_path}")
    if config.limit is not None:
        samples = samples[: config.limit]
    with writing(config.run_dir) as run_dir:
        run_dir.mkdir(parents=True, exist_ok=True)
        # The run directory holds this run's outputs only: a report or exchange lines
        # that an earlier run left there would pass for this run's.
        for stale in ("report.json", "report.txt", "exchanges.jsonl"):
            (run_dir / stale).unlink(missing_ok=True)
    deps = build_deps(config, run_dir)

    # Up to 4 * concurrency samples run at once, each whole on one thread: its
    # grounding (keywords and their definitions), then P1, P2 and the verdict. Each
    # chat request, search and page fetch holds one of 2 * concurrency permits while
    # in flight (see `build_deps`), so at most 2 * concurrency requests are in flight;
    # a sample that sleeps on a backoff or waits on another sample's identical call
    # holds none. Samples start in input order, and each record is on disk as soon
    # as it and every earlier sample are done.
    #
    # A sample that raises (a SampleError aside) stops the run: no later sample
    # starts, the running ones finish, and `map` raises the error once the records
    # before it are written. Positions, not the mere fact of a crash, decide: a
    # sample taken off the queue before the failed one may reach this check after it.
    # An error that leaves the record loop (Ctrl-C) drops `map`'s result iterator, and
    # the iterator's cleanup cancels every sample not yet started.
    crashed: list[int] = []

    def run_one(position: int, sample) -> dict | None:
        if any(earlier < position for earlier in crashed):
            return None
        started = time.monotonic()
        trace = error = None
        try:
            trace = run_pipeline(sample, config.variant, deps)
        except SampleError as exc:
            error = exc
        except BaseException:
            crashed.append(position)
            raise
        return {
            "sample_id": sample.id,
            "variant": config.variant.value,
            "gold": sample.gold.value,
            "verdict": trace.verdict.value if trace else None,
            "skipped_reason": f"{type(error).__name__}: {error}" if error else None,
            "skip_class": type(error).__name__ if error else None,
            "keywords": list(trace.keywords) if trace else [],
            "word_info_sources": [info.source.value for info in trace.word_infos] if trace else [],
            "p1_digest": trace.p1_digest if trace else None,
            "p2_digest": trace.p2_digest if trace else None,
            "wall_time": time.monotonic() - started,
        }

    with writing(run_dir / "run.jsonl") as log_path:
        fh = log_path.open("w", encoding="utf-8")
    with fh, ThreadPoolExecutor(4 * config.concurrency) as pool:
        for record in pool.map(run_one, range(len(samples)), samples):
            with writing(log_path):
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                fh.flush()

    try:
        report = report_from_log(log_path)
    except EmptyEvaluation:
        print(f"run finished but every sample was skipped; no report written ({log_path})")
        return 1
    with writing(run_dir / "report.json") as path:
        path.write_text(report_to_json(report) + "\n", encoding="utf-8")
    with writing(run_dir / "report.txt") as path:
        path.write_text(report_to_table(report), encoding="utf-8")
    print(
        f"{config.dataset.value}/{config.model}/{config.variant.value}: "
        f"scored {report.n_scored}, skipped {report.n_skipped}, "
        f"f1_macro {report.f1_macro:.4f} -> {run_dir}"
    )
    return 0


_VERDICTS = tuple(label.value for label in Label)


def read_run_log(path: Path | str) -> list[dict]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise LogParseError(f"cannot read run log: {exc}") from exc
    records: list[dict] = []
    seen: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogParseError(f"invalid JSON: {exc.msg}", line=line_no) from exc
        if not isinstance(record, dict):
            raise LogParseError("not a JSON object", line=line_no)
        for key in ("sample_id", "gold", "verdict", "skipped_reason"):
            if key not in record:
                raise LogParseError(f"missing key {key!r}", line=line_no)
        sample_id = record["sample_id"]
        if not isinstance(sample_id, str):
            raise LogParseError(f"sample_id must be a string, got {sample_id!r}", line=line_no)
        if sample_id in seen:
            raise LogParseError(f"repeated sample_id {sample_id!r}", line=line_no)
        seen.add(sample_id)
        if record["gold"] not in _VERDICTS:
            raise LogParseError(f"gold must be YES or NO, got {record['gold']!r}", line=line_no)
        if record["verdict"] not in _VERDICTS + (None,):
            raise LogParseError(
                f"verdict must be YES, NO or null, got {record['verdict']!r}", line=line_no
            )
        records.append(record)
    return records


def report_from_log(path: Path | str):
    """Recompute the metrics report from a run log, with no model access."""
    pairs = [
        (Label(r["gold"]), Label(r["verdict"]) if r["verdict"] is not None else None)
        for r in read_run_log(path)
    ]
    return macro_metrics(confusion(pairs))


def cmd_report(args: argparse.Namespace) -> int:
    report = report_from_log(args.run_log)
    if args.json:
        print(report_to_json(report))
    else:
        print(report_to_table(report), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarcrag",
        description="Run sarcasm-detection prompting pipelines and score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one dataset through one pipeline variant")
    run.add_argument("--dataset", choices=[k.value for k in DatasetKind])
    run.add_argument("--data-path", dest="data_path")
    run.add_argument("--variant", choices=[v.value for v in PipelineVariant])
    run.add_argument("--model")
    run.add_argument("--backend", choices=["live", "replay"])
    run.add_argument("--endpoint", help="live chat URL, http:// or https://, or the run exits 2")
    run.add_argument(
        "--concurrency",
        type=int,
        help="N: at most 2N requests in flight, on 4N threads; a sample that sleeps on a"
        " backoff or waits on a merged call holds no request (default 4)",
    )
    run.add_argument("--limit", type=int)
    run.add_argument("--out")
    run.add_argument("--transcripts", help="transcript store root, one directory per model")
    run.add_argument("--cache", help="definition cache root, one directory per model and language")
    run.add_argument("--config", help="YAML file with the same keys as the flags")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="recompute metrics from a run log")
    report.add_argument("run_log")
    report.add_argument("--json", action="store_true")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SarcragError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
