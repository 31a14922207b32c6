"""Run the sarcrag CLI against the benchmark's fake services, optionally tracing each layer.

    python3 bench/launch.py [--spans FILE] run --dataset ... --backend live ...

The CLI has no flag for the search endpoint, so the launcher points
`GoogleSearchClient.endpoint` at `BENCH_SEARCH_URL`. With `--spans`, it wraps the
package's public functions at the names their callers look up, keeps one span
per call in memory and writes them to FILE when the CLI returns.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

from workloads import message_key

# (module, attribute path, span name, what to note about the call)
TARGETS = [
    ("sarcrag.cli", "cmd_run", "cli.cmd_run", None),
    ("sarcrag.cli", "load_dataset", "datasets.load_dataset", None),
    ("sarcrag.cli", "run_pipeline", "pipeline.run_pipeline", "sample"),
    ("sarcrag.cli", "fetch_page", "retrieval.fetch_page", None),
    ("sarcrag.pipeline", "extract_token_tagging", "keywords.extract_token_tagging", None),
    ("sarcrag.pipeline", "extract_llm_based", "keywords.extract_llm_based", None),
    ("sarcrag.pipeline", "get_word_info", "retrieval.get_word_info", None),
    ("sarcrag.pipeline", "build_p1", "pipeline.build_p1", None),
    ("sarcrag.pipeline", "build_p2", "pipeline.build_p2", None),
    ("sarcrag.pipeline", "parse_verdict", "pipeline.parse_verdict", None),
    ("sarcrag.retrieval", "search_web", "retrieval.search_web", None),
    ("sarcrag.retrieval", "gather_corpus", "retrieval.gather_corpus", None),
    ("sarcrag.retrieval", "rank_chunks", "retrieval.rank_chunks", "n_chunks"),
    ("sarcrag.retrieval", "refine_definition", "retrieval.refine_definition", None),
    ("sarcrag.retrieval", "define_llm_only", "retrieval.define_llm_only", None),
    ("sarcrag.retrieval", "WordInfoCache.lookup", "retrieval.WordInfoCache.lookup", "hit"),
    ("sarcrag.retrieval", "WordInfoCache.store", "retrieval.WordInfoCache.store", None),
    ("sarcrag.gateway", "Gateway.chat", "gateway.Gateway.chat", "purpose"),
    ("sarcrag.gateway", "LiveBackend.complete", "gateway.LiveBackend.complete", "key"),
    ("sarcrag.gateway", "TranscriptStore.lookup", "gateway.TranscriptStore.lookup", None),
    ("sarcrag.gateway", "TranscriptStore.save", "gateway.TranscriptStore.save", None),
]

# Called too often for a span each; only counted.
COUNTED = [("sarcrag.gateway", "request_digest", "gateway.request_digest")]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[int, list] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.sample = None
        return self._local.stack

    def _note(self, kind: str | None, args: tuple, kwargs: dict, result) -> object:
        if kind == "hit":
            return result is not None
        if kind == "n_chunks":
            return len(_arg(args, kwargs, 1, "chunks"))
        if kind == "purpose":
            return _arg(args, kwargs, 1, "request").purpose.value
        if kind == "key":
            return message_key(_arg(args, kwargs, 1, "request").messages)
        return None

    def wrap(self, fn, name: str, kind: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            if kind == "sample":
                tracer._local.sample = _arg(args, kwargs, 0, "sample").id
            stack.append(span_id)
            error = None
            result = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = [
                    name, started, ended, parent, tracer._local.sample, error,
                    tracer._note(kind, args, kwargs, result),
                ]

        return traced

    def count(self, fn, name: str):
        counts = self.counts
        counts[name] = 0
        lock = threading.Lock()

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace each target at the name its callers look up; note targets that no longer exist."""
        for module_name, path, name, kind in TARGETS + [(m, p, n, "count") for m, p, n in COUNTED]:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None) if owner is not None else None
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            replacement = self.count(original, name) if kind == "count" else self.wrap(original, name, kind)
            setattr(owner, attr, replacement)

    def dump(self, path: str) -> None:
        spans = [[i] + self.spans[i] for i in sorted(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": self.counts, "absent": self.absent}, fh)


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec.

    `ru_maxrss` from `wait4` would not do: at exec, Linux carries the spawning
    process's peak into it, so it would report the benchmark process's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from sarcrag.retrieval import GoogleSearchClient

    GoogleSearchClient.endpoint = os.environ["BENCH_SEARCH_URL"]
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    import sarcrag.cli

    try:
        return sarcrag.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
        if "BENCH_RSS_FILE" in os.environ:
            with open(os.environ["BENCH_RSS_FILE"], "w", encoding="utf-8") as fh:
                fh.write(str(peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
