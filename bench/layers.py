"""Per-layer metrics from the spans of traced child runs and the fake server's counters.

A span is [id, name, start, end, parent id, sample id, error class, note]. A
layer's self time is its span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

PURPOSES = ("P1", "P2", "KeywordIdentify", "KeywordClean", "DefineWord", "RefineChunks")

# Per-layer metrics that every workload measures; these go into the result line.
# The others depend on layers some workloads never reach and are printed only.
REPORTED = {
    "cli.import_ms": "ms",
    "cli.import_requests_ms": "ms",
    "cli.import_yaml_ms": "ms",
    "cli.tail_ms": "ms",
    "datasets.load_ms": "ms",
    "pipeline.sample_ms.p50": "ms",
    "pipeline.sample_ms.tail": "ms",
    "pipeline.prompt_us": "us",
    "keywords.extract_us": "us",
    "retrieval.word_info_us": "us",
    "retrieval.cache_lookup_us": "us",
    "retrieval.cache_store_us": "us",
    "retrieval.cache_hit_ratio": "ratio",
    "retrieval.define_calls": "count",
    "retrieval.search_calls": "count",
    "retrieval.fetch_failures": "count",
    **{f"gateway.calls.{p}": "count" for p in PURPOSES},
    "gateway.chat_ms.P1": "ms",
    "gateway.chat_ms.P2": "ms",
    "gateway.client_overhead_ms": "ms",
    "gateway.store_save_us": "us",
    "gateway.digests_per_chat": "ratio",
    "gateway.exchange_log_bytes_per_chat": "bytes",
    "gateway.repeat_requests": "count",
    "gateway.unique_request_ratio": "ratio",
    "gateway.retries": "count",
    "gateway.futile_retries": "count",
    "server.page_bytes_sent": "bytes",
    "server.connections_per_request": "ratio",
    "server.handle_ms": "ms",
    "chat_calls_per_sample": "calls/sample",
    "search_calls_per_sample": "calls/sample",
    "page_fetches_per_sample": "calls/sample",
    "trace.overhead_share": "ratio",
}

# The traced function each span-based metric needs, so a missing target reads as absent.
NEEDS = {
    "cli.tail_ms": ("cli.cmd_run", "pipeline.run_pipeline"),
    "datasets.load_ms": ("datasets.load_dataset",),
    "pipeline.sample_ms.p50": ("pipeline.run_pipeline",),
    "pipeline.sample_ms.tail": ("pipeline.run_pipeline",),
    "pipeline.prompt_us": ("pipeline.build_p1", "pipeline.build_p2", "pipeline.parse_verdict"),
    "keywords.extract_us": ("keywords.extract_token_tagging", "keywords.extract_llm_based"),
    "keywords.tag_us": ("keywords.extract_token_tagging",),
    "keywords.llm_extract_self_ms": ("keywords.extract_llm_based",),
    "retrieval.word_info_us": ("retrieval.get_word_info",),
    "retrieval.cache_hit_ratio": ("retrieval.WordInfoCache.lookup",),
    "retrieval.cache_lookup_us": ("retrieval.WordInfoCache.lookup",),
    "retrieval.cache_store_us": ("retrieval.WordInfoCache.store",),
    "retrieval.define_calls": ("retrieval.define_llm_only",),
    "retrieval.search_ms": ("retrieval.search_web",),
    "retrieval.search_calls": ("retrieval.search_web",),
    "retrieval.fetch_ms": ("retrieval.fetch_page",),
    "retrieval.fetch_failures": ("retrieval.fetch_page",),
    "retrieval.chunk_ms": ("retrieval.gather_corpus",),
    "retrieval.rank_ms": ("retrieval.rank_chunks",),
    "retrieval.rank_chunks_in": ("retrieval.rank_chunks",),
    "retrieval.refine_self_ms": ("retrieval.refine_definition",),
    **{f"gateway.calls.{p}": ("gateway.Gateway.chat",) for p in PURPOSES},
    **{f"gateway.chat_ms.{p}": ("gateway.Gateway.chat",) for p in PURPOSES},
    "gateway.client_overhead_ms": ("gateway.LiveBackend.complete",),
    "gateway.store_lookup_us": ("gateway.TranscriptStore.lookup",),
    "gateway.store_save_us": ("gateway.TranscriptStore.save",),
    "gateway.digests_per_chat": ("gateway.request_digest", "gateway.Gateway.chat"),
    "gateway.exchange_log_bytes_per_chat": ("gateway.Gateway.chat",),
}

UNITS = {
    **REPORTED,
    "keywords.tag_us": "us",
    "keywords.llm_extract_self_ms": "ms",
    "retrieval.search_ms": "ms",
    "retrieval.fetch_ms": "ms",
    "retrieval.chunk_ms": "ms",
    "retrieval.rank_ms": "ms",
    "retrieval.rank_chunks_in": "count",
    "retrieval.refine_self_ms": "ms",
    **{f"gateway.chat_ms.{p}": "ms" for p in PURPOSES},
    "gateway.store_lookup_us": "us",
}


def percentile_tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten values beyond it."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1 - pct / 100) >= 10:
            return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
    return None


class TracedRun:
    """Spans of one traced child run, indexed for the queries below."""

    def __init__(self, trace: dict, server: dict, chat_log: list, samples: int, log_bytes: int | None) -> None:
        self.spans = trace["spans"]
        self.counts = trace["counts"]
        self.absent = set(trace["absent"])
        self.server = server
        self.chat_log = chat_log
        self.samples = samples
        self.log_bytes = log_bytes
        self.by_name: dict[str, list] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            self.by_name[span[1]].append(span)
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        self.child_time = child_time

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.by_name[name]]

    def self_times(self, name: str) -> list[float]:
        return [s[3] - s[2] - self.child_time[s[0]] for s in self.by_name[name]]


def _mean(values: list[float], scale: float) -> float | None:
    return statistics.fmean(values) * scale if values else None


def layer_metrics(
    runs: list[TracedRun],
    untraced: list[dict],
    import_ms: dict[str, float],
    overhead: float,
    replay: TracedRun | None,
) -> tuple[dict[str, float | None], set[str], str]:
    """(metric -> value or None when the workload never reaches the layer, absent names, tail note).

    `runs` are the traced live children, at least one; `replay` is the traced replay pass, if any.
    """
    absent_targets = set().union(*(r.absent for r in runs))
    pooled = lambda f: [v for r in runs for v in f(r)]  # noqa: E731
    durations = lambda name: pooled(lambda r: r.durations(name))  # noqa: E731
    self_times = lambda name: pooled(lambda r: r.self_times(name))  # noqa: E731
    per_run = lambda f: statistics.fmean(f(r) for r in runs)  # noqa: E731
    n_samples = sum(r.samples for r in runs)

    m: dict[str, float | None] = {}
    m["cli.import_ms"] = import_ms.get("sarcrag.cli")
    m["cli.import_requests_ms"] = import_ms.get("requests")
    m["cli.import_yaml_ms"] = import_ms.get("yaml")
    tails = [
        r.by_name["cli.cmd_run"][0][3] - max(s[3] for s in r.by_name["pipeline.run_pipeline"])
        for r in runs
        if r.by_name["cli.cmd_run"] and r.by_name["pipeline.run_pipeline"]
    ]
    m["cli.tail_ms"] = statistics.median(tails) * 1e3 if tails else None
    m["datasets.load_ms"] = _mean(durations("datasets.load_dataset"), 1e3)
    sample_ms = [d * 1e3 for d in durations("pipeline.run_pipeline")]
    m["pipeline.sample_ms.p50"] = statistics.median(sample_ms) if sample_ms else None
    tail = percentile_tail(sample_ms)
    m["pipeline.sample_ms.tail"] = tail[1] if tail else None
    tail_note = f"p{tail[0]:g} of {len(sample_ms)} samples" if tail else f"fewer than 20 of {len(sample_ms)} samples"
    prompt = sum(self_times("pipeline.build_p1") + self_times("pipeline.build_p2") + self_times("pipeline.parse_verdict"))
    m["pipeline.prompt_us"] = prompt / n_samples * 1e6 if n_samples else None
    extract = durations("keywords.extract_token_tagging") + durations("keywords.extract_llm_based")
    m["keywords.extract_us"] = sum(extract) / n_samples * 1e6 if n_samples else None
    m["keywords.tag_us"] = _mean(durations("keywords.extract_token_tagging"), 1e6)
    m["keywords.llm_extract_self_ms"] = _mean(self_times("keywords.extract_llm_based"), 1e3)
    m["retrieval.word_info_us"] = sum(durations("retrieval.get_word_info")) / n_samples * 1e6 if n_samples else None
    lookups = pooled(lambda r: r.by_name["retrieval.WordInfoCache.lookup"])
    m["retrieval.cache_hit_ratio"] = sum(1 for s in lookups if s[7]) / len(lookups) if lookups else None
    m["retrieval.cache_lookup_us"] = _mean(durations("retrieval.WordInfoCache.lookup"), 1e6)
    m["retrieval.cache_store_us"] = _mean(durations("retrieval.WordInfoCache.store"), 1e6)
    m["retrieval.define_calls"] = per_run(lambda r: len(r.by_name["retrieval.define_llm_only"]))
    m["retrieval.search_ms"] = _mean(durations("retrieval.search_web"), 1e3)
    m["retrieval.search_calls"] = per_run(lambda r: len(r.by_name["retrieval.search_web"]))
    m["retrieval.fetch_ms"] = _mean(durations("retrieval.fetch_page"), 1e3)
    m["retrieval.fetch_failures"] = per_run(lambda r: sum(1 for s in r.by_name["retrieval.fetch_page"] if s[6]))
    m["retrieval.chunk_ms"] = _mean(self_times("retrieval.gather_corpus"), 1e3)
    m["retrieval.rank_ms"] = _mean(durations("retrieval.rank_chunks"), 1e3)
    ranked = [s[7] for s in pooled(lambda r: r.by_name["retrieval.rank_chunks"]) if s[7] is not None]
    m["retrieval.rank_chunks_in"] = statistics.fmean(ranked) if ranked else None
    m["retrieval.refine_self_ms"] = _mean(self_times("retrieval.refine_definition"), 1e3)

    chats = pooled(lambda r: r.by_name["gateway.Gateway.chat"])
    for purpose in PURPOSES:
        mine = [s[3] - s[2] for s in chats if s[7] == purpose]
        m[f"gateway.calls.{purpose}"] = len(mine) / len(runs)
        m[f"gateway.chat_ms.{purpose}"] = _mean(mine, 1e3)
    m["gateway.client_overhead_ms"] = _client_overhead_ms(runs)
    m["gateway.store_lookup_us"] = (
        _mean(replay.durations("gateway.TranscriptStore.lookup"), 1e6) if replay else None
    )
    m["gateway.store_save_us"] = _mean(durations("gateway.TranscriptStore.save"), 1e6)
    digests = sum(r.counts.get("gateway.request_digest", 0) for r in runs)
    m["gateway.digests_per_chat"] = digests / len(chats) if chats else None
    logged = [r for r in runs if r.log_bytes is not None and r.by_name["gateway.Gateway.chat"]]
    m["gateway.exchange_log_bytes_per_chat"] = (
        sum(r.log_bytes for r in logged) / sum(len(r.by_name["gateway.Gateway.chat"]) for r in logged)
        if logged
        else None
    )

    servers = [r.server for r in runs]
    chat_requests = sum(s["chat_requests"] for s in servers)
    all_requests = sum(s["chat_requests"] + s["search_requests"] + s["page_requests"] for s in servers)
    for name, key in (
        ("gateway.repeat_requests", "repeat_requests"),
        ("gateway.retries", "retries"),
        ("gateway.futile_retries", "futile_retries"),
        ("server.page_bytes_sent", "page_bytes_sent"),
    ):
        m[name] = per_run(lambda r: r.server[key])
    m["gateway.unique_request_ratio"] = (
        sum(s["unique_chat_keys"] for s in servers) / chat_requests if chat_requests else None
    )
    m["server.connections_per_request"] = (
        sum(s["connections"] for s in servers) / all_requests if all_requests else None
    )
    m["server.handle_ms"] = _mean([h for s in servers for h in s["handle_s"]], 1e3)

    per_sample = lambda key: statistics.median(u[key] / u["samples"] for u in untraced)  # noqa: E731
    m["chat_calls_per_sample"] = per_sample("chat_requests")
    m["search_calls_per_sample"] = per_sample("search_requests")
    m["page_fetches_per_sample"] = per_sample("page_requests")
    m["trace.overhead_share"] = overhead

    absent = {name for name, needs in NEEDS.items() if absent_targets.intersection(needs)}
    for name in absent:
        m[name] = None
    return m, absent, tail_note


def _client_overhead_ms(runs: list[TracedRun]) -> float | None:
    """Median of client call time minus server handle time, over requests sent exactly once."""
    gaps = []
    for run in runs:
        served: dict[str, list[float]] = defaultdict(list)
        for key, _purpose, _outcome, handle_s in run.chat_log:
            served[key].append(handle_s)
        calls: dict[str, list[float]] = defaultdict(list)
        for span in run.by_name["gateway.LiveBackend.complete"]:
            calls[span[7]].append(span[3] - span[2])
        for key, durations in calls.items():
            if len(durations) == 1 and len(served.get(key, ())) == 1:
                gaps.append((durations[0] - served[key][0]) * 1e3)
    return statistics.median(gaps) if gaps else None
