"""Deterministic loopback stand-ins for the chat model, the search engine and web pages.

`FakeModel.answer` is a pure function of (plan, request). `FakeServer` serves it
over HTTP/1.1 keep-alive with Nagle's algorithm off, together with a Custom
Search JSON endpoint and HTML pages, and counts what it receives.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
import urllib.parse
from collections import Counter, defaultdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from workloads import (
    PAGE_WORDS,
    PERMANENT_FAULTS,
    RESULTS_PER_SEARCH,
    Plan,
    digest_int,
    message_key,
    page_path,
    slug,
    text_tag,
)

OVERSIZED_PAGE_BYTES = 4 * 1024 * 1024
PAGE_WORD_COUNT = 3000

_TAG = re.compile(r"\[([0-9a-f]{10})\]")


def purpose_table() -> list[tuple[str, str, bool]]:
    """(system prompt, purpose, prefix match) from the package's own prompt texts."""
    from sarcrag.core import LanguageTag
    from sarcrag.retrieval import DEFINE_SYSTEM, REFINE_SYSTEM
    from sarcrag.templates import load_templates

    table = []
    for language in LanguageTag:
        t = load_templates(language)
        table += [
            (t.p1_system, "P1", True),
            (t.p2_system, "P2", True),
            (t.keyword_identify, "KeywordIdentify", False),
            (t.keyword_csv, "KeywordClean", False),
            (DEFINE_SYSTEM[language], "DefineWord", False),
            (REFINE_SYSTEM[language], "RefineChunks", False),
        ]
    return table


class FakeModel:
    """Answers chat requests from the plan; the P2 verdict depends only on the sample text."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.purposes = purpose_table()
        self.prose_clean = set(plan.prose_clean)
        self.no_verdict = set(plan.no_verdict)
        self.refine_long = set(plan.refine_long)

    def classify(self, system: str) -> str:
        for prompt, purpose, prefix in self.purposes:
            if system == prompt or (prefix and system.startswith(prompt)):
                return purpose
        raise ValueError(f"unrecognised system prompt: {system[:60]!r}")

    def tag_of(self, purpose: str, user: str) -> str | None:
        """The sample a request belongs to, for requests made once per sample."""
        if purpose in ("P1", "KeywordIdentify"):
            return text_tag(user.split("\n", 1)[0])
        if purpose in ("P2", "KeywordClean"):
            match = _TAG.search(user)
            return match.group(1) if match else None
        return None

    def answer(self, purpose: str, messages: list[tuple[str, str]]) -> str:
        user = messages[1][1]
        tag = self.tag_of(purpose, user)
        if purpose == "P1":
            return (
                f"analysis[{tag}]: the speaker restates the situation and describes it in "
                "glowing terms, while the described events are inconvenient. The implied "
                "attitude and the stated attitude are compared against each other, and the "
                "wording is checked for exaggeration, pretense and a shift in polarity."
            )
        if purpose == "P2":
            body = (
                f"reflection[{tag}]: the preliminary analysis was summarized and weighed "
                "against the wording, the implicature, the presuppositions and the intent."
            )
            if tag in self.no_verdict:
                return body + " The reflection does not settle on a single reading."
            return f"{body}\nFinal decision: {self.plan.verdicts[tag]}"
        if purpose == "KeywordIdentify":
            words = self.plan.keywords.get(tag, [])
            if not words:
                return f"Saya mengerti semua kata dalam teks [{tag}]."
            listed = " dan ".join([", ".join(words[:-1]), words[-1]] if len(words) > 1 else words)
            return f"Kata-kata yang tidak saya mengerti dari teks [{tag}]: {listed}."
        if purpose == "KeywordClean":
            if tag in self.prose_clean:
                return "Berikut adalah kata-kata yang tidak saya mengerti dalam teks tersebut"
            words = self.plan.keywords.get(tag, [])
            return ",".join(words) if words else "NO UNKNOWN"
        if purpose == "DefineWord":
            return (
                f"{user} is a name that comes up often in posts about travel, work and "
                "sport. People mention it when they talk about plans, prices and news."
            )
        if purpose == "RefineChunks":
            keyword = user.split("\n", 1)[0].split(": ", 1)[1]
            if keyword in self.refine_long and len(messages) == 2:
                return (
                    f"{keyword} adalah ungkapan yang sering dipakai di media sosial. "
                    "Kata ini muncul dalam percakapan anak muda. Artinya bergantung pada konteks."
                )
            return (
                f"{keyword} adalah ungkapan yang sering dipakai di media sosial. "
                "Kata ini muncul dalam percakapan sehari hari."
            )
        raise ValueError(f"unknown purpose {purpose}")

    def fault(self, purpose: str, messages: list[tuple[str, str]]) -> str | None:
        tag = self.tag_of(purpose, messages[1][1])
        return self.plan.chat_faults.get(tag, {}).get(purpose) if tag else None


def _page_html(seed: int, keyword: str, rank: int, size: int | None) -> bytes:
    rng = random.Random(digest_int("page", seed, keyword, rank))
    density = 0.004 * (RESULTS_PER_SEARCH + 1 - rank)
    words = [keyword if rng.random() < density else rng.choice(PAGE_WORDS) for _ in range(PAGE_WORD_COUNT)]
    paragraphs = [" ".join(words[i : i + 60]) for i in range(0, len(words), 60)]
    body = "\n".join(f"<p>{p}</p>" for p in paragraphs)
    head = (
        f"<html><head><title>{keyword}</title><style>p {{ margin: 0 }}</style>"
        "<script>var tracker = {id: 1};</script></head><body>"
    )
    page = head + body
    if size is not None:
        filler = f"\n<div>{body}</div>"
        page += filler * (size // len(filler) + 1)
    return (page + "</body></html>").encode("utf-8")


class Counters:
    """What the server received during one child run."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.chat = Counter()  # (purpose, outcome) -> n
        self.search = Counter()  # outcome -> n
        self.pages = Counter()  # outcome -> n
        self.connections = 0
        self.page_bytes_sent = 0
        self.handle_s: list[float] = []  # own work per request, delays excluded
        self.chat_log: list[tuple[str, str, str, float]] = []  # key, purpose, outcome, handle time
        self.key_state: dict[str, str] = {}  # key -> "ok" / "transient" / "permanent"
        self.repeat_requests = 0
        self.retries = 0
        self.futile_retries = 0
        self.fault_log: dict[tuple[str, str], list[str]] = defaultdict(list)  # (tag, purpose) -> outcomes

    @property
    def requests(self) -> int:
        return sum(self.chat.values()) + sum(self.search.values()) + sum(self.pages.values())

    def record_chat(self, key: str, purpose: str, outcome: str, handle_s: float) -> None:
        kind = "ok" if outcome == "ok" else "permanent" if outcome in PERMANENT_FAULTS else "transient"
        with self.lock:
            previous = self.key_state.get(key)
            if previous == "ok":
                self.repeat_requests += 1
            elif previous == "transient":
                self.retries += 1
            elif previous == "permanent":
                self.futile_retries += 1
            if previous != "ok":
                self.key_state[key] = kind
            self.chat[(purpose, outcome)] += 1
            self.chat_log.append((key, purpose, outcome, handle_s))

    def summary(self) -> dict:
        return {
            "chat": {f"{p}/{o}": n for (p, o), n in sorted(self.chat.items())},
            "chat_requests": sum(self.chat.values()),
            "search_requests": sum(self.search.values()),
            "page_requests": sum(self.pages.values()),
            "connections": self.connections,
            "page_bytes_sent": self.page_bytes_sent,
            "repeat_requests": self.repeat_requests,
            "retries": self.retries,
            "futile_retries": self.futile_retries,
            "unique_chat_keys": len(self.key_state),
        }


class FakeServer:
    """Chat (Ollama and OpenAI shapes), Custom Search JSON and HTML pages on 127.0.0.1."""

    def __init__(self, plan: Plan, chat_delay_s: float, search_delay_s: float) -> None:
        self.plan = plan
        self.model = FakeModel(plan)
        self.chat_delay_s = chat_delay_s
        self.search_delay_s = search_delay_s
        self.counters = Counters()
        self._pages: dict[str, bytes] = {}
        self._fault_seen: set[str] = set()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._httpd.server_address[1]}"

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def reset(self) -> Counters:
        """Start a new child run: fresh counters and first-attempt fault state."""
        finished, self.counters = self.counters, Counters()
        self._fault_seen = set()
        return finished

    def page(self, path: str) -> bytes | None:
        if path not in self._pages:
            parts = path.split("/")
            if len(parts) != 4 or parts[1] != "pages":
                return None
            keyword = next((k for k in self.plan.long_snippet_rank if slug(k) == parts[2]), None)
            if keyword is None:
                return None
            size = OVERSIZED_PAGE_BYTES if self.plan.page_faults.get(path) == "oversized" else None
            self._pages[path] = _page_html(self.plan.seed, keyword, int(parts[3]), size)
        return self._pages[path]

    def warm_pages(self) -> None:
        """Render every page once, so serving a page is a dictionary lookup."""
        for keyword in self.plan.long_snippet_rank:
            for rank in range(1, RESULTS_PER_SEARCH + 1):
                self.page(page_path(keyword, rank))

    def search_items(self, keyword: str) -> list[dict]:
        long_rank = self.plan.long_snippet_rank.get(keyword, 0)
        items = []
        for rank in range(1, RESULTS_PER_SEARCH + 1):
            if rank == long_rank:
                snippet = (
                    f"{keyword} adalah istilah yang sering muncul di media sosial dan percakapan "
                    "sehari hari anak muda, dengan arti yang bergantung pada konteks kalimat."
                )
            else:
                snippet = f"{keyword} - arti dan contoh penggunaan"
            items.append({"link": self.base_url + page_path(keyword, rank), "snippet": snippet})
        return items

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                with server.counters.lock:
                    server.counters.connections += 1

            def log_message(self, format, *args) -> None:  # noqa: A002
                pass

            def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self) -> None:
                started = time.perf_counter()
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                messages = [(m["role"], m["content"]) for m in payload["messages"]]
                key = message_key(payload["messages"])
                purpose = server.model.classify(messages[0][1])
                planned = fault = server.model.fault(purpose, messages)
                if fault in ("500", "429"):
                    with server.counters.lock:
                        first = key not in server._fault_seen
                        server._fault_seen.add(key)
                    if not first:
                        fault = None
                if fault in ("500", "429", "400"):
                    status, body = int(fault), b'{"error": "injected fault"}'
                elif fault == "malformed":
                    status, body = 200, b'{"message": {"role": "assistant", "content": "trunc'
                else:
                    content = "" if fault == "empty" else server.model.answer(purpose, messages)
                    message = {"role": "assistant", "content": content}
                    if self.path.startswith("/v1/"):
                        shaped = {"id": "fake", "object": "chat.completion", "choices": [{"index": 0, "message": message, "finish_reason": "stop"}]}
                    else:
                        shaped = {"model": payload.get("model"), "message": message, "done": True}
                    status, body = 200, json.dumps(shaped, ensure_ascii=False).encode("utf-8")
                time.sleep(server.chat_delay_s)
                self._send(status, body)
                total = time.perf_counter() - started
                server.counters.handle_s.append(total - server.chat_delay_s)
                server.counters.record_chat(key, purpose, fault or "ok", total)
                if planned:
                    tag = server.model.tag_of(purpose, messages[1][1])
                    with server.counters.lock:
                        server.counters.fault_log[(tag, purpose)].append(fault or "ok")

            def do_GET(self) -> None:
                started = time.perf_counter()
                url = urllib.parse.urlsplit(self.path)
                if url.path == "/customsearch/v1":
                    keyword = urllib.parse.parse_qs(url.query)["q"][0]
                    time.sleep(server.search_delay_s)
                    slept = server.search_delay_s
                    if keyword in server.plan.search_429:
                        outcome, status, body = "429", 429, b'{"error": {"code": 429}}'
                    else:
                        outcome, status = "ok", 200
                        body = json.dumps({"items": server.search_items(keyword)}).encode("utf-8")
                    self._send(status, body)
                    with server.counters.lock:
                        server.counters.search[outcome] += 1
                else:
                    slept = 0.0
                    body = server.page(url.path)
                    if body is None or server.plan.page_faults.get(url.path) == "500":
                        outcome, status, body = "500" if body else "404", 500 if body else 404, b"error"
                    else:
                        outcome, status = "ok", 200
                    self._send(status, body, "text/html; charset=utf-8")
                    with server.counters.lock:
                        server.counters.pages[outcome] += 1
                        server.counters.page_bytes_sent += len(body) if status == 200 else 0
                server.counters.handle_s.append(time.perf_counter() - started - slept)

        return Handler
