"""Test doubles and inputs that more than one test uses: HTTP responses and sessions,
the chat, search and page endpoints behind `requests.Session`, stand-ins for the
pipeline's gateway, backend and search ports, the `sarcrag run` command line,
SemEval data files, the race harness and the loader of the generator scripts.

Test files import them as `from fakes import ...`. Every fake HTTP exchange of
the suite is answered here, by `FakeSession` or by `patch_endpoints`.
"""

import importlib.util
import io
import json
import shutil
import sys
import threading
import time
from pathlib import Path

import requests

from sarcrag.cli import main
from sarcrag.keywords import _cap_keywords, parse_csv_keywords
from sarcrag.retrieval import GoogleSearchClient

FIXTURE = Path(__file__).parent / "fixtures" / "replay"

# A search snippet of 25 words, long enough that its page is not fetched.
LONG_SNIPPET = " ".join(f"word{i}" for i in range(25))


def keyword_set(raw):
    """The keywords extraction keeps from raw, the answer of the CSV-cleaning call."""
    return list(_cap_keywords(parse_csv_keywords(raw)))


def load_script(path):
    """The script at path, imported as a module named after its file."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def semeval_file(path, texts):
    """path, written as a SemEval file whose rows are `texts`, numbered from 1, each labelled 1."""
    rows = "".join(f"{n}\t1\t{text}\n" for n, text in enumerate(texts, start=1))
    path.write_text("Tweet index\tLabel\tTweet text\n" + rows, encoding="utf-8")
    return path


def at_once(calls):
    """What each of `calls` returned, or the exception it raised, in call order.

    Each call runs on its own daemon thread, and all of them start together at one
    barrier. The interpreter's switch interval is 1 µs meanwhile, so that the threads
    switch as often as they can; it is restored afterwards. The calls get 30 s in all
    to finish, so a call stuck on a lost wake-up fails its test instead of hanging it,
    and its thread, a daemon, does not keep the process from exiting.
    """
    outcomes = [None] * len(calls)
    start = threading.Barrier(len(calls), timeout=30)

    def call(n):
        start.wait()
        try:
            outcomes[n] = calls[n]()
        except Exception as exc:
            outcomes[n] = exc

    threads = [threading.Thread(target=call, args=(n,), daemon=True) for n in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "the calls ran past 30 s"
    return outcomes


class BlockReader(io.BytesIO):
    """A response body that counts the blocks it hands out."""

    def __init__(self, body):
        super().__init__(body)
        self.blocks = 0

    def read(self, size=-1):
        block = super().read(size)
        if block:
            self.blocks += 1
        return block


def http_response(payload=None, *, status=200, body=b"", content_type="text/html; charset=utf-8"):
    """A real requests.Response with `status`, as `get(..., stream=True)` returns one.

    Its body, `payload` as JSON if given or else `body`, is read through a BlockReader.
    """
    response = requests.Response()
    response.status_code = status
    if payload is not None:
        body, content_type = json.dumps(payload).encode(), "application/json"
    response.headers["Content-Type"] = content_type
    response.encoding = requests.utils.get_encoding_from_headers(response.headers)
    response.raw = BlockReader(body)
    return response


class FakeSession:
    """Stands in for a requests.Session: `post` and `get` record each call as (url,
    keyword arguments) and answer from `answers`, a list served in order or a function
    of (url, **keyword arguments). An answer that is an exception is raised."""

    def __init__(self, answers):
        self.answers = answers if callable(answers) else list(answers)
        self.calls = []

    def post(self, url, **kwargs):
        self.calls.append((url, kwargs))
        answer = self.answers(url, **kwargs) if callable(self.answers) else self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer

    get = post


def say_yes(system, user, payload):
    """A chat answer that ends every reflection on YES."""
    return "Final decision: YES"


def patch_endpoints(monkeypatch, chat=None, search=None, page=None):
    """Answer every `requests.Session` post and get: a chat post with `chat(system,
    user, payload)`, a search get with `search(query)` and any other get with `page(url)`.

    `chat` returns the answer text, `search` the result items, and `page` the page
    body as bytes. Any of them may return an HTTP status instead, or a whole
    response. A request to an endpoint not given fails the test. Returns the list
    of exchanges as they arrive, each ("chat", "search" or "page", session).
    """
    exchanges = []

    def exchange(session, kind, answer, args, build):
        exchanges.append((kind, session))
        if answer is None:
            raise AssertionError(f"unexpected {kind} request")
        answer = answer(*args)
        if isinstance(answer, int):
            return http_response(status=answer)
        if isinstance(answer, requests.Response):
            return answer
        return build(answer)

    def post(session, url, **kwargs):
        payload = kwargs["json"]
        system, user = (message["content"] for message in payload["messages"][:2])
        return exchange(
            session, "chat", chat, (system, user, payload),
            lambda text: http_response({"message": {"content": text}}),
        )

    def get(session, url, **kwargs):
        if url == GoogleSearchClient.endpoint:
            return exchange(
                session, "search", search, (kwargs["params"]["q"],),
                lambda items: http_response({"items": items}),
            )
        return exchange(session, "page", page, (url,), lambda body: http_response(body=body))

    monkeypatch.setattr(requests.Session, "post", post)
    monkeypatch.setattr(requests.Session, "get", get)
    return exchanges


class ScriptedGateway:
    """Stands in for Gateway: records each request and answers it from `answers`, a
    list served in order, a dict from purpose to answer, or a function of the request.
    An answer that is an exception is raised."""

    def __init__(self, answers):
        self.answers = list(answers) if isinstance(answers, list) else answers
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        if callable(self.answers):
            answer = self.answers(request)
        elif isinstance(self.answers, dict):
            answer = self.answers[request.purpose]
        else:
            answer = self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer

    @property
    def purposes(self):
        return [request.purpose for request in self.requests]


class FunctionBackend:
    """A chat backend for a real Gateway that answers each request with `answer(request)`."""

    def __init__(self, answer):
        self.complete = answer


class FakeSearch:
    """A search port that records each query and answers it with `results`, or with
    `results(query)` when that is a function."""

    def __init__(self, results):
        self.results = results
        self.queries = []

    def search(self, query):
        self.queries.append(query)
        return self.results(query) if callable(self.results) else self.results


def no_page(url):
    """A page fetcher that reaches no page, so each search result keeps its snippet."""
    raise requests.ConnectionError(f"no page at {url}")


def copy_fixture(root):
    """root, holding a copy of the replay fixture's transcripts and cache unless it has them."""
    for tree in ("transcripts", "cache"):
        if not (root / tree).exists():
            shutil.copytree(FIXTURE / tree, root / tree)
    return root


def run(root, *flags, fixture=False):
    """Exit code of `sarcrag run` with --transcripts, --cache and --out under root.

    Flags come last, so they override the defaults before them: a live run of
    semeval data by the model `m` against a `.invalid` host, or with `fixture` a
    replay of the fixture's semeval data with `pmpwl` by `fixture-model`, from a
    copy of its stores. No run writes into the committed fixture.
    """
    if fixture:
        copy_fixture(root)
        defaults = [
            "--data-path", FIXTURE / "data" / "semeval_mini.tsv",
            "--variant", "pmpwl",
            "--model", "fixture-model",
            "--backend", "replay",
        ]
    else:
        defaults = ["--model", "m", "--backend", "live", "--endpoint", "http://chat.invalid/api/chat"]
    argv = [
        "run",
        "--dataset", "semeval",
        *defaults,
        "--transcripts", root / "transcripts",
        "--cache", root / "cache",
        "--out", root / "runs",
        *flags,
    ]
    return main([str(arg) for arg in argv])
