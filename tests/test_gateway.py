"""Chat transport: request validation, digests, transcripts, the live backend and replay."""

import email.utils
import errno
import json
import os
import re
import sys
import threading
import time

import pytest
import requests

from sarcrag.errors import (
    CorruptRecord,
    EmptyResponse,
    MissingTranscript,
    StoreWriteError,
    TransportError,
)
from sarcrag.gateway import (
    MAX_RETRY_AFTER_S,
    ChatMessage,
    ChatRequest,
    Gateway,
    LiveBackend,
    Purpose,
    Role,
    SingleFlight,
    TranscriptStore,
    request_digest,
)


def make_request(system="be helpful", user="hello", purpose=Purpose.P1):
    return ChatRequest(
        messages=(ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, user)),
        purpose=purpose,
    )


class TestChatRequest:
    def test_first_message_must_be_system(self):
        with pytest.raises(ValueError):
            ChatRequest(
                messages=(ChatMessage(Role.USER, "hi"), ChatMessage(Role.SYSTEM, "sys")),
                purpose=Purpose.P1,
            )

    def test_exactly_one_system_message(self):
        with pytest.raises(ValueError):
            ChatRequest(
                messages=(
                    ChatMessage(Role.SYSTEM, "a"),
                    ChatMessage(Role.SYSTEM, "b"),
                    ChatMessage(Role.USER, "hi"),
                ),
                purpose=Purpose.P1,
            )

    def test_requires_a_user_message(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(ChatMessage(Role.SYSTEM, "a"),), purpose=Purpose.P1)

    def test_non_assistant_content_must_be_non_empty(self):
        with pytest.raises(ValueError):
            ChatMessage(Role.USER, "")
        ChatMessage(Role.ASSISTANT, "")  # placeholder allowed


class TestDigest:
    def test_pure_function_of_role_content_pairs(self):
        a = make_request(user="hello")
        b = make_request(user="hello")
        assert a.digest == b.digest

    def test_different_content_different_digest(self):
        assert make_request(user="x").digest != make_request(user="y").digest

    def test_role_is_part_of_the_digest(self):
        messages_a = (ChatMessage(Role.SYSTEM, "s"), ChatMessage(Role.USER, "t"))
        messages_b = (ChatMessage(Role.SYSTEM, "t"), ChatMessage(Role.USER, "s"))
        assert request_digest(messages_a) != request_digest(messages_b)

    def test_order_sensitive(self):
        base = (
            ChatMessage(Role.SYSTEM, "s"),
            ChatMessage(Role.USER, "a"),
            ChatMessage(Role.ASSISTANT, "b"),
        )
        swapped = (
            ChatMessage(Role.SYSTEM, "s"),
            ChatMessage(Role.ASSISTANT, "b"),
            ChatMessage(Role.USER, "a"),
        )
        assert request_digest(base) != request_digest(swapped)

    def test_no_collisions_over_request_corpus(self):
        digests = {make_request(user=f"text {i}").digest for i in range(200)}
        assert len(digests) == 200


class TestTranscriptStore:
    def test_record_then_replay_round_trip(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        store.save(request, "recorded answer")
        assert store.lookup(request) == "recorded answer"

    def test_lookup_missing_returns_none(self, tmp_path):
        assert TranscriptStore(tmp_path).lookup(make_request()) is None

    def test_rerecord_same_text_is_idempotent(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        store.save(request, "answer")
        before = store.path_for(request.digest).read_bytes()
        store.save(request, "answer")
        assert store.path_for(request.digest).read_bytes() == before

    def test_rerecord_different_text_keeps_the_first(self, tmp_path, caplog):
        store = TranscriptStore(tmp_path)
        request = make_request()
        assert store.save(request, "old") == "old"
        before = store.path_for(request.digest).read_bytes()
        assert store.save(request, "new") == "old"
        assert store.path_for(request.digest).read_bytes() == before
        assert store.lookup(request) == "old"
        assert not caplog.records

    @pytest.mark.parametrize("content", ['{"digest": "trunc', '{"digest": "x"}', "[]"])
    def test_save_over_a_corrupt_record_raises(self, tmp_path, content):
        store = TranscriptStore(tmp_path)
        request = make_request()
        path = store.path_for(request.digest)
        path.write_text(content, encoding="utf-8")
        with pytest.raises(CorruptRecord, match=re.escape(str(path))):
            store.save(request, "answer")
        assert path.read_text(encoding="utf-8") == content

    def test_concurrent_writers_of_one_digest(self, tmp_path):
        # One store object per thread, as separate processes would have.
        request = make_request()
        kept = []
        start = threading.Barrier(8, timeout=30)

        def write(n):
            store = TranscriptStore(tmp_path)
            start.wait()
            kept.append(store.save(request, f"answer {n}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(kept) == 8
        assert len(set(kept)) == 1
        assert TranscriptStore(tmp_path).lookup(request) == kept[0]
        assert [p.name for p in tmp_path.iterdir()] == [f"{request.digest}.json"]

    def test_save_does_not_collide_with_another_writers_temp_file(self, tmp_path):
        request = make_request()
        reference = TranscriptStore(tmp_path / "reference")
        reference.save(request, "answer")
        store = TranscriptStore(tmp_path / "store")
        path = store.path_for(request.digest)
        # Stands in for the temporary file of another process saving the same digest.
        path.with_suffix(".json.tmp").mkdir(parents=True)
        store.save(request, "answer")
        assert path.read_bytes() == reference.path_for(request.digest).read_bytes()

    def test_filesystem_without_hard_links_raises_store_write_error(self, tmp_path, monkeypatch):
        def link(src, dst):
            raise OSError(errno.EOPNOTSUPP, "Operation not supported")

        monkeypatch.setattr(os, "link", link)
        with pytest.raises(StoreWriteError, match="Operation not supported"):
            TranscriptStore(tmp_path).save(make_request(), "answer")
        assert list(tmp_path.iterdir()) == []

    def test_stored_record_fields(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request(purpose=Purpose.DEFINE_WORD)
        store.save(request, "a definition")
        record = json.loads(store.path_for(request.digest).read_text(encoding="utf-8"))
        assert record["digest"] == request.digest
        assert record["purpose_tag"] == "DefineWord"
        assert record["messages"][0] == {"role": "system", "content": "be helpful"}
        assert record["response_text"] == "a definition"


def logged_backends(log_path):
    """The backend named on each line of an exchange log, in order."""
    return [json.loads(line)["backend"] for line in log_path.read_text().splitlines()]


class TestReplayBackend:
    def test_replays_verbatim(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        store.save(request, "stored response")
        log_path = tmp_path / "exchanges.jsonl"
        assert Gateway(None, store, exchange_log=log_path).chat(request) == "stored response"
        assert logged_backends(log_path) == ["store"]

    def test_missing_digest_raises(self, tmp_path):
        gateway = Gateway(None, TranscriptStore(tmp_path))
        with pytest.raises(MissingTranscript):
            gateway.chat(make_request())

    def test_identical_requests_identical_responses(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        store.save(request, "same thing")
        gateway = Gateway(None, store)
        assert gateway.chat(request) == gateway.chat(request) == "same thing"


class FakeResponse:
    def __init__(self, payload=None, status=200, text=None, headers=None):
        self.status_code = status
        self.text = json.dumps(payload or {}) if text is None else text
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        try:
            return json.loads(self.text)
        except json.JSONDecodeError as exc:
            raise requests.exceptions.JSONDecodeError(exc.msg, exc.doc, exc.pos) from exc


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, timeout=None):
        self.calls.append(json)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def live_backend(session, sleep=lambda s: None, model="m"):
    """A LiveBackend whose POSTs each hold the one permit of its own bound."""
    return LiveBackend(
        "http://example", model, in_flight=threading.BoundedSemaphore(1), session=session, sleep=sleep
    )


class TestLiveBackend:
    def test_parses_message_content_shape(self):
        session = FakeSession([FakeResponse({"message": {"content": "hi there"}})])
        backend = live_backend(session, model="m1")
        assert backend.complete(make_request()) == "hi there"
        sent = session.calls[0]
        assert sent["model"] == "m1"
        assert sent["messages"][0] == {"role": "system", "content": "be helpful"}
        assert "temperature" not in sent and "top_p" not in sent

    def test_parses_choices_shape(self):
        session = FakeSession(
            [FakeResponse({"choices": [{"message": {"content": "choice text"}}]})]
        )
        backend = live_backend(session)
        assert backend.complete(make_request()) == "choice text"

    def test_retries_then_succeeds(self):
        session = FakeSession(
            [
                requests.ConnectionError("down"),
                FakeResponse(status=500),
                FakeResponse({"message": {"content": "third time lucky"}}),
            ]
        )
        slept = []
        backend = live_backend(session, sleep=slept.append)
        assert backend.complete(make_request()) == "third time lucky"
        assert slept == [1.0, 2.0]

    def test_transport_error_after_bounded_retries(self):
        session = FakeSession([requests.ConnectionError("down")] * 3)
        backend = live_backend(session)
        with pytest.raises(TransportError):
            backend.complete(make_request())
        assert not session.responses
        assert backend.in_flight.acquire(blocking=False), "a failed POST kept its permit"


OK = FakeResponse({"message": {"content": "recovered"}})


class TestRetryClassification:
    def backend_with(self, *responses):
        session = FakeSession(responses)
        slept = []
        backend = live_backend(session, sleep=slept.append)
        return backend, session, slept

    @pytest.mark.parametrize(
        "response",
        [
            FakeResponse(status=400),
            FakeResponse(status=401),
            FakeResponse(status=404),
            FakeResponse(status=422),
            FakeResponse(text='{"message": {"role": "assistant", "content": "trunc'),
            FakeResponse(text="<html>not json</html>"),
            FakeResponse({"unexpected": "shape"}),
            FakeResponse({"choices": []}),
            FakeResponse(text="null"),
            FakeResponse({"choices": [{"message": {"role": "assistant", "content": None}}]}),
            FakeResponse({"message": {"content": 42}}),
            FakeResponse({"model": "m", "response": "an answer", "done": True}),
            requests.exceptions.InvalidURL("bad url"),
        ],
        ids=[
            "400", "401", "404", "422", "truncated-json", "not-json", "unknown-shape",
            "no-choices", "json-null", "null-content", "numeric-content", "generate-shape",
            "invalid-url",
        ],
    )
    def test_permanent_fault_fails_at_once(self, response):
        backend, session, slept = self.backend_with(response, OK, OK)
        with pytest.raises(TransportError) as info:
            backend.complete(make_request())
        assert len(session.calls) == 1
        assert slept == []
        assert str(info.value).endswith(", not retried")

    @pytest.mark.parametrize(
        "fault",
        [
            FakeResponse(status=429),
            FakeResponse(status=500),
            FakeResponse(status=503),
            requests.Timeout("slow"),
            requests.exceptions.ReadTimeout("slow read"),
            requests.ConnectionError("refused"),
            requests.exceptions.ChunkedEncodingError("cut off"),
        ],
        ids=["429", "500", "503", "timeout", "read-timeout", "connection", "chunked"],
    )
    def test_transient_fault_is_retried(self, fault):
        backend, session, slept = self.backend_with(fault, fault, OK)
        assert backend.complete(make_request()) == "recovered"
        assert len(session.calls) == 3
        assert slept == [1.0, 2.0]

    @pytest.mark.parametrize(
        "responses, message",
        [
            ([FakeResponse(status=503)] * 3, r"HTTP 503 after 3 attempts$"),
            ([requests.ConnectionError("refused")] * 3, r"ConnectionError: refused after 3 attempts$"),
            ([FakeResponse(status=400)], r"HTTP 400, not retried$"),
            ([FakeResponse(status=500), FakeResponse(status=400)], r"HTTP 400 on attempt 2, not retried$"),
            ([FakeResponse(text="{")], r"unreadable body \(.*\), not retried$"),
            ([FakeResponse({"message": {"content": None}})], r"NoneType, not a string\), not retried$"),
        ],
        ids=["exhausted-status", "exhausted-exception", "at-once", "on-attempt-2", "malformed", "null"],
    )
    def test_message_names_cause_and_attempts(self, responses, message):
        backend, session, _ = self.backend_with(*responses)
        with pytest.raises(TransportError, match=message):
            backend.complete(make_request())
        assert len(session.calls) == len(responses)


class TestRetryAfter:
    """After a 429 or 503, the backoff is stretched to the wait that Retry-After asks for."""

    def slept_after(self, *faults):
        session = FakeSession([*faults, OK])
        slept = []
        backend = live_backend(session, sleep=slept.append)
        assert backend.complete(make_request()) == "recovered"
        return slept

    @pytest.mark.parametrize("status", [429, 503])
    def test_seconds(self, status):
        assert self.slept_after(FakeResponse(status=status, headers={"Retry-After": "3"})) == [3.0]

    def test_http_date(self):
        # "GMT", and the "-0000" that formatdate gives by default, which parses to a naive time.
        for usegmt in (True, False):
            when = email.utils.formatdate(time.time() + 30, usegmt=usegmt)
            [slept] = self.slept_after(FakeResponse(status=503, headers={"Retry-After": when}))
            assert 28 <= slept <= 30

    def test_a_wait_over_the_cap_is_cut_to_the_cap(self):
        slept = self.slept_after(FakeResponse(status=429, headers={"Retry-After": "3600"}))
        assert slept == [MAX_RETRY_AFTER_S]

    def test_garbage_falls_back_to_the_backoff(self):
        # Each attempt reads its own header: the first is unreadable, the second asks for 5 s.
        slept = self.slept_after(
            FakeResponse(status=429, headers={"Retry-After": "soon"}),
            FakeResponse(status=429, headers={"Retry-After": "5"}),
        )
        assert slept == [1.0, 5.0]

    @pytest.mark.parametrize(
        "status, header", [(503, "0"), (503, email.utils.formatdate(0, usegmt=True)), (500, "3")],
        ids=["shorter", "past-date", "not-429-or-503"],
    )
    def test_never_shortens_the_backoff(self, status, header):
        assert self.slept_after(FakeResponse(status=status, headers={"Retry-After": header})) == [1.0]


class Echo:
    name = "live"

    def complete(self, request):
        return f"answer to {request.messages[-1].content}"


class TestDigestsPerChat:
    USERS = ("first", "second", "third")

    @pytest.fixture
    def digest_calls(self, monkeypatch):
        calls = []

        def counting(messages):
            calls.append(messages)
            return request_digest(messages)

        monkeypatch.setattr("sarcrag.gateway.request_digest", counting)
        return calls

    def test_live_backend_with_store_and_log(self, tmp_path, digest_calls):
        gateway = Gateway(
            Echo(), store=TranscriptStore(tmp_path), exchange_log=tmp_path / "exchanges.jsonl"
        )
        for user in self.USERS:
            gateway.chat(make_request(user=user))
        assert len(digest_calls) == len(self.USERS)

    def test_replay_backend(self, tmp_path, digest_calls):
        store = TranscriptStore(tmp_path)
        for user in self.USERS:
            store.save(make_request(user=user), f"answer to {user}")
        digest_calls.clear()
        gateway = Gateway(None, store)
        for user in self.USERS:
            gateway.chat(make_request(user=user))
        assert len(digest_calls) == len(self.USERS)


class TestGateway:
    def test_empty_response_raises(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        store.save(request, "   \n ")
        gateway = Gateway(None, store)
        with pytest.raises(EmptyResponse):
            gateway.chat(request)

    def test_empty_answer_is_logged_then_raised(self, tmp_path):
        class Blank:
            name = "live"

            def complete(self, request):
                return "   "

        log_path = tmp_path / "exchanges.jsonl"
        gateway = Gateway(Blank(), TranscriptStore(tmp_path / "store"), exchange_log=log_path)
        with pytest.raises(EmptyResponse):
            gateway.chat(make_request())
        assert logged_backends(log_path) == ["live"]

    def test_records_exchange_when_store_attached(self, tmp_path):
        class OneShot:
            name = "live"

            def complete(self, request):
                return "fresh answer"

        store = TranscriptStore(tmp_path / "store")
        log_path = tmp_path / "exchanges.jsonl"
        gateway = Gateway(OneShot(), store=store, exchange_log=log_path)
        request = make_request()
        assert gateway.chat(request) == "fresh answer"
        assert logged_backends(log_path) == ["live"]
        assert store.lookup(request) == "fresh answer"

    def test_store_hit_makes_no_backend_call(self, tmp_path):
        class Unreachable:
            name = "live"

            def complete(self, request):
                raise AssertionError("backend called for a stored request")

        store = TranscriptStore(tmp_path / "store")
        request = make_request()
        store.save(request, "recorded")
        log_path = tmp_path / "exchanges.jsonl"
        assert Gateway(Unreachable(), store, exchange_log=log_path).chat(request) == "recorded"
        assert logged_backends(log_path) == ["store"]

    def test_miss_returns_the_text_the_store_kept(self, tmp_path):
        class Racing:
            """Stands in for a backend whose request another writer recorded first."""

            name = "live"

            def complete(self, request):
                TranscriptStore(tmp_path).save(request, "first writer")
                return "second writer"

        store = TranscriptStore(tmp_path)
        request = make_request()
        assert Gateway(Racing(), store).chat(request) == "first writer"
        assert store.lookup(request) == "first writer"

    def test_exchange_log_appends_one_line_per_call(self, tmp_path):
        class OneShot:
            name = "live"

            def complete(self, request):
                return "logged"

        log_path = tmp_path / "exchanges.jsonl"
        gateway = Gateway(OneShot(), TranscriptStore(tmp_path / "store"), exchange_log=log_path)
        first = make_request(user="first")
        gateway.chat(first)
        gateway.chat(make_request(user="second"))
        gateway.chat(first)
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(lines) == 3
        assert all(list(line) == ["digest", "purpose_tag", "backend", "latency"] for line in lines)
        assert lines[0]["digest"] == first.digest
        assert lines[0]["purpose_tag"] == "P1"
        assert [line["backend"] for line in lines] == ["live", "live", "store"]


class TestConcurrentMisses:
    """Concurrent requests with one digest share one backend call."""

    class Slow:
        name = "live"

        def __init__(self, answer):
            self.answer = answer
            self.calls = []

        def complete(self, request):
            self.calls.append(request.digest)
            time.sleep(0.5)  # long enough for every other caller to arrive
            if isinstance(self.answer, Exception):
                raise self.answer
            return self.answer

    def chat_at_once(self, gateway, request, n=8):
        """Each caller's answer, or the exception it raised, from n threads behind a barrier."""
        outcomes = []
        start = threading.Barrier(n, timeout=30)

        def call():
            start.wait()
            try:
                outcomes.append(gateway.chat(request))
            except TransportError as exc:
                outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return outcomes

    def test_one_backend_call_and_one_stored_file(self, tmp_path):
        backend = self.Slow("the answer")
        store = TranscriptStore(tmp_path / "store")
        log_path = tmp_path / "exchanges.jsonl"
        request = make_request()
        outcomes = self.chat_at_once(Gateway(backend, store, exchange_log=log_path), request)
        assert outcomes == ["the answer"] * 8
        assert backend.calls == [request.digest]
        assert [p.name for p in store.root.iterdir()] == [f"{request.digest}.json"]
        # The caller that made the call logs the backend; the seven that waited for it, the store.
        assert sorted(logged_backends(log_path)) == ["live"] + ["store"] * 7

    def test_leader_error_reaches_every_caller_and_stores_nothing(self, tmp_path):
        error = TransportError("chat endpoint failed: HTTP 503 after 3 attempts")
        backend = self.Slow(error)
        store = TranscriptStore(tmp_path / "store")
        log_path = tmp_path / "exchanges.jsonl"
        request = make_request()
        outcomes = self.chat_at_once(Gateway(backend, store, exchange_log=log_path), request)
        assert outcomes == [error] * 8
        assert backend.calls == [request.digest]
        assert not store.root.exists() or list(store.root.iterdir()) == []
        assert not log_path.exists()


class TestSingleFlight:
    def test_a_lone_caller_runs_the_call_and_shares_nothing(self):
        flight = SingleFlight()
        assert flight.run("k", lambda: 1) == (1, False)
        # The key is forgotten once its call returns, so the next caller runs afresh.
        assert flight.run("k", lambda: 2) == (2, False)

    def test_callers_that_wait_get_the_running_call_result_as_shared(self):
        flight = SingleFlight()
        entered, release = threading.Event(), threading.Event()
        calls, outcomes = [], []

        def lead():
            calls.append("lead")
            entered.set()
            release.wait(timeout=30)
            return "answer"

        def follow():
            calls.append("follow")
            return "other answer"

        leader = threading.Thread(target=lambda: outcomes.append(flight.run("k", lead)))
        leader.start()
        assert entered.wait(timeout=30)
        followers = [
            threading.Thread(target=lambda: outcomes.append(flight.run("k", follow)))
            for _ in range(3)
        ]
        for thread in followers:
            thread.start()
        time.sleep(0.5)  # long enough for every follower to find the call running
        release.set()
        for thread in [leader, *followers]:
            thread.join(timeout=30)
        assert calls == ["lead"]
        assert sorted(outcomes) == [("answer", False)] + [("answer", True)] * 3
