"""Chat transport: request validation, digests, transcripts, the live backend and replay."""

import email.utils
import errno
import json
import os
import re
import threading
import time

import pytest
import requests
from fakes import FakeSession, FunctionBackend, at_once, http_response

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
    Gateway,
    LiveBackend,
    Purpose,
    Role,
    SingleFlight,
    TranscriptStore,
    chat_request,
    put_json_if_absent,
    read_json,
    request_digest,
)


def make_request(system="be helpful", user="hello", purpose=Purpose.P1):
    return chat_request(purpose, system, user)


class TestChatRequest:
    def test_content_must_be_non_empty(self):
        for role in Role:
            with pytest.raises(ValueError):
                ChatMessage(role, "")


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


RECORD = {"answer": "first"}


class TestStoreFiles:
    """The first-writer-wins JSON files that the transcript store and the definition
    cache keep, read by `read_json` and written by `put_json_if_absent`."""

    def test_nothing_there_reads_as_none_and_a_dangling_link_is_not_overwritten(self, tmp_path):
        a_file = tmp_path / "file"
        a_file.write_text("", encoding="utf-8")
        dangling = tmp_path / "dangling.json"
        dangling.symlink_to(tmp_path / "gone.json")
        for path in (tmp_path / "absent.json", a_file / "under.json", dangling):
            assert read_json(path) is None
        with pytest.raises(CorruptRecord, match="no file to read"):
            put_json_if_absent(dangling, RECORD)
        assert dangling.is_symlink() and sorted(tmp_path.iterdir()) == [dangling, a_file]

    @pytest.mark.parametrize(
        "content, cause",
        [(None, "IsADirectoryError"), ('{"answer": "trunc', "JSONDecodeError"), ("[]", "not a JSON object")],
        ids=["directory", "truncated", "not-an-object"],
    )
    def test_an_unreadable_file_raises_naming_its_path_and_stays(self, tmp_path, content, cause):
        path = tmp_path / "record.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content, encoding="utf-8")
        for act in (read_json, lambda path: put_json_if_absent(path, RECORD)):
            with pytest.raises(CorruptRecord, match=f"^corrupt record {re.escape(str(path))}: {cause}"):
                act(path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.is_dir() if content is None else path.read_text(encoding="utf-8") == content

    def test_the_first_record_is_kept_byte_for_byte_and_returned(self, tmp_path):
        path = tmp_path / "record.json"
        assert put_json_if_absent(path, RECORD) == RECORD
        before = path.read_bytes()
        for record in ({"answer": "second"}, RECORD):
            assert put_json_if_absent(path, record) == RECORD
        assert path.read_bytes() == before
        assert read_json(path) == RECORD
        assert list(tmp_path.iterdir()) == [path]

    def test_the_record_is_synced_before_it_is_linked_into_place(self, tmp_path, monkeypatch):
        calls = []
        fsync, link = os.fsync, os.link

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def recording_link(src, dst):
            calls.append(("link", os.stat(src).st_size))
            link(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "link", recording_link)
        path = tmp_path / "record.json"
        put_json_if_absent(path, RECORD)
        size = path.stat().st_size
        assert calls == [("fsync", size), ("link", size)]

    def test_concurrent_writers_leave_one_file(self, tmp_path):
        path = tmp_path / "record.json"

        def write(n):
            return [put_json_if_absent(path, {"writer": n, "put": i}) for i in range(40)]

        kept = at_once([lambda n=n: write(n) for n in range(8)])
        assert kept == [[read_json(path)] * 40] * 8
        assert list(tmp_path.iterdir()) == [path]

    def test_another_writers_temporary_name_does_not_collide(self, tmp_path):
        path = tmp_path / "record.json"
        # Stands in for the temporary file of another process writing the same path.
        path.with_suffix(".json.tmp").mkdir()
        assert put_json_if_absent(path, RECORD) == RECORD
        assert read_json(path) == RECORD

    @pytest.mark.parametrize(
        "call, fault",
        [
            ("link", (errno.EOPNOTSUPP, "Operation not supported")),
            ("fsync", (errno.ENOSPC, "No space left on device")),
        ],
        ids=["no-hard-links", "full-disk"],
    )
    def test_a_failed_write_raises_and_leaves_no_temporary_file(self, tmp_path, monkeypatch, call, fault):
        def fail(*args):
            raise OSError(*fault)

        monkeypatch.setattr(os, call, fail)
        with pytest.raises(StoreWriteError, match=fault[1]):
            put_json_if_absent(tmp_path / "record.json", RECORD)
        assert list(tmp_path.iterdir()) == []


class TestTranscriptStore:
    def test_record_then_replay_round_trip(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        assert store.lookup(request) is None
        store.save(request, "recorded answer")
        assert store.lookup(request) == "recorded answer"

    def test_stored_record_fields(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request(purpose=Purpose.DEFINE_WORD)
        store.save(request, "a definition")
        record = json.loads(store.path_for(request.digest).read_text(encoding="utf-8"))
        assert record == {
            "digest": request.digest,
            "purpose_tag": "DefineWord",
            "messages": [{"role": "system", "content": "be helpful"}, {"role": "user", "content": "hello"}],
            "response_text": "a definition",
        }

    def test_rerecord_different_text_keeps_the_first(self, tmp_path, caplog):
        store = TranscriptStore(tmp_path)
        request = make_request()
        assert store.save(request, "old") == "old"
        assert store.save(request, "new") == "old"
        assert store.lookup(request) == "old"
        assert not caplog.records

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"messages": []}, "its messages do not hash to its name"),
            ({"response_text": None}, "no response_text string"),
        ],
        ids=["other-messages", "null-response-text"],
    )
    def test_a_record_without_the_requests_answer_is_corrupt(self, tmp_path, change, reason):
        # save checks the record it keeps, which another writer may have linked first, as lookup does.
        store = TranscriptStore(tmp_path)
        request = make_request()
        path = store.path_for(request.digest)
        store.save(request, "answer")
        path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), **change}), encoding="utf-8")
        for act in (store.lookup, lambda request: store.save(request, "answer")):
            with pytest.raises(CorruptRecord, match=f"{re.escape(str(path))}: {reason}$"):
                act(request)

    # The store-file rules below are tested at read_json and put_json_if_absent in
    # TestStoreFiles; these check that the store reaches them through lookup and save.
    def test_a_directory_at_the_path_is_a_corrupt_record(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        path = store.path_for(request.digest)
        path.mkdir()
        for act in (store.lookup, lambda request: store.save(request, "answer")):
            with pytest.raises(CorruptRecord, match="IsADirectoryError"):
                act(request)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_dangling_link_at_the_path_is_absent_but_not_overwritten(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = make_request()
        path = store.path_for(request.digest)
        path.symlink_to(tmp_path / "gone.json")
        assert store.lookup(request) is None
        with pytest.raises(CorruptRecord, match="no file to read"):
            store.save(request, "answer")
        assert path.is_symlink() and [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_lookup_under_a_file_returns_none(self, tmp_path):
        root = tmp_path / "store"
        root.write_text("", encoding="utf-8")
        assert TranscriptStore(root).lookup(make_request()) is None

    def test_concurrent_writers_of_one_digest(self, tmp_path):
        # One store object per thread, as separate processes would have.
        request = make_request()
        kept = at_once([lambda n=n: TranscriptStore(tmp_path).save(request, f"answer {n}") for n in range(8)])
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
        request = make_request()
        with pytest.raises(MissingTranscript, match=f"^no recorded response for request digest {request.digest}$"):
            gateway.chat(request)


def live_backend(session, sleep=lambda s: None, model="m"):
    """A LiveBackend whose POSTs each hold the one permit of its own bound."""
    return LiveBackend(
        "http://example", model, in_flight=threading.BoundedSemaphore(1), session=session, sleep=sleep
    )


class TestLiveBackend:
    def test_parses_message_content_shape(self):
        session = FakeSession([http_response({"message": {"content": "hi there"}})])
        backend = live_backend(session, model="m1")
        assert backend.complete(make_request()) == "hi there"
        sent = session.calls[0][1]["json"]
        assert sent["model"] == "m1"
        assert sent["messages"][0] == {"role": "system", "content": "be helpful"}
        assert "temperature" not in sent and "top_p" not in sent

    def test_parses_choices_shape(self):
        session = FakeSession([http_response({"choices": [{"message": {"content": "choice text"}}]})])
        backend = live_backend(session)
        assert backend.complete(make_request()) == "choice text"

    def test_retries_then_succeeds(self):
        session = FakeSession(
            [
                requests.ConnectionError("down"),
                http_response(status=500),
                http_response({"message": {"content": "third time lucky"}}),
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
        assert not session.answers
        assert backend.in_flight.acquire(blocking=False), "a failed POST kept its permit"


OK = http_response({"message": {"content": "recovered"}})


class TestRetryClassification:
    def backend_with(self, *responses):
        session = FakeSession(responses)
        slept = []
        backend = live_backend(session, sleep=slept.append)
        return backend, session, slept

    @pytest.mark.parametrize(
        "response",
        [
            http_response(status=400),
            http_response(status=401),
            http_response(status=404),
            http_response(status=422),
            http_response(body=b'{"message": {"role": "assistant", "content": "trunc'),
            http_response(body=b"<html>not json</html>"),
            http_response({"unexpected": "shape"}),
            http_response({"choices": []}),
            http_response(body=b"null"),
            http_response({"choices": [{"message": {"role": "assistant", "content": None}}]}),
            http_response({"message": {"content": 42}}),
            http_response({"model": "m", "response": "an answer", "done": True}),
            http_response({"message": {"content": "analysis \ud83d of it"}}),
            requests.exceptions.InvalidURL("bad url"),
        ],
        ids=[
            "400", "401", "404", "422", "truncated-json", "not-json", "unknown-shape",
            "no-choices", "json-null", "null-content", "numeric-content", "generate-shape",
            "lone-surrogate", "invalid-url",
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
            http_response(status=429),
            http_response(status=500),
            http_response(status=503),
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
            ([http_response(status=503)] * 3, r"HTTP 503 after 3 attempts$"),
            ([requests.ConnectionError("refused")] * 3, r"ConnectionError: refused after 3 attempts$"),
            ([http_response(status=400)], r"HTTP 400, not retried$"),
            ([http_response(status=500), http_response(status=400)], r"HTTP 400 on attempt 2, not retried$"),
            ([http_response(body=b"{")], r"unreadable body \(.*\), not retried$"),
            ([http_response({"message": {"content": None}})], r"NoneType, not a string\), not retried$"),
        ],
        ids=["exhausted-status", "exhausted-exception", "at-once", "on-attempt-2", "malformed", "null"],
    )
    def test_message_names_cause_and_attempts(self, responses, message):
        backend, session, _ = self.backend_with(*responses)
        with pytest.raises(TransportError, match=message):
            backend.complete(make_request())
        assert len(session.calls) == len(responses)


def retry_after(status, value):
    response = http_response(status=status)
    response.headers["Retry-After"] = value
    return response


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
        assert self.slept_after(retry_after(status, "3")) == [3.0]

    def test_http_date(self):
        # "GMT", and the "-0000" that formatdate gives by default, which parses to a naive time.
        for usegmt in (True, False):
            when = email.utils.formatdate(time.time() + 30, usegmt=usegmt)
            [slept] = self.slept_after(retry_after(503, when))
            assert 28 <= slept <= 30

    def test_a_wait_over_the_cap_is_cut_to_the_cap(self):
        slept = self.slept_after(retry_after(429, "3600"))
        assert slept == [MAX_RETRY_AFTER_S]

    def test_garbage_falls_back_to_the_backoff(self):
        # Each attempt reads its own header: the first is unreadable, the second asks for 5 s.
        slept = self.slept_after(
            retry_after(429, "soon"),
            retry_after(429, "5"),
        )
        assert slept == [1.0, 5.0]

    @pytest.mark.parametrize(
        "status, header", [(503, "0"), (503, email.utils.formatdate(0, usegmt=True)), (500, "3")],
        ids=["shorter", "past-date", "not-429-or-503"],
    )
    def test_never_shortens_the_backoff(self, status, header):
        assert self.slept_after(retry_after(status, header)) == [1.0]


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
            FunctionBackend(lambda request: f"answer to {request.messages[-1].content}"),
            store=TranscriptStore(tmp_path),
            exchange_log=tmp_path / "exchanges.jsonl",
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
        log_path = tmp_path / "exchanges.jsonl"
        blank = FunctionBackend(lambda request: "   ")
        gateway = Gateway(blank, TranscriptStore(tmp_path / "store"), exchange_log=log_path)
        with pytest.raises(EmptyResponse):
            gateway.chat(make_request())
        assert logged_backends(log_path) == ["live"]

    def test_records_exchange_when_store_attached(self, tmp_path):
        store = TranscriptStore(tmp_path / "store")
        log_path = tmp_path / "exchanges.jsonl"
        backend = FunctionBackend(lambda request: "fresh answer")
        gateway = Gateway(backend, store=store, exchange_log=log_path)
        request = make_request()
        assert gateway.chat(request) == "fresh answer"
        assert logged_backends(log_path) == ["live"]
        assert store.lookup(request) == "fresh answer"

    def test_store_hit_makes_no_backend_call(self, tmp_path):
        def unreachable(request):
            raise AssertionError("backend called for a stored request")

        store = TranscriptStore(tmp_path / "store")
        request = make_request()
        store.save(request, "recorded")
        log_path = tmp_path / "exchanges.jsonl"
        assert Gateway(FunctionBackend(unreachable), store, exchange_log=log_path).chat(request) == "recorded"
        assert logged_backends(log_path) == ["store"]

    def test_miss_returns_the_text_the_store_kept(self, tmp_path):
        def racing(request):
            """A backend whose request another writer recorded first."""
            TranscriptStore(tmp_path).save(request, "first writer")
            return "second writer"

        store = TranscriptStore(tmp_path)
        request = make_request()
        assert Gateway(FunctionBackend(racing), store).chat(request) == "first writer"
        assert store.lookup(request) == "first writer"

    def test_exchange_log_appends_one_line_per_call(self, tmp_path):
        log_path = tmp_path / "exchanges.jsonl"
        backend = FunctionBackend(lambda request: "logged")
        gateway = Gateway(backend, TranscriptStore(tmp_path / "store"), exchange_log=log_path)
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
    """What a gateway leaves on disk when concurrent requests with one digest miss the
    store; `TestSingleFlight` checks who gets which answer."""

    def chat_together(self, tmp_path, answer):
        """The store directory and exchange log after 8 concurrent chats of one request,
        whose backend call returns or raises `answer`."""

        def slow(request):
            time.sleep(0.5)  # long enough for every other caller to arrive
            if isinstance(answer, Exception):
                raise answer
            return answer

        store = TranscriptStore(tmp_path / "store")
        log_path = tmp_path / "exchanges.jsonl"
        gateway = Gateway(FunctionBackend(slow), store, exchange_log=log_path)
        at_once([lambda: gateway.chat(make_request())] * 8)
        return store.root, log_path

    def test_one_backend_call_and_one_stored_file(self, tmp_path):
        root, log_path = self.chat_together(tmp_path, "the answer")
        assert [p.name for p in root.iterdir()] == [f"{make_request().digest}.json"]
        # The caller that made the call logs the backend; the seven that waited for it, the store.
        assert sorted(logged_backends(log_path)) == ["live"] + ["store"] * 7

    def test_leader_error_reaches_every_caller_and_stores_nothing(self, tmp_path):
        root, log_path = self.chat_together(tmp_path, TransportError("chat endpoint failed: HTTP 503"))
        assert not root.exists() or list(root.iterdir()) == []
        # A caller logs its exchange only once it has its answer: none got one.
        assert not log_path.exists()


class TestSingleFlight:
    def test_a_lone_caller_runs_the_call_and_shares_nothing(self):
        flight = SingleFlight()
        assert flight.run("k", lambda: 1) == (1, False)
        # The key is forgotten once its call returns, so the next caller runs afresh.
        assert flight.run("k", lambda: 2) == (2, False)

    def run_together(self, flight, outcome):
        """The calls run, and what each of four concurrent callers of one key got or
        raised, when the call returns or raises `outcome` after a pause."""
        calls = []

        def call():
            calls.append("call")
            time.sleep(0.5)  # long enough for every other caller to find the call running
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        return calls, at_once([lambda: flight.run("k", call)] * 4)

    def test_callers_that_wait_get_the_running_call_result_as_shared(self):
        calls, outcomes = self.run_together(SingleFlight(), "answer")
        assert calls == ["call"]
        assert sorted(outcomes) == [("answer", False)] + [("answer", True)] * 3

    def test_callers_that_wait_raise_the_running_call_error_and_the_key_is_forgotten(self):
        flight = SingleFlight()
        error = TransportError("chat endpoint failed: HTTP 400, not retried")
        calls, outcomes = self.run_together(flight, error)
        assert calls == ["call"]
        assert outcomes == [error] * 4
        # The next caller runs the call afresh.
        assert flight.run("k", lambda: "retried") == ("retried", False)
