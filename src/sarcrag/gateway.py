"""Chat-completion transport: live HTTP backend and deterministic record/replay store.

Every call is a ChatRequest that chat_request builds (the system message, the
user message, then any further turns) and comes back as the answer text.
Exchanges are keyed by a digest of the ordered (role, content) pairs. The store
answers first and keeps the first answer recorded for a digest, so a recorded
run can be replayed bit-for-bit without a model server.
"""

from __future__ import annotations

import contextlib
import email.utils
import enum
import functools
import hashlib
import json
import os
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Protocol

import requests

from .errors import CorruptRecord, EmptyResponse, MissingTranscript, StoreWriteError, TransportError

# LiveBackend's transport: attempts per request, first backoff (doubling), timeout,
# and the longest wait that a Retry-After header may ask for.
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 1.0
CHAT_TIMEOUT_S = 120.0
MAX_RETRY_AFTER_S = 60.0


class Role(enum.Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


class Purpose(enum.Enum):
    P1 = "P1"
    P2 = "P2"
    KEYWORD_IDENTIFY = "KeywordIdentify"
    KEYWORD_CLEAN = "KeywordClean"
    DEFINE_WORD = "DefineWord"
    REFINE_CHUNKS = "RefineChunks"


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError(f"{self.role.value} message must have content")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    purpose: Purpose

    @functools.cached_property
    def digest(self) -> str:
        return request_digest(self.messages)


def chat_request(purpose: Purpose, system: str, user: str, *turns: ChatMessage) -> ChatRequest:
    """The request: the system message, then the user message, then any further turns."""
    return ChatRequest(
        messages=(ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, user), *turns),
        purpose=purpose,
    )


def request_digest(messages: tuple[ChatMessage, ...]) -> str:
    """Content hash of the ordered (role, content) pairs."""
    h = hashlib.sha256()
    for message in messages:
        h.update(message.role.value.encode("utf-8"))
        h.update(b"\n")
        h.update(message.content.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def message_dicts(messages: tuple[ChatMessage, ...]) -> list[dict]:
    """Messages as the JSON objects that chat endpoints and the store use."""
    return [{"role": m.role.value, "content": m.content} for m in messages]


def read_json(path: Path) -> dict | None:
    """The JSON object at path, or None if no file is there; else CorruptRecord naming path."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:
        raise CorruptRecord(path, f"{type(exc).__name__}: {exc}") from exc
    if not isinstance(record, dict):
        raise CorruptRecord(path, "not a JSON object")
    return record


@contextlib.contextmanager
def writing(path: Path) -> Iterator[Path]:
    """Yield path, and raise an OSError of the block as StoreWriteError naming path."""
    try:
        yield path
    except OSError as exc:
        raise StoreWriteError(f"write failed for {path}: {exc}") from exc


def put_json_if_absent(path: Path, record: dict) -> dict:
    """Store record as indented JSON at path unless one is there; return the record kept.

    The record is written whole and synced to disk under a unique temporary name
    beside path, then hard-linked into place, so no reader, even after a power
    loss, sees a partial file, and the first writer wins, across threads and
    processes alike. The directory's filesystem must support hard links; any
    failure raises StoreWriteError. A file found there that read_json cannot read
    as a JSON object raises CorruptRecord; the caller checks the record it holds.
    """
    with writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record, ensure_ascii=False, indent=1))
                fh.flush()
                os.fsync(fh.fileno())
            os.link(tmp, path)
        except FileExistsError:
            kept = read_json(path)
            if kept is None:  # a dangling symbolic link, or removed since
                raise CorruptRecord(path, "no file to read")
            return kept
        finally:
            os.unlink(tmp)
    return record


class TranscriptStore:
    """Content-addressed directory of recorded exchanges, one JSON file per digest."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def lookup(self, request: ChatRequest) -> str | None:
        """The recorded answer to request, or None; CorruptRecord if its file is unusable."""
        record = read_json(self.path_for(request.digest))
        return None if record is None else self._response_text(request, record)

    def save(self, request: ChatRequest, response_text: str) -> str:
        """Record the exchange unless its digest is stored; return the response kept."""
        record = {
            "digest": request.digest,
            "purpose_tag": request.purpose.value,
            "messages": message_dicts(request.messages),
            "response_text": response_text,
        }
        path = self.path_for(request.digest)
        return self._response_text(request, put_json_if_absent(path, record))

    def _response_text(self, request: ChatRequest, record: dict) -> str:
        """The answer to request in the record of its file; CorruptRecord if it holds none."""
        path = self.path_for(request.digest)
        # Messages other than the request's would not hash to the file's name.
        if record.get("messages") != message_dicts(request.messages):
            raise CorruptRecord(path, "its messages do not hash to its name")
        if not isinstance(record.get("response_text"), str):
            raise CorruptRecord(path, "no response_text string")
        return record["response_text"]


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


class LiveBackend:
    """HTTP chat-completion client with bounded retries and exponential backoff.

    Only timeouts, dropped connections, bodies cut off mid-stream, HTTP 429 and
    HTTP 5xx are retried; any other fault raises TransportError at once. After a
    429 or 503 the backoff is stretched to the wait its Retry-After header asks
    for, up to MAX_RETRY_AFTER_S.

    Each POST holds one permit of `in_flight`, the bound on requests in flight
    that a run's chat and web clients share (2 * concurrency in `sarcrag run`);
    a backoff sleep holds none.

    No decoding parameters are sent; the server's defaults apply.
    """

    def __init__(
        self,
        endpoint_url: str,
        model: str,
        *,
        in_flight: threading.Semaphore,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.endpoint_url = endpoint_url
        self.model = model
        self.in_flight = in_flight
        self.session = session or requests.Session()
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> str:
        payload = {
            "model": self.model,
            "messages": message_dicts(request.messages),
            "stream": False,
        }
        cause = "no attempt made"
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(delay)
            delay = BACKOFF_BASE_S * 2**attempt  # the sleep before the next attempt
            try:
                with self.in_flight:
                    response = self.session.post(
                        self.endpoint_url, json=payload, timeout=CHAT_TIMEOUT_S
                    )
            except _RETRYABLE_ERRORS as exc:
                cause = f"{type(exc).__name__}: {exc}"
                continue
            except requests.RequestException as exc:
                raise _not_retried(f"{type(exc).__name__}: {exc}", attempt) from exc
            status = response.status_code
            if status == 429 or status >= 500:
                cause = f"HTTP {status}"
                if status in (429, 503):
                    delay = max(delay, _retry_after_s(response))
                continue
            if status >= 400:
                raise _not_retried(f"HTTP {status}", attempt)
            try:
                return _extract_text(response.json())
            except ValueError as exc:
                raise _not_retried(f"unreadable body ({exc})", attempt) from exc
        raise TransportError(
            f"chat endpoint failed: {cause} after {MAX_ATTEMPTS} attempts"
        )


# Faults that a later attempt can clear. Any other fault, a 4xx other than 429,
# or a body we cannot read fails the same way on every attempt.
_RETRYABLE_ERRORS = (
    requests.Timeout,
    requests.ConnectionError,
    requests.exceptions.ChunkedEncodingError,
)


def _retry_after_s(response: requests.Response) -> float:
    """The wait in seconds that the response's Retry-After header asks for, at most
    MAX_RETRY_AFTER_S; 0 if it has none we can read.

    The header holds a number of seconds or an HTTP date (RFC 9110, section 10.2.3).
    """
    value = response.headers.get("Retry-After", "").strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError, IndexError):
            return 0.0
        if when.tzinfo is None:  # "-0000": a time in UTC
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return min(max(seconds, 0.0), MAX_RETRY_AFTER_S)


def _not_retried(cause: str, attempt: int) -> TransportError:
    where = f" on attempt {attempt + 1}" if attempt else ""
    return TransportError(f"chat endpoint failed: {cause}{where}, not retried")


def _extract_text(body: object) -> str:
    """Pull generated text out of an Ollama-chat (`message`) or OpenAI-chat (`choices`) body.

    Raises ValueError for any other shape, for text that is not a string, such as
    the `"content": null` an OpenAI-shape answer may carry, and for text that UTF-8
    cannot encode, such as one half of a surrogate pair, which JSON can escape alone:
    no transcript could hold it.
    """
    try:
        if "message" in body:
            text = body["message"]["content"]
        else:
            text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        shape = sorted(body) if isinstance(body, dict) else type(body).__name__
        raise ValueError(f"unrecognized response shape: {shape}") from exc
    if not isinstance(text, str):
        raise ValueError(f"response text is {type(text).__name__}, not a string")
    text.encode("utf-8")  # raises UnicodeEncodeError, a ValueError
    return text


class SingleFlight:
    """Merges concurrent calls that share a key into the one already running.

    The first caller of a key runs the call in its own thread; callers of that
    key that arrive while it runs wait for it and get its result, or raise its
    exception. A key is forgotten once its call returns, so a later caller runs
    the call afresh. A caller that waits holds no request in flight while it waits.
    Compare Go's golang.org/x/sync/singleflight, whose Do also reports `shared`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._running: dict[object, Future] = {}

    def run(self, key: object, call: Callable[[], object]) -> tuple[object, bool]:
        """(the call's result, whether this caller got another caller's result)."""
        with self._lock:
            running = self._running.get(key)
            if running is None:
                future = self._running[key] = Future()
        if running is not None:
            return running.result(), True
        try:
            result = call()
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result(result)
            return result, False
        finally:
            with self._lock:
                del self._running[key]


class Gateway:
    """Answers requests from the store when it holds them, else from the backend.

    With no backend, the gateway replays: a request the store lacks raises
    MissingTranscript. A backend answer is saved, a blank one too, and the
    answer the store keeps (the first recorded for the digest) is returned.
    Concurrent requests with one digest share one lookup and, on a miss, one
    backend call; the callers that waited for it are logged as answered by the store.
    """

    def __init__(
        self,
        backend: ChatBackend | None,
        store: TranscriptStore,
        exchange_log: Path | None = None,
    ) -> None:
        self.backend = backend
        self.store = store
        self.exchange_log = exchange_log
        self._log_lock = threading.Lock()
        self._in_flight = SingleFlight()

    def chat(self, request: ChatRequest) -> str:
        started = time.monotonic()
        (response_text, backend), shared = self._in_flight.run(
            request.digest, lambda: self._answer(request)
        )
        if shared:
            backend = "store"
        latency = time.monotonic() - started
        if self.exchange_log is not None:
            self._append_log(request, backend, latency)
        if not response_text.strip():
            raise EmptyResponse(f"empty model output for {request.purpose.value} request")
        return response_text

    def _answer(self, request: ChatRequest) -> tuple[str, str]:
        """(answer text, "store" or "live")."""
        response_text = self.store.lookup(request)
        if response_text is not None:
            return response_text, "store"
        if self.backend is None:
            raise MissingTranscript(request.digest)
        return self.store.save(request, self.backend.complete(request)), "live"

    def _append_log(self, request: ChatRequest, backend: str, latency: float) -> None:
        line = json.dumps(
            {
                "digest": request.digest,
                "purpose_tag": request.purpose.value,
                "backend": backend,
                "latency": latency,
            }
        )
        with self._log_lock, writing(self.exchange_log) as path:
            with path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
