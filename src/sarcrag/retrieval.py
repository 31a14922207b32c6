"""Word-information retrieval: search, chunking, BM25 ranking, and short definitions.

Two paths produce a WordInfo per keyword: the web path searches, chunks and
ranks page text before asking the model to refine it into a definition; the
internal path asks the model directly. Both are cached on disk.
"""

from __future__ import annotations

import codecs
import hashlib
import html.parser
import math
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import requests
from requests.compat import chardet

from .core import LanguageTag, RetrievalSource
from .errors import (
    CorruptRecord,
    DefinitionUnavailable,
    SearchForbidden,
    SearchQuotaExceeded,
    SearchTransportError,
)
from .gateway import (
    ChatMessage,
    Gateway,
    Purpose,
    Role,
    SingleFlight,
    chat_request,
    put_json_if_absent,
    read_json,
)

DEFAULT_CHUNK_SIZE = 120
DEFAULT_OVERLAP = 20
DEFAULT_TOP_K = 3
DEFAULT_MAX_RESULTS = 5
MIN_SNIPPET_WORDS = 20
MAX_FETCHED_CHARS = 20_000
FETCH_BLOCK_BYTES = 16 * 1024
MAX_DEFINITION_SENTENCES = 2
WEB_TIMEOUT_S = 10.0
BM25_K1 = 1.2
BM25_B = 0.75

USER_AGENT = "sarcrag/0.1 (text-retrieval client for sarcasm-detection experiments)"

DEFINE_SYSTEM = {
    LanguageTag.ENGLISH: (
        "You will be given a word or phrase. Give a short contextual definition "
        "of it in one or two sentences, based on what you know."
    ),
    LanguageTag.INDONESIAN: (
        "Anda akan diberikan sebuah kata atau frasa. Berikan definisi kontekstual "
        "singkat dalam satu atau dua kalimat berdasarkan pengetahuan Anda."
    ),
}

REFINE_SYSTEM = {
    LanguageTag.ENGLISH: (
        "You will be given a word or phrase and several text passages about it. "
        "Summarize the passages, ignore irrelevant content, and give a short "
        "definition of the word or phrase in one or two sentences."
    ),
    LanguageTag.INDONESIAN: (
        "Anda akan diberikan sebuah kata atau frasa beserta beberapa potongan "
        "teks tentangnya. Ringkas potongan teks tersebut, abaikan konten yang "
        "tidak relevan, dan berikan definisi singkat kata atau frasa tersebut "
        "dalam satu atau dua kalimat."
    ),
}

_REFINE_USER_LABELS = {
    LanguageTag.ENGLISH: ("Word", "Passages"),
    LanguageTag.INDONESIAN: ("Kata", "Kutipan"),
}

_REASK_USER = {
    LanguageTag.ENGLISH: "Answer in at most two sentences.",
    LanguageTag.INDONESIAN: "Jawab dalam maksimal dua kalimat.",
}


@dataclass(frozen=True)
class SearchResult:
    url: str
    snippet: str


@dataclass(frozen=True)
class Chunk:
    """A window of page text, the `index`-th window of the page at `source_url`."""

    text: str
    source_url: str
    index: int


@dataclass(frozen=True)
class WordInfo:
    keyword: str
    definition: str
    source: RetrievalSource
    evidence: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self) -> None:
        if not self.definition.strip():
            raise ValueError("definition must be non-empty")
        if len(split_sentences(self.definition)) > MAX_DEFINITION_SENTENCES:
            raise ValueError("definition longer than two sentences")
        if (self.evidence is not None) != (self.source is RetrievalSource.GOOGLE_SEARCH):
            raise ValueError("evidence is carried exactly by web-sourced definitions")


_TOKEN = re.compile(r"[^\W_]+")


def bm25_tokenize(text: str) -> list[str]:
    """Case-fold and split on whitespace and punctuation; no stemming or stopwords."""
    return _TOKEN.findall(text.casefold())


def split_sentences(text: str) -> list[str]:
    """Split on {. ! ?} runs followed by whitespace or end of text."""
    text = text.strip()
    out: list[str] = []
    start = 0
    for match in re.finditer(r"[.!?]+(?=\s|$)", text):
        out.append(text[start : match.end()].strip())
        start = match.end()
    rest = text[start:].strip()
    if rest:
        out.append(rest)
    return out


def trim_to_sentences(text: str) -> str:
    return " ".join(split_sentences(text)[:MAX_DEFINITION_SENTENCES])


def chunk_document(
    text: str, chunk_size: int, overlap: int, *, source_url: str = ""
) -> list[Chunk]:
    """Sliding word windows of chunk_size stepping by (chunk_size - overlap).

    A window in which `bm25_tokenize` would find no token is dropped and keeps its
    ordinal, so the indices of the windows kept can skip numbers.
    """
    if overlap < 0 or chunk_size <= overlap:
        raise ValueError("require chunk_size > overlap >= 0")
    words = text.split()
    step = chunk_size - overlap
    chunks: list[Chunk] = []
    for ordinal, offset in enumerate(range(0, len(words), step)):
        window = " ".join(words[offset : offset + chunk_size])
        if _TOKEN.search(window.casefold()):
            chunks.append(Chunk(text=window, source_url=source_url, index=ordinal))
    return chunks


def bm25_idf(n_docs: int, df_term: int) -> float:
    return math.log((n_docs - df_term + 0.5) / (df_term + 0.5) + 1.0)


def bm25_scores(keyword: str, chunks: Sequence[Chunk]) -> list[float]:
    """Okapi BM25 score of each chunk for the tokenized keyword, at k1 BM25_K1 and b BM25_B.

    Each chunk's text is tokenized once, for its length and its counts of the query's terms.
    See Robertson & Zaragoza, "The Probabilistic Relevance Framework: BM25 and Beyond", 2009.
    """
    query = bm25_tokenize(keyword)
    lengths, freqs = [], []
    for chunk in chunks:
        tokens = bm25_tokenize(chunk.text)
        lengths.append(len(tokens))
        freqs.append({term: tokens.count(term) for term in query})
    idf = {term: bm25_idf(len(chunks), sum(1 for freq in freqs if freq[term])) for term in query}
    avg_len = sum(lengths) / len(chunks)
    scores = []
    for length, freq in zip(lengths, freqs):
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * length / avg_len)
        score = 0.0
        for term in query:
            if freq[term]:
                score += idf[term] * freq[term] * (BM25_K1 + 1.0) / (freq[term] + norm)
        scores.append(score)
    return scores


def rank_chunks(keyword: str, chunks: Sequence[Chunk]) -> list[Chunk]:
    """The DEFAULT_TOP_K best chunks by descending score for keyword; ties by (url, index)."""
    scores = bm25_scores(keyword, chunks)
    order = sorted(
        range(len(chunks)), key=lambda i: (-scores[i], chunks[i].source_url, chunks[i].index)
    )
    return [chunks[i] for i in order[:DEFAULT_TOP_K]]


class SearchPort(Protocol):
    def search(self, query: str) -> list[SearchResult]: ...


class GoogleSearchClient:
    """Programmable-search JSON API client returning ranked (url, snippet) pairs.

    Each search holds one permit of `in_flight` for its request and JSON read.
    """

    endpoint = "https://www.googleapis.com/customsearch/v1"

    def __init__(
        self, api_key: str, engine_id: str, *, session: requests.Session, in_flight: threading.Semaphore
    ) -> None:
        self.api_key = api_key
        self.engine_id = engine_id
        self.session = session
        self.in_flight = in_flight

    def search(self, query: str) -> list[SearchResult]:
        params = {
            "key": self.api_key,
            "cx": self.engine_id,
            "q": query,
            "num": DEFAULT_MAX_RESULTS,
        }
        try:
            with self.in_flight:
                response = self.session.get(self.endpoint, params=params, timeout=WEB_TIMEOUT_S)
                if response.status_code == 403:
                    raise SearchForbidden("search refused (403): check the key, the API and its daily quota")
                if response.status_code == 429:
                    raise SearchQuotaExceeded("search quota rejected (429)")
                response.raise_for_status()
                items = _search_items(response.json())
        except (requests.RequestException, ValueError) as exc:
            raise SearchTransportError(f"search failed: {exc}") from exc
        return [
            SearchResult(url=item.get("link", ""), snippet=item.get("snippet", ""))
            for item in items[:DEFAULT_MAX_RESULTS]
        ]


def _search_items(body: object) -> list[dict]:
    """The items of a search body; a missing link or snippet reads as empty.

    Raises ValueError unless the body is an object whose items, if any, are a
    list of objects with string link and snippet values that UTF-8 can encode;
    one half of a surrogate pair, which JSON can escape alone, could not be cached.
    """
    items = body.get("items", []) if isinstance(body, dict) else None
    if not isinstance(items, list) or not all(
        isinstance(item, dict)
        and isinstance(item.get("link", ""), str)
        and isinstance(item.get("snippet", ""), str)
        for item in items
    ):
        raise ValueError("body is not an object with a list of items with string link and snippet")
    for item in items:
        # raises UnicodeEncodeError, a ValueError
        (item.get("link", "") + item.get("snippet", "")).encode("utf-8")
    return items


def search_web(keyword: str, client: SearchPort) -> list[SearchResult]:
    return client.search(keyword)


class _TextExtractor(html.parser.HTMLParser):
    _SKIP = {"script", "style", "noscript"}

    def __init__(self) -> None:
        super().__init__()
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in self._SKIP:
            self._skip_depth += 1

    def handle_endtag(self, tag: str) -> None:
        if tag in self._SKIP and self._skip_depth:
            self._skip_depth -= 1

    def handle_data(self, data: str) -> None:
        if not self._skip_depth and data.strip():
            self.parts.append(data.strip())


def strip_markup(markup: str) -> str:
    extractor = _TextExtractor()
    try:
        extractor.feed(markup)
    except AssertionError:
        # html.parser asserts on some malformed markup, such as a bad `<![` section:
        # keep the text parsed before it.
        pass
    return " ".join(extractor.parts)


def fetch_page(url: str, *, session: requests.Session, in_flight: threading.Semaphore) -> str:
    """Text of the first MAX_FETCHED_CHARS characters of a page's markup.

    The body is streamed and decoded block by block; the response is closed as
    soon as enough characters are in, so an oversized page is never held whole.
    The fetch holds one permit of `in_flight` until the response is closed.
    """
    with in_flight, session.get(
        url, timeout=WEB_TIMEOUT_S, headers={"User-Agent": USER_AGENT}, stream=True
    ) as response:
        response.raise_for_status()
        markup = _read_text(response, MAX_FETCHED_CHARS)
    return strip_markup(markup)


def _read_text(response: requests.Response, limit: int) -> str:
    """`response.text[:limit]` with lone surrogates as U+FFFD, reading only the blocks it needs."""
    blocks = response.iter_content(FETCH_BLOCK_BYTES)
    first = next(blocks, b"")
    encoding = response.encoding
    if encoding is None:
        # requests guesses from the whole body; the first block is all we have.
        encoding = (chardet.detect(first)["encoding"] if chardet else None) or "utf-8"
    try:
        # Raises as str() would for an unknown or non-text codec.
        b"a".decode(encoding, "replace")
        decoder = codecs.getincrementaldecoder(encoding)(errors="replace")
    except (LookupError, ValueError):
        decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
    try:
        text = decoder.decode(first)
    except UnicodeError:
        # Only utf-16 and utf-32 raise, on a body with no byte-order mark; str() reads it in native order.
        native = f"{codecs.lookup(encoding).name}-{'le' if sys.byteorder == 'little' else 'be'}"
        decoder = codecs.getincrementaldecoder(native)(errors="replace")
        text = decoder.decode(first)
    while len(text) < limit:
        block = next(blocks, None)
        if block is None:
            text += decoder.decode(b"", final=True)
            break
        text += decoder.decode(block)
    # UTF-8 cannot encode the lone surrogates that utf-7 and unicode_escape can decode to.
    return re.sub(r"[\ud800-\udfff]", "\ufffd", text[:limit])


PageFetcher = Callable[[str], str]


def gather_corpus(results: Sequence[SearchResult], fetcher: PageFetcher) -> list[Chunk]:
    """One document per result: the snippet, or the page body when the snippet is thin."""
    chunks: list[Chunk] = []
    for result in results:
        text = result.snippet
        if len(text.split()) < MIN_SNIPPET_WORDS:
            try:
                fetched = fetcher(result.url)
            except requests.RequestException:
                fetched = ""
            if fetched.strip():
                text = fetched
        chunks.extend(
            chunk_document(text, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP, source_url=result.url)
        )
    return chunks


def refine_definition(
    keyword: str,
    top_chunks: Sequence[Chunk],
    gateway: Gateway,
    language: LanguageTag,
) -> WordInfo:
    """Summarize ranked chunks into a definition of at most two sentences."""
    word_label, passages_label = _REFINE_USER_LABELS[language]
    user = f"{word_label}: {keyword}\n{passages_label}:\n" + "\n".join(
        f"- {chunk.text}" for chunk in top_chunks
    )
    definition = gateway.chat(
        chat_request(Purpose.REFINE_CHUNKS, REFINE_SYSTEM[language], user)
    ).strip()
    if len(split_sentences(definition)) > MAX_DEFINITION_SENTENCES:
        reasked = gateway.chat(
            chat_request(
                Purpose.REFINE_CHUNKS,
                REFINE_SYSTEM[language],
                user,
                ChatMessage(Role.ASSISTANT, definition),
                ChatMessage(Role.USER, _REASK_USER[language]),
            )
        )
        definition = trim_to_sentences(reasked.strip())
    return WordInfo(
        keyword=keyword,
        definition=definition,
        source=RetrievalSource.GOOGLE_SEARCH,
        evidence=tuple((c.source_url, c.index) for c in top_chunks),
    )


def define_llm_only(keyword: str, gateway: Gateway, language: LanguageTag) -> WordInfo:
    """One model call defining the keyword from parametric knowledge alone."""
    answer = gateway.chat(chat_request(Purpose.DEFINE_WORD, DEFINE_SYSTEM[language], keyword))
    return WordInfo(
        keyword=keyword,
        definition=trim_to_sentences(answer.strip()),
        source=RetrievalSource.LLM_ONLY,
        evidence=None,
    )


class WordInfoCache:
    """Directory of per-keyword definition files, keyed by (source, exact keyword).

    A file is named by the SHA-256 of its keyword, so every keyword makes a safe
    name and two casings make two names, even on a case-insensitive filesystem.
    `in_flight` merges concurrent get_word_info misses of one key.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.in_flight = SingleFlight()

    def path_for(self, keyword: str, source: RetrievalSource) -> Path:
        name = hashlib.sha256(keyword.encode("utf-8")).hexdigest()
        return self.root / source.value / f"{name}.json"

    def lookup(self, keyword: str, source: RetrievalSource) -> WordInfo | None:
        path = self.path_for(keyword, source)
        record = read_json(path)
        return None if record is None else _word_info(path, record, keyword, source)

    def store(self, info: WordInfo) -> WordInfo:
        """Cache info unless its key is cached; return the definition kept."""
        record = {
            "keyword": info.keyword,
            "definition": info.definition,
            "source": info.source.value,
            "evidence": [list(pair) for pair in info.evidence] if info.evidence is not None else None,
        }
        path = self.path_for(info.keyword, info.source)
        return _word_info(path, put_json_if_absent(path, record), info.keyword, info.source)


def _word_info(path: Path, record: dict, keyword: str, source: RetrievalSource) -> WordInfo:
    """The definition of keyword from source cached at path; CorruptRecord if record
    does not hold a valid one, or holds another keyword's or source's."""
    try:
        evidence = record.get("evidence")
        info = WordInfo(
            keyword=record["keyword"],
            definition=record["definition"],
            source=RetrievalSource(record["source"]),
            evidence=tuple((url, idx) for url, idx in evidence) if evidence is not None else None,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptRecord(path, f"{type(exc).__name__}: {exc}") from exc
    if info.keyword != keyword or info.source is not source:
        raise CorruptRecord(path, f"holds the {info.source.value} definition of {info.keyword!r}")
    return info


def get_word_info(
    keyword: str,
    source: RetrievalSource,
    gateway: Gateway,
    language: LanguageTag,
    *,
    cache: WordInfoCache,
    web: tuple[SearchPort, PageFetcher] | None = None,
) -> WordInfo:
    """Cache-first definition lookup for one keyword via the requested path.

    The web path needs `web`, a search port and the page fetcher for its thin results.

    Concurrent calls with one cache key share one lookup, and on a miss one
    definition: the others get the definition the cache keeps, or its error.
    """

    def lookup_or_define() -> WordInfo:
        cached = cache.lookup(keyword, source)
        if cached is not None:
            return cached
        if source is RetrievalSource.LLM_ONLY:
            return cache.store(define_llm_only(keyword, gateway, language))
        if web is None:
            raise DefinitionUnavailable(
                f"no cached definition for {keyword!r} and no search client configured"
            )
        search, fetcher = web
        corpus = gather_corpus(search_web(keyword, search), fetcher)
        if not corpus:
            raise DefinitionUnavailable(f"search produced no usable text for {keyword!r}")
        top = rank_chunks(keyword, corpus)
        return cache.store(refine_definition(keyword, top, gateway, language))

    return cache.in_flight.run((source, keyword), lookup_or_define)[0]
