"""Word-information retrieval: search, chunking, BM25 ranking, and short definitions.

Two paths produce a WordInfo per keyword: the web path searches, chunks and
ranks page text before asking the model to refine it into a definition; the
internal path asks the model directly. Both are cached on disk.
"""

from __future__ import annotations

import codecs
import hashlib
import html.parser
import itertools
import math
import re
import threading
from dataclasses import dataclass, field
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
    ChatRequest,
    Gateway,
    Purpose,
    Role,
    SingleFlight,
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
    """A window of page text; `tokens` is `bm25_tokenize(text)`."""

    text: str
    source_url: str
    index: int
    tokens: tuple[str, ...] = field(compare=False, repr=False)


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

    Each distinct word is tokenized once. A window's tokens are its words'
    tokens in order, which equals tokenizing the window: tokens never span
    whitespace, and case folding maps each character on its own.
    """
    if not text.strip():
        raise ValueError("text must be non-empty")
    if overlap < 0 or chunk_size <= overlap:
        raise ValueError("require chunk_size > overlap >= 0")
    words = text.split()
    vocabulary = {word: bm25_tokenize(word) for word in set(words)}
    word_tokens = [vocabulary[word] for word in words]
    step = chunk_size - overlap
    chunks: list[Chunk] = []
    for ordinal, offset in enumerate(range(0, len(words), step)):
        tokens = tuple(itertools.chain.from_iterable(word_tokens[offset : offset + chunk_size]))
        # Windows of pure punctuation carry nothing rankable; drop them.
        if not tokens:
            continue
        chunks.append(
            Chunk(
                text=" ".join(words[offset : offset + chunk_size]),
                source_url=source_url,
                index=ordinal,
                tokens=tokens,
            )
        )
    return chunks


def bm25_idf(n_docs: int, df_term: int) -> float:
    return math.log((n_docs - df_term + 0.5) / (df_term + 0.5) + 1.0)


def bm25_scores(keyword: str, chunks: Sequence[Chunk]) -> list[float]:
    """Okapi BM25 score of each chunk for the tokenized keyword, at k1 BM25_K1 and b BM25_B.

    Term and document frequencies are counted for the query's terms only.
    See Robertson & Zaragoza, "The Probabilistic Relevance Framework: BM25 and Beyond", 2009.
    """
    if not chunks:
        raise ValueError("chunks must be non-empty")
    query = bm25_tokenize(keyword)
    freqs = [{term: chunk.tokens.count(term) for term in query} for chunk in chunks]
    df = {term: sum(1 for freq in freqs if freq[term]) for term in query}
    avg_len = sum(len(chunk.tokens) for chunk in chunks) / len(chunks)
    scores = []
    for chunk, freq in zip(chunks, freqs):
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * len(chunk.tokens) / avg_len)
        score = 0.0
        for term in query:
            if freq[term]:
                idf = bm25_idf(len(chunks), df[term])
                score += idf * freq[term] * (BM25_K1 + 1.0) / (freq[term] + norm)
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
    def search(self, query: str, max_results: int) -> list[SearchResult]: ...


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

    def search(self, query: str, max_results: int) -> list[SearchResult]:
        params = {
            "key": self.api_key,
            "cx": self.engine_id,
            "q": query,
            "num": min(max_results, 10),
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
            for item in items[:max_results]
        ]


def _search_items(body: object) -> list[dict]:
    """The items of a search body; a missing link or snippet reads as empty.

    Raises ValueError unless the body is an object whose items, if any, are a
    list of objects with string link and snippet values.
    """
    items = body.get("items", []) if isinstance(body, dict) else None
    if not isinstance(items, list) or not all(
        isinstance(item, dict)
        and isinstance(item.get("link", ""), str)
        and isinstance(item.get("snippet", ""), str)
        for item in items
    ):
        raise ValueError("body is not an object with a list of items with string link and snippet")
    return items


def search_web(keyword: str, client: SearchPort) -> list[SearchResult]:
    if not keyword.strip():
        raise ValueError("keyword must be non-empty")
    return client.search(keyword, DEFAULT_MAX_RESULTS)[:DEFAULT_MAX_RESULTS]


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
    """`response.text[:limit]`, reading only the blocks those characters need."""
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
    text = ""
    for block in itertools.chain((first,), blocks):
        text += decoder.decode(block)
        if len(text) >= limit:
            return text[:limit]
    return (text + decoder.decode(b"", final=True))[:limit]


PageFetcher = Callable[[str], str]


def gather_corpus(
    results: Sequence[SearchResult], fetcher: PageFetcher | None = None
) -> list[Chunk]:
    """One document per result: the snippet, or the page body when the snippet is thin."""
    chunks: list[Chunk] = []
    for result in results:
        text = result.snippet
        if len(text.split()) < MIN_SNIPPET_WORDS and fetcher is not None:
            try:
                fetched = fetcher(result.url)
            except requests.RequestException:
                fetched = ""
            if fetched.strip():
                text = fetched
        if not text.strip():
            continue
        chunks.extend(
            chunk_document(text, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP, source_url=result.url)
        )
    return chunks


def _definition_request(
    system: str, user: str, purpose: Purpose, history: tuple[ChatMessage, ...] = ()
) -> ChatRequest:
    return ChatRequest(
        messages=(ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, user)) + history,
        purpose=purpose,
    )


def refine_definition(
    keyword: str,
    top_chunks: Sequence[Chunk],
    gateway: Gateway,
    language: LanguageTag,
) -> WordInfo:
    """Summarize ranked chunks into a definition of at most two sentences."""
    top_chunks = [c for c in top_chunks if c.text.strip()]
    if not top_chunks:
        raise DefinitionUnavailable(f"no text evidence for {keyword!r}")
    word_label, passages_label = _REFINE_USER_LABELS[language]
    user = f"{word_label}: {keyword}\n{passages_label}:\n" + "\n".join(
        f"- {chunk.text}" for chunk in top_chunks
    )
    definition = gateway.chat(
        _definition_request(REFINE_SYSTEM[language], user, Purpose.REFINE_CHUNKS)
    ).strip()
    if len(split_sentences(definition)) > MAX_DEFINITION_SENTENCES:
        reasked = gateway.chat(
            _definition_request(
                REFINE_SYSTEM[language],
                user,
                Purpose.REFINE_CHUNKS,
                history=(
                    ChatMessage(Role.ASSISTANT, definition),
                    ChatMessage(Role.USER, _REASK_USER[language]),
                ),
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
    if not keyword.strip():
        raise ValueError("keyword must be non-empty")
    answer = gateway.chat(
        _definition_request(DEFINE_SYSTEM[language], keyword, Purpose.DEFINE_WORD)
    )
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
        if not path.exists():
            return None
        return _word_info(path, read_json(path))

    def store(self, info: WordInfo) -> WordInfo:
        """Cache info unless its key is cached; return the definition kept."""
        record = {
            "keyword": info.keyword,
            "definition": info.definition,
            "source": info.source.value,
            "evidence": [list(pair) for pair in info.evidence] if info.evidence is not None else None,
        }
        path = self.path_for(info.keyword, info.source)
        return _word_info(path, put_json_if_absent(path, record))


def _word_info(path: Path, record: dict) -> WordInfo:
    """The definition cached at path; CorruptRecord if record does not hold a valid one."""
    try:
        evidence = record.get("evidence")
        return WordInfo(
            keyword=record["keyword"],
            definition=record["definition"],
            source=RetrievalSource(record["source"]),
            evidence=tuple((url, idx) for url, idx in evidence) if evidence is not None else None,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptRecord(path, f"{type(exc).__name__}: {exc}") from exc


def get_word_info(
    keyword: str,
    source: RetrievalSource,
    gateway: Gateway,
    language: LanguageTag,
    *,
    cache: WordInfoCache | None = None,
    search: SearchPort | None = None,
    fetcher: PageFetcher | None = None,
) -> WordInfo:
    """Cache-first definition lookup for one keyword via the requested path.

    Concurrent calls with one cache key share one lookup, and on a miss one
    definition: the others get the definition the cache keeps, or its error.
    """

    def define() -> WordInfo:
        if source is RetrievalSource.LLM_ONLY:
            return define_llm_only(keyword, gateway, language)
        if search is None:
            raise DefinitionUnavailable(
                f"no cached definition for {keyword!r} and no search client configured"
            )
        results = search_web(keyword, search)
        corpus = gather_corpus(results, fetcher)
        if not corpus:
            raise DefinitionUnavailable(f"search produced no usable text for {keyword!r}")
        top = rank_chunks(keyword, corpus)
        return refine_definition(keyword, top, gateway, language)

    if cache is None:
        return define()

    def lookup_or_define() -> WordInfo:
        cached = cache.lookup(keyword, source)
        return cached if cached is not None else cache.store(define())

    return cache.in_flight.run((source, keyword), lookup_or_define)[0]
