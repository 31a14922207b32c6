"""Retrieval: tokenizing, chunking, BM25 ranking, definition building, caching."""

import hashlib
import json
import math
import random
import shutil
import string
import threading
import time
import tracemalloc

import pytest
import requests
from fakes import (
    LONG_SNIPPET,
    FakeSearch,
    FakeSession,
    FunctionBackend,
    ScriptedGateway,
    at_once,
    http_response,
    no_page,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sarcrag.core import LanguageTag, RetrievalSource
from sarcrag.errors import (
    CorruptRecord,
    DefinitionUnavailable,
    SampleError,
    SearchForbidden,
    SearchQuotaExceeded,
    SearchTransportError,
    TransportError,
)
from sarcrag.gateway import Gateway, Purpose, TranscriptStore
from sarcrag.retrieval import (
    FETCH_BLOCK_BYTES,
    MAX_FETCHED_CHARS,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MAX_RESULTS,
    DEFAULT_OVERLAP,
    DEFAULT_TOP_K,
    Chunk,
    GoogleSearchClient,
    SearchResult,
    WordInfo,
    WordInfoCache,
    bm25_idf,
    bm25_scores,
    bm25_tokenize,
    chunk_document,
    define_llm_only,
    fetch_page,
    gather_corpus,
    get_word_info,
    rank_chunks,
    refine_definition,
    search_web,
    split_sentences,
    strip_markup,
    trim_to_sentences,
)


def make_chunk(text, index=0, url="https://example.com/a"):
    return Chunk(text=text, source_url=url, index=index)


class TestTokenize:
    def test_case_folds_and_splits_on_non_word(self):
        assert bm25_tokenize("Hello, World! don't_stop") == [
            "hello",
            "world",
            "don",
            "t",
            "stop",
        ]

    def test_underscore_is_a_separator(self):
        assert bm25_tokenize("snake_case") == ["snake", "case"]

    def test_digits_kept(self):
        assert bm25_tokenize("room 101") == ["room", "101"]

    def test_empty_and_punctuation_only(self):
        assert bm25_tokenize("") == []
        assert bm25_tokenize("?!...") == []


class TestSentences:
    def test_split_counts_terminator_runs_once(self):
        parts = split_sentences("Wait... what? It works! Done.")
        assert parts == ["Wait...", "what?", "It works!", "Done."]

    def test_trailing_fragment_kept(self):
        assert split_sentences("First. second half") == ["First.", "second half"]

    def test_trim_noop_within_limit(self):
        text = "One. Two."
        assert trim_to_sentences(text) == text

    def test_trim_drops_extra_sentences(self):
        assert trim_to_sentences("One. Two. Three.") == "One. Two."

    def test_trim_unpunctuated_text_untouched(self):
        assert trim_to_sentences("no terminator here") == "no terminator here"


# Punctuation, "_", characters whose case folding expands or changes them
# ("ß", "ﬁ", "İ", "Σ"), and whitespace other than " " that str.split() splits on.
TOKENIZER_EDGES = ".,!?'-_" + "ßﬁİΣς" + "\t\n\x1c\x85\xa0\u2003\u2028\u3000"


class TestChunking:
    @given(
        text=st.text(st.one_of(st.sampled_from(TOKENIZER_EDGES), st.characters()), max_size=200),
        overlap=st.integers(0, 20),
        step=st.integers(1, 20),
    )
    # A word character only after case folding: bm25_tokenize reads "\u0345" as ["ι"].
    @example(text="\u0345", overlap=0, step=1)
    # A window of pure punctuation between two kept ones.
    @example(text="alpha ?! beta", overlap=0, step=1)
    @settings(max_examples=300, deadline=None)
    def test_keeps_exactly_the_windows_that_tokenize(self, text, overlap, step):
        assume(text.strip())
        chunk_size = overlap + step
        chunks = chunk_document(text, chunk_size, overlap)
        words = text.split()
        windows = [" ".join(words[o : o + chunk_size]) for o in range(0, len(words), step)]
        kept = [(ordinal, w) for ordinal, w in enumerate(windows) if bm25_tokenize(w)]
        assert [(c.index, c.text) for c in chunks] == kept

    def test_ten_words_size_four_overlap_one(self):
        words = [f"w{i}" for i in range(10)]
        chunks = chunk_document(" ".join(words), 4, 1, source_url="https://e.com")
        texts = [c.text.split() for c in chunks]
        assert texts == [
            ["w0", "w1", "w2", "w3"],
            ["w3", "w4", "w5", "w6"],
            ["w6", "w7", "w8", "w9"],
            ["w9"],
        ]
        assert [c.index for c in chunks] == [0, 1, 2, 3]
        assert [len(bm25_tokenize(c.text)) for c in chunks] == [4, 4, 4, 1]

    def test_short_document_single_chunk(self):
        chunks = chunk_document("just three words", 120, 20)
        assert len(chunks) == 1
        assert chunks[0].text == "just three words"

    def test_rejects_overlap_not_below_size(self):
        with pytest.raises(ValueError):
            chunk_document("a b c", 4, 4)
        with pytest.raises(ValueError):
            chunk_document("a b c", 4, -1)

    def test_windows_without_indexable_tokens_dropped(self):
        # middle window is pure punctuation, so bm25_tokenize finds no token in it
        text = "alpha beta ?! ?! gamma delta"
        chunks = chunk_document(text, 2, 0)
        assert all(bm25_tokenize(c.text) for c in chunks)
        assert [c.text for c in chunks] == ["alpha beta", "gamma delta"]
        # the dropped window keeps its ordinal, so indices can have gaps
        assert [c.index for c in chunks] == [0, 2]

    def test_source_url_carried_through(self):
        chunks = chunk_document("a b c", 2, 0, source_url="https://e.com")
        assert all(c.source_url == "https://e.com" for c in chunks)

    def test_chunks_retain_little_more_than_their_page(self):
        # 20,000 characters of mostly distinct words, as a real page has.
        rng = random.Random(4141)
        words = ("".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 10))) for _ in range(5000))
        page = " ".join(words)[:MAX_FETCHED_CHARS]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chunks = chunk_document(page, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert chunks
        assert retained < 2.5 * len(page)


class TestBm25:
    def test_idf_two_docs_term_in_one(self):
        assert math.isclose(bm25_idf(2, 1), math.log(2.0), rel_tol=0, abs_tol=1e-12)

    def test_idf_single_doc_term_present(self):
        assert math.isclose(bm25_idf(1, 1), math.log(4.0 / 3.0), rel_tol=0, abs_tol=1e-12)

    def test_idf_unseen_term(self):
        assert bm25_idf(4, 0) == math.log((4 + 0.5) / 0.5 + 1.0)

    def test_idf_decreasing_in_document_frequency(self):
        values = [bm25_idf(10, n) for n in range(0, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)

    def test_two_doc_worked_example(self):
        d1 = make_chunk("a b a", index=0)
        d2 = make_chunk("b c", index=1)
        score, other = bm25_scores("a", [d1, d2])
        expected = math.log(2.0) * (2 * 2.2) / (2 + 1.2 * (0.25 + 0.75 * (3 / 2.5)))
        assert math.isclose(score, expected, rel_tol=0, abs_tol=1e-12)
        assert other == 0.0

    def test_score_zero_when_no_query_terms_present(self):
        assert bm25_scores("missing", [make_chunk("alpha beta gamma")]) == [0.0]

    def test_score_monotone_in_term_frequency(self):
        low = make_chunk("target filler filler filler")
        high = make_chunk("target target filler filler")
        low_score, high_score = bm25_scores("target", [low, high])
        assert high_score > low_score

    def test_repeated_query_term_counts_twice(self):
        chunks = [make_chunk("target here"), make_chunk("nothing")]
        (once, _), (twice, _) = bm25_scores("target", chunks), bm25_scores("target Target", chunks)
        assert math.isclose(twice, 2 * once, rel_tol=1e-12)

    def test_rank_orders_by_score_then_url_then_index(self):
        a = make_chunk("target here", url="https://b.com")
        b = make_chunk("target here", url="https://a.com")
        c = make_chunk("nothing relevant at all")
        ranked = rank_chunks("target", [a, b, c])
        assert [x.source_url for x in ranked[:2]] == ["https://a.com", "https://b.com"]
        assert ranked[2] is c

    def test_rank_index_breaks_same_url_ties(self):
        first = make_chunk("target here", index=0)
        second = make_chunk("target here", index=1)
        ranked = rank_chunks("target", [second, first])
        assert [x.index for x in ranked] == [0, 1]

    def test_rank_top_k_truncates(self):
        chunks = [make_chunk(f"word{i} target", index=i) for i in range(DEFAULT_TOP_K + 2)]
        ranked = rank_chunks("target", chunks)
        assert [c.index for c in ranked] == list(range(DEFAULT_TOP_K))


def make_result(snippet, url="https://a.com"):
    return SearchResult(url=url, snippet=snippet)


def search_items(count):
    return [{"link": f"https://{i}.com", "snippet": f"s{i}"} for i in range(count)]


class TestSearchAndGather:
    def test_search_web_truncates_to_max_results(self):
        items = search_items(DEFAULT_MAX_RESULTS)
        session = FakeSession([http_response({"items": items})])
        got = search_web("kw", make_search_client(session))
        assert got == [make_result(item["snippet"], url=item["link"]) for item in items]
        assert [(kw["params"]["q"], kw["params"]["num"]) for _, kw in session.calls] == [
            ("kw", DEFAULT_MAX_RESULTS)
        ]

    def test_search_web_truncates_an_overlong_answer(self):
        # the API may answer with more items than the `num` it was asked for
        items = search_items(DEFAULT_MAX_RESULTS + 2)
        session = FakeSession([http_response({"items": items})])
        got = search_web("kw", make_search_client(session))
        assert got == [
            make_result(item["snippet"], url=item["link"]) for item in items[:DEFAULT_MAX_RESULTS]
        ]

    def test_gather_uses_long_snippets_without_fetching(self):
        fetched = []

        def fetcher(url):
            fetched.append(url)
            return "page body"

        chunks = gather_corpus([make_result(LONG_SNIPPET)], fetcher)
        assert fetched == []
        assert all(c.source_url == "https://a.com" for c in chunks)

    def test_gather_fetches_when_snippet_short(self):
        chunks = gather_corpus([make_result("too short")], lambda url: LONG_SNIPPET)
        assert chunks[0].text.startswith("word0")

    def test_gather_falls_back_to_snippet_on_fetch_error(self):
        chunks = gather_corpus([make_result("short snippet")], no_page)
        assert chunks[0].text == "short snippet"

    def test_gather_keeps_a_page_with_malformed_markup(self):
        response = http_response(body=MALFORMED_PAGE.encode())
        chunks = gather_corpus([make_result("short snippet")], lambda url: fetch(response, url))
        assert [c.text for c in chunks] == ["Penny is a waitress in Pasadena"]

    def test_gather_skips_results_with_no_text(self):
        chunks = gather_corpus([make_result("")], no_page)
        assert chunks == []

    def test_chunks_at_default_window_and_overlap(self):
        words = [f"w{i}" for i in range(250)]
        chunks = gather_corpus([make_result(" ".join(words))], no_page)
        step = DEFAULT_CHUNK_SIZE - DEFAULT_OVERLAP
        assert [c.text.split() for c in chunks] == [
            words[offset : offset + DEFAULT_CHUNK_SIZE] for offset in range(0, 250, step)
        ]

    def test_chunk_indices_restart_per_document(self):
        page = " ".join(f"word{i}" for i in range(250))
        results = [make_result(page, url="https://a.com"), make_result(page, url="https://b.com")]
        chunks = gather_corpus(results, no_page)
        assert [(c.source_url, c.index) for c in chunks] == [
            (url, index) for url in ("https://a.com", "https://b.com") for index in range(3)
        ]


def make_search_client(session):
    return GoogleSearchClient(
        api_key="k", engine_id="cx", session=session, in_flight=threading.BoundedSemaphore(1)
    )


class TestGoogleSearchClient:
    def test_parses_items(self):
        payload = {
            "items": [
                {"title": "T1", "link": "https://a.com", "snippet": "s1"},
                {"title": "T2", "link": "https://b.com", "snippet": "s2"},
            ]
        }
        session = FakeSession([http_response(payload)])
        client = make_search_client(session)
        results = client.search("query")
        assert [r.url for r in results] == ["https://a.com", "https://b.com"]
        assert [r.snippet for r in results] == ["s1", "s2"]
        params = session.calls[0][1]["params"]
        assert params["q"] == "query"
        assert params["key"] == "k"
        assert params["cx"] == "cx"

    # A 403 (a bad key, a disabled API or a spent daily quota) fails every later
    # search too, so it stops the run; a 429 skips the sample.
    @pytest.mark.parametrize(
        "status, error, skips", [(403, SearchForbidden, False), (429, SearchQuotaExceeded, True)],
        ids=["403", "429"],
    )
    def test_quota_exhaustion_is_distinct(self, status, error, skips):
        session = FakeSession([http_response(status=status)])
        client = make_search_client(session)
        with pytest.raises(error) as info:
            client.search("q")
        assert isinstance(info.value, SampleError) is skips

    def test_server_error_raises_transport(self):
        # The body is a well-formed answer: the status alone must fail the search.
        payload = {"items": [{"title": "T1", "link": "https://a.com", "snippet": "s1"}]}
        session = FakeSession([http_response(payload, status=500)])
        client = make_search_client(session)
        with pytest.raises(SearchTransportError) as info:
            client.search("q")
        assert not isinstance(info.value, SearchQuotaExceeded)

    @pytest.mark.parametrize(
        "body",
        [
            None,
            [],
            {"items": None},
            {"items": ["x"]},
            {"items": [{"link": None, "snippet": 5}]},
            {"items": [{"link": "https://a.com", "snippet": "a lone \ud83d half"}]},
        ],
    )
    def test_malformed_body_raises_transport(self, body):
        session = FakeSession([http_response(body=json.dumps(body).encode())])
        client = make_search_client(session)
        with pytest.raises(SearchTransportError) as info:
            client.search("q")
        assert not isinstance(info.value, SearchQuotaExceeded)

    def test_a_skipped_search_holds_a_permit_and_gives_it_back(self):
        in_flight = threading.BoundedSemaphore(1)
        taken = []

        def answer(url, **kwargs):
            taken.append(not in_flight.acquire(blocking=False))
            return http_response(status=429)

        session = FakeSession(answer)
        client = GoogleSearchClient(api_key="k", engine_id="cx", session=session, in_flight=in_flight)
        with pytest.raises(SearchQuotaExceeded):
            client.search("q")
        assert taken == [True]
        assert in_flight.acquire(blocking=False), "the search kept its permit"

    def test_missing_items_is_empty(self):
        session = FakeSession([http_response({})])
        client = make_search_client(session)
        assert client.search("q") == []


# html.parser raises AssertionError on this marked section.
MALFORMED_PAGE = "<p>Penny is a waitress in Pasadena</p><![ if gte mso 9]>x"

# Decodes to a lone surrogate, "\ud800", even with errors="replace".
LONE_SURROGATE_PAGE = b"<p>Gokil +2AA- adalah kata gaul. Gokil artinya keren.</p>"

# Declared charsets, each decoding arbitrary bytes differently; None declares none.
PAGE_CHARSETS = ["utf-8", "latin-1", "utf-16", "utf-7", "unicode_escape", "x-no-such-charset", None]


class TestStripMarkup:
    def test_drops_tags_and_scripts(self):
        html = "<html><head><script>var x=1;</script></head><body><p>Hello <b>world</b></p></body></html>"
        assert strip_markup(html) == "Hello world"

    def test_style_and_noscript_dropped(self):
        html = "<style>p{}</style><noscript>enable js</noscript><div>kept</div>"
        assert strip_markup(html) == "kept"

    def test_whitespace_collapsed(self):
        assert strip_markup("<p>a</p>\n\n  <p>b</p>") == "a b"

    def test_malformed_marked_section_keeps_the_text_before_it(self):
        assert strip_markup(MALFORMED_PAGE) == "Penny is a waitress in Pasadena"


def text_of(body, content_type):
    """The reference: markup cut from the whole body decoded by `response.text`."""
    return strip_markup(http_response(body=body, content_type=content_type).text[:MAX_FETCHED_CHARS])


def fetch(response, url="https://a.com"):
    """fetch_page of a session that answers with response, under a bound of its own."""
    return fetch_page(url, session=FakeSession([response]), in_flight=threading.BoundedSemaphore(1))


class TestFetchPage:
    def test_truncates_and_sends_user_agent(self):
        session = FakeSession([http_response(body=("<p>" + "x" * 30000 + "</p>").encode())])
        text = fetch_page("https://a.com", session=session, in_flight=threading.BoundedSemaphore(1))
        [(_, seen)] = session.calls
        assert len(text) <= 20000
        assert "User-Agent" in seen["headers"]
        assert seen["timeout"] == 10
        assert seen["stream"] is True

    def test_oversized_body_read_only_to_cap(self):
        body = b"<p>" + b"x" * (4 * 1024 * 1024) + b"</p>"
        response = http_response(body=body)
        text = fetch(response)
        reader = response.raw
        assert text == "x" * (MAX_FETCHED_CHARS - 3)
        assert reader.blocks == -(-MAX_FETCHED_CHARS // FETCH_BLOCK_BYTES)
        assert reader.closed

    def test_short_body_read_to_end(self):
        response = http_response(body=b"<p>short page</p>")
        assert fetch(response) == "short page"
        assert response.raw.tell() == len(b"<p>short page</p>")

    @pytest.mark.parametrize(
        "body, content_type",
        [
            (("<p>" + "ascii words " * 3000 + "</p>").encode(), "text/html; charset=utf-8"),
            (("a" + "é" * 30000).encode(), "text/html; charset=utf-8"),
            (("ab" + "中" * 30000).encode(), "text/html; charset=UTF-8"),
            (("a" + "😀" * 30000).encode(), "text/html; charset=utf-8"),
            (("kata " + "é" * 10).encode() + "中".encode()[:2], "text/html; charset=utf-8"),
            (bytes(range(32, 256)) * 200, "text/html"),
            ("çà ".encode("cp1252") * 9000, "text/html; charset=windows-1252"),
            ("kata 中".encode("utf-16") * 5000, "text/plain; charset=utf-16"),
            ("kata 中".encode("utf-16-le") * 5000, "text/plain; charset=utf-16"),
            ("kata 中".encode("utf-32-le") * 5000, "text/plain; charset=UTF-32"),
            (b"", "text/html; charset=utf-8"),
        ],
        ids=[
            "ascii", "utf8-2byte-split", "utf8-3byte-split", "utf8-4byte-split",
            "short-trailing-partial", "iso-8859-1-default", "declared-cp1252", "utf16-bom",
            "utf16-no-bom", "utf32-no-bom", "empty",
        ],
    )
    def test_equals_decoding_whole_body(self, body, content_type):
        response = http_response(body=body, content_type=content_type)
        assert fetch(response) == text_of(body, content_type)

    @pytest.mark.parametrize(
        "content_type",
        [
            "text/html; charset=x-no-such-charset",
            "text/html; charset=base64",
            "text/html; charset=idna",
            "application/octet-stream",
        ],
        ids=["unknown", "not-a-text-codec", "strict-only-codec", "undeclared"],
    )
    def test_unknown_or_undeclared_charset_falls_back_to_utf8(self, content_type):
        body = ("<p>" + "kata é " * 5000 + "</p>").encode()
        text = fetch(http_response(body=body, content_type=content_type))
        assert text == strip_markup(body.decode()[:MAX_FETCHED_CHARS])

    def test_holds_a_permit_while_the_body_is_read(self):
        in_flight = threading.BoundedSemaphore(1)
        response = http_response(body=b"<p>short page</p>")
        taken = []
        read = response.raw.read

        def read_and_check(size=-1):
            taken.append(not in_flight.acquire(blocking=False))
            return read(size)

        response.raw.read = read_and_check
        session = FakeSession([response])
        assert fetch_page("https://a.com", session=session, in_flight=in_flight) == "short page"
        assert taken and all(taken)
        assert in_flight.acquire(blocking=False), "the fetch kept its permit"

    def test_http_error_raises_request_exception_and_closes(self):
        response = http_response(status=500, body=b"error")
        with pytest.raises(requests.HTTPError):
            fetch(response)
        assert response.raw.closed

    def test_lone_surrogates_read_as_replacement_characters(self):
        response = http_response(body=LONE_SURROGATE_PAGE, content_type="text/html; charset=utf-7")
        assert fetch(response) == "Gokil \ufffd adalah kata gaul. Gokil artinya keren."

    # unicode_escape warns of each backslash it does not know, such as "\%".
    @pytest.mark.filterwarnings("ignore:invalid escape sequence:DeprecationWarning")
    @given(body=st.binary(max_size=2048), charset=st.sampled_from(PAGE_CHARSETS))
    @example(body=LONE_SURROGATE_PAGE, charset="utf-7")
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_any_page_chunks_into_utf8_windows_that_tokenize(self, body, charset):
        content_type = "application/octet-stream" if charset is None else f"text/html; charset={charset}"
        text = fetch(http_response(body=body, content_type=content_type))
        for chunk in chunk_document(text, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP):
            chunk.text.encode("utf-8")
            assert bm25_tokenize(chunk.text)


class TestRefineDefinition:
    def test_single_call_when_short(self):
        gateway = ScriptedGateway(["A kw is a lower quality imitation product."])
        chunks = [make_chunk("kw means imitation goods in Indonesian slang")]
        info = refine_definition("kw", chunks, gateway, LanguageTag.ENGLISH)
        assert info.definition == "A kw is a lower quality imitation product."
        assert info.source is RetrievalSource.GOOGLE_SEARCH
        assert info.evidence == (("https://example.com/a", 0),)
        assert len(gateway.requests) == 1
        assert gateway.requests[0].purpose is Purpose.REFINE_CHUNKS
        user = gateway.requests[0].messages[1].content
        assert user.startswith("Word: kw\nPassages:\n- ")

    def test_indonesian_labels(self):
        gateway = ScriptedGateway(["Sebuah definisi."])
        info = refine_definition(
            "kw", [make_chunk("bukti teks")], gateway, LanguageTag.INDONESIAN
        )
        assert info.definition == "Sebuah definisi."
        assert gateway.requests[0].messages[1].content.startswith("Kata: kw\nKutipan:\n- ")

    def test_reasks_once_then_trims(self):
        long_answer = "One. Two. Three. Four."
        still_long = "First. Second. Third."
        gateway = ScriptedGateway([long_answer, still_long])
        info = refine_definition("kw", [make_chunk("evidence text")], gateway, LanguageTag.ENGLISH)
        assert info.definition == "First. Second."
        assert len(gateway.requests) == 2
        followup = gateway.requests[1].messages
        assert followup[2].content == long_answer
        assert followup[3].content == "Answer in at most two sentences."

    def test_reask_line_localized(self):
        gateway = ScriptedGateway(["Satu. Dua. Tiga.", "Singkat. Saja."])
        refine_definition("kw", [make_chunk("bukti")], gateway, LanguageTag.INDONESIAN)
        assert gateway.requests[1].messages[3].content == "Jawab dalam maksimal dua kalimat."

    def test_evidence_lists_all_used_chunks(self):
        gateway = ScriptedGateway(["Short."])
        chunks = [
            make_chunk("one", index=0, url="https://a.com"),
            make_chunk("two", index=3, url="https://b.com"),
        ]
        info = refine_definition("kw", chunks, gateway, LanguageTag.ENGLISH)
        assert info.evidence == (("https://a.com", 0), ("https://b.com", 3))


class TestDefineLlmOnly:
    def test_single_call_and_trim(self):
        gateway = ScriptedGateway(["An org. Founded long ago. Extra detail."])
        info = define_llm_only("United Nations", gateway, LanguageTag.ENGLISH)
        assert info.definition == "An org. Founded long ago."
        assert info.source is RetrievalSource.LLM_ONLY
        assert info.evidence is None
        assert gateway.requests[0].purpose is Purpose.DEFINE_WORD
        assert gateway.requests[0].messages[1].content == "United Nations"


class TestWordInfo:
    def test_definition_must_fit_sentence_budget(self):
        with pytest.raises(ValueError):
            WordInfo(
                keyword="k",
                definition="One. Two. Three.",
                source=RetrievalSource.LLM_ONLY,
            )

    def test_definition_must_be_non_empty(self):
        with pytest.raises(ValueError):
            WordInfo(keyword="k", definition="  ", source=RetrievalSource.LLM_ONLY)

    def test_evidence_paired_with_web_source(self):
        with pytest.raises(ValueError):
            WordInfo(
                keyword="k",
                definition="Fine.",
                source=RetrievalSource.LLM_ONLY,
                evidence=(("https://a.com", 0),),
            )
        with pytest.raises(ValueError):
            WordInfo(
                keyword="k",
                definition="Fine.",
                source=RetrievalSource.GOOGLE_SEARCH,
                evidence=None,
            )


class TestWordInfoCache:
    def make_info(self, keyword="kw", source=RetrievalSource.LLM_ONLY):
        """A definition of keyword from source; a web-sourced one cites two chunks."""
        web = source is RetrievalSource.GOOGLE_SEARCH
        evidence = (("https://a.com", 0), ("https://b.com", 2)) if web else None
        return WordInfo(keyword=keyword, definition="A short definition.", source=source, evidence=evidence)

    def test_round_trip(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        info = self.make_info()
        cache.store(info)
        assert cache.lookup("kw", RetrievalSource.LLM_ONLY) == info

    def test_web_sourced_round_trip_keeps_evidence(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        info = self.make_info(source=RetrievalSource.GOOGLE_SEARCH)
        cache.store(info)
        assert cache.lookup("kw", RetrievalSource.GOOGLE_SEARCH) == info

    def test_miss_returns_none(self, tmp_path):
        assert WordInfoCache(tmp_path).lookup("kw", RetrievalSource.LLM_ONLY) is None

    def test_stored_file_is_json(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        cache.store(self.make_info())
        (path,) = list(tmp_path.rglob("*.json"))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["keyword"] == "kw"

    def test_two_casings_are_two_entries(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        upper = WordInfo(keyword="PENNY", definition="Shouted.", source=RetrievalSource.LLM_ONLY)
        title = WordInfo(keyword="Penny", definition="A name.", source=RetrievalSource.LLM_ONLY)
        assert cache.store(upper) == upper
        assert cache.store(title) == title
        assert cache.lookup("PENNY", RetrievalSource.LLM_ONLY) == upper
        assert cache.lookup("Penny", RetrievalSource.LLM_ONLY) == title
        assert cache.lookup("penny", RetrievalSource.LLM_ONLY) is None

    def test_sources_are_separate_namespaces(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        cache.store(self.make_info())
        assert cache.lookup("kw", RetrievalSource.GOOGLE_SEARCH) is None

    def test_unsafe_keyword_becomes_safe_filename(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        cache.store(self.make_info("a/b c"))
        assert cache.lookup("a/b c", RetrievalSource.LLM_ONLY) is not None
        for p in tmp_path.rglob("*.json"):
            assert "/" not in p.stem

    def test_long_non_ascii_keyword_is_named_by_its_digest(self, tmp_path):
        # 44 characters pass the keyword caps, but would quote to a 489-byte file name.
        keyword = "wkwk" + "\N{FACE WITH TEARS OF JOY}" * 40
        cache = WordInfoCache(tmp_path)
        info = self.make_info(keyword)
        assert cache.store(info) == info
        assert cache.lookup(keyword, RetrievalSource.LLM_ONLY) == info
        assert cache.lookup("WKWK" + keyword[4:], RetrievalSource.LLM_ONLY) is None
        digest = hashlib.sha256(keyword.encode("utf-8")).hexdigest()
        assert [p.name for p in (tmp_path / "llm_only").iterdir()] == [f"{digest}.json"]

    def test_quoted_name_at_the_length_limit_is_kept(self, tmp_path):
        # 237 bytes was the longest name a percent-quoted keyword could take;
        # one past it is stored and found like any other keyword.
        cache = WordInfoCache(tmp_path)
        for keyword in ["k" * 237, "k" * 238]:
            info = self.make_info(keyword)
            assert cache.store(info) == info
            assert cache.lookup(keyword, RetrievalSource.LLM_ONLY) == info
        digests = [hashlib.sha256(k.encode("utf-8")).hexdigest() for k in ["k" * 237, "k" * 238]]
        assert sorted(p.name for p in (tmp_path / "llm_only").iterdir()) == sorted(f"{d}.json" for d in digests)

    def test_any_keyword_is_named_by_its_digest(self, tmp_path):
        keywords = ["kw", "United Nations", "a/b c", "k" * 300]
        cache = WordInfoCache(tmp_path)
        for keyword in keywords:
            info = self.make_info(keyword)
            assert cache.store(info) == info
            assert cache.lookup(keyword, RetrievalSource.LLM_ONLY) == info
        digests = [hashlib.sha256(k.encode("utf-8")).hexdigest() for k in keywords]
        assert sorted(p.name for p in (tmp_path / "llm_only").iterdir()) == sorted(f"{d}.json" for d in digests)

    def test_file_of_another_keyword_is_corrupt(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        cache.store(self.make_info("Alice"))
        shutil.copy(
            cache.path_for("Alice", RetrievalSource.LLM_ONLY),
            cache.path_for("Bob", RetrievalSource.LLM_ONLY),
        )
        with pytest.raises(CorruptRecord):
            cache.lookup("Bob", RetrievalSource.LLM_ONLY)
        with pytest.raises(CorruptRecord):
            cache.store(self.make_info("Bob"))

    def test_file_of_another_source_is_corrupt(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        cache.store(self.make_info("Alice"))
        web_path = cache.path_for("Alice", RetrievalSource.GOOGLE_SEARCH)
        web_path.parent.mkdir()
        shutil.copy(cache.path_for("Alice", RetrievalSource.LLM_ONLY), web_path)
        with pytest.raises(CorruptRecord):
            cache.lookup("Alice", RetrievalSource.GOOGLE_SEARCH)
        with pytest.raises(CorruptRecord):
            cache.store(self.make_info("Alice", RetrievalSource.GOOGLE_SEARCH))

    def test_store_again_with_different_definition_keeps_the_first(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        first = WordInfo(keyword="kw", definition="First.", source=RetrievalSource.LLM_ONLY)
        assert cache.store(first) == first
        second = WordInfo(keyword="kw", definition="Second.", source=RetrievalSource.LLM_ONLY)
        assert cache.store(second) == first
        assert cache.lookup("kw", RetrievalSource.LLM_ONLY) == first

    # The store-file rules below are tested at read_json and put_json_if_absent in
    # TestStoreFiles; these check that the cache reaches them through lookup and store.
    def test_a_directory_at_the_path_is_a_corrupt_record(self, tmp_path):
        # Unreadable, not unwritable: it skips the sample that reads it and stays.
        cache = WordInfoCache(tmp_path)
        path = cache.path_for("kw", RetrievalSource.LLM_ONLY)
        (path / "occupied").mkdir(parents=True)
        with pytest.raises(CorruptRecord, match="IsADirectoryError"):
            cache.lookup("kw", RetrievalSource.LLM_ONLY)
        with pytest.raises(CorruptRecord, match="IsADirectoryError"):
            cache.store(self.make_info())
        assert list(path.parent.iterdir()) == [path]

    def test_store_does_not_collide_with_another_writers_temp_file(self, tmp_path):
        WordInfoCache(tmp_path / "reference").store(self.make_info())
        cache = WordInfoCache(tmp_path / "cache")
        path = cache.path_for("kw", RetrievalSource.LLM_ONLY)
        # Stands in for the temporary file of another process storing the same keyword.
        path.with_suffix(".json.tmp").mkdir(parents=True)
        cache.store(self.make_info())
        reference = WordInfoCache(tmp_path / "reference").path_for("kw", RetrievalSource.LLM_ONLY)
        assert path.read_bytes() == reference.read_bytes()

    def test_concurrent_writers_of_one_keyword(self, tmp_path):
        # One cache object per thread, as separate processes would have.
        def write(n):
            cache = WordInfoCache(tmp_path)
            for i in range(40):
                cache.store(
                    WordInfo(keyword="kw", definition=f"Definition {n}.{i}.", source=RetrievalSource.LLM_ONLY)
                )

        assert at_once([lambda n=n: write(n) for n in range(8)]) == [None] * 8
        cache = WordInfoCache(tmp_path)
        info = cache.lookup("kw", RetrievalSource.LLM_ONLY)
        assert info.definition.startswith("Definition ")
        assert list((tmp_path / "llm_only").iterdir()) == [cache.path_for("kw", RetrievalSource.LLM_ONLY)]


class TestGetWordInfo:
    def test_cache_hit_skips_everything(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        info = WordInfo(keyword="kw", definition="Cached.", source=RetrievalSource.LLM_ONLY)
        cache.store(info)
        gateway = ScriptedGateway([])
        got = get_word_info("kw", RetrievalSource.LLM_ONLY, gateway, LanguageTag.ENGLISH, cache=cache)
        assert got == info
        assert gateway.requests == []

    def test_llm_only_miss_defines_and_stores(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        gateway = ScriptedGateway([TransportError("chat endpoint failed: HTTP 400, not retried"), "A definition."])
        # A failed definition stores nothing, so the next miss asks again.
        with pytest.raises(TransportError):
            get_word_info("kw", RetrievalSource.LLM_ONLY, gateway, LanguageTag.ENGLISH, cache=cache)
        assert cache.lookup("kw", RetrievalSource.LLM_ONLY) is None
        got = get_word_info("kw", RetrievalSource.LLM_ONLY, gateway, LanguageTag.ENGLISH, cache=cache)
        assert got.definition == "A definition."
        assert cache.lookup("kw", RetrievalSource.LLM_ONLY) == got

    def test_search_miss_without_client_unavailable(self, tmp_path):
        with pytest.raises(DefinitionUnavailable):
            get_word_info(
                "kw",
                RetrievalSource.GOOGLE_SEARCH,
                ScriptedGateway([]),
                LanguageTag.ENGLISH,
                cache=WordInfoCache(tmp_path),
                web=None,
            )

    def test_search_path_end_to_end(self, tmp_path):
        cache = WordInfoCache(tmp_path)
        search = FakeSearch([make_result(LONG_SNIPPET)])
        gateway = ScriptedGateway(["Means imitation goods."])
        got = get_word_info(
            "kw",
            RetrievalSource.GOOGLE_SEARCH,
            gateway,
            LanguageTag.ENGLISH,
            cache=cache,
            web=(search, no_page),
        )
        assert got.definition == "Means imitation goods."
        assert got.evidence and got.evidence[0][0] == "https://a.com"
        assert search.queries[0] == "kw"
        assert cache.lookup("kw", RetrievalSource.GOOGLE_SEARCH) == got

    def test_a_page_that_decodes_to_a_lone_surrogate_is_defined(self, tmp_path):
        # The refine request's digest encodes the page text as UTF-8.
        page = http_response(body=LONE_SURROGATE_PAGE, content_type="text/html; charset=utf-7")
        gateway = Gateway(FunctionBackend(lambda request: "Gokil berarti keren."), TranscriptStore(tmp_path / "store"))
        got = get_word_info(
            "Gokil",
            RetrievalSource.GOOGLE_SEARCH,
            gateway,
            LanguageTag.INDONESIAN,
            cache=WordInfoCache(tmp_path / "cache"),
            web=(FakeSearch([make_result("Gokil")]), lambda url: fetch(page, url)),
        )
        assert got.definition == "Gokil berarti keren."
        assert got.evidence == (("https://a.com", 0),)

    def test_empty_search_results_unavailable(self, tmp_path):
        with pytest.raises(DefinitionUnavailable):
            get_word_info(
                "kw",
                RetrievalSource.GOOGLE_SEARCH,
                ScriptedGateway([]),
                LanguageTag.ENGLISH,
                cache=WordInfoCache(tmp_path),
                web=(FakeSearch([]), no_page),
            )

    def test_concurrent_misses_of_two_casings_make_two_requests(self, tmp_path):
        def slow(request):
            time.sleep(0.2)  # long enough for every other thread to arrive while this call runs
            return "A definition."

        gateway = ScriptedGateway(slow)
        cache = WordInfoCache(tmp_path)
        keywords = ("Penny", "penny") * 4
        got = at_once([
            lambda k=k: get_word_info(k, RetrievalSource.LLM_ONLY, gateway, LanguageTag.ENGLISH, cache=cache)
            for k in keywords
        ])
        assert sorted(r.messages[1].content for r in gateway.requests) == ["Penny", "penny"]
        # Each caller gets the definition of its own casing.
        assert [info.keyword for info in got] == list(keywords)
        assert got == [cache.lookup(k, RetrievalSource.LLM_ONLY) for k in keywords]
