"""Pipeline: few-shot blocks, prompt assembly, verdict parsing, variant orchestration."""

import re

import pytest
from fakes import LONG_SNIPPET, FakeSearch, FunctionBackend, ScriptedGateway, no_page

from sarcrag.core import (
    Label,
    LanguageTag,
    PipelineVariant,
    RetrievalSource,
    Sample,
)
from sarcrag.errors import (
    SampleError,
    SarcragError,
    SearchQuotaExceeded,
    StoreWriteError,
    TransportError,
    VerdictNotFound,
)
from sarcrag.gateway import Gateway, Purpose, TranscriptStore
from sarcrag.pipeline import (
    PipelineDeps,
    build_p1,
    build_p2,
    parse_verdict,
    render_word_info_block,
    run_pipeline,
)
from sarcrag.retrieval import SearchResult, WordInfo, WordInfoCache, get_word_info
from sarcrag.templates import load_templates

EN = load_templates(LanguageTag.ENGLISH)
ID = load_templates(LanguageTag.INDONESIAN)


def en_sample(text="i saw Paris yesterday"):
    return Sample(
        id="semeval:9",
        text=text,
        gold=Label.SARCASTIC,
        language=LanguageTag.ENGLISH,
    )


def word_info(keyword="Paris", definition="The capital of France."):
    return WordInfo(keyword=keyword, definition=definition, source=RetrievalSource.LLM_ONLY)


def packaged_few_shot(templates):
    """The packaged few-shot block split before each "Tweet: " line: (header, examples)."""
    header, *examples = re.split(
        r"^(?=Tweet: )", templates.fewshot_header_and_examples, flags=re.MULTILINE
    )
    return header, examples


def decision_lines(examples):
    return [example.rstrip().splitlines()[-1].strip() for example in examples]


class TestFewShotBlock:
    """The packaged few-shot files, which build_p2 appends to P2 as written."""

    def test_requires_examples(self):
        for templates in (EN, ID):
            assert packaged_few_shot(templates)[1], templates.language

    def test_requires_decision_line(self):
        for templates in (EN, ID):
            for line in decision_lines(packaged_few_shot(templates)[1]):
                assert re.fullmatch(r"(Final decision|Keputusan akhir): (YES|NO)", line), line

    def test_indonesian_decision_line_accepted(self):
        _, examples = packaged_few_shot(ID)
        assert decision_lines(examples) == ["Keputusan akhir: YES", "Keputusan akhir: NO"]

    def test_default_blocks_parse_for_both_languages(self):
        en_header, en_examples = packaged_few_shot(EN)
        id_header, id_examples = packaged_few_shot(ID)
        assert len(en_examples) == 2
        assert len(id_examples) == 2
        assert en_header == "Here are example reflections:\n"
        assert id_header == ""
        assert decision_lines(en_examples) == ["Final decision: YES", "Final decision: NO"]


class TestWordInfoBlock:
    def test_english_connective(self):
        block = render_word_info_block([word_info()], EN)
        assert block == "Entity facts:\nParis is The capital of France."

    def test_indonesian_connective(self):
        info = word_info("kw", "barang tiruan berkualitas rendah.")
        block = render_word_info_block([info], ID)
        assert block == "Definisi kata-kata penting:\nkw adalah barang tiruan berkualitas rendah."

    def test_one_line_per_keyword_in_order(self):
        infos = [word_info("A", "First."), word_info("B", "Second.")]
        lines = render_word_info_block(infos, EN).splitlines()
        assert lines[1:] == ["A is First.", "B is Second."]


class TestBuildP1:
    def test_plain_request(self):
        sample = en_sample()
        request = build_p1(sample, [], EN)
        assert request.purpose is Purpose.P1
        assert request.messages[0].content == EN.p1_system
        assert request.messages[1].content == sample.text

    def test_word_infos_extend_system_and_user(self):
        sample = en_sample()
        request = build_p1(sample, [word_info()], EN)
        assert request.messages[0].content == EN.p1_system + "\n" + EN.wordinfo_system_suffix
        assert request.messages[1].content == (
            sample.text + "\n" + render_word_info_block([word_info()], EN)
        )


class TestBuildP2:
    def test_plain_request(self):
        request = build_p2("the analysis", False, EN)
        assert request.purpose is Purpose.P2
        assert request.messages[0].content == EN.p2_system
        assert request.messages[1].content == "the analysis"

    def test_few_shot_appended_to_system(self):
        for templates in (EN, ID):
            request = build_p2("a1", True, templates)
            assert request.messages[0].content == (
                templates.p2_system + "\n" + templates.fewshot_header_and_examples
            )


class TestParseVerdict:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Final decision: YES", Label.SARCASTIC),
            ("Final decision: NO", Label.NOT_SARCASTIC),
            ("maybe yes, maybe no", Label.NOT_SARCASTIC),
            ("no at first, but ultimately yes", Label.SARCASTIC),
            ("Yes.", Label.SARCASTIC),
            ("Keputusan akhir: NO", Label.NOT_SARCASTIC),
            ("so: yEs", Label.SARCASTIC),
        ],
    )
    def test_last_standalone_token_wins(self, text, expected):
        assert parse_verdict(text) is expected

    @pytest.mark.parametrize("text", ["", "yesterday at noon", "nothing to say", "not sure"])
    def test_embedded_tokens_do_not_count(self, text):
        with pytest.raises(VerdictNotFound):
            parse_verdict(text)


LONG_RESULTS = [SearchResult(url="https://a.com", snippet=LONG_SNIPPET)]


def deps_for(gateway, cache_dir, search=None):
    web = None if search is None else (search, no_page)
    return PipelineDeps(gateway=gateway, cache=WordInfoCache(cache_dir), web=web)


class TestRunPipeline:
    def test_plain_variant_two_calls(self, tmp_path):
        gateway = ScriptedGateway({Purpose.P1: "an analysis", Purpose.P2: "Final decision: YES"})
        trace = run_pipeline(en_sample(), PipelineVariant.PMP, deps_for(gateway, tmp_path))
        assert gateway.purposes == [Purpose.P1, Purpose.P2]
        assert trace.keywords == ()
        assert trace.word_infos == ()
        assert (trace.p1_digest, trace.p2_digest) == tuple(r.digest for r in gateway.requests)
        assert trace.verdict is Label.SARCASTIC

    def test_p2_reads_a1_verbatim(self, tmp_path):
        gateway = ScriptedGateway({Purpose.P1: "an analysis", Purpose.P2: "Final decision: NO"})
        run_pipeline(en_sample(), PipelineVariant.PMP, deps_for(gateway, tmp_path))
        p2 = gateway.requests[-1]
        assert p2.messages[1].content == "an analysis"

    def test_tagging_variant_defines_each_keyword(self, tmp_path):
        gateway = ScriptedGateway(
            {
                Purpose.DEFINE_WORD: "The capital of France.",
                Purpose.P1: "analysis",
                Purpose.P2: "Final decision: NO",
            }
        )
        trace = run_pipeline(en_sample(), PipelineVariant.PMP_WL, deps_for(gateway, tmp_path))
        assert gateway.purposes == [Purpose.DEFINE_WORD, Purpose.P1, Purpose.P2]
        assert trace.keywords == ("Paris",)
        assert [w.keyword for w in trace.word_infos] == ["Paris"]
        p1_user = gateway.requests[1].messages[1].content
        assert "Paris is The capital of France." in p1_user

    def test_no_keywords_means_plain_p1(self, tmp_path):
        gateway = ScriptedGateway({Purpose.P1: "analysis", Purpose.P2: "Final decision: NO"})
        deps = deps_for(gateway, tmp_path)
        trace = run_pipeline(en_sample("nothing notable here"), PipelineVariant.PMP_WL, deps)
        assert gateway.purposes == [Purpose.P1, Purpose.P2]
        assert trace.word_infos == ()
        assert gateway.requests[0].messages[1].content == "nothing notable here"

    def test_web_variant_full_call_sequence(self, tmp_path):
        gateway = ScriptedGateway(
            {
                Purpose.KEYWORD_IDENTIFY: "i do not know Paris",
                Purpose.KEYWORD_CLEAN: "Paris",
                Purpose.REFINE_CHUNKS: "A city in France.",
                Purpose.P1: "analysis",
                Purpose.P2: "Final decision: YES",
            }
        )
        deps = deps_for(gateway, tmp_path, FakeSearch(LONG_RESULTS))
        trace = run_pipeline(en_sample(), PipelineVariant.PMP_WG, deps)
        assert gateway.purposes == [
            Purpose.KEYWORD_IDENTIFY,
            Purpose.KEYWORD_CLEAN,
            Purpose.REFINE_CHUNKS,
            Purpose.P1,
            Purpose.P2,
        ]
        assert trace.word_infos[0].source is RetrievalSource.GOOGLE_SEARCH
        assert trace.word_infos[0].evidence

    def test_web_variant_sentinel_means_no_retrieval(self, tmp_path):
        gateway = ScriptedGateway(
            {
                Purpose.KEYWORD_IDENTIFY: "all clear",
                Purpose.KEYWORD_CLEAN: "NO UNKNOWN",
                Purpose.P1: "analysis",
                Purpose.P2: "Final decision: NO",
            }
        )
        deps = deps_for(gateway, tmp_path, FakeSearch(LONG_RESULTS))
        trace = run_pipeline(en_sample(), PipelineVariant.PMP_WG, deps)
        assert trace.keywords == ()
        assert trace.word_infos == ()
        assert Purpose.REFINE_CHUNKS not in gateway.purposes

    def test_few_shot_variant_alters_only_p2_system(self, tmp_path):
        script = {
            Purpose.DEFINE_WORD: "The capital of France.",
            Purpose.P1: "analysis",
            Purpose.P2: "Final decision: NO",
        }
        plain = ScriptedGateway(script)
        shot = ScriptedGateway(script)
        run_pipeline(en_sample(), PipelineVariant.PMP_WL, deps_for(plain, tmp_path / "plain"))
        run_pipeline(en_sample(), PipelineVariant.PMP_WL_FS, deps_for(shot, tmp_path / "shot"))
        assert plain.purposes == shot.purposes
        plain_p2, shot_p2 = plain.requests[-1], shot.requests[-1]
        assert plain_p2.messages[1].content == shot_p2.messages[1].content
        assert shot_p2.messages[0].content == (
            EN.p2_system + "\n" + EN.fewshot_header_and_examples
        )

    def test_unavailable_definition_drops_keyword_only(self, tmp_path):
        # no search client: every web lookup is unavailable
        gateway = ScriptedGateway(
            {
                Purpose.KEYWORD_IDENTIFY: "i do not know Paris",
                Purpose.KEYWORD_CLEAN: "Paris",
                Purpose.P1: "analysis",
                Purpose.P2: "Final decision: NO",
            }
        )
        trace = run_pipeline(en_sample(), PipelineVariant.PMP_WG, deps_for(gateway, tmp_path))
        assert trace.word_infos == ()
        assert trace.verdict is Label.NOT_SARCASTIC
        assert gateway.requests[-2].messages[1].content == en_sample().text

    def test_missing_verdict_skips_sample(self, tmp_path):
        gateway = ScriptedGateway(
            {Purpose.P1: "analysis", Purpose.P2: "the reading does not converge."}
        )
        with pytest.raises(VerdictNotFound):
            run_pipeline(en_sample(), PipelineVariant.PMP, deps_for(gateway, tmp_path))

    def test_transport_failure_skips_sample(self, tmp_path):
        gateway = ScriptedGateway([TransportError("backend unreachable")])
        with pytest.raises(TransportError):
            run_pipeline(en_sample(), PipelineVariant.PMP, deps_for(gateway, tmp_path))


def define_each_keyword(request):
    """A backend's answer that defines each keyword."""
    if request.purpose is Purpose.DEFINE_WORD:
        return f"A city called {request.messages[1].content}."
    return "Final decision: YES" if request.purpose is Purpose.P2 else "analysis"


class TestDefinitionErrors:
    """Which errors in a sample's keyword definitions skip the sample, and which stop the run."""

    SAMPLE = en_sample("i saw Paris, London and Berlin yesterday")

    def test_sample_error_waits_for_every_definition(self, monkeypatch, tmp_path):
        finished = []

        def traced_get_word_info(keyword, *args, **kwargs):
            try:
                return get_word_info(keyword, *args, **kwargs)
            finally:
                finished.append(keyword)

        def quota_search(query):
            if query == "Paris":
                raise SearchQuotaExceeded("search quota rejected (429)")
            return LONG_RESULTS

        monkeypatch.setattr("sarcrag.pipeline.get_word_info", traced_get_word_info)
        gateway = ScriptedGateway(
            {
                Purpose.KEYWORD_IDENTIFY: "i do not know Paris or London",
                Purpose.KEYWORD_CLEAN: "Paris,London",
                Purpose.REFINE_CHUNKS: "A city.",
                Purpose.P1: "analysis",
                Purpose.P2: "Final decision: NO",
            }
        )
        deps = deps_for(gateway, tmp_path, FakeSearch(quota_search))
        with pytest.raises(SearchQuotaExceeded):
            run_pipeline(self.SAMPLE, PipelineVariant.PMP_WG, deps)
        assert finished == ["Paris", "London"]
        assert Purpose.P1 not in gateway.purposes

    @pytest.mark.parametrize(
        "errors",
        [
            {"Paris": StoreWriteError("disk full")},
            # A skip error first must not turn the later run-stopping error into a skip.
            {"Paris": SearchQuotaExceeded("429"), "London": StoreWriteError("disk full")},
        ],
        ids=["first_keyword", "after_a_skip_error"],
    )
    def test_run_stopping_error_is_raised_at_once(self, monkeypatch, tmp_path, errors):
        called = []

        def failing_get_word_info(keyword, *args, **kwargs):
            called.append(keyword)
            raise errors[keyword]

        monkeypatch.setattr("sarcrag.pipeline.get_word_info", failing_get_word_info)
        with pytest.raises(StoreWriteError):
            gateway = Gateway(FunctionBackend(define_each_keyword), TranscriptStore(tmp_path))
            run_pipeline(self.SAMPLE, PipelineVariant.PMP_WL, deps_for(gateway, tmp_path / "cache"))
        assert called == list(errors)


# Whether each error fails one sample only (True) or stops the run (False).
SKIPS_THE_SAMPLE = {
    "TransportError": True,
    "EmptyResponse": True,
    "MissingTranscript": True,
    "MalformedCSV": True,
    "SearchTransportError": True,
    "SearchQuotaExceeded": True,
    "SearchForbidden": False,
    "VerdictNotFound": True,
    "CorruptRecord": True,
    "ConfigError": False,
    "FormatError": False,
    "LogParseError": False,
    "StoreWriteError": False,
    "DefinitionUnavailable": False,
    "EmptyEvaluation": False,
}


def error_classes(base=SarcragError):
    for cls in base.__subclasses__():
        if cls is not SampleError:
            yield cls
        yield from error_classes(cls)


@pytest.mark.parametrize("cls", list(error_classes()), ids=lambda cls: cls.__name__)
def test_each_error_class_is_a_sample_error_or_not_by_the_table(cls):
    # A new error class must be added to the table: a decision, not an accident.
    assert SKIPS_THE_SAMPLE[cls.__name__] is issubclass(cls, SampleError)
