"""Keyword extraction: tagging heuristic, model-based extraction, CSV parsing."""

import re
import string

import pytest
from fakes import ScriptedGateway
from hypothesis import given, settings
from hypothesis import strategies as st

from sarcrag.core import Label, LanguageTag, Sample
from sarcrag.errors import MalformedCSV
from sarcrag.gateway import Purpose
from sarcrag.keywords import (
    extract_llm_based,
    extract_token_tagging,
    parse_csv_keywords,
    proper_noun_runs,
)


def sample_of(text, language=LanguageTag.ENGLISH):
    return Sample(id="t:1", text=text, gold=Label.SARCASTIC, language=language)


class TestHeuristicTagger:
    """proper_noun_runs: capitalized non-stopword words, merged into runs."""

    def test_capitalized_non_stopword(self):
        assert proper_noun_runs("I love Paris in winter") == ["Paris"]

    def test_no_capitalized_tokens(self):
        assert proper_noun_runs("i love winter") == []

    def test_adjacent_capitalized_tokens_merge(self):
        assert proper_noun_runs("Elon Musk founded SpaceX") == ["Elon Musk", "SpaceX"]

    def test_runs_broken_by_lowercase_words(self):
        assert proper_noun_runs("Chandler said Monica loves Paris") == [
            "Chandler",
            "Monica",
            "Paris",
        ]

    def test_capitalized_stopwords_excluded(self):
        assert proper_noun_runs("The cat sat on It") == []

    def test_no_merge_across_sentence_boundary(self):
        assert proper_noun_runs("they saw Paris. Monica left") == ["Paris", "Monica"]

    def test_no_merge_across_newline(self):
        assert proper_noun_runs("loved Paris\nMonica agreed") == ["Paris", "Monica"]

    def test_punctuation_stripped_from_surfaces(self):
        assert proper_noun_runs('she shouted "Heathrow!" twice') == ["Heathrow"]

    def test_spans_index_into_text(self):
        assert proper_noun_runs("visiting Kuala Lumpur soon") == ["Kuala Lumpur"]

    @pytest.mark.parametrize(
        "text,expected",
        [
            # Whitespace that ends no line joins, whatever its kind.
            pytest.param("Kuala\xa0Lumpur", ["Kuala\xa0Lumpur"], id="no-break-space"),
            pytest.param("Paris\u2028Monica", ["Paris\u2028Monica"], id="line-separator"),
            pytest.param("Paris\x85Monica", ["Paris\x85Monica"], id="next-line"),
            pytest.param("Paris\x0cMonica", ["Paris\x0cMonica"], id="form-feed"),
            pytest.param("Paris \t Monica", ["Paris \t Monica"], id="spaces-and-tab"),
            # A line end splits, also with spaces or tabs around it.
            pytest.param("Paris\r\nMonica", ["Paris", "Monica"], id="crlf"),
            pytest.param("Paris \n Monica", ["Paris", "Monica"], id="newline-between-spaces"),
            pytest.param("Paris\n\tMonica", ["Paris", "Monica"], id="newline-then-tab"),
            # Punctuation between words splits, sentence-final or not.
            pytest.param("Really?  Monica left", ["Really", "Monica"], id="question-mark"),
            pytest.param("Wait!\n Monica left", ["Wait", "Monica"], id="exclamation-then-newline"),
            pytest.param("Paris, Monica", ["Paris", "Monica"], id="comma"),
        ],
    )
    def test_joins_only_across_whitespace_that_ends_no_line(self, text, expected):
        assert proper_noun_runs(text) == expected

    @given(st.text(alphabet="Ab .!?,'\"\n\t\r\xa0\u2028", max_size=40))
    @settings(max_examples=300)
    def test_spans_are_ordered_in_bounds_and_disjoint(self, text):
        """The runs occur in the text in order and do not overlap."""
        previous_end = 0
        for run in proper_noun_runs(text):
            start = text.find(run, previous_end)
            assert start >= 0 and run
            previous_end = start + len(run)


class TestExtractTokenTagging:
    def test_case_fold_dedup_keeps_first(self):
        keywords = extract_token_tagging(sample_of("Paris is nice but PARIS is better"))
        assert keywords == ("Paris",)

    def test_empty_when_no_proper_nouns(self):
        keywords = extract_token_tagging(sample_of("nothing notable here"))
        assert keywords == ()
        assert not keywords

    def test_output_subset_of_tagged_surfaces(self):
        text = "Chandler told Monica that Paris beats London in winter"
        surfaces = set(proper_noun_runs(text))
        keywords = extract_token_tagging(sample_of(text))
        assert set(keywords) <= surfaces

    def test_keyword_count_cap(self):
        # "and" breaks merge runs so each name stays a separate keyword
        text = " and ".join(f"City{letter}" for letter in string.ascii_uppercase[:12])
        keywords = extract_token_tagging(sample_of(text))
        assert len(keywords) == 8

    def test_overlong_keywords_dropped(self):
        run = "Alpha Beta Gamma Delta Epsilon Zeta"  # 6 tokens, one merged run
        keywords = extract_token_tagging(sample_of(run))
        assert keywords == ()


class TestExtractLlmBased:
    def test_two_calls_identify_then_csv(self):
        gateway = ScriptedGateway(["saya tidak mengerti wkwk, kw, IPB", "wkwk,kw,IPB"])
        sample = sample_of("jam kw wkwk", language=LanguageTag.INDONESIAN)
        keywords = extract_llm_based(sample, gateway)
        assert keywords == ("wkwk", "kw", "IPB")
        assert [r.purpose for r in gateway.requests] == [
            Purpose.KEYWORD_IDENTIFY,
            Purpose.KEYWORD_CLEAN,
        ]
        # call 1 reads the sample text; call 2 reads call 1's answer
        assert gateway.requests[0].messages[1].content == "jam kw wkwk"
        assert gateway.requests[1].messages[1].content == "saya tidak mengerti wkwk, kw, IPB"

    def test_no_unknown_sentinel_yields_empty_set(self):
        gateway = ScriptedGateway(["all words are clear", "NO UNKNOWN"])
        keywords = extract_llm_based(sample_of("plain text"), gateway)
        assert keywords == ()

    def test_example_output_from_prompt(self):
        gateway = ScriptedGateway(["some words", "first,second,third"])
        keywords = extract_llm_based(sample_of("text"), gateway)
        assert keywords == ("first", "second", "third")

    def test_malformed_csv_propagates(self):
        gateway = ScriptedGateway(["words", "these are not comma separated values"])
        with pytest.raises(MalformedCSV):
            extract_llm_based(sample_of("text"), gateway)


class TestParseCsvKeywords:
    def test_only_splits_and_strips(self):
        # Blank and repeated items are _cap_keywords' to drop.
        assert parse_csv_keywords(" a , A ,,c ") == ["a", "A", "", "c"]

    @given(
        st.lists(
            st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200)
    def test_idempotent_on_csv_inputs(self, tokens):
        parsed = parse_csv_keywords(",".join(tokens))
        assert parse_csv_keywords(",".join(parsed)) == parsed


class TestKeywordSet:
    """The keyword set an extractor returns: unique after case folding, each with a word character."""

    def test_rejects_case_fold_duplicates(self):
        gateway = ScriptedGateway(["words", "Paris, PARIS, kw, paris, KW"])
        assert extract_llm_based(sample_of("text"), gateway) == ("Paris", "kw")

    def test_rejects_pure_punctuation(self):
        gateway = ScriptedGateway(["words", "!!!, kw, ..., _"])
        assert extract_llm_based(sample_of("text"), gateway) == ("kw",)

    def test_may_be_empty(self):
        assert extract_llm_based(sample_of("text"), ScriptedGateway(["words", "!!!, ..."])) == ()

    @given(st.text(alphabet="aAbBßS _!,.-", max_size=40))
    @settings(max_examples=200)
    def test_llm_based_output_unique_and_wordy(self, answer):
        gateway = ScriptedGateway(["words", answer])
        try:
            keywords = extract_llm_based(sample_of("text"), gateway)
        except MalformedCSV:
            return
        folded = [k.casefold() for k in keywords]
        assert len(set(folded)) == len(folded)
        assert all(re.search(r"[^\W_]", k) for k in keywords)
