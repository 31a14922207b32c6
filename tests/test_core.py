"""Domain types: labels, variants, and the variant plan table."""

import pytest

from sarcrag.core import (
    DATASET_LANGUAGE,
    DatasetKind,
    ExtractionMethod,
    Label,
    LanguageTag,
    PipelineVariant,
    RetrievalSource,
    Sample,
    variant_plan,
)


class TestLabel:
    @pytest.mark.parametrize("raw", ["YES", "yes", "Yes", " yEs "])
    def test_parse_is_case_insensitive(self, raw):
        assert Label.from_verdict(raw) is Label.SARCASTIC

    def test_parse_no(self):
        assert Label.from_verdict("no") is Label.NOT_SARCASTIC

    def test_parse_rejects_other_tokens(self):
        with pytest.raises(ValueError):
            Label.from_verdict("maybe")


class TestLanguageMapping:
    def test_english_datasets(self):
        assert DATASET_LANGUAGE[DatasetKind.SEMEVAL_2018_T3] is LanguageTag.ENGLISH
        assert DATASET_LANGUAGE[DatasetKind.MUSTARD] is LanguageTag.ENGLISH

    def test_indonesian_dataset(self):
        assert DATASET_LANGUAGE[DatasetKind.TWITTER_INDONESIA] is LanguageTag.INDONESIAN


class TestVariantPlan:
    def test_pmp_has_no_extras(self):
        plan = variant_plan(PipelineVariant.PMP)
        assert plan.extraction is None
        assert plan.retrieval is None
        assert plan.few_shot is False

    def test_pmpwg_fs_row(self):
        plan = variant_plan(PipelineVariant.PMP_WG_FS)
        assert plan.extraction is ExtractionMethod.LLM_BASED
        assert plan.retrieval is RetrievalSource.GOOGLE_SEARCH
        assert plan.few_shot is True

    def test_pmpwl_pairing(self):
        plan = variant_plan(PipelineVariant.PMP_WL)
        assert plan.extraction is ExtractionMethod.TOKEN_TAGGING
        assert plan.retrieval is RetrievalSource.LLM_ONLY
        assert plan.few_shot is False

    def test_total_and_deterministic(self):
        for variant in PipelineVariant:
            assert variant_plan(variant) == variant_plan(variant)

    def test_pairing_is_unique_per_retrieval_source(self):
        pairings = {}
        for variant in PipelineVariant:
            plan = variant_plan(variant)
            if plan.retrieval is None:
                assert plan.extraction is None
                continue
            pairings.setdefault(plan.retrieval, set()).add(plan.extraction)
        assert pairings[RetrievalSource.LLM_ONLY] == {ExtractionMethod.TOKEN_TAGGING}
        assert pairings[RetrievalSource.GOOGLE_SEARCH] == {ExtractionMethod.LLM_BASED}


class TestSample:
    def _sample(self, **overrides):
        base = dict(
            id="semeval:1",
            text="sweet video",
            gold=Label.SARCASTIC,
            language=LanguageTag.ENGLISH,
        )
        base.update(overrides)
        return Sample(**base)

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            self._sample(text="")

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            self._sample(id="")
