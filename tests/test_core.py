"""Domain types: languages, and each variant's definition source and few-shot flag."""

import pytest

from sarcrag.core import (
    DATASET_LANGUAGE,
    DatasetKind,
    LanguageTag,
    PipelineVariant,
    RetrievalSource,
)


class TestLanguageMapping:
    def test_english_datasets(self):
        assert DATASET_LANGUAGE[DatasetKind.SEMEVAL_2018_T3] is LanguageTag.ENGLISH
        assert DATASET_LANGUAGE[DatasetKind.MUSTARD] is LanguageTag.ENGLISH

    def test_indonesian_dataset(self):
        assert DATASET_LANGUAGE[DatasetKind.TWITTER_INDONESIA] is LanguageTag.INDONESIAN


class TestPipelineVariant:
    EXPECTED = {
        PipelineVariant.PMP: (None, False),
        PipelineVariant.PMP_WL: (RetrievalSource.LLM_ONLY, False),
        PipelineVariant.PMP_WG: (RetrievalSource.GOOGLE_SEARCH, False),
        PipelineVariant.PMP_WL_FS: (RetrievalSource.LLM_ONLY, True),
        PipelineVariant.PMP_WG_FS: (RetrievalSource.GOOGLE_SEARCH, True),
    }

    @pytest.mark.parametrize("variant", PipelineVariant, ids=lambda variant: variant.value)
    def test_definition_source_and_few_shot(self, variant):
        assert (variant.retrieval, variant.few_shot) == self.EXPECTED[variant]
