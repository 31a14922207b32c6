"""Core value types: samples, labels, datasets, languages, pipeline variants."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Label(enum.Enum):
    SARCASTIC = "YES"
    NOT_SARCASTIC = "NO"


class DatasetKind(enum.Enum):
    SEMEVAL_2018_T3 = "semeval"
    MUSTARD = "mustard"
    TWITTER_INDONESIA = "twitter-id"


class LanguageTag(enum.Enum):
    ENGLISH = "en"
    INDONESIAN = "id"


# Every dataset carries exactly one working language.
DATASET_LANGUAGE: dict[DatasetKind, LanguageTag] = {
    DatasetKind.SEMEVAL_2018_T3: LanguageTag.ENGLISH,
    DatasetKind.MUSTARD: LanguageTag.ENGLISH,
    DatasetKind.TWITTER_INDONESIA: LanguageTag.INDONESIAN,
}


@dataclass(frozen=True)
class Sample:
    id: str
    text: str
    gold: Label
    language: LanguageTag


class RetrievalSource(enum.Enum):
    LLM_ONLY = "llm_only"
    GOOGLE_SEARCH = "google_search"


class PipelineVariant(enum.Enum):
    PMP = "pmp"
    PMP_WL = "pmpwl"
    PMP_WG = "pmpwg"
    PMP_WL_FS = "pmpwl-fs"
    PMP_WG_FS = "pmpwg-fs"

    @property
    def retrieval(self) -> RetrievalSource | None:
        """Where keyword definitions come from; None for a variant without them."""
        return _VARIANT_FACTS[self][0]

    @property
    def few_shot(self) -> bool:
        """Whether P2 carries the worked examples."""
        return _VARIANT_FACTS[self][1]


# Each variant's definition source and few-shot flag. The source also fixes how
# keywords are extracted: token tagging for LLM_ONLY, the model for GOOGLE_SEARCH.
_VARIANT_FACTS: dict[PipelineVariant, tuple[RetrievalSource | None, bool]] = {
    PipelineVariant.PMP: (None, False),
    PipelineVariant.PMP_WL: (RetrievalSource.LLM_ONLY, False),
    PipelineVariant.PMP_WG: (RetrievalSource.GOOGLE_SEARCH, False),
    PipelineVariant.PMP_WL_FS: (RetrievalSource.LLM_ONLY, True),
    PipelineVariant.PMP_WG_FS: (RetrievalSource.GOOGLE_SEARCH, True),
}
