"""Core value types: samples, labels, datasets, languages, pipeline variants."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Label(enum.Enum):
    SARCASTIC = "YES"
    NOT_SARCASTIC = "NO"

    @classmethod
    def from_verdict(cls, text: str) -> "Label":
        folded = text.strip().casefold()
        if folded == "yes":
            return cls.SARCASTIC
        if folded == "no":
            return cls.NOT_SARCASTIC
        raise ValueError(f"not a verdict: {text!r}")


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

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if not self.text:
            raise ValueError(f"sample {self.id}: text must be non-empty")


class ExtractionMethod(enum.Enum):
    TOKEN_TAGGING = "token_tagging"
    LLM_BASED = "llm_based"


class RetrievalSource(enum.Enum):
    LLM_ONLY = "llm_only"
    GOOGLE_SEARCH = "google_search"


class PipelineVariant(enum.Enum):
    PMP = "pmp"
    PMP_WL = "pmpwl"
    PMP_WG = "pmpwg"
    PMP_WL_FS = "pmpwl-fs"
    PMP_WG_FS = "pmpwg-fs"


@dataclass(frozen=True)
class VariantPlan:
    extraction: ExtractionMethod | None
    retrieval: RetrievalSource | None
    few_shot: bool


_PLANS: dict[PipelineVariant, VariantPlan] = {
    PipelineVariant.PMP: VariantPlan(None, None, False),
    PipelineVariant.PMP_WL: VariantPlan(
        ExtractionMethod.TOKEN_TAGGING, RetrievalSource.LLM_ONLY, False
    ),
    PipelineVariant.PMP_WG: VariantPlan(
        ExtractionMethod.LLM_BASED, RetrievalSource.GOOGLE_SEARCH, False
    ),
    PipelineVariant.PMP_WL_FS: VariantPlan(
        ExtractionMethod.TOKEN_TAGGING, RetrievalSource.LLM_ONLY, True
    ),
    PipelineVariant.PMP_WG_FS: VariantPlan(
        ExtractionMethod.LLM_BASED, RetrievalSource.GOOGLE_SEARCH, True
    ),
}


def variant_plan(variant: PipelineVariant) -> VariantPlan:
    """Map a pipeline variant to its extraction method, retrieval source and few-shot flag."""
    return _PLANS[variant]
