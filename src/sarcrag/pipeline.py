"""Two-call analysis pipelines: prompt assembly, execution, and verdict parsing.

The first call (P1) produces a preliminary pragmatic analysis of the input
text, optionally grounded by keyword definitions. The second call (P2) reflects
on that analysis, optionally guided by worked examples, and ends with a YES/NO
verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Label, PipelineVariant, RetrievalSource, Sample
from .errors import DefinitionUnavailable, SampleError, VerdictNotFound
from .gateway import ChatRequest, Gateway, Purpose, chat_request
from .keywords import extract_llm_based, extract_token_tagging
from .retrieval import PageFetcher, SearchPort, WordInfo, WordInfoCache, get_word_info
from .templates import PromptTemplateSet, load_templates

# Connective between a keyword and its definition in the word-info block.
_CONNECTIVE = {"en": "is", "id": "adalah"}


def render_word_info_block(
    word_infos: list[WordInfo] | tuple[WordInfo, ...], templates: PromptTemplateSet
) -> str:
    connective = _CONNECTIVE[templates.language.value]
    lines = [f"{info.keyword} {connective} {info.definition}" for info in word_infos]
    return templates.wordinfo_user_header + "\n" + "\n".join(lines)


def build_p1(
    sample: Sample,
    word_infos: list[WordInfo] | tuple[WordInfo, ...],
    templates: PromptTemplateSet,
) -> ChatRequest:
    """P1 request: analysis instructions, plus keyword definitions when available."""
    system = templates.p1_system
    user = sample.text
    if word_infos:
        system = system + "\n" + templates.wordinfo_system_suffix
        user = user + "\n" + render_word_info_block(word_infos, templates)
    return chat_request(Purpose.P1, system, user)


def build_p2(a1: str, few_shot: bool, templates: PromptTemplateSet) -> ChatRequest:
    """P2 request: reflection instructions, plus the worked examples when few_shot."""
    system = templates.p2_system
    if few_shot:
        system = system + "\n" + templates.fewshot_header_and_examples
    return chat_request(Purpose.P2, system, a1)


_VERDICT = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def parse_verdict(a2: str) -> Label:
    """Label of the last standalone YES/NO token in the reflection."""
    matches = _VERDICT.findall(a2)
    if not matches:
        raise VerdictNotFound("no standalone YES or NO in reflection")
    return Label(matches[-1].upper())


@dataclass
class PipelineDeps:
    """Everything run_pipeline may need; which parts are used depends on the variant."""

    gateway: Gateway
    cache: WordInfoCache
    web: tuple[SearchPort, PageFetcher] | None = None


@dataclass(frozen=True)
class PipelineTrace:
    keywords: tuple[str, ...]
    word_infos: tuple[WordInfo, ...]
    p1_digest: str
    p2_digest: str
    verdict: Label


def run_pipeline(
    sample: Sample, variant: PipelineVariant, deps: PipelineDeps
) -> PipelineTrace:
    """Execute one sample through the chosen variant: keywords, definitions, P1, P2.

    Of the keyword definitions, DefinitionUnavailable drops only its keyword. A
    SampleError lets the sample's other keywords still be defined, so a run
    defines the same keywords on any schedule; then the first one, in keyword
    order, is raised. Any other error (such as StoreWriteError) is raised at once.
    """
    templates = load_templates(sample.language)
    keywords: tuple[str, ...] = ()
    if variant.retrieval is RetrievalSource.LLM_ONLY:
        keywords = extract_token_tagging(sample)
    elif variant.retrieval is RetrievalSource.GOOGLE_SEARCH:
        keywords = extract_llm_based(sample, deps.gateway)
    word_infos: list[WordInfo] = []
    definition_error: SampleError | None = None
    for keyword in keywords:
        try:
            word_infos.append(
                get_word_info(
                    keyword,
                    variant.retrieval,
                    deps.gateway,
                    sample.language,
                    cache=deps.cache,
                    web=deps.web,
                )
            )
        except DefinitionUnavailable:
            continue
        except SampleError as exc:
            definition_error = definition_error or exc
    if definition_error is not None:
        raise definition_error
    p1_request = build_p1(sample, word_infos, templates)
    p2_request = build_p2(deps.gateway.chat(p1_request), variant.few_shot, templates)
    verdict = parse_verdict(deps.gateway.chat(p2_request))
    return PipelineTrace(
        keywords=keywords,
        word_infos=tuple(word_infos),
        p1_digest=p1_request.digest,
        p2_digest=p2_request.digest,
        verdict=verdict,
    )
