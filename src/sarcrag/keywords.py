"""Keyword extraction: a proper-noun tagging heuristic and the two-call model procedure.

Token tagging keeps the proper nouns found by HeuristicTagger; the model-based
path first asks which words the model does not understand, then asks it to
reformat that answer as CSV.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Sample
from .errors import MalformedCSV
from .gateway import ChatMessage, ChatRequest, Gateway, Purpose, Role
from .templates import load_templates

MAX_KEYWORD_TOKENS = 5
MAX_KEYWORD_CHARS = 64
MAX_KEYWORDS_PER_SAMPLE = 8

NO_UNKNOWN_SENTINEL = "NO UNKNOWN"

# Case-folded words that never count as proper nouns even when capitalized.
STOPWORDS = frozenset(
    """
    a an the i you he she it we they me him her us them my your his its our
    their mine yours this that these those there here what which who whom
    whose why how when where am is are was were be been being do does did
    done have has had having will would shall should can could may might
    must not no yes and or but if then else while for to of in on at by
    with from as into over under about after before between during again
    once all any both each few more most other some such only own same so
    than too very just now also oh ok okay well
    yang dan di ke dari ini itu dengan untuk pada adalah atau juga tidak
    bukan tak saya aku kamu anda dia ia kami kita mereka ada akan sudah
    telah belum bisa dapat harus karena jika kalau tapi tetapi namun seperti
    lebih paling sangat banget sekali saat ketika apa siapa mengapa kenapa
    bagaimana dimana mana lagi masih pas kok sih deh dong nih tuh ya iya
    yah nya pun para oleh agar supaya hingga sampai
    """.split()
)


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    char_span: tuple[int, int]


def _has_word_char(token: str) -> bool:
    return re.search(r"[^\W_]", token) is not None


def is_sentence_initial(text: str, start: int) -> bool:
    """True when only whitespace, or a sentence terminator plus whitespace, precedes start."""
    prefix = text[:start]
    trimmed = prefix.rstrip(" \t\r\f\v")
    if not trimmed or trimmed.endswith(("\n", ".", "!", "?")):
        return True
    return False


def _word_spans(text: str) -> list[tuple[str, int, int]]:
    """Whitespace tokens with leading/trailing punctuation stripped, plus their spans."""
    spans = []
    for match in re.finditer(r"\S+", text):
        raw = match.group()
        head = len(raw) - len(raw.lstrip("\"'([{¡¿«„“‘"))
        tail = len(raw) - len(raw.rstrip("\"')]},.;:!?«»”’…"))
        core = raw[head : len(raw) - tail] if tail else raw[head:]
        if not core:
            continue
        spans.append((core, match.start() + head, match.start() + head + len(core)))
    return spans


class HeuristicTagger:
    """Tags capitalized non-stopword tokens as proper nouns, merging adjacent runs.

    Tokens come out in text order with disjoint, in-bounds spans. A run never
    crosses a sentence boundary and never spans intervening punctuation, so
    "loves Paris. Monica said" yields two separate tokens.
    """

    def tag(self, text: str) -> list[TaggedToken]:
        tokens: list[TaggedToken] = []
        run: list[tuple[str, int, int]] = []

        def flush() -> None:
            if not run:
                return
            start, end = run[0][1], run[-1][2]
            tokens.append(TaggedToken(surface=text[start:end], char_span=(start, end)))
            run.clear()

        for core, start, end in _word_spans(text):
            qualifies = core[0].isupper() and core.casefold() not in STOPWORDS
            if not qualifies:
                flush()
                continue
            if run:
                between = text[run[-1][2] : start]
                adjacent = between.strip() == "" and not is_sentence_initial(text, start)
                if not adjacent:
                    flush()
            run.append((core, start, end))
        flush()
        return tokens


def _cap_keywords(candidates: list[str]) -> tuple[str, ...]:
    """Dedup case-insensitively in order, drop degenerate entries, bound the set size."""
    seen: set[str] = set()
    kept: list[str] = []
    for candidate in candidates:
        candidate = candidate.strip()
        if not candidate or not _has_word_char(candidate):
            continue
        if len(candidate.split()) > MAX_KEYWORD_TOKENS or len(candidate) > MAX_KEYWORD_CHARS:
            continue
        folded = candidate.casefold()
        if folded in seen:
            continue
        seen.add(folded)
        kept.append(candidate)
        if len(kept) == MAX_KEYWORDS_PER_SAMPLE:
            break
    return tuple(kept)


def extract_token_tagging(sample: Sample) -> tuple[str, ...]:
    surfaces = [token.surface for token in HeuristicTagger().tag(sample.text)]
    return _cap_keywords(surfaces)


def extract_llm_based(sample: Sample, gateway: Gateway) -> tuple[str, ...]:
    """Ask the model which words it does not understand, then reformat the answer as CSV."""
    templates = load_templates(sample.language)
    identify = gateway.chat(
        ChatRequest(
            messages=(
                ChatMessage(Role.SYSTEM, templates.keyword_identify),
                ChatMessage(Role.USER, sample.text),
            ),
            purpose=Purpose.KEYWORD_IDENTIFY,
        )
    )
    cleaned = gateway.chat(
        ChatRequest(
            messages=(
                ChatMessage(Role.SYSTEM, templates.keyword_csv),
                ChatMessage(Role.USER, identify.response_text),
            ),
            purpose=Purpose.KEYWORD_CLEAN,
        )
    )
    return _cap_keywords(parse_csv_keywords(cleaned.response_text))


def parse_csv_keywords(raw: str) -> list[str]:
    """Split comma-separated keywords; the NO UNKNOWN sentinel means an empty list."""
    stripped = raw.strip()
    if stripped.casefold() == NO_UNKNOWN_SENTINEL.casefold():
        return []
    if "," in stripped:
        items = [item.strip() for item in stripped.split(",")]
    elif _word_like_count(stripped) > 1:
        raise MalformedCSV(f"expected comma-separated values, got: {stripped[:80]!r}")
    else:
        items = [stripped]
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if not item:
            continue
        folded = item.casefold()
        if folded in seen:
            continue
        seen.add(folded)
        out.append(item)
    return out


def _word_like_count(text: str) -> int:
    return sum(1 for token in text.split() if _has_word_char(token))
