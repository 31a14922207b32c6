"""Keyword extraction: a proper-noun tagging heuristic and the two-call model procedure.

Token tagging keeps the runs of capitalized words that proper_noun_runs finds;
the model-based path first asks which words the model does not understand, then
asks it to reformat that answer as CSV.
"""

from __future__ import annotations

import re

from .core import Sample
from .errors import MalformedCSV
from .gateway import Gateway, Purpose, chat_request
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


def _has_word_char(token: str) -> bool:
    return re.search(r"[^\W_]", token) is not None


def proper_noun_runs(text: str) -> list[str]:
    """Capitalized non-stopword words in text order, adjacent ones merged into one run.

    Each word is stripped of leading and trailing punctuation. Two tagged words join
    only when whitespace alone lies between them and that whitespace, less its
    trailing spaces and tabs, does not end a line. So "loves Paris. Monica said", and
    two names on consecutive lines, each give two runs; "Kuala Lumpur" gives one.
    """
    spans: list[list[int]] = []
    previous_tagged = False
    for match in re.finditer(r"\S+", text):
        opened = match.group().lstrip("\"'([{¡¿«„“‘")
        word = opened.rstrip("\"')]},.;:!?«»”’…")
        start = match.end() - len(opened)
        tagged = bool(word) and word[0].isupper() and word.casefold() not in STOPWORDS
        if tagged and previous_tagged:
            between = text[spans[-1][1] : start]
            if between.isspace() and not between.rstrip(" \t\r\f\v").endswith("\n"):
                spans[-1][1] = start + len(word)
                continue
        if tagged:
            spans.append([start, start + len(word)])
        previous_tagged = tagged
    return [text[start:end] for start, end in spans]


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
    return _cap_keywords(proper_noun_runs(sample.text))


def extract_llm_based(sample: Sample, gateway: Gateway) -> tuple[str, ...]:
    """Ask the model which words it does not understand, then reformat the answer as CSV."""
    templates = load_templates(sample.language)
    identified = gateway.chat(
        chat_request(Purpose.KEYWORD_IDENTIFY, templates.keyword_identify, sample.text)
    )
    cleaned = gateway.chat(chat_request(Purpose.KEYWORD_CLEAN, templates.keyword_csv, identified))
    return _cap_keywords(parse_csv_keywords(cleaned))


def parse_csv_keywords(raw: str) -> list[str]:
    """Split comma-separated keywords, each stripped; the NO UNKNOWN sentinel means an
    empty list. Blank and repeated items are left for _cap_keywords to drop."""
    stripped = raw.strip()
    if stripped.casefold() == NO_UNKNOWN_SENTINEL.casefold():
        return []
    if "," in stripped:
        return [item.strip() for item in stripped.split(",")]
    if _word_like_count(stripped) > 1:
        raise MalformedCSV(f"expected comma-separated values, got: {stripped[:80]!r}")
    return [stripped]


def _word_like_count(text: str) -> int:
    return sum(1 for token in text.split() if _has_word_char(token))
