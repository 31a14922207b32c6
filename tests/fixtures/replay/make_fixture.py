"""Rebuild the committed replay fixture: transcripts and definition cache.

Runs the real pipelines against a scripted in-memory backend whose answers are
a pure function of the request, so regeneration is deterministic. Run from the
repository root:

    python tests/fixtures/replay/make_fixture.py [OUT_DIR]

OUT_DIR defaults to this directory, the committed fixture; its `transcripts/`
and `cache/` are replaced. Everything is recorded for the model
`fixture-model`, so transcripts go in `transcripts/fixture-model/` and
definitions in `cache/fixture-model/<language>/`, as `sarcrag run` keys them.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

from sarcrag.core import (
    DATASET_LANGUAGE,
    DatasetKind,
    LanguageTag,
    PipelineVariant,
    RetrievalSource,
)
from sarcrag.datasets import load_dataset
from sarcrag.errors import SampleError
from sarcrag.gateway import ChatRequest, Gateway, Purpose, TranscriptStore
from sarcrag.pipeline import PipelineDeps, run_pipeline
from sarcrag.retrieval import WordInfo, WordInfoCache

FIXTURE = Path(__file__).resolve().parent
MODEL = "fixture-model"

RUNS = [
    (DatasetKind.SEMEVAL_2018_T3, "semeval_mini.tsv", PipelineVariant.PMP_WL),
    (DatasetKind.MUSTARD, "mustard_mini.json", PipelineVariant.PMP_WL),
    (DatasetKind.TWITTER_INDONESIA, "twitter_mini.csv", PipelineVariant.PMP_WG),
]

# One sample stays verdict-less to exercise the skip path.
VERDICTS = {
    "semeval:1": "YES",
    "semeval:2": "NO",
    "semeval:3": "NO",
    "semeval:4": None,
    "mustard:f_001": "YES",
    "mustard:f_002": "YES",
    "mustard:f_003": "YES",
    "mustard:f_004": "NO",
    "twitter-id:0": "YES",
    "twitter-id:1": "NO",
    "twitter-id:2": "NO",
    "twitter-id:3": "NO",
}

IDENTIFY = {
    "Keren banget jam kw ini, baru seminggu udah mati wkwk":
        "Kata-kata yang tidak saya mengerti: wkwk dan kw.",
    "senang sekali bisa berkumpul dengan keluarga di hari raya":
        "Saya mengerti semua kata dalam teks ini.",
    "mantap banget nilai IPB turun semua gara gara begadang wkwk":
        "Kata-kata yang tidak saya mengerti: IPB dan wkwk.",
    "akhirnya hujan turun setelah berminggu minggu panas":
        "Semua kata dalam teks ini saya pahami.",
}

CLEAN = {
    "Kata-kata yang tidak saya mengerti: wkwk dan kw.": "wkwk,kw",
    "Saya mengerti semua kata dalam teks ini.": "NO UNKNOWN",
    "Kata-kata yang tidak saya mengerti: IPB dan wkwk.": "IPB,wkwk",
    "Semua kata dalam teks ini saya pahami.": "NO UNKNOWN",
}

DEFINITIONS = {
    "United Nations": "an international organization founded in 1945 to keep peace between countries.",
    "Christmas": "a Christian holiday celebrated every 25 December.",
    "Heathrow": "a major international airport serving London.",
    "Penny": "a character from an American sitcom set in Pasadena.",
    "Pasadena": "a city in Los Angeles County, California.",
}

WEB_DEFINITIONS = {
    "wkwk": "sebuah ekspresi tawa yang sering dipakai dalam percakapan di media sosial.",
    "kw": "singkatan yang merujuk pada barang tiruan dengan kualitas lebih rendah dari produk asli.",
    "IPB": "sebuah universitas di Indonesia yang berlokasi di Bogor.",
}

_SID = re.compile(r"analysis\[([^\]]+)\]")


class ScriptedBackend:
    """Answers every request by table lookup; unknown requests are fixture bugs."""

    def __init__(self, text_to_sid: dict[str, str]) -> None:
        self.text_to_sid = text_to_sid

    def complete(self, request: ChatRequest) -> str:
        user = request.messages[1].content
        if request.purpose is Purpose.P1:
            sid = self.text_to_sid[user.split("\n", 1)[0]]
            return (
                f"analysis[{sid}]: the statement was restated and the speaker's "
                "stance was compared against the described situation."
            )
        if request.purpose is Purpose.P2:
            sid = _SID.search(user).group(1)
            verdict = VERDICTS[sid]
            if verdict is None:
                return f"reflection[{sid}]: the reflection does not converge on a single reading."
            return (
                f"reflection[{sid}]: the preliminary analysis was summarized "
                f"and weighed against the wording.\nFinal decision: {verdict}"
            )
        if request.purpose is Purpose.KEYWORD_IDENTIFY:
            return IDENTIFY[user]
        if request.purpose is Purpose.KEYWORD_CLEAN:
            return CLEAN[user]
        if request.purpose is Purpose.DEFINE_WORD:
            return DEFINITIONS[user]
        raise KeyError(f"unscripted purpose {request.purpose}")


def main(out: Path = FIXTURE) -> None:
    transcripts = out / "transcripts"
    cache_dir = out / "cache"
    for directory in (transcripts, cache_dir):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)

    def cache_for(language: LanguageTag) -> WordInfoCache:
        return WordInfoCache(cache_dir / MODEL / language.value)

    for keyword, definition in WEB_DEFINITIONS.items():
        cache_for(LanguageTag.INDONESIAN).store(
            WordInfo(
                keyword=keyword,
                definition=definition,
                source=RetrievalSource.GOOGLE_SEARCH,
                evidence=((f"https://contoh.example/kamus/{keyword.lower()}", 0),),
            )
        )

    store = TranscriptStore(transcripts / MODEL)
    for kind, filename, variant in RUNS:
        samples = load_dataset(kind, FIXTURE / "data" / filename)
        text_to_sid = {s.text: s.id for s in samples}
        gateway = Gateway(ScriptedBackend(text_to_sid), store=store)
        deps = PipelineDeps(gateway=gateway, cache=cache_for(DATASET_LANGUAGE[kind]))
        for sample in samples:
            try:
                trace = run_pipeline(sample, variant, deps)
                print(f"{sample.id}: {trace.verdict.value} keywords={list(trace.keywords or ())}")
            except SampleError as exc:
                print(f"{sample.id}: skipped ({type(exc).__name__}: {exc})")

    n_transcripts = len(list(transcripts.rglob("*.json")))
    n_cached = len(list(cache_dir.rglob("*.json")))
    print(f"fixture rebuilt: {n_transcripts} transcripts, {n_cached} cached definitions")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE)
