"""Acceptance checks for the whole package.

Every check runs offline except the final live smoke test, which is skipped
unless a local model endpoint is configured. The headline benchmark scores the
pipelines were designed around depend on live model generations and live web
search, so correctness is asserted instead against independent references (the
BM25 oracle script, scikit-learn, the committed golden prompts and replay
fixture) and by checks over the whole package (call sequences under record and
replay, replay determinism, keyword parsing).
"""

import json
import os
import random
import socket
import string
import time
from pathlib import Path

import pytest
from fakes import (
    FIXTURE,
    FakeSearch,
    FunctionBackend,
    ScriptedGateway,
    keyword_set,
    load_script,
    no_page,
    patch_endpoints,
    run,
)

from sarcrag.core import (
    DatasetKind,
    Label,
    LanguageTag,
    PipelineVariant,
    RetrievalSource,
    Sample,
)
from sarcrag.datasets import load_dataset
from sarcrag.errors import MalformedCSV
from sarcrag.evaluation import ConfusionMatrix, macro_metrics
from sarcrag.gateway import Gateway, Purpose, Role, TranscriptStore
from sarcrag.keywords import parse_csv_keywords
from sarcrag.pipeline import PipelineDeps, build_p1, build_p2, run_pipeline
from sarcrag.retrieval import (
    DEFAULT_TOP_K,
    Chunk,
    SearchResult,
    WordInfoCache,
    bm25_scores,
    chunk_document,
    rank_chunks,
)
from sarcrag.templates import load_templates

GOLDEN = Path(__file__).parent / "golden"
# Plain restatements of BM25 and of prompt composition, the oracles; the prompt
# script also holds the inputs of the golden prompts.
BM25 = load_script(GOLDEN / "bm25_oracle.py")
PROMPTS = load_script(GOLDEN / "make_prompt_goldens.py")


# --- 1. ranking equivalence against a brute-force oracle -----------------


VOCAB = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa", "w1", "w2",
]


URLS = ["https://a.com", "https://b.com", "https://c.com"]


def assert_ranking_matches_oracle(rng, chunks):
    """Scores and top-k order of chunks equal the oracle's over their whitespace-split texts."""
    docs = [c.text.split() for c in chunks]
    query = rng.sample(VOCAB, rng.randint(1, 3))
    got_scores = bm25_scores(" ".join(query), chunks)
    assert len(got_scores) == len(chunks)
    for got, doc in zip(got_scores, docs):
        want = BM25.score(query, doc, docs)
        assert abs(got - want) <= 1e-9
    got_order = rank_chunks(" ".join(query), chunks)
    scored = [(BM25.score(query, d, docs), c) for d, c in zip(docs, chunks)]
    want_order = [
        c
        for _, c in sorted(
            scored, key=lambda pair: (-pair[0], pair[1].source_url, pair[1].index)
        )
    ][:DEFAULT_TOP_K]
    assert got_order == want_order


class TestRankingOracleEquivalence:
    def test_500_random_corpora(self):
        rng = random.Random(20240817)
        started = time.perf_counter()
        for _ in range(500):
            chunks = []
            for index in range(rng.randint(1, 20)):
                words = rng.choices(VOCAB, k=rng.randint(1, 50))
                chunks.append(Chunk(text=" ".join(words), source_url=rng.choice(URLS), index=index))
            assert_ranking_matches_oracle(rng, chunks)
        assert time.perf_counter() - started < 5.0

    def test_500_random_chunked_pages(self):
        # Chunks as chunk_document builds them, windows of pages with overlap.
        rng = random.Random(20261019)
        for _ in range(500):
            chunks = []
            for url in rng.sample(URLS, rng.randint(1, 3)):
                words = rng.choices(VOCAB, k=rng.randint(1, 150))
                overlap = rng.randint(0, 20)
                chunk_size = overlap + rng.randint(1, 40)
                chunks.extend(chunk_document(" ".join(words), chunk_size, overlap, source_url=url))
            assert_ranking_matches_oracle(rng, chunks)


# --- 2. prompt composition byte-matches golden files ----------------------

PROMPT_LANGUAGES = {"en": LanguageTag.ENGLISH, "id": LanguageTag.INDONESIAN}


def golden_text(lang, name):
    return (GOLDEN / "prompts" / lang / f"{name}.txt").read_text(encoding="utf-8")


def prompt_inputs(lang):
    from sarcrag.retrieval import WordInfo

    language = PROMPT_LANGUAGES[lang]
    sample = Sample(
        id=f"golden:{lang}",
        text=PROMPTS.SAMPLE_TEXT[lang],
        gold=Label.SARCASTIC,
        language=language,
    )
    infos = [
        WordInfo(keyword=k, definition=d, source=RetrievalSource.LLM_ONLY)
        for k, d in PROMPTS.WORD_INFOS[lang]
    ]
    return sample, infos, load_templates(language)


class TestPromptGoldens:
    @pytest.mark.parametrize("lang", ["en", "id"])
    def test_p1_plain(self, lang):
        sample, _, templates = prompt_inputs(lang)
        request = build_p1(sample, [], templates)
        assert request.messages[0].content == golden_text(lang, "p1_plain_system")
        assert request.messages[1].content == golden_text(lang, "p1_plain_user")

    @pytest.mark.parametrize("lang", ["en", "id"])
    def test_p1_with_word_info(self, lang):
        sample, infos, templates = prompt_inputs(lang)
        request = build_p1(sample, infos, templates)
        assert request.messages[0].content == golden_text(lang, "p1_wordinfo_system")
        assert request.messages[1].content == golden_text(lang, "p1_wordinfo_user")

    @pytest.mark.parametrize("lang", ["en", "id"])
    def test_p2_with_few_shot(self, lang):
        _, _, templates = prompt_inputs(lang)
        request = build_p2(PROMPTS.A1_TEXT[lang], True, templates)
        assert request.messages[0].content == golden_text(lang, "p2_fewshot_system")
        assert request.messages[1].content == golden_text(lang, "p2_fewshot_user")

    def test_committed_files_match_the_generator(self):
        committed = {
            path.relative_to(GOLDEN / "prompts").as_posix(): path.read_text(encoding="utf-8")
            for path in (GOLDEN / "prompts").rglob("*.txt")
        }
        assert committed == PROMPTS.goldens()

    def test_headers_and_suffix_present(self):
        assert "Entity facts:" in golden_text("en", "p1_wordinfo_user")
        assert "Definisi kata-kata penting:" in golden_text("id", "p1_wordinfo_user")
        assert "do NOT invent new facts" in golden_text("en", "p1_wordinfo_system")
        assert "JANGAN menciptakan fakta baru" in golden_text("id", "p1_wordinfo_system")


# --- 3. per-variant call algebra under record and replay -------------------

# Answers are a pure function of the request purpose.
ALGEBRA_ANSWERS = {
    Purpose.KEYWORD_IDENTIFY: "I do not know Paris.",
    Purpose.KEYWORD_CLEAN: "Paris",
    Purpose.DEFINE_WORD: "A city in western Europe.",
    Purpose.REFINE_CHUNKS: "A city described by the retrieved passages.",
    Purpose.P1: "the preliminary analysis",
    Purpose.P2: "the reflection\nFinal decision: YES",
}


def algebra_results(query):
    snippet = " ".join(f"fact{i} about {query}" for i in range(10))
    return [SearchResult(url="https://ref.example/a", snippet=snippet)]


EXPECTED_SEQUENCES = {
    PipelineVariant.PMP: [Purpose.P1, Purpose.P2],
    PipelineVariant.PMP_WL: [Purpose.DEFINE_WORD, Purpose.P1, Purpose.P2],
    PipelineVariant.PMP_WL_FS: [Purpose.DEFINE_WORD, Purpose.P1, Purpose.P2],
    PipelineVariant.PMP_WG: [
        Purpose.KEYWORD_IDENTIFY,
        Purpose.KEYWORD_CLEAN,
        Purpose.REFINE_CHUNKS,
        Purpose.P1,
        Purpose.P2,
    ],
    PipelineVariant.PMP_WG_FS: [
        Purpose.KEYWORD_IDENTIFY,
        Purpose.KEYWORD_CLEAN,
        Purpose.REFINE_CHUNKS,
        Purpose.P1,
        Purpose.P2,
    ],
}


class TestVariantCallAlgebra:
    def algebra_sample(self):
        return Sample(
            id="algebra:1",
            text="i saw Paris yesterday",
            gold=Label.SARCASTIC,
            language=LanguageTag.ENGLISH,
        )

    def run_all_variants(self, gateway_factory, cache_root):
        captured = {}
        for variant in PipelineVariant:
            gateway = ScriptedGateway(gateway_factory().chat)
            # A cache per variant, so each one defines its keywords itself.
            cache = WordInfoCache(cache_root / variant.value)
            web = (FakeSearch(algebra_results), no_page)
            deps = PipelineDeps(gateway=gateway, cache=cache, web=web)
            trace = run_pipeline(self.algebra_sample(), variant, deps)
            assert trace.verdict is Label.SARCASTIC
            for request in gateway.requests:
                # Every purpose's request: the system message, then the user message.
                roles = [m.role for m in request.messages]
                assert roles[:2] == [Role.SYSTEM, Role.USER], (variant, request.purpose)
                assert Role.SYSTEM not in roles[1:], (variant, request.purpose)
            captured[variant] = gateway
        return captured

    def test_call_sequences_and_replay_without_network(self, tmp_path):
        store = TranscriptStore(tmp_path / "transcripts")
        backend = FunctionBackend(lambda request: ALGEBRA_ANSWERS[request.purpose])
        recorded = self.run_all_variants(lambda: Gateway(backend, store=store), tmp_path / "record")
        for variant, gateway in recorded.items():
            assert gateway.purposes == EXPECTED_SEQUENCES[variant], variant

        def refuse(*args, **kwargs):
            raise AssertionError("network touched during replay")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(socket.socket, "connect", refuse)
            patch_endpoints(mp)  # every chat, search and page request fails the test
            replayed = self.run_all_variants(lambda: Gateway(None, store), tmp_path / "replay")
        for variant, gateway in replayed.items():
            assert gateway.purposes == EXPECTED_SEQUENCES[variant], variant
            assert gateway.purposes == recorded[variant].purposes

        for base, shot in (
            (PipelineVariant.PMP_WL, PipelineVariant.PMP_WL_FS),
            (PipelineVariant.PMP_WG, PipelineVariant.PMP_WG_FS),
        ):
            base_requests = replayed[base].requests
            shot_requests = replayed[shot].requests
            # everything before P2 is untouched by the few-shot switch
            assert base_requests[:-1] == shot_requests[:-1]
            base_p2, shot_p2 = base_requests[-1], shot_requests[-1]
            assert base_p2.messages[1] == shot_p2.messages[1]
            templates = load_templates(LanguageTag.ENGLISH)
            assert shot_p2.messages[0].content == (
                base_p2.messages[0].content + "\n" + templates.fewshot_header_and_examples
            )


# --- 4. end-to-end replay determinism over the committed fixture -----------

REPLAY_RUNS = [
    # dataset flag, data file, variant flag, frozen report values
    (
        "semeval",
        "semeval_mini.tsv",
        "pmpwl",
        {
            "accuracy": 0.6666666666666666,
            "precision_macro": 0.75,
            "recall_macro": 0.75,
            "f1_macro": 0.6666666666666666,
            "n_scored": 3,
            "n_skipped": 1,
        },
    ),
    (
        "mustard",
        "mustard_mini.json",
        "pmpwl",
        {
            "accuracy": 0.75,
            "precision_macro": 0.8333333333333333,
            "recall_macro": 0.75,
            "f1_macro": 0.7333333333333334,
            "n_scored": 4,
            "n_skipped": 0,
        },
    ),
    (
        "twitter-id",
        "twitter_mini.csv",
        "pmpwg",
        {
            "accuracy": 0.75,
            "precision_macro": 0.8333333333333333,
            "recall_macro": 0.75,
            "f1_macro": 0.7333333333333334,
            "n_scored": 4,
            "n_skipped": 0,
        },
    ),
]


class TestReplayDeterminism:
    def replay_once(self, root, dataset, data_file, variant):
        flags = ["--dataset", dataset, "--data-path", FIXTURE / "data" / data_file, "--variant", variant]
        assert run(root, *flags, fixture=True) == 0
        run_dir = root / "runs" / dataset / "fixture-model" / variant
        records = [
            json.loads(line)
            for line in (run_dir / "run.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        for record in records:
            record.pop("wall_time")
        return (
            json.dumps(records, sort_keys=True),
            (run_dir / "report.json").read_bytes(),
        )

    def test_three_invocations_are_identical(self, tmp_path):
        started = time.perf_counter()
        outcomes = []
        for repetition in range(3):
            per_run = {}
            for dataset, data_file, variant, _ in REPLAY_RUNS:
                per_run[dataset] = self.replay_once(
                    tmp_path / f"rep{repetition}", dataset, data_file, variant
                )
            outcomes.append(per_run)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert time.perf_counter() - started < 10.0

    @pytest.mark.parametrize("dataset,data_file,variant,expected", REPLAY_RUNS)
    def test_fixed_metrics_report(self, tmp_path, dataset, data_file, variant, expected):
        _, report_bytes = self.replay_once(tmp_path, dataset, data_file, variant)
        report = json.loads(report_bytes)
        for key, value in expected.items():
            assert report[key] == value, key

    @pytest.mark.parametrize("dataset,data_file,variant", [run[:3] for run in REPLAY_RUNS])
    def test_run_log_matches_golden(self, tmp_path, dataset, data_file, variant):
        self.replay_once(tmp_path, dataset, data_file, variant)
        run_log = tmp_path / "runs" / dataset / "fixture-model" / variant / "run.jsonl"
        lines = []
        for line in run_log.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert list(record)[-1] == "wall_time"
            del record["wall_time"]
            lines.append(json.dumps(record, ensure_ascii=False))
        golden = GOLDEN / "replay" / f"{dataset}_{variant}.jsonl"
        assert lines == golden.read_text(encoding="utf-8").splitlines()

    def test_fixture_rebuild_is_byte_identical(self, tmp_path):
        load_script(FIXTURE / "make_fixture.py").main(tmp_path)

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        for tree in ("transcripts", "cache"):
            rebuilt, committed = files(tmp_path / tree), files(FIXTURE / tree)
            assert sorted(rebuilt) == sorted(committed), tree
            assert rebuilt == committed, tree

    def test_fixture_holds_four_samples_per_dataset(self):
        kinds = {
            "semeval": DatasetKind.SEMEVAL_2018_T3,
            "mustard": DatasetKind.MUSTARD,
            "twitter-id": DatasetKind.TWITTER_INDONESIA,
        }
        for dataset, data_file, _, _ in REPLAY_RUNS:
            samples = load_dataset(kinds[dataset], FIXTURE / "data" / data_file)
            assert len(samples) == 4


# --- 5. metrics against an independent reference ---------------------------

class TestMetricsReference:
    def arrays(self, tp, fp, fn, tn):
        y_true = [1] * tp + [0] * fp + [1] * fn + [0] * tn
        y_pred = [1] * tp + [1] * fp + [0] * fn + [0] * tn
        return y_true, y_pred

    def test_1000_random_confusion_matrices(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = random.Random(911)
        for _ in range(1000):
            tp, fp, fn, tn = (rng.randint(0, 25) for _ in range(4))
            if tp + fp + fn + tn == 0:
                tn = 1
            report = macro_metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            y_true, y_pred = self.arrays(tp, fp, fn, tn)
            precision, recall, f1, _ = sklearn_metrics.precision_recall_fscore_support(
                y_true, y_pred, average="macro", labels=[1, 0], zero_division=0
            )
            accuracy = sklearn_metrics.accuracy_score(y_true, y_pred)
            assert abs(report.precision_macro - precision) <= 1e-12
            assert abs(report.recall_macro - recall) <= 1e-12
            assert abs(report.f1_macro - f1) <= 1e-12
            assert abs(report.accuracy - accuracy) <= 1e-12


# --- 6. dialogue flattening goldens ----------------------------------------

MUSTARD_GOLDEN_TEXTS = {
    "mustard:f_001": (
        "Penny brought pizza from Pasadena tonight. "
        "{great, another healthy dinner for the ages}"
    ),
    "mustard:f_002": "{the wifi is down so we can finally play board games}",
    "mustard:f_003": (
        "the experiment failed twice this week. maybe the calibration is off. "
        "{what a glorious day for science}"
    ),
    "mustard:f_004": "lunch is ready downstairs. {thanks, coming in a minute}",
}


class TestDialogueFlattening:
    def test_fixture_texts_match_goldens(self):
        path = FIXTURE / "data" / "mustard_mini.json"
        samples = {s.id: s.text for s in load_dataset(DatasetKind.MUSTARD, path)}
        assert samples == MUSTARD_GOLDEN_TEXTS


# --- 7. CSV keyword parsing cases and fuzz ----------------------------------

class TestCsvKeywordParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("first,second,third", ["first", "second", "third"]),
            (" a , b ,,c ", ["a", "b", "c"]),
            ("a,A,b", ["a", "b"]),
            ("wkwk", ["wkwk"]),
            ("NO UNKNOWN", []),
            ("no unknown", []),
            ("  No Unknown  ", []),
            ("", []),
            ("   ", []),
        ],
    )
    def test_documented_cases(self, raw, expected):
        assert keyword_set(raw) == expected

    def test_prose_rejected(self):
        with pytest.raises(MalformedCSV):
            parse_csv_keywords("I cannot find any unusual words here")

    def test_fuzz_structured_and_arbitrary(self):
        rng = random.Random(424242)
        alphabet = string.ascii_letters + string.digits
        for _ in range(500):
            tokens = [
                "".join(rng.choices(alphabet, k=rng.randint(1, 8)))
                for _ in range(rng.randint(1, 6))
            ]
            raw = ",".join(" " * rng.randint(0, 2) + t + " " * rng.randint(0, 2) for t in tokens)
            parsed = keyword_set(raw)
            seen, expected = set(), []
            for token in tokens:
                if token.casefold() not in seen:
                    seen.add(token.casefold())
                    expected.append(token)
            assert parsed == expected
            assert keyword_set(",".join(parsed)) == parsed

        noise = alphabet + " ,.!?-\t'\"()"
        for _ in range(500):
            raw = "".join(rng.choices(noise, k=rng.randint(0, 40)))
            try:
                parsed = keyword_set(raw)
            except MalformedCSV:
                continue
            assert all(item == item.strip() and item for item in parsed)
            folded = [item.casefold() for item in parsed]
            assert len(folded) == len(set(folded))
            # a lone multi-word keyword cannot survive a round trip through CSV
            if not (len(parsed) == 1 and any(ch.isspace() for ch in parsed[0])):
                assert keyword_set(",".join(parsed)) == parsed


# --- 8. optional live smoke test -------------------------------------------

LIVE_ENDPOINT = os.environ.get("LLM_ENDPOINT")
LIVE_DATA = os.environ.get("SMOKE_DATA")


@pytest.mark.skipif(
    not (LIVE_ENDPOINT and LIVE_DATA),
    reason="live smoke needs LLM_ENDPOINT and SMOKE_DATA (path to a SemEval-format tsv)",
)
def test_live_smoke(tmp_path):
    model = os.environ.get("SMOKE_MODEL", "default")
    flags = ["--data-path", LIVE_DATA, "--variant", "pmp", "--model", model, "--limit", 20]
    assert run(tmp_path, *flags, "--endpoint", LIVE_ENDPOINT) == 0
    run_dir = tmp_path / "runs" / "semeval" / model / "pmp"
    records = [
        json.loads(line)
        for line in (run_dir / "run.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == 20
    assert sum(1 for r in records if r["verdict"] is not None) >= 18
    assert (run_dir / "report.json").exists()
