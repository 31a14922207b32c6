"""A run's stored bytes do not depend on how its samples and definitions are scheduled.

The real CLI runs one input set on several schedules: `--concurrency` 1, 2
and 4, and the samples in reverse order. The chat model, the search engine and
the web pages are patched in at `requests.Session` by `fakes.patch_endpoints`;
each answers as a pure function of its request, after a seeded random sleep, so
calls finish in a different order on each schedule. Every schedule must leave
byte-identical transcript and cache trees, and the same `run.jsonl` records but
for `wall_time`.
"""

import hashlib
import json
import random
import re
import threading
import time

import pytest
from fakes import patch_endpoints, run

from sarcrag.core import LanguageTag
from sarcrag.templates import load_templates

EN = load_templates(LanguageTag.ENGLISH)
SHARED_PAGE = "https://pages.invalid/london-airports"

TEXTS = [
    # Two keywords whose searches return the same page.
    "flying from Heathrow via Gatwick, what fun",
    "love waiting at Heathrow all day",
    # Two samples with the same text.
    "so glad Monday is back",
    "so glad Monday is back",
    "nothing to see here",
    "Brighton and Leeds in one afternoon, easy",
    # Three definitions in one sample, made in keyword order while other
    # samples' calls run beside them.
    "Oxford, Cambridge and Bristol on one ticket, sure",
    "the weather in Leeds is lovely again",
]

# Two casings of one keyword: each is defined on its own, so neither P1 depends
# on which sample defines its casing first.
CASINGS = ["we love PENNY so much", "we love Penny so much"]

SCHEDULES = [("1", False), ("2", False), ("4", False), ("1", True)]


def answer(system, user, payload):
    """The fake model: keyword steps follow the text, anything else is named by its digest."""
    if system == EN.keyword_identify:
        return f"Words I do not know: {user}"
    if system == EN.keyword_csv:
        names = re.findall(r"\b[A-Z][A-Za-z]+", user.split(":", 1)[1])
        return ",".join(names) if names else "NO UNKNOWN"
    digest = hashlib.sha256(json.dumps(payload["messages"]).encode()).hexdigest()
    verdict = "YES" if int(digest, 16) % 2 else "NO"
    return f"Note {digest[:12]}.\nFinal decision: {verdict}"


def search_items(query):
    url = SHARED_PAGE if query in ("Heathrow", "Gatwick") else f"https://pages.invalid/{query}"
    return [{"link": url, "snippet": f"about {query}"}]


def page(url):
    name = url.rsplit("/", 1)[1]
    return (f"<p>{name} " + " ".join(f"{name} fact {i}." for i in range(60)) + "</p>").encode()


@pytest.fixture
def fake_services(monkeypatch):
    """Patch chat, search and page fetches; returns a function that reseeds the sleeps."""
    state = {"rng": random.Random(0)}
    lock = threading.Lock()

    def after_a_pause(respond):
        def paused(*args):
            with lock:
                delay = state["rng"].uniform(0, 0.02)
            time.sleep(delay)
            return respond(*args)

        return paused

    patch_endpoints(
        monkeypatch,
        chat=after_a_pause(answer),
        search=after_a_pause(search_items),
        page=after_a_pause(page),
    )
    monkeypatch.setenv("SEARCH_API_KEY", "key")
    monkeypatch.setenv("SEARCH_ENGINE_ID", "engine")
    monkeypatch.delenv("LLM_ENDPOINT", raising=False)

    def reseed(seed):
        state["rng"] = random.Random(seed)

    return reseed


def run_schedule(root, texts, concurrency, reverse):
    rows = [f"{i}\t{i % 2}\t{text}" for i, text in enumerate(texts, start=1)]
    data = root / "data.tsv"
    data.write_text(
        "Tweet index\tLabel\tTweet text\n" + "\n".join(rows[::-1] if reverse else rows) + "\n",
        encoding="utf-8",
    )
    assert run(root, "--data-path", data, "--variant", "pmpwg", "--concurrency", concurrency) == 0
    run_log = root / "runs" / "semeval" / "m" / "pmpwg" / "run.jsonl"
    records = [json.loads(line) for line in run_log.read_text(encoding="utf-8").splitlines()]
    for record in records:
        del record["wall_time"]
    files = {}
    for tree in ("transcripts", "cache"):
        for path in sorted((root / tree).rglob("*")):
            if path.is_file():
                files[str(path.relative_to(root))] = path.read_bytes()
    return sorted(records, key=lambda r: r["sample_id"]), files


def assert_schedule_independent(tmp_path, reseed, texts):
    runs = []
    for seed, (concurrency, reverse) in enumerate(SCHEDULES):
        reseed(seed)
        root = tmp_path / f"schedule{seed}"
        root.mkdir()
        runs.append(run_schedule(root, texts, concurrency, reverse))
    (records, files), others = runs[0], runs[1:]
    assert all(r["skipped_reason"] is None for r in records)
    assert any(r["word_info_sources"] for r in records)
    for schedule, (other_records, other_files) in zip(SCHEDULES[1:], others):
        differing = sorted(
            name for name in files.keys() | other_files.keys() if files.get(name) != other_files.get(name)
        )
        assert differing == [], f"schedule {schedule}"
        assert other_records == records, f"schedule {schedule}"


def test_stored_bytes_do_not_depend_on_the_schedule(tmp_path, fake_services):
    assert_schedule_independent(tmp_path, fake_services, TEXTS)


def test_two_casings_of_one_keyword(tmp_path, fake_services):
    assert_schedule_independent(tmp_path, fake_services, TEXTS + CASINGS)
