"""The benchmark's tracer attributes each grounding span to the sample it grounds.

bench/launch.py's Tracer is installed in this process, at the names it wraps,
and `sarcrag run` runs one sample that names three people. Its keyword
extraction and each keyword's definition must run inside that sample's
`pipeline.run_pipeline` span, so per-sample figures drawn from the spans count
them.
"""

import importlib
from pathlib import Path

from fakes import patch_endpoints, run, say_yes

BENCH = Path(__file__).resolve().parents[1] / "bench"


def install_tracer(monkeypatch):
    """bench/launch.py's Tracer, installed until the test ends."""
    monkeypatch.syspath_prepend(str(BENCH))
    launch = importlib.import_module("launch")
    for module_name, path, *_ in launch.TARGETS + launch.COUNTED:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored at teardown
    tracer = launch.Tracer()
    tracer.install()
    assert tracer.absent == []
    return tracer


def test_grounding_spans_belong_to_their_sample(tmp_path, monkeypatch):
    patch_endpoints(monkeypatch, chat=say_yes)
    tracer = install_tracer(monkeypatch)
    data = tmp_path / "one.tsv"
    data.write_text(
        "Tweet index\tLabel\tTweet text\n7\t1\twe met Alice, Bruno and Carla today\n",
        encoding="utf-8",
    )
    assert run(tmp_path, "--data-path", data, "--variant", "pmpwl") == 0
    spans = tracer.spans  # id: [name, started, ended, parent id, sample id, error, note]
    [sample_span] = [span_id for span_id, span in spans.items() if span[0] == "pipeline.run_pipeline"]
    grounding = [
        span for span in spans.values()
        if span[0] in ("keywords.extract_token_tagging", "retrieval.get_word_info")
    ]
    assert sorted(span[0] for span in grounding) == [
        "keywords.extract_token_tagging",
        "retrieval.get_word_info",
        "retrieval.get_word_info",
        "retrieval.get_word_info",
    ]
    for span in grounding:
        assert span[3] == sample_span
        assert span[4] == "semeval:7"
