"""Command line: config resolution, the run/report/cache subcommands, exit codes."""

import argparse
import io
import json
import shutil
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import pytest
import requests

from sarcrag import cli, gateway
from sarcrag.cli import (
    build_deps,
    build_parser,
    build_run_config,
    main,
    read_run_log,
    report_from_log,
)
from sarcrag.core import DatasetKind, LanguageTag, RetrievalSource
from sarcrag.datasets import load_dataset
from sarcrag.errors import ConfigError, LogParseError
from sarcrag.evaluation import report_to_json
from sarcrag.keywords import MAX_KEYWORDS_PER_SAMPLE
from sarcrag.pipeline import build_p1
from sarcrag.retrieval import DEFINE_SYSTEM, REFINE_SYSTEM, GoogleSearchClient, WordInfoCache
from sarcrag.templates import load_templates

FIXTURE = Path(__file__).parent / "fixtures" / "replay"
GOLDEN_RUN = Path(__file__).parent / "golden" / "replay" / "semeval_pmpwl.jsonl"
EN = load_templates(LanguageTag.ENGLISH)

RUN_ARG_NAMES = (
    "dataset",
    "data_path",
    "variant",
    "model",
    "backend",
    "endpoint",
    "concurrency",
    "limit",
    "out",
    "transcripts",
    "cache",
    "config",
)


def make_args(**overrides):
    values = {name: None for name in RUN_ARG_NAMES}
    values.update(overrides)
    return argparse.Namespace(**values)


def replay_args(tmp_path, **overrides):
    base = dict(
        dataset="semeval",
        data_path=str(FIXTURE / "data" / "semeval_mini.tsv"),
        variant="pmpwl",
        model="fixture-model",
        backend="replay",
        transcripts=str(FIXTURE / "transcripts"),
        cache=str(FIXTURE / "cache"),
        out=str(tmp_path / "runs"),
    )
    base.update(overrides)
    return make_args(**base)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("LLM_ENDPOINT", "SEARCH_API_KEY", "SEARCH_ENGINE_ID"):
        monkeypatch.delenv(name, raising=False)


class TestConfigResolution:
    def test_replay_config_builds(self, tmp_path):
        config = build_run_config(replay_args(tmp_path))
        assert config.backend == "replay"
        assert config.run_dir == tmp_path / "runs" / "semeval" / "fixture-model" / "pmpwl"

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, model=None))

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLM_ENDPOINT", "http://from-env:1")
        args = replay_args(tmp_path, backend="live", endpoint="http://from-flag:2")
        assert build_run_config(args).endpoint == "http://from-flag:2"

    def test_env_beats_config_file(self, tmp_path, monkeypatch):
        config_file = tmp_path / "run.yaml"
        config_file.write_text("endpoint: http://from-file:3\n", encoding="utf-8")
        monkeypatch.setenv("LLM_ENDPOINT", "http://from-env:1")
        args = replay_args(tmp_path, backend="live", config=str(config_file))
        assert build_run_config(args).endpoint == "http://from-env:1"

    def test_empty_env_value_is_unset(self, tmp_path, monkeypatch):
        config_file = tmp_path / "run.yaml"
        config_file.write_text("endpoint: http://from-file:3\n", encoding="utf-8")
        monkeypatch.setenv("LLM_ENDPOINT", "")
        args = replay_args(tmp_path, backend="live", config=str(config_file))
        assert build_run_config(args).endpoint == "http://from-file:3"

    def test_config_file_supplies_any_key(self, tmp_path):
        config_file = tmp_path / "run.yaml"
        config_file.write_text("concurrency: 9\nlimit: 2\n", encoding="utf-8")
        config = build_run_config(replay_args(tmp_path, config=str(config_file)))
        assert config.concurrency == 9
        assert config.limit == 2

    def test_config_file_must_be_mapping(self, tmp_path):
        config_file = tmp_path / "run.yaml"
        config_file.write_text("- just\n- a list\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, config=str(config_file)))

    @pytest.mark.parametrize("text", ["", "# nothing set\n"])
    def test_empty_config_file_means_no_settings(self, tmp_path, text):
        config_file = tmp_path / "run.yaml"
        config_file.write_text(text, encoding="utf-8")
        config = build_run_config(replay_args(tmp_path, config=str(config_file)))
        assert config == build_run_config(replay_args(tmp_path))

    @pytest.mark.parametrize(
        "text",
        [
            "[unclosed\n",
            "[]\n",
            "false\n",
            "concurrency: [2]\n",
            "concurrency: x\n",
            "concurrency: true\n",
            "limit: [2]\n",
            "limit: 2.7\n",
            "model: 7\n",
            "model: [a]\n",
            "out: 3\n",
            "limt: 1\n",
        ],
    )
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text):
        config_file = tmp_path / "run.yaml"
        config_file.write_text(text, encoding="utf-8")
        code, captured, _ = run_fixture_cli(tmp_path, capsys, "--config", str(config_file))
        assert code == 2
        assert captured.err.startswith("error:")
        # A value of the wrong type fails even where a flag overrides it, and
        # every fault but a YAML syntax error names its key.
        if ":" in text:
            assert captured.err.startswith(f"error: {text.split(':')[0]}: ")

    def test_unreadable_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, config=str(tmp_path / "absent.yaml")))

    def test_search_credentials_come_from_env_not_flags(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEARCH_API_KEY", "k")
        monkeypatch.setenv("SEARCH_ENGINE_ID", "cx")
        config = build_run_config(replay_args(tmp_path))
        assert config.search_api_key == "k"
        assert config.search_engine_id == "cx"


class TestConfigValidation:
    def test_bad_backend(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, backend="offline"))

    def test_bad_variant(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, variant="pmpxx"))

    def test_nonpositive_limit(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, limit=0))
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, limit=-3))

    def test_nonpositive_concurrency(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, concurrency=0))

    def test_missing_data_path(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, data_path=str(tmp_path / "nope.tsv")))

    def test_replay_requires_transcript_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, transcripts=str(tmp_path / "absent")))

    def test_live_requires_endpoint(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, backend="live"))

    def test_live_web_variant_requires_credentials(self, tmp_path):
        args = replay_args(
            tmp_path, backend="live", endpoint="http://x:1", variant="pmpwg"
        )
        with pytest.raises(ConfigError) as info:
            build_run_config(args)
        assert "SEARCH_API_KEY" in str(info.value)

    def test_replay_web_variant_needs_no_credentials(self, tmp_path):
        config = build_run_config(
            replay_args(
                tmp_path,
                variant="pmpwg",
                dataset="twitter-id",
                data_path=str(FIXTURE / "data" / "twitter_mini.csv"),
            )
        )
        assert config.search_api_key is None


class TestParser:
    def test_run_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "semeval", "--data-path", "d.tsv", "--variant", "pmp",
             "--model", "m", "--backend", "replay", "--limit", "5"]
        )
        assert args.dataset == "semeval"
        assert args.data_path == "d.tsv"
        assert args.limit == 5

    def test_no_secret_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--search-api-key", "leak"])
        assert "--search-api-key" not in build_parser().format_help()

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def run_fixture_cli(tmp_path, capsys, *extra):
    code = main(
        [
            "run",
            "--dataset", "semeval",
            "--data-path", str(FIXTURE / "data" / "semeval_mini.tsv"),
            "--variant", "pmpwl",
            "--model", "fixture-model",
            "--backend", "replay",
            "--transcripts", str(FIXTURE / "transcripts"),
            "--cache", str(FIXTURE / "cache"),
            "--out", str(tmp_path / "runs"),
            *extra,
        ]
    )
    return code, capsys.readouterr(), tmp_path / "runs" / "semeval" / "fixture-model" / "pmpwl"


class TestRunCommand:
    def test_replay_run_end_to_end(self, tmp_path, capsys):
        code, captured, run_dir = run_fixture_cli(tmp_path, capsys)
        assert code == 0
        assert "scored 3, skipped 1" in captured.out
        records = [json.loads(line) for line in (run_dir / "run.jsonl").read_text().splitlines()]
        assert [r["sample_id"] for r in records] == [
            "semeval:1", "semeval:2", "semeval:3", "semeval:4",
        ]
        assert records[0]["verdict"] == "YES"
        assert records[0]["gold"] == "YES"
        assert records[0]["keywords"] == ["United Nations", "Christmas"]
        assert records[3]["verdict"] is None
        assert "VerdictNotFound" in records[3]["skipped_reason"]
        report = json.loads((run_dir / "report.json").read_text())
        assert report["n_scored"] == 3
        assert report["n_skipped"] == 1
        assert abs(report["f1_macro"] - 2 / 3) < 1e-12
        assert (run_dir / "report.txt").read_text().startswith("class")

    def test_limit_slices_prefix(self, tmp_path, capsys):
        code, captured, run_dir = run_fixture_cli(tmp_path, capsys, "--limit", "2")
        assert code == 0
        records = (run_dir / "run.jsonl").read_text().splitlines()
        assert len(records) == 2

    def test_replay_makes_no_exchange_log(self, tmp_path, capsys):
        _, _, run_dir = run_fixture_cli(tmp_path, capsys)
        assert not (run_dir / "exchanges.jsonl").exists()

    def test_all_skipped_run_writes_no_report(self, tmp_path, capsys):
        # semeval:4 replays to a verdict-less reflection, so this run skips everything
        data = tmp_path / "only_skipped.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n4\t0\tthe quarterly report is ready for review\n",
            encoding="utf-8",
        )
        code = main(
            [
                "run",
                "--dataset", "semeval",
                "--data-path", str(data),
                "--variant", "pmpwl",
                "--model", "fixture-model",
                "--backend", "replay",
                "--transcripts", str(FIXTURE / "transcripts"),
                "--cache", str(FIXTURE / "cache"),
                "--out", str(tmp_path / "runs"),
            ]
        )
        captured = capsys.readouterr()
        run_dir = tmp_path / "runs" / "semeval" / "fixture-model" / "pmpwl"
        assert code == 1
        assert "every sample was skipped" in captured.out
        assert (run_dir / "run.jsonl").exists()
        assert not (run_dir / "report.json").exists()

    def test_a_data_file_with_no_samples_exits_2(self, tmp_path, capsys):
        data = tmp_path / "header_only.tsv"
        data.write_text("Tweet index\tLabel\tTweet text\n", encoding="utf-8")
        code, captured, run_dir = run_fixture_cli(tmp_path, capsys, "--data-path", str(data))
        assert code == 2
        assert captured.err == f"error: data path holds no samples: {data}\n"
        assert not (run_dir / "run.jsonl").exists()

    def test_crash_keeps_the_records_written_before_it(self, tmp_path, capsys, monkeypatch):
        run_pipeline = cli.run_pipeline

        def crash_on_third(sample, variant, deps):
            if sample.id == "semeval:3":
                raise RuntimeError("crashed mid-run")
            return run_pipeline(sample, variant, deps)

        monkeypatch.setattr(cli, "run_pipeline", crash_on_third)
        with pytest.raises(RuntimeError):
            run_fixture_cli(tmp_path, capsys, "--concurrency", "1")
        run_dir = tmp_path / "runs" / "semeval" / "fixture-model" / "pmpwl"
        records = [json.loads(line) for line in (run_dir / "run.jsonl").read_text().splitlines()]
        assert [r["sample_id"] for r in records] == ["semeval:1", "semeval:2"]
        assert [r["verdict"] for r in records] == ["YES", "NO"]

    def test_crash_stops_new_samples(self, tmp_path, capsys, monkeypatch):
        # At --concurrency 1 there are four threads, so semeval:5 is queued while
        # semeval:1 to 4 may start. semeval:3 raises at once, and every other sample
        # that starts runs on only once the crash is recorded, so no thread comes
        # free for semeval:5 before that. semeval:4 may start before the crash or be
        # stopped by it. No sample starts after it.
        monkeypatch.setattr(requests.Session, "post", answer_yes)
        crash_recorded = watch_for_crash(monkeypatch)
        data = numbered_samples(tmp_path, 5)
        run_pipeline = cli.run_pipeline
        called = []

        def crash_on_third(sample, variant, deps):
            called.append(sample.id)
            if sample.id == "semeval:3":
                raise RuntimeError("crashed mid-run")
            assert crash_recorded.wait(timeout=10)
            return run_pipeline(sample, variant, deps)

        monkeypatch.setattr(cli, "run_pipeline", crash_on_third)
        with pytest.raises(RuntimeError):
            live_run(tmp_path, data, "pmp", "--concurrency", "1")
        assert sorted(called) in (
            ["semeval:1", "semeval:2", "semeval:3"],
            ["semeval:1", "semeval:2", "semeval:3", "semeval:4"],
        )
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl"
        assert [r["sample_id"] for r in read_run_log(run_log)] == ["semeval:1", "semeval:2"]

    def test_crash_stops_queued_samples_at_concurrency_2(self, tmp_path, capsys, monkeypatch):
        # There are eight threads. semeval:2 raises once semeval:1 to 8 have all
        # started, and the others run on until the crash is recorded, so no thread
        # comes free before it: semeval:9 to 12 are still queued when the run stops.
        monkeypatch.setattr(requests.Session, "post", answer_yes)
        crash_recorded = watch_for_crash(monkeypatch)
        data = numbered_samples(tmp_path, 12)
        run_pipeline = cli.run_pipeline
        eight_started = threading.Barrier(8)
        called = []

        def crash_on_second(sample, variant, deps):
            called.append(sample.id)
            eight_started.wait(timeout=10)
            if sample.id == "semeval:2":
                raise RuntimeError("crashed mid-run")
            assert crash_recorded.wait(timeout=10)
            return run_pipeline(sample, variant, deps)

        monkeypatch.setattr(cli, "run_pipeline", crash_on_second)
        with pytest.raises(RuntimeError):
            live_run(tmp_path, data, "pmp", "--concurrency", "2")
        assert sorted(called) == [f"semeval:{n}" for n in range(1, 9)]
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl"
        assert [r["sample_id"] for r in read_run_log(run_log)] == ["semeval:1"]

    def test_next_sample_starts_when_any_running_one_finishes(self, tmp_path, capsys, monkeypatch):
        # At --concurrency 1 there are four threads. semeval:1 runs until semeval:5
        # has started, which it can only do on a thread that another sample frees;
        # records still come out in sample order.
        monkeypatch.setattr(requests.Session, "post", answer_yes)
        run_pipeline = cli.run_pipeline
        fifth_started = threading.Event()
        waited = []

        def hold_first(sample, variant, deps):
            if sample.id == "semeval:1":
                waited.append(fifth_started.wait(timeout=10))
            if sample.id == "semeval:5":
                fifth_started.set()
            return run_pipeline(sample, variant, deps)

        monkeypatch.setattr(cli, "run_pipeline", hold_first)
        assert live_run(tmp_path, numbered_samples(tmp_path, 6), "pmp", "--concurrency", "1") == 0
        assert waited == [True]
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl")
        assert [r["sample_id"] for r in records] == [f"semeval:{n}" for n in range(1, 7)]

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["run", "--dataset", "semeval", "--backend", "replay"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")


def answer_yes(self, url, **kwargs):
    response = requests.Response()
    response.status_code = 200
    response._content = b'{"message": {"content": "Final decision: YES"}}'
    return response


def live_run(tmp_path, data, variant, *extra):
    return main(
        [
            "run",
            "--dataset", "semeval",
            "--data-path", str(data),
            "--variant", variant,
            "--model", "m",
            "--backend", "live",
            "--endpoint", "http://chat.invalid/api/chat",
            "--transcripts", str(tmp_path / "transcripts"),
            "--cache", str(tmp_path / "cache"),
            "--out", str(tmp_path / "runs"),
            *extra,
        ]
    )


def numbered_samples(tmp_path, count):
    data = tmp_path / "numbered.tsv"
    data.write_text(
        "Tweet index\tLabel\tTweet text\n"
        + "".join(f"{n}\t1\tsample number {n}\n" for n in range(1, count + 1)),
        encoding="utf-8",
    )
    return data


def watch_for_crash(monkeypatch):
    """An event set once a sample's crash reaches its future, so after `cmd_run` has recorded it."""
    recorded = threading.Event()
    set_exception = Future.set_exception

    def set_and_signal(future, exception):
        set_exception(future, exception)
        if str(exception) == "crashed mid-run":
            recorded.set()

    monkeypatch.setattr(Future, "set_exception", set_and_signal)
    return recorded


def watch_for_pool_shutdown(monkeypatch):
    """An event set once `cmd_run` shuts its thread pool down, so after it has
    recorded an error that left its record loop."""
    shut_down = threading.Event()
    shutdown = ThreadPoolExecutor.shutdown

    def signal_and_shut_down(pool, *args, **kwargs):
        shut_down.set()
        return shutdown(pool, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "shutdown", signal_and_shut_down)
    return shut_down


NAMES = ["Alice", "Bruno", "Carla", "Dmitri", "Edgar", "Fiona"]


class NameChat:
    """Chat model for samples that each name one person: records each call as its
    kind and the number of its sample, in order of arrival, and can hold P1 or answer
    it with the HTTP status that `on_p1` returns."""

    def __init__(self, monkeypatch, on_p1=lambda sample: None):
        self.calls = []
        self.arrived = threading.Condition()
        self.on_p1 = on_p1
        monkeypatch.setattr(requests.Session, "post", self.post)

    @staticmethod
    def data(tmp_path):
        data = tmp_path / "names.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n"
            + "".join(f"{n}\t1\twe met {name} today\n" for n, name in enumerate(NAMES, start=1)),
            encoding="utf-8",
        )
        return data

    def wait_for(self, call):
        with self.arrived:
            return self.arrived.wait_for(lambda: call in self.calls, timeout=10)

    def post(self, url, **kwargs):
        system, user = (message["content"] for message in kwargs["json"]["messages"])
        sample = next(n for n, name in enumerate(NAMES, start=1) if name in user)
        if system == DEFINE_SYSTEM[LanguageTag.ENGLISH]:
            kind, text = "define", f"{user} is a person."
        elif system.startswith(EN.p1_system):
            kind, text = "P1", f"an analysis of {user}"
        else:
            kind, text = "P2", "Final decision: YES"
        with self.arrived:
            self.calls.append((kind, sample))
            self.arrived.notify_all()
        status = self.on_p1(sample) if kind == "P1" else None
        response = requests.Response()
        response.status_code = status or 200
        response._content = json.dumps({"message": {"content": text}}).encode()
        return response


def chat_answer(url, **kwargs):
    """A 200 answer to a chat request: P2 says YES, and any other call names its user message."""
    system, user = (message["content"] for message in kwargs["json"]["messages"][:2])
    text = "Final decision: YES" if system.startswith(EN.p2_system) else f"{user} is a person."
    response = requests.Response()
    response.status_code = 200
    response._content = json.dumps({"message": {"content": text}}).encode()
    return response


def web_chat_answer(self, url, **kwargs):
    """A 200 answer to a chat request of a web-grounded run over `NameChat.data`: each
    sample's one keyword is the name in it, and each refinement says "A person."."""
    system, user = (m["content"] for m in kwargs["json"]["messages"][:2])
    if system == EN.keyword_identify:
        text = f"Words I do not know: {user}"
    elif system == EN.keyword_csv:
        text = next(name for name in NAMES if name in user)
    elif system == REFINE_SYSTEM[LanguageTag.ENGLISH]:
        text = "A person."
    else:
        return chat_answer(url, **kwargs)
    response = requests.Response()
    response.status_code = 200
    response._content = json.dumps({"message": {"content": text}}).encode()
    return response


class TestWholeSamples:
    """Each sample runs whole, grounding then P1/P2, on one of 4 * concurrency threads;
    at most 2 * concurrency requests are in flight, and a sample that waits holds none."""

    def test_held_sample_does_not_idle_the_other_worker(self, tmp_path, capsys, monkeypatch):
        # At --concurrency 1 there are two work slots. While sample 1's P1 is held,
        # the other slot runs samples 2 and 3 whole, up to sample 3's P2.
        held = []

        def hold_first(sample):
            if sample == 1:
                started = time.monotonic()
                reached = chat.wait_for(("P2", 3))
                held.append((reached, time.monotonic() - started))

        chat = NameChat(monkeypatch, on_p1=hold_first)
        assert live_run(tmp_path, chat.data(tmp_path), "pmpwl", "--concurrency", "1") == 0
        [(reached, held_for)] = held
        assert reached
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl")
        assert [r["sample_id"] for r in records] == [f"semeval:{n}" for n in range(1, 7)]
        # A sample's wall_time is its own run, the hold included.
        assert records[0]["wall_time"] >= held_for

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_crash_stops_new_samples_and_leaves_no_thread(self, tmp_path, capsys, monkeypatch, error):
        # At --concurrency 1 there are four threads. Sample 2 raises once samples 1
        # to 4 have started, and they run on until the crash is recorded, so no thread
        # comes free before it: samples 5 and 6 are still queued, and neither runs.
        chat = NameChat(monkeypatch)
        crash_recorded = watch_for_crash(monkeypatch)
        run_pipeline = cli.run_pipeline
        four_started = threading.Barrier(4)
        # (sample, whether the crash was recorded yet), as each starts and finishes
        started, finished = [], []

        def crash_on_second(sample, variant, deps):
            started.append((sample.id, crash_recorded.is_set()))
            four_started.wait(timeout=10)
            if sample.id == "semeval:2":
                raise error("crashed mid-run")
            assert crash_recorded.wait(timeout=10)
            trace = run_pipeline(sample, variant, deps)
            finished.append((sample.id, crash_recorded.is_set()))
            return trace

        monkeypatch.setattr(cli, "run_pipeline", crash_on_second)
        data = chat.data(tmp_path)
        before = set(threading.enumerate())
        raised = []

        def run():
            try:
                live_run(tmp_path, data, "pmpwl", "--concurrency", "1")
            except BaseException as exc:
                raised.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert [type(exc) for exc in raised] == [error]
        assert set(threading.enumerate()) - before == set()
        assert sorted(started) == [(f"semeval:{n}", False) for n in range(1, 5)]
        assert sorted(finished) == [("semeval:1", True), ("semeval:3", True), ("semeval:4", True)]
        assert {sample for _, sample in chat.calls} == {1, 3, 4}
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl"
        assert [r["sample_id"] for r in read_run_log(run_log)] == ["semeval:1"]

    def test_backoff_frees_the_worker(self, tmp_path, capsys, monkeypatch):
        # At --concurrency 1 there are two slots. Samples 1 and 2 each get a 500 on
        # their first P1 and back off; samples 3 and 4 take their slots meanwhile and
        # reach P2 before either retry arrives.
        monkeypatch.setattr(gateway, "BACKOFF_BASE_S", 0.5)
        failed = set()

        def fail_first_p1(sample):
            if sample in (1, 2) and sample not in failed:
                failed.add(sample)
                return 500
            return None

        chat = NameChat(monkeypatch, on_p1=fail_first_p1)
        assert live_run(tmp_path, chat.data(tmp_path), "pmpwl", "--concurrency", "1") == 0
        def second_p1(sample):
            return [i for i, call in enumerate(chat.calls) if call == ("P1", sample)][1]

        first_retry = min(second_p1(1), second_p1(2))
        assert chat.calls.index(("P2", 3)) < first_retry
        assert chat.calls.index(("P2", 4)) < first_retry
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl")
        assert [r["verdict"] for r in records] == ["YES"] * 6

    def test_a_backoff_under_a_merged_definition_does_not_deadlock(self, tmp_path, capsys, monkeypatch):
        # Six samples name Penny. The first DefineWord answers 500, so the sample that
        # made it backs off with no slot, while the next ones wait for its definition,
        # also with no slot, so that it can take a slot back.
        monkeypatch.setattr(gateway, "BACKOFF_BASE_S", 0.2)
        defines = []

        def post(self, url, **kwargs):
            system = kwargs["json"]["messages"][0]["content"]
            if system == DEFINE_SYSTEM[LanguageTag.ENGLISH]:
                defines.append(url)
                if len(defines) == 1:
                    response = requests.Response()
                    response.status_code = 500
                    return response
            return chat_answer(url, **kwargs)

        monkeypatch.setattr(requests.Session, "post", post)
        data = tmp_path / "penny.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n"
            + "".join(f"{n}\t1\twe met Penny on day {n}\n" for n in range(1, 7)),
            encoding="utf-8",
        )
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(live_run(tmp_path, data, "pmpwl", "--concurrency", "1")),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive(), "the run deadlocked"
        assert codes == [0]
        assert len(defines) == 2
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl")
        assert [r["word_info_sources"] for r in records] == [["llm_only"]] * 6

    def test_ctrl_c_starts_no_queued_sample(self, tmp_path, capsys, monkeypatch):
        # At --concurrency 1 there are four threads. Writing sample 1's record raises
        # KeyboardInterrupt once sample 5 has started on the thread that sample 1
        # freed. Samples 2 to 5 run on only once the interrupt is recorded, so no
        # thread comes free before it, and samples 6 to 12 are queued: none starts.
        monkeypatch.setattr(requests.Session, "post", answer_yes)
        interrupted = threading.Event()
        fifth_started = threading.Event()
        interrupt_recorded = watch_for_pool_shutdown(monkeypatch)
        started = []  # (sample, whether the interrupt was raised yet)
        run_pipeline = cli.run_pipeline

        def traced(sample, variant, deps):
            started.append((sample.id, interrupted.is_set()))
            if sample.id == "semeval:5":
                fifth_started.set()
            if sample.id != "semeval:1":
                assert interrupt_recorded.wait(timeout=10)
            return run_pipeline(sample, variant, deps)

        dumps = json.dumps

        def interrupt_first_record(obj, **kwargs):
            if isinstance(obj, dict) and "wall_time" in obj and not interrupted.is_set():
                assert fifth_started.wait(timeout=10)
                interrupted.set()
                raise KeyboardInterrupt
            return dumps(obj, **kwargs)

        monkeypatch.setattr(cli, "run_pipeline", traced)
        monkeypatch.setattr(json, "dumps", interrupt_first_record)
        data = numbered_samples(tmp_path, 12)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            live_run(tmp_path, data, "pmp", "--concurrency", "1")
        assert set(threading.enumerate()) - before == set()
        assert sorted(started) == [(f"semeval:{n}", False) for n in range(1, 6)]

    def test_at_most_2n_requests_in_flight_on_at_most_4n_threads(self, tmp_path, capsys, monkeypatch):
        # Every sample's first P1 answers 503 and is retried, so samples keep stepping
        # out of their slots; no more than 4 requests may ever be in flight.
        monkeypatch.setattr(gateway, "BACKOFF_BASE_S", 0.05)
        before = set(threading.enumerate())
        lock = threading.Lock()
        in_flight = [0]
        most_in_flight = [0]
        threads = set()
        failed = set()

        def post(self, url, **kwargs):
            with lock:
                in_flight[0] += 1
                most_in_flight[0] = max(most_in_flight[0], in_flight[0])
                threads.update(set(threading.enumerate()) - before)
            try:
                time.sleep(0.005)
                system, user = (m["content"] for m in kwargs["json"]["messages"][:2])
                if system.startswith(EN.p1_system) and user not in failed:
                    failed.add(user)
                    response = requests.Response()
                    response.status_code = 503
                    return response
                return chat_answer(url, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(requests.Session, "post", post)
        data = tmp_path / "twelve.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n"
            + "".join(f"{n}\t1\twe met Person{n} today\n" for n in range(1, 13)),
            encoding="utf-8",
        )
        assert live_run(tmp_path, data, "pmpwl", "--concurrency", "2") == 0
        assert len(failed) == 12
        assert most_in_flight[0] <= 4
        assert len(threads) <= 8

    def test_chat_search_and_page_requests_share_the_bound(self, tmp_path, capsys, monkeypatch):
        # At --concurrency 1 at most two requests may be in flight, whatever their
        # kind. Each sample's search gives a thin snippet, so its page is fetched; a
        # page counts until its body is read to the end, and each read takes a while.
        lock = threading.Lock()
        in_flight = [0]
        most_in_flight = [0]
        kinds = []

        def enter(kind):
            with lock:
                kinds.append(kind)
                in_flight[0] += 1
                most_in_flight[0] = max(most_in_flight[0], in_flight[0])

        def leave():
            with lock:
                in_flight[0] -= 1

        class HeldBody(io.BytesIO):
            def read(self, size=-1):
                time.sleep(0.005)
                block = super().read(size)
                if not block:
                    leave()
                return block

        def post(self, url, **kwargs):
            enter("chat")
            try:
                time.sleep(0.005)
                return web_chat_answer(self, url, **kwargs)
            finally:
                leave()

        def get(self, url, **kwargs):
            response = requests.Response()
            response.status_code = 200
            if url != GoogleSearchClient.endpoint:
                enter("page")
                response.headers["Content-Type"] = "text/html; charset=utf-8"
                response.encoding = "utf-8"
                response.raw = HeldBody(f"<p>{url} names someone we know.</p>".encode())
                return response
            enter("search")
            try:
                time.sleep(0.005)
                query = kwargs["params"]["q"]
                items = [{"link": f"https://pages.invalid/{query}", "snippet": query}]
                response._content = json.dumps({"items": items}).encode()
                return response
            finally:
                leave()

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setattr(requests.Session, "get", get)
        monkeypatch.setenv("SEARCH_API_KEY", "key")
        monkeypatch.setenv("SEARCH_ENGINE_ID", "engine")
        assert live_run(tmp_path, NameChat.data(tmp_path), "pmpwg", "--concurrency", "1") == 0
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwg" / "run.jsonl")
        assert [r["verdict"] for r in records] == ["YES"] * len(NAMES)
        assert kinds.count("search") == kinds.count("page") == len(NAMES)
        assert in_flight[0] == 0, "a page body was not read to its end"
        assert most_in_flight[0] == 2

    def test_a_sample_defines_its_keywords_on_its_own_thread(self, tmp_path, monkeypatch):
        before = set(threading.enumerate())
        alive = []

        def post(self, url, **kwargs):
            alive.append(len(set(threading.enumerate()) - before))
            time.sleep(0.002)
            response = requests.Response()
            response.status_code = 200
            response._content = b'{"message": {"content": "Final decision: YES"}}'
            return response

        monkeypatch.setattr(requests.Session, "post", post)
        names = iter(f"Name{n}" for n in range(32))
        rows = [
            f"{i}\t1\t" + " and ".join(next(names) for _ in range(MAX_KEYWORDS_PER_SAMPLE))
            for i in range(1, 5)
        ]
        data = tmp_path / "eight_keywords.tsv"
        data.write_text("Tweet index\tLabel\tTweet text\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            [
                "run",
                "--dataset", "semeval",
                "--data-path", str(data),
                "--variant", "pmpwl",
                "--model", "m",
                "--backend", "live",
                "--endpoint", "http://chat.invalid/api/chat",
                "--concurrency", "2",
                "--transcripts", str(tmp_path / "transcripts"),
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl"
        records = [json.loads(line) for line in run_log.read_text().splitlines()]
        assert [len(r["keywords"]) for r in records] == [MAX_KEYWORDS_PER_SAMPLE] * 4
        # 32 definitions, 4 P1s, and 1 to 4 P2s: every P2 reads the same analysis,
        # so each P2 that starts after the first is stored is answered by the store.
        assert 37 <= len(alive) <= 40
        assert max(alive) == 4


class TestReusedRunDirectory:
    """A second run into one --out leaves only its own outputs."""

    def test_crash_removes_the_earlier_report(self, tmp_path, capsys, monkeypatch):
        _, _, run_dir = run_fixture_cli(tmp_path, capsys)
        assert (run_dir / "report.json").exists()

        def crash(sample, variant, deps):
            raise RuntimeError("crashed mid-run")

        monkeypatch.setattr(cli, "run_pipeline", crash)
        with pytest.raises(RuntimeError):
            run_fixture_cli(tmp_path, capsys)
        assert not (run_dir / "report.json").exists()
        assert not (run_dir / "report.txt").exists()

    def test_all_skipped_run_removes_the_earlier_report(self, tmp_path, capsys):
        _, _, run_dir = run_fixture_cli(tmp_path, capsys)
        assert (run_dir / "report.txt").exists()
        # semeval:4 replays to a verdict-less reflection, so this run skips everything
        data = tmp_path / "only_skipped.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n4\t0\tthe quarterly report is ready for review\n",
            encoding="utf-8",
        )
        code, captured, _ = run_fixture_cli(tmp_path, capsys, "--data-path", str(data))
        assert code == 1
        assert "every sample was skipped" in captured.out
        assert len(read_run_log(run_dir / "run.jsonl")) == 1
        assert not (run_dir / "report.json").exists()
        assert not (run_dir / "report.txt").exists()

    def test_second_live_run_starts_an_empty_exchange_log(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(requests.Session, "post", answer_yes)
        data = tmp_path / "two.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n1\t1\tfirst sample\n2\t0\tsecond sample\n",
            encoding="utf-8",
        )
        exchange_log = tmp_path / "runs" / "semeval" / "m" / "pmp" / "exchanges.jsonl"
        backends = []
        for _ in range(2):
            assert live_run(tmp_path, data, "pmp", "--concurrency", "1") == 0
            lines = exchange_log.read_text(encoding="utf-8").splitlines()
            backends.append([json.loads(line)["backend"] for line in lines])
        # Two samples of two chats each; the second run is answered from the store.
        assert [len(run) for run in backends] == [4, 4]
        assert backends[1] == ["store"] * 4


class TestCorruptRecords:
    """A corrupt store or cache file skips only the sample that reads it, and stays."""

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(FIXTURE / "transcripts", tmp_path / "transcripts")
        shutil.copytree(FIXTURE / "cache", tmp_path / "cache")
        return tmp_path

    def replay(self, tmp_path):
        code = main(
            [
                "run",
                "--dataset", "semeval",
                "--data-path", str(FIXTURE / "data" / "semeval_mini.tsv"),
                "--variant", "pmpwl",
                "--model", "fixture-model",
                "--backend", "replay",
                "--transcripts", str(tmp_path / "transcripts"),
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        return read_run_log(tmp_path / "runs" / "semeval" / "fixture-model" / "pmpwl" / "run.jsonl")

    def assert_only_skipped(self, records, sample_id):
        golden = read_run_log(GOLDEN_RUN)
        assert [r["sample_id"] for r in records] == [g["sample_id"] for g in golden]
        for record, expected in zip(records, golden):
            record.pop("wall_time")
            if record["sample_id"] == sample_id:
                assert record["skipped_reason"].startswith("CorruptRecord: corrupt record ")
            else:
                assert record == expected

    def p1_transcript(self, tmp_path, sample_id):
        (digest,) = [r["p1_digest"] for r in read_run_log(GOLDEN_RUN) if r["sample_id"] == sample_id]
        return tmp_path / "transcripts" / "fixture-model" / f"{digest}.json"

    def test_truncated_transcript_in_a_replay(self, store):
        path = self.p1_transcript(store, "semeval:1")
        path.write_text('{"digest": "trunc', encoding="utf-8")
        self.assert_only_skipped(self.replay(store), "semeval:1")
        assert path.read_text(encoding="utf-8") == '{"digest": "trunc'

    def test_transcript_with_edited_messages(self, store):
        path = self.p1_transcript(store, "semeval:2")
        record = json.loads(path.read_text(encoding="utf-8"))
        record["messages"][1]["content"] += " (edited)"
        path.write_text(json.dumps(record), encoding="utf-8")
        self.assert_only_skipped(self.replay(store), "semeval:2")

    def test_transcript_with_null_response_text(self, store):
        path = self.p1_transcript(store, "semeval:1")
        record = json.loads(path.read_text(encoding="utf-8"))
        record["response_text"] = None
        path.write_text(json.dumps(record), encoding="utf-8")
        records = self.replay(store)
        self.assert_only_skipped(records, "semeval:1")
        assert records[0]["skipped_reason"].endswith("no response_text string")

    def test_truncated_cache_file(self, store):
        cache = WordInfoCache(store / "cache" / "fixture-model" / "en")
        path = cache.path_for("Heathrow", RetrievalSource.LLM_ONLY)
        path.write_text('{"keyword": "Heath', encoding="utf-8")
        self.assert_only_skipped(self.replay(store), "semeval:3")

    def test_cache_file_without_a_valid_definition(self, store):
        cache = WordInfoCache(store / "cache" / "fixture-model" / "en")
        path = cache.path_for("Heathrow", RetrievalSource.LLM_ONLY)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["definition"] = ""
        path.write_text(json.dumps(record), encoding="utf-8")
        records = self.replay(store)
        self.assert_only_skipped(records, "semeval:3")
        assert records[2]["skipped_reason"].endswith("ValueError: definition must be non-empty")

    def test_truncated_transcript_in_a_live_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(requests.Session, "post", answer_yes)
        data = FIXTURE / "data" / "semeval_mini.tsv"
        first = load_dataset(DatasetKind.SEMEVAL_2018_T3, data)[0]
        digest = build_p1(first, [], load_templates(LanguageTag.ENGLISH)).digest
        path = tmp_path / "transcripts" / "m" / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"digest": "trunc', encoding="utf-8")
        assert live_run(tmp_path, data, "pmp", "--concurrency", "1") == 0
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl")
        assert [r["sample_id"] for r in records] == [
            "semeval:1", "semeval:2", "semeval:3", "semeval:4",
        ]
        assert records[0]["skipped_reason"].startswith("CorruptRecord: corrupt record ")
        assert [r["verdict"] for r in records[1:]] == ["YES", "YES", "YES"]
        assert path.read_text(encoding="utf-8") == '{"digest": "trunc'


class TestLiveTransport:
    def test_null_content_skips_samples_and_writes_run_log(self, tmp_path, capsys, monkeypatch):
        def post(self, url, json=None, timeout=None):
            response = requests.Response()
            response.status_code = 200
            response._content = b'{"choices": [{"message": {"role": "assistant", "content": null}}]}'
            return response

        monkeypatch.setattr(requests.Session, "post", post)
        code = main(
            [
                "run",
                "--dataset", "semeval",
                "--data-path", str(FIXTURE / "data" / "semeval_mini.tsv"),
                "--variant", "pmp",
                "--model", "m",
                "--backend", "live",
                "--endpoint", "http://chat.invalid/v1/chat/completions",
                "--transcripts", str(tmp_path / "transcripts"),
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 1
        assert "every sample was skipped" in capsys.readouterr().out
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl"
        records = [json.loads(line) for line in run_log.read_text().splitlines()]
        assert len(records) == 4
        assert all("TransportError" in r["skipped_reason"] for r in records)

    def test_duplicate_texts_replay_as_recorded(self, tmp_path, capsys, monkeypatch):
        # A sampling model: every call gets a different answer.
        calls = []

        def post(self, url, **kwargs):
            calls.append(kwargs["json"])
            n = len(calls)
            answer = f"Answer {n}.\nFinal decision: {'YES' if n % 4 < 2 else 'NO'}"
            response = requests.Response()
            response.status_code = 200
            response._content = json.dumps({"message": {"content": answer}}).encode()
            return response

        monkeypatch.setattr(requests.Session, "post", post)
        data = tmp_path / "twice.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n"
            "1\t1\tgreat, another Monday at the Office\n"
            "2\t1\tgreat, another Monday at the Office\n",
            encoding="utf-8",
        )

        def run(backend, *extra):
            code = main(
                [
                    "run",
                    "--dataset", "semeval",
                    "--data-path", str(data),
                    "--variant", "pmpwl",
                    "--model", "m",
                    "--backend", backend,
                    "--concurrency", "1",
                    "--transcripts", str(tmp_path / "transcripts"),
                    "--cache", str(tmp_path / "cache"),
                    "--out", str(tmp_path / backend),
                    *extra,
                ]
            )
            assert code == 0
            run_log = tmp_path / backend / "semeval" / "m" / "pmpwl" / "run.jsonl"
            return [
                (r["sample_id"], r["verdict"], r["p1_digest"], r["p2_digest"])
                for r in map(json.loads, run_log.read_text().splitlines())
            ]

        recorded = run("live", "--endpoint", "http://chat.invalid/api/chat")
        assert all(verdict is not None for _, verdict, _, _ in recorded)
        n_calls = len(calls)
        assert run("replay") == recorded
        assert len(calls) == n_calls

    def test_each_model_answers_from_its_own_store(self, tmp_path, capsys, monkeypatch):
        asked = []

        def post(self, url, **kwargs):
            model = kwargs["json"]["model"]
            asked.append(model)
            answer = f"{model} thinks so.\nFinal decision: {'YES' if model == 'a' else 'NO'}"
            response = requests.Response()
            response.status_code = 200
            response._content = json.dumps({"message": {"content": answer}}).encode()
            return response

        monkeypatch.setattr(requests.Session, "post", post)

        def run(model):
            code = main(
                [
                    "run",
                    "--dataset", "semeval",
                    "--data-path", str(FIXTURE / "data" / "semeval_mini.tsv"),
                    "--variant", "pmp",
                    "--model", model,
                    "--backend", "live",
                    "--concurrency", "1",
                    "--endpoint", "http://chat.invalid/api/chat",
                    "--transcripts", str(tmp_path / "transcripts"),
                    "--out", str(tmp_path / "runs"),
                ]
            )
            assert code == 0
            run_log = tmp_path / "runs" / "semeval" / model / "pmp" / "run.jsonl"
            return [json.loads(line)["verdict"] for line in run_log.read_text().splitlines()]

        assert run("a") == ["YES"] * 4
        n_asked = len(asked)
        assert run("b") == ["NO"] * 4
        assert asked == ["a"] * n_asked + ["b"] * n_asked
        assert sorted(p.name for p in (tmp_path / "transcripts").iterdir()) == ["a", "b"]

    def test_search_403_stops_the_run(self, tmp_path, capsys, monkeypatch):
        # A 403 (bad key, disabled API or spent daily quota) would fail every later
        # search, so the run stops at sample 3, whose keyword draws it, and exits 2
        # with the records before it written.
        def get(self, url, **kwargs):
            query = kwargs["params"]["q"]
            response = requests.Response()
            response.status_code = 403 if query == "Carla" else 200
            snippet = " ".join([f"{query} is someone we know"] * 5)
            items = [{"link": "https://a.invalid", "snippet": snippet}]
            response._content = json.dumps({"items": items}).encode()
            return response

        monkeypatch.setattr(requests.Session, "post", web_chat_answer)
        monkeypatch.setattr(requests.Session, "get", get)
        monkeypatch.setenv("SEARCH_API_KEY", "key")
        monkeypatch.setenv("SEARCH_ENGINE_ID", "engine")
        data = NameChat.data(tmp_path)
        assert live_run(tmp_path, data, "pmpwg", "--concurrency", "1") == 2
        assert "search refused (403)" in capsys.readouterr().err
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwg" / "run.jsonl")
        assert [(r["sample_id"], r["verdict"]) for r in records] == [
            ("semeval:1", "YES"), ("semeval:2", "YES"),
        ]

    def test_searches_and_page_fetches_share_one_session(self, tmp_path, monkeypatch):
        used = []

        def get(self, url, **kwargs):
            used.append(self)
            response = requests.Response()
            response.status_code = 200
            response.headers["Content-Type"] = "text/html; charset=utf-8"
            response.encoding = "utf-8"
            response.raw = io.BytesIO(b"<p>page text</p>")
            return response

        monkeypatch.setattr(requests.Session, "get", get)
        monkeypatch.setenv("SEARCH_API_KEY", "key")
        monkeypatch.setenv("SEARCH_ENGINE_ID", "engine")
        config = build_run_config(
            make_args(
                dataset="twitter-id",
                data_path=str(FIXTURE / "data" / "twitter_mini.csv"),
                variant="pmpwg",
                model="m",
                backend="live",
                endpoint="http://chat.invalid/api/chat",
            )
        )
        deps = build_deps(config, tmp_path)
        for i in range(5):
            assert deps.fetcher(f"http://pages.invalid/{i}") == "page text"
        assert len(used) == 5
        assert all(session is used[0] for session in used)
        assert deps.search.session is used[0]


class TestRunLogReading:
    def test_round_trip_from_real_run(self, tmp_path, capsys):
        _, _, run_dir = run_fixture_cli(tmp_path, capsys)
        report = report_from_log(run_dir / "run.jsonl")
        assert report.n_scored == 3
        assert report.n_skipped == 1
        assert (run_dir / "report.json").read_text(encoding="utf-8") == report_to_json(report) + "\n"

    def test_blank_lines_ignored(self, tmp_path):
        log = tmp_path / "run.jsonl"
        record = {"sample_id": "a", "gold": "YES", "verdict": "YES", "skipped_reason": None}
        log.write_text(json.dumps(record) + "\n\n", encoding="utf-8")
        assert len(read_run_log(log)) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        log = tmp_path / "run.jsonl"
        record = {"sample_id": "a", "gold": "YES", "verdict": "YES", "skipped_reason": None}
        log.write_text(json.dumps(record) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(LogParseError) as info:
            read_run_log(log)
        assert "line 2" in str(info.value)

    def test_missing_key_reports_line(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text('{"sample_id": "a", "gold": "YES", "verdict": "YES"}\n', encoding="utf-8")
        with pytest.raises(LogParseError) as info:
            read_run_log(log)
        assert "skipped_reason" in str(info.value)
        assert "line 1" in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LogParseError):
            read_run_log(tmp_path / "absent.jsonl")

    def test_null_verdict_is_valid(self, tmp_path):
        log = tmp_path / "run.jsonl"
        record = {"sample_id": "a", "gold": "NO", "verdict": None, "skipped_reason": "x"}
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert read_run_log(log) == [record]


VALID_RECORD = {"sample_id": "a", "gold": "YES", "verdict": "YES", "skipped_reason": None}


@pytest.mark.parametrize(
    "second_line,message",
    [
        (json.dumps({**VALID_RECORD, "sample_id": "b", "gold": "MAYBE"}), "gold must be YES or NO"),
        (json.dumps({**VALID_RECORD, "sample_id": "b", "gold": None}), "gold must be YES or NO"),
        (json.dumps({**VALID_RECORD, "sample_id": "b", "verdict": "yes"}), "verdict must be"),
        (json.dumps(list(VALID_RECORD)), "not a JSON object"),
        ("5", "not a JSON object"),
        (json.dumps({**VALID_RECORD, "sample_id": ["b"]}), "sample_id must be a string"),
        (json.dumps(VALID_RECORD), "repeated sample_id 'a'"),
    ],
    ids=["gold-maybe", "gold-null", "verdict-lowercase", "array", "number", "id-list", "repeated-id"],
)
def test_report_names_the_line_of_a_malformed_record(tmp_path, capsys, second_line, message):
    log = tmp_path / "run.jsonl"
    log.write_text(json.dumps(VALID_RECORD) + "\n" + second_line + "\n", encoding="utf-8")
    code = main(["report", str(log)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: line 2: ")
    assert message in captured.err


class TestReportCommand:
    def test_table_output(self, tmp_path, capsys):
        _, _, run_dir = run_fixture_cli(tmp_path, capsys)
        code = main(["report", str(run_dir / "run.jsonl")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("class")
        assert "scored: 3  skipped: 1" in captured.out

    def test_json_output(self, tmp_path, capsys):
        _, _, run_dir = run_fixture_cli(tmp_path, capsys)
        code = main(["report", "--json", str(run_dir / "run.jsonl")])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["n_scored"] == 3

    def test_all_skipped_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        record = {"sample_id": "a", "gold": "YES", "verdict": None, "skipped_reason": "x"}
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = main(["report", str(log)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class ModelChat:
    """Chat model that answers as the model each request names: a definition names
    the model and the language of its system prompt, and every other call says YES."""

    LANGUAGES = {DEFINE_SYSTEM[language]: language.value for language in LanguageTag}

    def __init__(self, monkeypatch):
        self.defines = []
        monkeypatch.setattr(requests.Session, "post", self.post)

    def post(self, url, **kwargs):
        model = kwargs["json"]["model"]
        system, user = (message["content"] for message in kwargs["json"]["messages"][:2])
        text = "Final decision: YES"
        if system in self.LANGUAGES:
            self.defines.append((model, self.LANGUAGES[system], user))
            text = f"{user} as {model} defines it in {self.LANGUAGES[system]}."
        response = requests.Response()
        response.status_code = 200
        response._content = json.dumps({"message": {"content": text}}).encode()
        return response


class TestDefinitionCacheKeys:
    """One --cache root keeps each model's definitions in each language apart."""

    def run(self, tmp_path, dataset, data, model):
        code = main(
            [
                "run",
                "--dataset", dataset,
                "--data-path", str(data),
                "--variant", "pmpwl",
                "--model", model,
                "--backend", "live",
                "--endpoint", "http://chat.invalid/api/chat",
                "--concurrency", "1",
                "--transcripts", str(tmp_path / "transcripts"),
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 0

    def definition(self, tmp_path, model, language):
        cache = WordInfoCache(tmp_path / "cache" / model / language)
        return cache.lookup("Alice", RetrievalSource.LLM_ONLY).definition

    def data(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_each_model_defines_and_keeps_its_own(self, tmp_path, monkeypatch):
        chat = ModelChat(monkeypatch)
        data = self.data(tmp_path, "data.tsv", "Tweet index\tLabel\tTweet text\n1\t1\twe met Alice\n")
        self.run(tmp_path, "semeval", data, "model-a")
        self.run(tmp_path, "semeval", data, "model-b")
        assert chat.defines == [("model-a", "en", "Alice"), ("model-b", "en", "Alice")]
        assert self.definition(tmp_path, "model-a", "en") == "Alice as model-a defines it in en."
        assert self.definition(tmp_path, "model-b", "en") == "Alice as model-b defines it in en."

    def test_each_language_defines_and_keeps_its_own(self, tmp_path, monkeypatch):
        chat = ModelChat(monkeypatch)
        semeval = self.data(tmp_path, "data.tsv", "Tweet index\tLabel\tTweet text\n1\t1\twe met Alice\n")
        twitter = self.data(tmp_path, "data.csv", "tweet,label\nkami bertemu Alice,1\n")
        self.run(tmp_path, "semeval", semeval, "m")
        self.run(tmp_path, "twitter-id", twitter, "m")
        assert chat.defines == [("m", "en", "Alice"), ("m", "id", "Alice")]
        assert self.definition(tmp_path, "m", "en") == "Alice as m defines it in en."
        assert self.definition(tmp_path, "m", "id") == "Alice as m defines it in id."
