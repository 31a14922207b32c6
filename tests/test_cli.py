"""Command line: config resolution, the run and report subcommands, exit codes."""

import errno
import io
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import pytest
from fakes import FIXTURE, copy_fixture, http_response, patch_endpoints, run, say_yes, semeval_file

from sarcrag import cli, gateway
from sarcrag.cli import (
    build_deps,
    build_parser,
    build_run_config,
    main,
    read_run_log,
    report_from_log,
)
from sarcrag.core import LanguageTag, RetrievalSource
from sarcrag.errors import ConfigError, LogParseError
from sarcrag.evaluation import report_to_json
from sarcrag.keywords import MAX_KEYWORDS_PER_SAMPLE
from sarcrag.retrieval import DEFINE_SYSTEM, REFINE_SYSTEM, WordInfoCache
from sarcrag.templates import load_templates

GOLDEN_RUN = Path(__file__).parent / "golden" / "replay" / "semeval_pmpwl.jsonl"
EN = load_templates(LanguageTag.ENGLISH)

def make_args(**overrides):
    """The arguments of `sarcrag run` with no flag given, then `overrides` set."""
    args = build_parser().parse_args(["run"])
    vars(args).update(overrides)
    return args


def replay_args(tmp_path, **overrides):
    copy_fixture(tmp_path)
    base = dict(
        dataset="semeval",
        data_path=str(FIXTURE / "data" / "semeval_mini.tsv"),
        variant="pmpwl",
        model="fixture-model",
        backend="replay",
        transcripts=str(tmp_path / "transcripts"),
        cache=str(tmp_path / "cache"),
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
        assert run(tmp_path, "--config", config_file, fixture=True) == 2
        captured = capsys.readouterr()
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

    def test_replay_requires_transcript_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(replay_args(tmp_path, transcripts=str(tmp_path / "absent")))

    def test_live_requires_endpoint(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            build_run_config(replay_args(tmp_path, backend="live"))
        assert str(info.value) == (
            "live backend needs an http:// or https:// endpoint URL "
            "(flag, LLM_ENDPOINT, or config file), got None"
        )

    # requests would fail every chat with InvalidSchema or MissingSchema, skipping
    # every sample; the config check stops the run before it starts.
    @pytest.mark.parametrize(
        "endpoint", ["localhost:11434/api/chat", "//localhost:11434/api/chat", "ftp://host/api/chat"]
    )
    def test_live_endpoint_must_be_an_http_url(self, tmp_path, endpoint):
        with pytest.raises(ConfigError) as info:
            build_run_config(replay_args(tmp_path, backend="live", endpoint=endpoint))
        assert repr(endpoint) in str(info.value)

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


# Where a replay of the fixture writes its records, under the root given to `run`.
FIXTURE_RUN = Path("runs", "semeval", "fixture-model", "pmpwl")


class TestRunCommand:
    def test_replay_run_end_to_end(self, tmp_path, capsys):
        assert run(tmp_path, fixture=True) == 0
        assert "scored 3, skipped 1" in capsys.readouterr().out
        run_dir = tmp_path / FIXTURE_RUN
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
        assert run(tmp_path, "--limit", 2, fixture=True) == 0
        records = (tmp_path / FIXTURE_RUN / "run.jsonl").read_text().splitlines()
        assert len(records) == 2

    def test_replay_makes_no_exchange_log(self, tmp_path, capsys):
        run(tmp_path, fixture=True)
        assert not (tmp_path / FIXTURE_RUN / "exchanges.jsonl").exists()

    def test_all_skipped_run_writes_no_report(self, tmp_path, capsys):
        # semeval:4 replays to a verdict-less reflection, so this run skips everything
        data = tmp_path / "only_skipped.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n4\t0\tthe quarterly report is ready for review\n",
            encoding="utf-8",
        )
        code = run(tmp_path, "--data-path", data, fixture=True)
        captured = capsys.readouterr()
        run_dir = tmp_path / FIXTURE_RUN
        assert code == 1
        assert "every sample was skipped" in captured.out
        assert (run_dir / "run.jsonl").exists()
        assert not (run_dir / "report.json").exists()

    def test_a_data_file_with_no_samples_exits_2(self, tmp_path, capsys):
        data = semeval_file(tmp_path / "header_only.tsv", [])
        assert run(tmp_path, "--data-path", data, fixture=True) == 2
        assert capsys.readouterr().err == f"error: data path holds no samples: {data}\n"
        assert not (tmp_path / FIXTURE_RUN / "run.jsonl").exists()

    def test_next_sample_starts_when_any_running_one_finishes(self, tmp_path, capsys, monkeypatch):
        # At --concurrency 1 there are four threads. semeval:1 runs until semeval:5
        # has started, which it can only do on a thread that another sample frees;
        # records still come out in sample order.
        patch_endpoints(monkeypatch, chat=say_yes)
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
        data = numbered_samples(tmp_path, 6)
        assert run(tmp_path, "--data-path", data, "--variant", "pmp", "--concurrency", 1) == 0
        assert waited == [True]
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl")
        assert [r["sample_id"] for r in records] == [f"semeval:{n}" for n in range(1, 7)]

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["run", "--dataset", "semeval", "--backend", "replay"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")


def numbered_samples(tmp_path, count):
    return semeval_file(tmp_path / "numbered.tsv", [f"sample number {n}" for n in range(1, count + 1)])


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


NAMES = ["Alice", "Bruno", "Carla", "Dmitri", "Edgar", "Fiona", "Gustav", "Helga", "Ivan", "Jonas"]


class NameChat:
    """Chat model for samples that each name one person: records each call as its
    kind and the number of its sample, in order of arrival, and can hold P1 or answer
    it with the HTTP status that `on_p1` returns."""

    def __init__(self, monkeypatch, on_p1=lambda sample: None):
        self.calls = []
        self.arrived = threading.Condition()
        self.on_p1 = on_p1
        patch_endpoints(monkeypatch, chat=self.chat)

    @staticmethod
    def data(tmp_path, count=6):
        """A SemEval file of count samples, the n-th naming NAMES[n - 1]."""
        return semeval_file(tmp_path / "names.tsv", [f"we met {name} today" for name in NAMES[:count]])

    def wait_for(self, call):
        with self.arrived:
            return self.arrived.wait_for(lambda: call in self.calls, timeout=10)

    def chat(self, system, user, payload):
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
        return (self.on_p1(sample) if kind == "P1" else None) or text


def chat_answer(system, user, payload):
    """A chat answer: P2 says YES, and any other call names its user message."""
    return "Final decision: YES" if system.startswith(EN.p2_system) else f"{user} is a person."


def web_chat_answer(system, user, payload):
    """A chat answer of a web-grounded run over `NameChat.data`: each sample's one
    keyword is the name in it, and each refinement says "A person."."""
    if system == EN.keyword_identify:
        return f"Words I do not know: {user}"
    if system == EN.keyword_csv:
        return next(name for name in NAMES if name in user)
    if system == REFINE_SYSTEM[LanguageTag.ENGLISH]:
        return "A person."
    return chat_answer(system, user, payload)


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
        data = chat.data(tmp_path)
        assert run(tmp_path, "--data-path", data, "--variant", "pmpwl", "--concurrency", 1) == 0
        [(reached, held_for)] = held
        assert reached
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl")
        assert [r["sample_id"] for r in records] == [f"semeval:{n}" for n in range(1, 7)]
        # A sample's wall_time is its own run, the hold included.
        assert records[0]["wall_time"] >= held_for

    def test_a_record_is_on_disk_while_a_later_sample_runs(self, tmp_path, capsys, monkeypatch):
        # Sample 2's P1 is held until sample 1's record can be read from run.jsonl.
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl"
        readable = []

        def hold_second(sample):
            if sample == 2:
                deadline = time.monotonic() + 10
                while not run_log.read_text(encoding="utf-8") and time.monotonic() < deadline:
                    time.sleep(0.01)
                readable.append([r["sample_id"] for r in read_run_log(run_log)])

        chat = NameChat(monkeypatch, on_p1=hold_second)
        data = chat.data(tmp_path, count=2)
        assert run(tmp_path, "--data-path", data, "--variant", "pmpwl", "--concurrency", 1) == 0
        assert readable == [["semeval:1"]]

    @pytest.mark.parametrize(
        ("concurrency", "error"),
        [
            pytest.param(1, RuntimeError, id="RuntimeError"),
            pytest.param(1, KeyboardInterrupt, id="KeyboardInterrupt"),
            pytest.param(2, RuntimeError, id="2-RuntimeError"),
            pytest.param(2, KeyboardInterrupt, id="2-KeyboardInterrupt"),
        ],
    )
    def test_crash_stops_new_samples_and_leaves_no_thread(
        self, tmp_path, capsys, monkeypatch, concurrency, error
    ):
        # There are 4 * concurrency threads and two more samples. Sample 3 raises once
        # each thread has started a sample, and the others run on until the crash is
        # recorded, so no thread comes free before it: the last two samples are still
        # queued, and neither runs. The records of samples 1 and 2 are written.
        threads = 4 * concurrency
        chat = NameChat(monkeypatch)
        crash_recorded = watch_for_crash(monkeypatch)
        run_pipeline = cli.run_pipeline
        all_started = threading.Barrier(threads)
        # (sample, whether the crash was recorded yet), as each starts and finishes
        started, finished = [], []

        def crash_on_third(sample, variant, deps):
            started.append((sample.id, crash_recorded.is_set()))
            all_started.wait(timeout=10)
            if sample.id == "semeval:3":
                raise error("crashed mid-run")
            assert crash_recorded.wait(timeout=10)
            trace = run_pipeline(sample, variant, deps)
            finished.append((sample.id, crash_recorded.is_set()))
            return trace

        monkeypatch.setattr(cli, "run_pipeline", crash_on_third)
        data = chat.data(tmp_path, threads + 2)
        before = set(threading.enumerate())
        raised = []

        def run_and_catch():
            try:
                flags = ["--data-path", data, "--variant", "pmpwl", "--concurrency", concurrency]
                run(tmp_path, *flags)
            except BaseException as exc:
                raised.append(exc)

        runner = threading.Thread(target=run_and_catch, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert [type(exc) for exc in raised] == [error]
        assert set(threading.enumerate()) - before == set()
        ran = [n for n in range(1, threads + 1) if n != 3]
        assert sorted(started) == sorted((f"semeval:{n}", False) for n in range(1, threads + 1))
        assert sorted(finished) == sorted((f"semeval:{n}", True) for n in ran)
        assert {sample for _, sample in chat.calls} == set(ran)
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl"
        assert [(r["sample_id"], r["verdict"]) for r in read_run_log(run_log)] == [
            ("semeval:1", "YES"), ("semeval:2", "YES"),
        ]

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
        data = chat.data(tmp_path)
        assert run(tmp_path, "--data-path", data, "--variant", "pmpwl", "--concurrency", 1) == 0
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

        def chat(system, user, payload):
            if system == DEFINE_SYSTEM[LanguageTag.ENGLISH]:
                defines.append(user)
                if len(defines) == 1:
                    return 500
            return chat_answer(system, user, payload)

        patch_endpoints(monkeypatch, chat=chat)
        data = semeval_file(tmp_path / "penny.tsv", [f"we met Penny on day {n}" for n in range(1, 7)])
        codes = []
        flags = ["--data-path", data, "--variant", "pmpwl", "--concurrency", 1]
        runner = threading.Thread(target=lambda: codes.append(run(tmp_path, *flags)), daemon=True)
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
        patch_endpoints(monkeypatch, chat=say_yes)
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
            run(tmp_path, "--data-path", data, "--variant", "pmp", "--concurrency", 1)
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

        def chat(system, user, payload):
            with lock:
                in_flight[0] += 1
                most_in_flight[0] = max(most_in_flight[0], in_flight[0])
                threads.update(set(threading.enumerate()) - before)
            try:
                time.sleep(0.005)
                if system.startswith(EN.p1_system) and user not in failed:
                    failed.add(user)
                    return 503
                return chat_answer(system, user, payload)
            finally:
                with lock:
                    in_flight[0] -= 1

        patch_endpoints(monkeypatch, chat=chat)
        data = semeval_file(tmp_path / "twelve.tsv", [f"we met Person{n} today" for n in range(1, 13)])
        assert run(tmp_path, "--data-path", data, "--variant", "pmpwl", "--concurrency", 2) == 0
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

        def enter():
            with lock:
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

        def held(respond):
            def holding(*args):
                enter()
                try:
                    time.sleep(0.005)
                    return respond(*args)
                finally:
                    leave()

            return holding

        def page(url):
            enter()
            response = http_response()
            response.raw = HeldBody(f"<p>{url} names someone we know.</p>".encode())
            return response

        exchanges = patch_endpoints(
            monkeypatch,
            chat=held(web_chat_answer),
            search=held(lambda query: [{"link": f"https://pages.invalid/{query}", "snippet": query}]),
            page=page,
        )
        monkeypatch.setenv("SEARCH_API_KEY", "key")
        monkeypatch.setenv("SEARCH_ENGINE_ID", "engine")
        data = NameChat.data(tmp_path)
        assert run(tmp_path, "--data-path", data, "--variant", "pmpwg", "--concurrency", 1) == 0
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwg" / "run.jsonl")
        assert [r["verdict"] for r in records] == ["YES"] * 6
        kinds = [kind for kind, _ in exchanges]
        assert kinds.count("search") == kinds.count("page") == 6
        assert in_flight[0] == 0, "a page body was not read to its end"
        assert most_in_flight[0] == 2

    def test_a_sample_defines_its_keywords_on_its_own_thread(self, tmp_path, monkeypatch):
        before = set(threading.enumerate())
        alive = []

        def chat(system, user, payload):
            alive.append(len(set(threading.enumerate()) - before))
            time.sleep(0.002)
            return "Final decision: YES"

        patch_endpoints(monkeypatch, chat=chat)
        names = iter(f"Name{n}" for n in range(32))
        texts = [" and ".join(next(names) for _ in range(MAX_KEYWORDS_PER_SAMPLE)) for _ in range(4)]
        data = semeval_file(tmp_path / "eight_keywords.tsv", texts)
        assert run(tmp_path, "--data-path", data, "--variant", "pmpwl", "--concurrency", 2) == 0
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
        run(tmp_path, fixture=True)
        run_dir = tmp_path / FIXTURE_RUN
        assert (run_dir / "report.json").exists()

        def crash(sample, variant, deps):
            raise RuntimeError("crashed mid-run")

        monkeypatch.setattr(cli, "run_pipeline", crash)
        with pytest.raises(RuntimeError):
            run(tmp_path, fixture=True)
        assert not (run_dir / "report.json").exists()
        assert not (run_dir / "report.txt").exists()

    def test_all_skipped_run_removes_the_earlier_report(self, tmp_path, capsys):
        run(tmp_path, fixture=True)
        run_dir = tmp_path / FIXTURE_RUN
        assert (run_dir / "report.txt").exists()
        # semeval:4 replays to a verdict-less reflection, so this run skips everything
        data = tmp_path / "only_skipped.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n4\t0\tthe quarterly report is ready for review\n",
            encoding="utf-8",
        )
        assert run(tmp_path, "--data-path", data, fixture=True) == 1
        assert "every sample was skipped" in capsys.readouterr().out
        assert len(read_run_log(run_dir / "run.jsonl")) == 1
        assert not (run_dir / "report.json").exists()
        assert not (run_dir / "report.txt").exists()

    def test_second_live_run_starts_an_empty_exchange_log(self, tmp_path, capsys, monkeypatch):
        patch_endpoints(monkeypatch, chat=say_yes)
        data = tmp_path / "two.tsv"
        data.write_text(
            "Tweet index\tLabel\tTweet text\n1\t1\tfirst sample\n2\t0\tsecond sample\n",
            encoding="utf-8",
        )
        exchange_log = tmp_path / "runs" / "semeval" / "m" / "pmp" / "exchanges.jsonl"
        backends = []
        for _ in range(2):
            assert run(tmp_path, "--data-path", data, "--variant", "pmp", "--concurrency", 1) == 0
            lines = exchange_log.read_text(encoding="utf-8").splitlines()
            backends.append([json.loads(line)["backend"] for line in lines])
        # Two samples of two chats each; the second run is answered from the store.
        assert [len(run) for run in backends] == [4, 4]
        assert backends[1] == ["store"] * 4


REPLAY = ()
LIVE = ("--backend", "live", "--endpoint", "http://chat.invalid/api/chat")


def p1_of(sample_id):
    """The path of the fixture's P1 transcript of sample_id, relative to the fixture."""
    (digest,) = [r["p1_digest"] for r in read_run_log(GOLDEN_RUN) if r["sample_id"] == sample_id]
    return Path("transcripts", "fixture-model", f"{digest}.json")


# The path of the fixture's cached definition of Heathrow, relative to the fixture.
HEATHROW = WordInfoCache(Path("cache", "fixture-model", "en")).path_for("Heathrow", RetrievalSource.LLM_ONLY)


def truncate(path):
    path.write_text(path.read_text(encoding="utf-8")[:12], encoding="utf-8")


def make_a_directory(path):
    path.unlink()
    path.mkdir()


def rewrite(**fields):
    """A corruption that sets fields in the JSON record of a file."""
    return lambda path: path.write_text(
        json.dumps({**json.loads(path.read_text(encoding="utf-8")), **fields}), encoding="utf-8"
    )


def file_state(path):
    """The bytes of the file at path, or else whether a directory is there."""
    return path.read_bytes() if path.is_file() else path.is_dir()


class TestCorruptRecords:
    """A corrupt store or cache file skips only the sample that reads it, and stays."""

    @pytest.mark.parametrize(
        "flags, file, corrupt, sample_id, reason",
        [
            (REPLAY, p1_of("semeval:1"), truncate, "semeval:1", "JSONDecodeError: "),
            (LIVE, p1_of("semeval:1"), truncate, "semeval:1", "JSONDecodeError: "),
            (REPLAY, p1_of("semeval:1"), make_a_directory, "semeval:1", "IsADirectoryError: "),
            (REPLAY, p1_of("semeval:2"), rewrite(messages=[]), "semeval:2", "its messages do not hash"),
            (REPLAY, p1_of("semeval:1"), rewrite(response_text=None), "semeval:1", "no response_text string"),
            (REPLAY, HEATHROW, truncate, "semeval:3", "JSONDecodeError: "),
            (REPLAY, HEATHROW, make_a_directory, "semeval:3", "IsADirectoryError: "),
            (REPLAY, HEATHROW, rewrite(definition=""), "semeval:3", "ValueError: definition must be non-empty"),
        ],
        ids=[
            "truncated-transcript", "truncated-transcript-live", "directory-for-a-transcript", "other-messages",
            "null-response-text", "truncated-cache-file", "directory-for-a-cache-file", "empty-definition",
        ],
    )
    def test_a_corrupt_file_skips_only_its_sample(
        self, tmp_path, monkeypatch, flags, file, corrupt, sample_id, reason
    ):
        path = copy_fixture(tmp_path) / file
        corrupt(path)
        before = file_state(path)
        # Every answer is stored, so a live run asks the model nothing: a chat request fails the test.
        patch_endpoints(monkeypatch)
        assert run(tmp_path, *flags, fixture=True) == 0
        records = read_run_log(tmp_path / FIXTURE_RUN / "run.jsonl")
        golden = read_run_log(GOLDEN_RUN)
        assert [r["sample_id"] for r in records] == [g["sample_id"] for g in golden]
        for record, expected in zip(records, golden):
            record.pop("wall_time")
            if record["sample_id"] == sample_id:
                assert record["skip_class"] == "CorruptRecord"
                assert record["skipped_reason"].startswith(f"CorruptRecord: corrupt record {path}: {reason}")
            else:
                assert record == expected
        assert file_state(path) == before


class TestRunFileWriteFailures:
    """A failed write of one of the run's own files stops the run with exit 2 and one
    error line naming the file; the records written before it stay."""

    @pytest.mark.parametrize(
        "name,room,kept",
        [
            ("pmp", 0, None),
            ("exchanges.jsonl", 2, None),
            ("run.jsonl", 2, 2),
            ("report.json", 0, 4),
            ("report.txt", 0, 4),
        ],
        ids=["run-directory", "exchanges", "run-log", "report-json", "report-txt"],
    )
    def test_a_full_disk_stops_the_run(self, tmp_path, capsys, monkeypatch, name, room, kept):
        """Every write to a file or directory called name after the first `room` fails."""
        writes = []

        def take_room():
            writes.append(name)
            if len(writes) > room:
                raise OSError(errno.ENOSPC, "No space left on device")

        class FullFile:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                take_room()
                return self.fh.write(text)

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        path_open, path_mkdir = Path.open, Path.mkdir

        def open_(path, *args, **kwargs):
            fh = path_open(path, *args, **kwargs)
            return FullFile(fh) if path.name == name else fh

        def mkdir(path, *args, **kwargs):
            if path.name == name:
                take_room()
            return path_mkdir(path, *args, **kwargs)

        patch_endpoints(monkeypatch, chat=say_yes)
        monkeypatch.setattr(Path, "open", open_)
        monkeypatch.setattr(Path, "mkdir", mkdir)
        run_dir = tmp_path / "runs" / "semeval" / "m" / "pmp"
        data = FIXTURE / "data" / "semeval_mini.tsv"
        code = run(tmp_path, "--data-path", data, "--variant", "pmp", "--concurrency", 1)
        captured = capsys.readouterr()
        assert code == 2
        failed = run_dir if name == "pmp" else run_dir / name
        assert captured.err.startswith(f"error: write failed for {failed}: ")
        assert "No space left on device" in captured.err
        assert captured.err.count("\n") == 1
        if kept is not None:
            assert len(read_run_log(run_dir / "run.jsonl")) == kept


class TestLiveTransport:
    def test_null_content_skips_samples_and_writes_run_log(self, tmp_path, capsys, monkeypatch):
        null_content = {"choices": [{"message": {"role": "assistant", "content": None}}]}
        patch_endpoints(monkeypatch, chat=lambda system, user, payload: http_response(null_content))
        data = FIXTURE / "data" / "semeval_mini.tsv"
        endpoint = "http://chat.invalid/v1/chat/completions"
        assert run(tmp_path, "--data-path", data, "--variant", "pmp", "--endpoint", endpoint) == 1
        assert "every sample was skipped" in capsys.readouterr().out
        run_log = tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl"
        records = [json.loads(line) for line in run_log.read_text().splitlines()]
        assert len(records) == 4
        assert all("TransportError" in r["skipped_reason"] for r in records)

    def test_lone_surrogate_in_an_answer_skips_only_its_sample(self, tmp_path, capsys, monkeypatch):
        # JSON can escape one half of a surrogate pair, which UTF-8 cannot encode.
        def chat(system, user, payload):
            return "analysis \ud83d of it" if user == "sample number 1" else say_yes(system, user, payload)

        patch_endpoints(monkeypatch, chat=chat)
        data = numbered_samples(tmp_path, 2)
        assert run(tmp_path, "--data-path", data, "--variant", "pmp") == 0
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl")
        assert [(r["sample_id"], r["skip_class"], r["verdict"]) for r in records] == [
            ("semeval:1", "TransportError", None),
            ("semeval:2", None, "YES"),
        ]

    def test_duplicate_texts_replay_as_recorded(self, tmp_path, capsys, monkeypatch):
        # A sampling model: every call gets a different answer.
        calls = []

        def chat(system, user, payload):
            calls.append(payload)
            n = len(calls)
            return f"Answer {n}.\nFinal decision: {'YES' if n % 4 < 2 else 'NO'}"

        patch_endpoints(monkeypatch, chat=chat)
        data = semeval_file(tmp_path / "twice.tsv", ["great, another Monday at the Office"] * 2)

        def records(backend):
            flags = ["--data-path", data, "--variant", "pmpwl", "--backend", backend, "--concurrency", 1]
            assert run(tmp_path, *flags) == 0
            run_log = tmp_path / "runs" / "semeval" / "m" / "pmpwl" / "run.jsonl"
            return [
                (r["sample_id"], r["verdict"], r["p1_digest"], r["p2_digest"])
                for r in map(json.loads, run_log.read_text().splitlines())
            ]

        recorded = records("live")
        assert all(verdict is not None for _, verdict, _, _ in recorded)
        n_calls = len(calls)
        assert records("replay") == recorded
        assert len(calls) == n_calls

    def test_a_blank_answer_replays_as_recorded(self, tmp_path, capsys, monkeypatch):
        # A blank answer is stored like any other, so its replay skips the sample with
        # EmptyResponse, as the live run did.
        def chat(system, user, payload):
            return "  " if user == "sample number 1" else say_yes(system, user, payload)

        patch_endpoints(monkeypatch, chat=chat)
        data = numbered_samples(tmp_path, 2)

        def records(backend):
            assert run(tmp_path, "--data-path", data, "--variant", "pmp", "--backend", backend) == 0
            run_log = tmp_path / "runs" / "semeval" / "m" / "pmp" / "run.jsonl"
            return [{k: v for k, v in r.items() if k != "wall_time"} for r in read_run_log(run_log)]

        recorded = records("live")
        assert [(r["sample_id"], r["skip_class"]) for r in recorded] == [
            ("semeval:1", "EmptyResponse"), ("semeval:2", None),
        ]
        assert records("replay") == recorded

    def test_each_model_answers_from_its_own_store(self, tmp_path, capsys, monkeypatch):
        asked = []

        def chat(system, user, payload):
            model = payload["model"]
            asked.append(model)
            return f"{model} thinks so.\nFinal decision: {'YES' if model == 'a' else 'NO'}"

        patch_endpoints(monkeypatch, chat=chat)

        def verdicts(model):
            data = FIXTURE / "data" / "semeval_mini.tsv"
            flags = ["--data-path", data, "--variant", "pmp", "--model", model, "--concurrency", 1]
            assert run(tmp_path, *flags) == 0
            run_log = tmp_path / "runs" / "semeval" / model / "pmp" / "run.jsonl"
            return [json.loads(line)["verdict"] for line in run_log.read_text().splitlines()]

        assert verdicts("a") == ["YES"] * 4
        n_asked = len(asked)
        assert verdicts("b") == ["NO"] * 4
        assert asked == ["a"] * n_asked + ["b"] * n_asked
        assert sorted(p.name for p in (tmp_path / "transcripts").iterdir()) == ["a", "b"]

    def test_search_403_stops_the_run(self, tmp_path, capsys, monkeypatch):
        # A 403 (bad key, disabled API or spent daily quota) would fail every later
        # search, so the run stops at sample 3, whose keyword draws it, and exits 2
        # with the records before it written.
        def search(query):
            snippet = " ".join([f"{query} is someone we know"] * 5)
            return 403 if query == "Carla" else [{"link": "https://a.invalid", "snippet": snippet}]

        patch_endpoints(monkeypatch, chat=web_chat_answer, search=search)
        monkeypatch.setenv("SEARCH_API_KEY", "key")
        monkeypatch.setenv("SEARCH_ENGINE_ID", "engine")
        data = NameChat.data(tmp_path)
        assert run(tmp_path, "--data-path", data, "--variant", "pmpwg", "--concurrency", 1) == 2
        assert "search refused (403)" in capsys.readouterr().err
        records = read_run_log(tmp_path / "runs" / "semeval" / "m" / "pmpwg" / "run.jsonl")
        assert [(r["sample_id"], r["verdict"]) for r in records] == [
            ("semeval:1", "YES"), ("semeval:2", "YES"),
        ]

    def test_searches_and_page_fetches_share_one_session(self, tmp_path, monkeypatch):
        exchanges = patch_endpoints(monkeypatch, page=lambda url: b"<p>page text</p>")
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
        search, fetcher = build_deps(config, tmp_path).web
        for i in range(5):
            assert fetcher(f"http://pages.invalid/{i}") == "page text"
        used = [session for _, session in exchanges]
        assert len(used) == 5
        assert all(session is used[0] for session in used)
        assert search.session is used[0]


class TestRunLogReading:
    def test_round_trip_from_real_run(self, tmp_path, capsys):
        run(tmp_path, fixture=True)
        run_dir = tmp_path / FIXTURE_RUN
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
        assert "invalid JSON" in str(info.value)

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


@pytest.mark.parametrize(
    "option,content",
    [
        ("--data-path", "directory"),
        ("--data-path", "missing"),
        ("--data-path", "index\tlabel\ttweet\n1\t1\tcaf\xe9\n".encode("latin-1")),
        ("--config", "model: caf\xe9\n".encode("latin-1")),
        ("report", json.dumps(VALID_RECORD).replace('"a"', '"caf\xe9"').encode("latin-1")),
    ],
    ids=["data-directory", "data-missing", "data-latin1", "config-latin1", "log-latin1"],
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, option, content):
    # A directory, a missing file, or a file that is not UTF-8, stops the command with
    # one error line.
    path = tmp_path / "input"
    if content == "directory":
        path.mkdir()
    elif content != "missing":
        path.write_bytes(content)
    if option == "report":
        code, captured = main(["report", str(path)]), capsys.readouterr()
    else:
        code, captured = run(tmp_path, option, path, fixture=True), capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if option == "--data-path":
        assert str(path) in captured.err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "dataset,content",
    [
        # One unclosed quote runs a field past the csv module's size limit.
        ("twitter-id", 'tweet,label\nok,1\n"' + "x" * 140_000 + ",1\nmore,0\n"),
        # JSON escapes of half a surrogate pair, which UTF-8 cannot encode.
        ("mustard", '{"a": {"utterance": "hi \\ud83d", "sarcasm": true}}'),
        ("mustard", '{"k\\udc00": {"utterance": "hi", "sarcasm": true}}'),
    ],
    ids=["twitter-field-too-large", "mustard-surrogate-utterance", "mustard-surrogate-key"],
)
def test_malformed_data_file_exits_2_before_the_run(tmp_path, capsys, dataset, content):
    path = tmp_path / "input"
    path.write_text(content, encoding="utf-8")
    assert run(tmp_path, "--dataset", dataset, "--data-path", path, fixture=True) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert str(path) in captured.err
    assert not (tmp_path / "runs").exists()


class TestReportCommand:
    def test_table_output(self, tmp_path, capsys):
        run(tmp_path, fixture=True)
        capsys.readouterr()  # the run's own summary line
        code = main(["report", str(tmp_path / FIXTURE_RUN / "run.jsonl")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("class")
        assert "scored: 3  skipped: 1" in captured.out

    def test_json_output(self, tmp_path, capsys):
        run(tmp_path, fixture=True)
        capsys.readouterr()  # the run's own summary line
        code = main(["report", "--json", str(tmp_path / FIXTURE_RUN / "run.jsonl")])
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
        patch_endpoints(monkeypatch, chat=self.chat)

    def chat(self, system, user, payload):
        model = payload["model"]
        if system not in self.LANGUAGES:
            return "Final decision: YES"
        self.defines.append((model, self.LANGUAGES[system], user))
        return f"{user} as {model} defines it in {self.LANGUAGES[system]}."


class TestDefinitionCacheKeys:
    """One --cache root keeps each model's definitions in each language apart."""

    def run(self, tmp_path, dataset, data, model):
        flags = ["--dataset", dataset, "--data-path", data, "--variant", "pmpwl", "--model", model]
        assert run(tmp_path, *flags, "--concurrency", 1) == 0

    def definition(self, tmp_path, model, language):
        cache = WordInfoCache(tmp_path / "cache" / model / language)
        return cache.lookup("Alice", RetrievalSource.LLM_ONLY).definition

    def test_each_model_defines_and_keeps_its_own(self, tmp_path, monkeypatch):
        chat = ModelChat(monkeypatch)
        data = semeval_file(tmp_path / "data.tsv", ["we met Alice"])
        self.run(tmp_path, "semeval", data, "model-a")
        self.run(tmp_path, "semeval", data, "model-b")
        assert chat.defines == [("model-a", "en", "Alice"), ("model-b", "en", "Alice")]
        assert self.definition(tmp_path, "model-a", "en") == "Alice as model-a defines it in en."
        assert self.definition(tmp_path, "model-b", "en") == "Alice as model-b defines it in en."

    def test_each_language_defines_and_keeps_its_own(self, tmp_path, monkeypatch):
        chat = ModelChat(monkeypatch)
        semeval = semeval_file(tmp_path / "data.tsv", ["we met Alice"])
        twitter = tmp_path / "data.csv"
        twitter.write_text("tweet,label\nkami bertemu Alice,1\n", encoding="utf-8")
        self.run(tmp_path, "semeval", semeval, "m")
        self.run(tmp_path, "twitter-id", twitter, "m")
        assert chat.defines == [("m", "en", "Alice"), ("m", "id", "Alice")]
        assert self.definition(tmp_path, "m", "en") == "Alice as m defines it in en."
        assert self.definition(tmp_path, "m", "id") == "Alice as m defines it in id."
