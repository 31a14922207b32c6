"""Dataset loaders: formats, normalization, flattening, and failure modes."""

import functools
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sarcrag.core import DatasetKind, Label, LanguageTag
from sarcrag.datasets import flatten_dialogue, load_dataset, normalize_text
from sarcrag.errors import FormatError

load_semeval = functools.partial(load_dataset, DatasetKind.SEMEVAL_2018_T3)
load_mustard = functools.partial(load_dataset, DatasetKind.MUSTARD)
load_twitter_id = functools.partial(load_dataset, DatasetKind.TWITTER_INDONESIA)


class TestNormalizeText:
    def test_collapses_whitespace_runs(self):
        assert normalize_text("a  b\tc\nd") == "a b c d"

    def test_trims_ends(self):
        assert normalize_text("  hello  ") == "hello"

    def test_preserves_case(self):
        assert normalize_text("Hello WORLD") == "Hello WORLD"

    def test_applies_canonical_composition(self):
        # e + combining acute composes to a single code point
        assert normalize_text("café") == "café"

    def test_empty_input(self):
        assert normalize_text("   ") == ""


def write_semeval(tmp_path, rows, header="Tweet index\tLabel\tTweet text"):
    path = tmp_path / "data.tsv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestLoadSemeval:
    def test_basic_load(self, tmp_path):
        path = write_semeval(tmp_path, ["1\t1\tso helpful", "2\t0\tplain text"])
        samples = load_semeval(path)
        assert [s.id for s in samples] == ["semeval:1", "semeval:2"]
        assert samples[0].gold is Label.SARCASTIC
        assert samples[1].gold is Label.NOT_SARCASTIC
        assert all(s.language is LanguageTag.ENGLISH for s in samples)

    def test_byte_order_mark_read_as_no_text(self, tmp_path):
        plain = load_semeval(write_semeval(tmp_path, ["1\t1\tso helpful"]))
        header = "\ufeffTweet index\tLabel\tTweet text"
        bom = load_semeval(write_semeval(tmp_path, ["1\t1\tso helpful"], header=header))
        assert bom == plain

    def test_header_line_skipped(self, tmp_path):
        path = write_semeval(tmp_path, ["7\t1\ttext"])
        assert [s.id for s in load_semeval(path)] == ["semeval:7"]

    def test_file_without_a_header_rejected(self, tmp_path):
        # Its first row would be read as the header and lost.
        path = tmp_path / "data.tsv"
        path.write_text("1\t1\tfirst tweet\n2\t0\tsecond tweet\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 1: "):
            load_semeval(path)

    @pytest.mark.parametrize("index", ["", "  "])
    def test_blank_index_rejected(self, tmp_path, index):
        path = write_semeval(tmp_path, ["1\t1\tfirst", f"{index}\t0\thello"])
        with pytest.raises(FormatError, match="^line 3: blank index"):
            load_semeval(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_semeval(tmp_path, ["1\t1\ta", "", "2\t0\tb"])
        assert len(load_semeval(path)) == 2

    def test_text_normalized(self, tmp_path):
        path = write_semeval(tmp_path, ["1\t1\t  two   spaces  "])
        assert load_semeval(path)[0].text == "two spaces"

    def test_empty_tweet_rows_skipped(self, tmp_path):
        path = write_semeval(tmp_path, ["1\t1\t   ", "2\t0\tkept"])
        assert [s.id for s in load_semeval(path)] == ["semeval:2"]

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = write_semeval(tmp_path, ["1\t1\ta", "2\t0"])
        with pytest.raises(FormatError) as info:
            load_semeval(path)
        assert "line 3" in str(info.value)

    def test_bad_label_rejected(self, tmp_path):
        path = write_semeval(tmp_path, ["1\t2\ttext"])
        with pytest.raises(FormatError):
            load_semeval(path)

    def test_duplicate_native_index_rejected(self, tmp_path):
        path = write_semeval(tmp_path, ["1\t1\ta", "1\t0\tb"])
        with pytest.raises(FormatError):
            load_semeval(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1e"])
    def test_row_ends_only_at_a_line_end(self, tmp_path, separator):
        path = write_semeval(tmp_path, [f"1\t1\tI just love Mondays{separator}#not", "2\t0\tplain"])
        samples = load_semeval(path)
        assert [(s.id, s.text) for s in samples] == [
            ("semeval:1", "I just love Mondays #not"),
            ("semeval:2", "plain"),
        ]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_each_line_end_ends_a_row(self, tmp_path, newline):
        path = tmp_path / "data.tsv"
        path.write_bytes(newline.join(["header", "1\t1\ta", "2\t0"]).encode("utf-8"))
        with pytest.raises(FormatError, match="^line 3: "):
            load_semeval(path)


def write_mustard(tmp_path, payload):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadMustard:
    def test_basic_load(self, tmp_path):
        path = write_mustard(
            tmp_path,
            {
                "1_60": {
                    "context": ["It's just a privilege to watch your mind at work."],
                    "utterance": "It's just a privilege to watch your mind at work.",
                    "sarcasm": True,
                }
            },
        )
        (sample,) = load_mustard(path)
        assert sample.id == "mustard:1_60"
        assert sample.gold is Label.SARCASTIC
        assert sample.language is LanguageTag.ENGLISH
        assert sample.text.endswith("{It's just a privilege to watch your mind at work.}")

    def test_byte_order_mark_read_as_no_text(self, tmp_path):
        payload = {"1_60": {"utterance": "Oh, great.", "sarcasm": True}}
        plain = load_mustard(write_mustard(tmp_path, payload))
        path = tmp_path / "data.json"
        path.write_text("\ufeff" + json.dumps(payload), encoding="utf-8")
        assert load_mustard(path) == plain

    def test_empty_context_is_bare_braced_utterance(self, tmp_path):
        path = write_mustard(
            tmp_path, {"k": {"context": [], "utterance": "fine words", "sarcasm": False}}
        )
        (sample,) = load_mustard(path)
        assert sample.text == "{fine words}"

    def test_missing_context_key_allowed(self, tmp_path):
        path = write_mustard(tmp_path, {"k": {"utterance": "alone", "sarcasm": False}})
        assert load_mustard(path)[0].text == "{alone}"

    def test_null_context_is_bare_braced_utterance(self, tmp_path):
        path = write_mustard(tmp_path, {"k": {"context": None, "utterance": "x", "sarcasm": True}})
        assert load_mustard(path)[0].text == "{x}"

    @pytest.mark.parametrize("context", ["hello there", "", ["line", 3], [None], {"a": "b"}])
    def test_context_other_than_a_list_of_strings_rejected(self, tmp_path, context):
        path = write_mustard(
            tmp_path, {"k7": {"context": context, "utterance": "sure, great", "sarcasm": True}}
        )
        with pytest.raises(FormatError, match="entry 'k7': context"):
            load_mustard(path)

    def test_context_lines_joined_with_spaces(self, tmp_path):
        path = write_mustard(
            tmp_path,
            {"k": {"context": ["first line", "second line"], "utterance": "end", "sarcasm": True}},
        )
        assert load_mustard(path)[0].text == "first line second line {end}"

    def test_missing_utterance_rejected(self, tmp_path):
        path = write_mustard(tmp_path, {"k": {"context": [], "sarcasm": True}})
        with pytest.raises(FormatError):
            load_mustard(path)

    def test_missing_sarcasm_rejected(self, tmp_path):
        path = write_mustard(tmp_path, {"k": {"utterance": "x"}})
        with pytest.raises(FormatError):
            load_mustard(path)

    def test_non_boolean_sarcasm_rejected(self, tmp_path):
        path = write_mustard(tmp_path, {"k": {"utterance": "x", "sarcasm": 1}})
        with pytest.raises(FormatError):
            load_mustard(path)

    def test_empty_utterance_rejected(self, tmp_path):
        path = write_mustard(tmp_path, {"k": {"utterance": "  ", "sarcasm": True}})
        with pytest.raises(FormatError):
            load_mustard(path)

    @pytest.mark.parametrize("key", ["", "  "])
    def test_blank_entry_id_rejected(self, tmp_path, key):
        entries = {"k": {"utterance": "x", "sarcasm": True}, key: {"utterance": "y", "sarcasm": False}}
        path = write_mustard(tmp_path, entries)
        with pytest.raises(FormatError, match=f"^entry {key!r}: blank id"):
            load_mustard(path)

    def test_repeated_entry_id_rejected(self, tmp_path):
        # json.load would keep only the last of the two entries.
        path = tmp_path / "data.json"
        path.write_text(
            '{"a": {"utterance": "one", "sarcasm": true}, "a": {"utterance": "two", "sarcasm": false}}',
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="^repeated key 'a'$"):
            load_mustard(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = write_mustard(tmp_path, [{"utterance": "x", "sarcasm": True}])
        with pytest.raises(FormatError):
            load_mustard(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_mustard(path)

    @pytest.mark.parametrize(
        "key,entry",
        [
            ("k", {"utterance": "great \ud83d", "sarcasm": True}),
            ("k\udc00", {"utterance": "great", "sarcasm": True}),
            ("k", {"context": ["fine \udfff"], "utterance": "great", "sarcasm": True}),
        ],
        ids=["utterance", "key", "context"],
    )
    def test_lone_surrogate_escape_rejected(self, tmp_path, key, entry):
        # A truncated scraped tweet can leave half of a JSON surrogate-pair escape.
        path = write_mustard(tmp_path, {key: entry})
        assert "\\ud" in path.read_text(encoding="utf-8")
        with pytest.raises(FormatError, match="^entry .* lone surrogate"):
            load_mustard(path)


class TestFlattenDialogue:
    def test_empty_context(self):
        assert flatten_dialogue([], "said this") == "{said this}"

    def test_single_context_line(self):
        assert flatten_dialogue(["lead in"], "said this") == "lead in {said this}"

    def test_multiple_context_lines(self):
        assert flatten_dialogue(["a", "b", "c"], "d") == "a b c {d}"


def write_twitter(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTwitterId:
    def test_comma_separated(self, tmp_path):
        path = write_twitter(tmp_path, "tweet,label\nhalo dunia,1\nbiasa saja,0\n")
        samples = load_twitter_id(path)
        assert [s.id for s in samples] == ["twitter-id:0", "twitter-id:1"]
        assert samples[0].gold is Label.SARCASTIC
        assert all(s.language is LanguageTag.INDONESIAN for s in samples)

    def test_byte_order_mark_read_as_no_text(self, tmp_path):
        plain = load_twitter_id(write_twitter(tmp_path, "tweet,label\nhalo dunia,1\n"))
        bom = load_twitter_id(write_twitter(tmp_path, "\ufefftweet,label\nhalo dunia,1\n"))
        assert bom == plain

    def test_tab_separated(self, tmp_path):
        path = write_twitter(tmp_path, "tweet\tlabel\nhalo\t1\n", name="data.tsv")
        assert load_twitter_id(path)[0].text == "halo"

    def test_quoted_fields_with_commas(self, tmp_path):
        path = write_twitter(tmp_path, 'tweet,label\n"wah, keren banget",1\n')
        assert load_twitter_id(path)[0].text == "wah, keren banget"

    def test_extra_columns_located_by_header(self, tmp_path):
        path = write_twitter(tmp_path, "id,tweet,label\n9,halo,0\n")
        (sample,) = load_twitter_id(path)
        assert sample.text == "halo"
        assert sample.id == "twitter-id:0"

    def test_header_names_case_insensitive(self, tmp_path):
        path = write_twitter(tmp_path, "Tweet,Label\nhalo,1\n")
        assert len(load_twitter_id(path)) == 1

    def test_missing_required_header_rejected(self, tmp_path):
        path = write_twitter(tmp_path, "text,label\nhalo,1\n")
        with pytest.raises(FormatError) as info:
            load_twitter_id(path)
        assert "line 1" in str(info.value)

    def test_empty_file_rejected(self, tmp_path):
        path = write_twitter(tmp_path, "")
        with pytest.raises(FormatError):
            load_twitter_id(path)

    def test_short_row_reports_line(self, tmp_path):
        path = write_twitter(tmp_path, "tweet,label\nhalo\n")
        with pytest.raises(FormatError) as info:
            load_twitter_id(path)
        assert "line 2" in str(info.value)

    def test_bad_label_after_a_multi_line_tweet_reports_its_own_line(self, tmp_path):
        path = write_twitter(tmp_path, 'tweet,label\n"first line\nsecond line\nthird",1\nok,x\n')
        with pytest.raises(FormatError) as info:
            load_twitter_id(path)
        assert "line 5" in str(info.value)

    def test_short_row_after_a_multi_line_tweet_reports_its_own_line(self, tmp_path):
        path = write_twitter(tmp_path, 'tweet,label\n"first line\nsecond line\nthird",1\nhalo\n')
        with pytest.raises(FormatError) as info:
            load_twitter_id(path)
        assert "line 5" in str(info.value)

    def test_row_the_csv_module_rejects_reports_its_start_line(self, tmp_path):
        # One unclosed quote runs a field past the csv module's size limit; so does a
        # quoted header field of 200,000 characters.
        for content, line in [
            ('tweet,label\nok,1\n"' + "x" * 140_000 + ",1\nmore,0\n", 3),
            ('"' + "x" * 200_000 + '",tweet,label\nok,1\n', 1),
        ]:
            path = write_twitter(tmp_path, content)
            with pytest.raises(FormatError, match=f"^line {line}: .*field larger than field limit"):
                load_twitter_id(path)

    def test_multi_line_tweet_keeps_row_ordinal_ids(self, tmp_path):
        path = write_twitter(tmp_path, 'tweet,label\n"first\nsecond",1\nhalo,0\n')
        assert [s.id for s in load_twitter_id(path)] == ["twitter-id:0", "twitter-id:1"]

    def test_blank_and_empty_text_rows_skipped_but_numbering_advances(self, tmp_path):
        path = write_twitter(tmp_path, "tweet,label\nhalo,1\n,0\n\n ,  \nlagi,0\n")
        samples = load_twitter_id(path)
        assert [s.id for s in samples] == ["twitter-id:0", "twitter-id:4"]


class TestLoadDataset:
    def test_dispatches_by_kind(self, tmp_path):
        semeval = write_semeval(tmp_path, ["1\t1\ttext"])
        assert load_dataset(DatasetKind.SEMEVAL_2018_T3, semeval)[0].id == "semeval:1"
        twitter = write_twitter(tmp_path, "tweet,label\nhalo,0\n")
        assert load_dataset(DatasetKind.TWITTER_INDONESIA, twitter)[0].id == "twitter-id:0"
        mustard = write_mustard(tmp_path, {"k": {"utterance": "x", "sarcasm": True}})
        assert load_dataset(DatasetKind.MUSTARD, mustard)[0].id == "mustard:k"


# File contents near each format, so that generated files often parse. A row is
# well formed twice as often as it is one loose line.
_FIELD = st.text(alphabet=st.sampled_from([*"abZ 01é", "\u2028", "\x00", '"', ","]), max_size=12)
_LOOSE_LINE = st.text(alphabet='ab Z\t\r\n,"01\x00\u2028é', max_size=20)
_LABEL = st.sampled_from(["0", "1", "0", "1", " 1", "x"])
_SEMEVAL_ROW = st.tuples(st.sampled_from(["1", "2", "3", "x", ""]), _LABEL, _FIELD).map("\t".join)
_SEMEVAL_FILES = st.lists(_SEMEVAL_ROW | _SEMEVAL_ROW | _LOOSE_LINE, max_size=4).map(
    lambda rows: "\n".join(["index\tlabel\ttweet", *rows])
)
# Half of the JSON strings may hold a lone surrogate, which json.dumps escapes.
_JSON_TEXT = st.text(alphabet="ab Z{}\n\"é\U0001f600", max_size=8) | st.text(
    alphabet=st.sampled_from([*"ab Z", "\U0001f600", "\ud83d", "\udc00"]), max_size=8
)
_MUSTARD_ENTRY = st.fixed_dictionaries(
    {"utterance": _JSON_TEXT, "sarcasm": st.booleans()},
    optional={"context": st.lists(_JSON_TEXT, max_size=2)},
)
_MUSTARD_FILES = st.dictionaries(_JSON_TEXT, _MUSTARD_ENTRY | st.just(None), max_size=3).map(
    json.dumps
)
_TWITTER_ROW = st.tuples(_FIELD, _LABEL)
_TWITTER_FILES = st.tuples(
    st.sampled_from([",", "\t"]),
    st.sampled_from([("tweet", "label"), ("id", "tweet", "label"), ("Tweet", "Label"), ("text", "label")]),
    st.lists(_TWITTER_ROW | _TWITTER_ROW | _LOOSE_LINE.map(lambda line: (line,)), max_size=4),
).map(lambda file: "\n".join(file[0].join(row) for row in [file[1], *file[2]]))
_FILES = st.one_of(
    _SEMEVAL_FILES.map(lambda text: (DatasetKind.SEMEVAL_2018_T3, text)),
    _MUSTARD_FILES.map(lambda text: (DatasetKind.MUSTARD, text)),
    _TWITTER_FILES.map(lambda text: (DatasetKind.TWITTER_INDONESIA, text)),
).map(lambda case: (case[0], case[1].encode("utf-8")))
_BYTES = st.tuples(st.sampled_from(list(DatasetKind)), st.binary(max_size=40))


@given(case=st.one_of(_FILES, _BYTES))
@example(case=(DatasetKind.TWITTER_INDONESIA, b'tweet,label\nok,1\n"' + b"x" * 140_000 + b",1\n"))
@example(case=(DatasetKind.MUSTARD, b'{"a": {"utterance": "hi \\ud83d", "sarcasm": true}}'))
@example(case=(DatasetKind.MUSTARD, b'{"k\\udc00": {"utterance": "hi", "sarcasm": true}}'))
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    # Each example overwrites the one file, so sharing tmp_path between examples is safe.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_loader_returns_encodable_samples_or_raises_format_error(tmp_path, case):
    # Of each of the three formats, and of arbitrary bytes given to any loader.
    kind, contents = case
    path = tmp_path / "data"
    path.write_bytes(contents)
    try:
        samples = load_dataset(kind, path)
    except FormatError:
        return
    for sample in samples:
        assert sample.id.split(":", 1)[1].strip() and sample.text
        sample.id.encode("utf-8")
        sample.text.encode("utf-8")
