"""Dataset loaders producing normalized Sample lists from the three corpora."""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from collections.abc import Iterator
from pathlib import Path

from .core import DATASET_LANGUAGE, DatasetKind, Label, Sample
from .errors import FormatError

# (row id, normalized text, gold label) for each row whose text is not blank.
Rows = Iterator[tuple[object, str, Label]]


def normalize_text(text: str) -> str:
    """NFC, collapse whitespace runs to single spaces, trim; case is preserved."""
    text = unicodedata.normalize("NFC", text)
    return re.sub(r"\s+", " ", text).strip()


def load_dataset(kind: DatasetKind, path: Path | str) -> list[Sample]:
    """The file's samples in order, each with the id `<kind>:<row id>`.

    FormatError naming the file if it cannot be read or is not UTF-8; FormatError on a
    malformed row, or, once the whole file has parsed, on a repeated id.
    """
    read_rows = {
        DatasetKind.SEMEVAL_2018_T3: _semeval_rows,
        DatasetKind.MUSTARD: _mustard_rows,
        DatasetKind.TWITTER_INDONESIA: _twitter_id_rows,
    }[kind]
    language = DATASET_LANGUAGE[kind]
    try:
        samples = [
            Sample(id=f"{kind.value}:{row_id}", text=text, gold=gold, language=language)
            for row_id, text, gold in read_rows(path)
        ]
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    seen: set[str] = set()
    for sample in samples:
        if sample.id in seen:
            raise FormatError(f"duplicate sample id {sample.id}")
        seen.add(sample.id)
    return samples


def _semeval_rows(path: Path | str) -> Rows:
    """Tab-separated rows of (index, label, tweet) under a header line.

    A first line whose label column is 0 or 1 is a data row, not a header: FormatError.
    """
    # Universal newlines: rows end at \n, \r\n or \r only, not at the other
    # characters str.splitlines() breaks on (U+2028, \x85, \x0c, ...), which
    # a tweet may hold.
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split("\t")
    if len(header) > 1 and header[1].strip() in ("0", "1"):
        raise FormatError("expected a header line, got a data row", line=1)
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        columns = line.split("\t")
        if len(columns) != 3:
            raise FormatError(f"expected 3 tab-separated columns, got {len(columns)}", line=line_no)
        index, label, tweet = columns
        text = normalize_text(tweet)
        if text:
            if not index.strip():
                raise FormatError("blank index", line=line_no)
            yield index.strip(), text, _binary_label(label, line_no)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of pairs; FormatError if a key repeats, where json keeps the last."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _mustard_rows(path: Path | str) -> Rows:
    """JSON object keyed by entry id; context lines and the braced target utterance."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("expected a JSON object keyed by entry id")
    for key, entry in payload.items():
        if not key.strip():
            raise FormatError(f"entry {key!r}: blank id")
        if not isinstance(entry, dict) or "utterance" not in entry:
            raise FormatError(f"entry {key!r}: missing utterance")
        if "sarcasm" not in entry:
            raise FormatError(f"entry {key!r}: missing sarcasm flag")
        utterance = entry["utterance"]
        sarcasm = entry["sarcasm"]
        if not isinstance(utterance, str) or not utterance.strip():
            raise FormatError(f"entry {key!r}: utterance must be non-empty")
        if not isinstance(sarcasm, bool):
            raise FormatError(f"entry {key!r}: sarcasm must be boolean")
        context = entry.get("context")
        if context is None:
            context = []
        elif not isinstance(context, list) or not all(isinstance(line, str) for line in context):
            raise FormatError(f"entry {key!r}: context must be a list of strings")
        # JSON can escape a lone half of a surrogate pair, such as "\ud83d"; UTF-8 cannot
        # encode one, so no request digest or run log line could be written for the entry.
        if any(re.search("[\ud800-\udfff]", field) for field in (key, utterance, *context)):
            raise FormatError(f"entry {key!r} in {path}: lone surrogate escape, not UTF-8 text")
        text = normalize_text(flatten_dialogue(context, utterance))
        yield key, text, Label.SARCASTIC if sarcasm else Label.NOT_SARCASTIC


def flatten_dialogue(context: list[str], utterance: str) -> str:
    """Join context lines with spaces and append the target utterance in curly brackets."""
    return " ".join([*context, "{" + utterance + "}"])


def _twitter_id_rows(path: Path | str) -> Rows:
    """Delimited rows with tweet and label columns; comma or tab separated.

    A row's id is its 0-based ordinal among the data rows, blank rows included.
    """
    # A quoted tweet may span lines: a row starts on the line after the one
    # where the row before it ended.
    start = 1
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            first = fh.readline()
            delimiter = "\t" if "\t" in first else ","
            header = next(csv.reader([first], delimiter=delimiter))
            names = [column.strip().lower() for column in header]
            if "tweet" not in names or "label" not in names:
                raise FormatError("header must name tweet and label columns", line=1)
            tweet_col, label_col = names.index("tweet"), names.index("label")
            reader = csv.reader(fh, delimiter=delimiter)
            start = 2
            for row_index, row in enumerate(reader):
                # reader.line_num excludes the header.
                line_no, start = start, reader.line_num + 2
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) <= max(tweet_col, label_col):
                    raise FormatError(f"expected {len(names)} columns, got {len(row)}", line=line_no)
                text = normalize_text(row[tweet_col])
                if text:
                    yield row_index, text, _binary_label(row[label_col], line_no)
    except csv.Error as exc:
        # Such as a field over the csv module's size limit, which one unclosed quote makes.
        raise FormatError(f"the csv module rejects the row in {path}: {exc}", line=start) from exc


def _binary_label(raw: str, line_no: int) -> Label:
    value = raw.strip()
    if value == "1":
        return Label.SARCASTIC
    if value == "0":
        return Label.NOT_SARCASTIC
    raise FormatError(f"label must be 0 or 1, got {value!r}", line=line_no)
