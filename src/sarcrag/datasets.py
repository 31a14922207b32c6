"""Dataset loaders producing normalized Sample lists from the three corpora."""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from pathlib import Path

from .core import DATASET_LANGUAGE, DatasetKind, Label, Sample
from .errors import FormatError


def normalize_text(text: str) -> str:
    """NFC, collapse whitespace runs to single spaces, trim; case is preserved."""
    text = unicodedata.normalize("NFC", text)
    return re.sub(r"\s+", " ", text).strip()


def load_semeval(path: Path | str) -> list[Sample]:
    """Tab-separated rows of (index, label, tweet) under a header line."""
    kind = DatasetKind.SEMEVAL_2018_T3
    samples: list[Sample] = []
    # Universal newlines: rows end at \n, \r\n or \r only, not at the other
    # characters str.splitlines() breaks on (U+2028, \x85, \x0c, ...), which
    # a tweet may hold.
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        columns = line.split("\t")
        if len(columns) != 3:
            raise FormatError(f"expected 3 tab-separated columns, got {len(columns)}", line=line_no)
        index, label, tweet = columns
        text = normalize_text(tweet)
        if not text:
            continue
        samples.append(
            Sample(
                id=f"{kind.value}:{index.strip()}",
                text=text,
                gold=_binary_label(label, line_no),
                language=DATASET_LANGUAGE[kind],
            )
        )
    _check_unique_ids(samples)
    return samples


def load_mustard(path: Path | str) -> list[Sample]:
    """JSON object keyed by entry id; context lines and the braced target utterance."""
    kind = DatasetKind.MUSTARD
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("expected a JSON object keyed by entry id")
    samples: list[Sample] = []
    for key, entry in payload.items():
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
        samples.append(
            Sample(
                id=f"{kind.value}:{key}",
                text=normalize_text(flatten_dialogue(context, utterance)),
                gold=Label.SARCASTIC if sarcasm else Label.NOT_SARCASTIC,
                language=DATASET_LANGUAGE[kind],
            )
        )
    _check_unique_ids(samples)
    return samples


def flatten_dialogue(context: list[str], utterance: str) -> str:
    """Join context lines with spaces and append the target utterance in curly brackets."""
    target = "{" + utterance + "}"
    if not context:
        return target
    return " ".join(context) + " " + target


def load_twitter_id(path: Path | str) -> list[Sample]:
    """Delimited rows with tweet and label columns; comma or tab separated."""
    kind = DatasetKind.TWITTER_INDONESIA
    with open(path, encoding="utf-8-sig", newline="") as fh:
        first = fh.readline()
        if not first:
            raise FormatError("empty file", line=1)
        delimiter = "\t" if "\t" in first else ","
        header = next(csv.reader([first], delimiter=delimiter))
        names = [column.strip().lower() for column in header]
        if "tweet" not in names or "label" not in names:
            raise FormatError("header must name tweet and label columns", line=1)
        tweet_col, label_col = names.index("tweet"), names.index("label")
        samples: list[Sample] = []
        reader = csv.reader(fh, delimiter=delimiter)
        for row_index, row in enumerate(reader):
            line_no = row_index + 2
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(tweet_col, label_col):
                raise FormatError(f"expected {len(names)} columns, got {len(row)}", line=line_no)
            text = normalize_text(row[tweet_col])
            if not text:
                continue
            samples.append(
                Sample(
                    id=f"{kind.value}:{row_index}",
                    text=text,
                    gold=_binary_label(row[label_col], line_no),
                    language=DATASET_LANGUAGE[kind],
                )
            )
    _check_unique_ids(samples)
    return samples


def load_dataset(kind: DatasetKind, path: Path | str) -> list[Sample]:
    loader = {
        DatasetKind.SEMEVAL_2018_T3: load_semeval,
        DatasetKind.MUSTARD: load_mustard,
        DatasetKind.TWITTER_INDONESIA: load_twitter_id,
    }[kind]
    return loader(path)


def _binary_label(raw: str, line_no: int) -> Label:
    value = raw.strip()
    if value == "1":
        return Label.SARCASTIC
    if value == "0":
        return Label.NOT_SARCASTIC
    raise FormatError(f"label must be 0 or 1, got {value!r}", line=line_no)


def _check_unique_ids(samples: list[Sample]) -> None:
    seen: set[str] = set()
    for sample in samples:
        if sample.id in seen:
            raise FormatError(f"duplicate sample id {sample.id}")
        seen.add(sample.id)
