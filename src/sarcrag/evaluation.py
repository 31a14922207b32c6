"""Confusion counting and macro-averaged classification metrics."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .core import Label
from .errors import EmptyEvaluation

CLASS_NAMES = ("sarcastic", "not_sarcastic")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with the sarcastic class as positive; skipped samples sit outside."""

    tp: int
    fp: int
    fn: int
    tn: int
    skipped: int = 0

    @property
    def n_scored(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision_macro: float
    recall_macro: float
    f1_macro: float
    per_class: Mapping[str, ClassMetrics]
    n_scored: int
    n_skipped: int


def confusion(pairs: Iterable[tuple[Label, Label | None]]) -> ConfusionMatrix:
    """Count (gold, verdict) pairs, repeats included; a None verdict counts as skipped."""
    counts = Counter(pairs)
    yes, no = Label.SARCASTIC, Label.NOT_SARCASTIC
    return ConfusionMatrix(
        tp=counts[yes, yes],
        fp=counts[no, yes],
        fn=counts[yes, no],
        tn=counts[no, no],
        skipped=counts[yes, None] + counts[no, None],
    )


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _class_metrics(tp: int, fp: int, fn: int) -> ClassMetrics:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def macro_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F1 with 0/0 defined as 0, macro = unweighted mean."""
    if cm.n_scored == 0:
        raise EmptyEvaluation("no scored samples")
    positive = _class_metrics(cm.tp, cm.fp, cm.fn)
    negative = _class_metrics(cm.tn, cm.fn, cm.fp)
    return MetricsReport(
        accuracy=(cm.tp + cm.tn) / cm.n_scored,
        precision_macro=(positive.precision + negative.precision) / 2,
        recall_macro=(positive.recall + negative.recall) / 2,
        f1_macro=(positive.f1 + negative.f1) / 2,
        per_class={CLASS_NAMES[0]: positive, CLASS_NAMES[1]: negative},
        n_scored=cm.n_scored,
        n_skipped=cm.skipped,
    )


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def report_to_table(report: MetricsReport) -> str:
    """Aligned plain-text table with per-class and macro rows."""
    rows = [("class", "precision", "recall", "f1")]
    for name in CLASS_NAMES:
        m = report.per_class[name]
        rows.append((name, f"{m.precision:.4f}", f"{m.recall:.4f}", f"{m.f1:.4f}"))
    rows.append(
        (
            "macro",
            f"{report.precision_macro:.4f}",
            f"{report.recall_macro:.4f}",
            f"{report.f1_macro:.4f}",
        )
    )
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.append("")
    lines.append(f"accuracy: {report.accuracy:.4f}")
    lines.append(f"scored: {report.n_scored}  skipped: {report.n_skipped}")
    return "\n".join(lines) + "\n"
