"""Confusion counting and macro-averaged classification metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import Label
from .errors import DuplicatePrediction, EmptyEvaluation, UnknownSampleId

CLASS_NAMES = ("sarcastic", "not_sarcastic")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with the sarcastic class as positive; skipped samples sit outside."""

    tp: int
    fp: int
    fn: int
    tn: int
    skipped: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn", "skipped"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

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


def confusion(
    preds: Iterable[tuple[str, Label | None]], golds: Mapping[str, Label]
) -> ConfusionMatrix:
    """Count predictions against gold labels; None predictions count as skipped."""
    tp = fp = fn = tn = skipped = 0
    seen: set[str] = set()
    for sample_id, pred in preds:
        if sample_id not in golds:
            raise UnknownSampleId(sample_id)
        if sample_id in seen:
            raise DuplicatePrediction(sample_id)
        seen.add(sample_id)
        if pred is None:
            skipped += 1
            continue
        gold = golds[sample_id]
        if pred is Label.SARCASTIC and gold is Label.SARCASTIC:
            tp += 1
        elif pred is Label.SARCASTIC and gold is Label.NOT_SARCASTIC:
            fp += 1
        elif pred is Label.NOT_SARCASTIC and gold is Label.SARCASTIC:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn, skipped=skipped)


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


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "precision_macro": report.precision_macro,
        "recall_macro": report.recall_macro,
        "f1_macro": report.f1_macro,
        "per_class": {
            name: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
            for name, m in report.per_class.items()
        },
        "n_scored": report.n_scored,
        "n_skipped": report.n_skipped,
    }


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


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
