"""Evaluation: confusion counting, macro metrics, report serialization."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarcrag.core import Label
from sarcrag.errors import EmptyEvaluation
from sarcrag.evaluation import (
    ConfusionMatrix,
    confusion,
    macro_metrics,
    report_to_json,
    report_to_table,
)

YES = Label.SARCASTIC
NO = Label.NOT_SARCASTIC


PAIRS = st.lists(
    st.tuples(st.sampled_from([YES, NO]), st.sampled_from([YES, NO, None])), max_size=60
)


def cells(cm):
    return (cm.tp, cm.fp, cm.fn, cm.tn, cm.skipped)


class TestConfusion:
    def test_counts_all_four_cells(self):
        cm = confusion([(YES, YES), (YES, NO), (NO, YES), (NO, NO)])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)
        assert cm.skipped == 0
        assert cm.n_scored == 4

    def test_none_prediction_counts_as_skipped(self):
        cm = confusion([(YES, None), (YES, YES)])
        assert cm.skipped == 1
        assert cm.n_scored == 1

    @given(PAIRS, st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_counts_every_pair_in_any_order_and_multiplicity(self, pairs, rng):
        cm = confusion(pairs)
        assert sum(cells(cm)) == len(pairs)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert confusion(shuffled) == cm
        assert cells(confusion(pairs + pairs)) == tuple(2 * n for n in cells(cm))


class TestMacroMetrics:
    def test_hand_worked_case(self):
        # tp=2 fn=1 fp=1 tn=1: positive p=2/3 r=2/3 f1=2/3, negative p=1/2 r=1/2 f1=1/2
        report = macro_metrics(ConfusionMatrix(tp=2, fp=1, fn=1, tn=1))
        assert report.accuracy == 0.6
        assert report.per_class["sarcastic"].precision == 2 / 3
        assert report.per_class["sarcastic"].recall == 2 / 3
        assert report.per_class["sarcastic"].f1 == 2 / 3
        assert report.per_class["not_sarcastic"].precision == 1 / 2
        assert report.per_class["not_sarcastic"].recall == 1 / 2
        assert report.per_class["not_sarcastic"].f1 == 1 / 2
        assert report.f1_macro == (2 / 3 + 1 / 2) / 2
        assert report.precision_macro == (2 / 3 + 1 / 2) / 2
        assert report.recall_macro == (2 / 3 + 1 / 2) / 2

    def test_zero_denominators_define_zero_metric(self):
        # nothing predicted positive and no positive golds: positive class is all zeros
        report = macro_metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=3))
        positive = report.per_class["sarcastic"]
        assert (positive.precision, positive.recall, positive.f1) == (0.0, 0.0, 0.0)
        negative = report.per_class["not_sarcastic"]
        assert (negative.precision, negative.recall, negative.f1) == (1.0, 1.0, 1.0)
        assert report.f1_macro == 0.5

    def test_perfect_predictions(self):
        report = macro_metrics(ConfusionMatrix(tp=3, fp=0, fn=0, tn=2))
        assert report.accuracy == 1.0
        assert report.f1_macro == 1.0

    def test_empty_evaluation_rejected(self):
        with pytest.raises(EmptyEvaluation):
            macro_metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=0, skipped=5))

    def test_skipped_excluded_from_accuracy_denominator(self):
        report = macro_metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1, skipped=8))
        assert report.accuracy == 1.0
        assert report.n_scored == 2
        assert report.n_skipped == 8

    def test_negative_class_mirrors_positive_on_swapped_matrix(self):
        a = macro_metrics(ConfusionMatrix(tp=5, fp=2, fn=3, tn=7))
        b = macro_metrics(ConfusionMatrix(tp=7, fp=3, fn=2, tn=5))
        assert a.per_class["not_sarcastic"] == b.per_class["sarcastic"]
        assert a.f1_macro == b.f1_macro

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=200)
    def test_metrics_bounded(self, tp, fp, fn, tn):
        cm = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
        if cm.n_scored == 0:
            with pytest.raises(EmptyEvaluation):
                macro_metrics(cm)
            return
        report = macro_metrics(cm)
        for value in (
            report.accuracy,
            report.precision_macro,
            report.recall_macro,
            report.f1_macro,
        ):
            assert 0.0 <= value <= 1.0


class TestReportSerialization:
    def make_report(self):
        return macro_metrics(ConfusionMatrix(tp=2, fp=1, fn=1, tn=1, skipped=1))

    def test_json_is_stable_and_parseable(self):
        report = self.make_report()
        text = report_to_json(report)
        assert json.loads(text) == dataclasses.asdict(report)
        assert report_to_json(report) == text

    def test_table_layout(self):
        table = report_to_table(self.make_report())
        lines = table.splitlines()
        assert lines[0].split() == ["class", "precision", "recall", "f1"]
        assert lines[1].startswith("sarcastic")
        assert lines[2].startswith("not_sarcastic")
        assert lines[3].startswith("macro")
        assert lines[4:] == ["", "accuracy: 0.6000", "scored: 5  skipped: 1"]
        # column starts align across rows
        anchor = lines[0].index("precision")
        assert lines[1][anchor] != " " and lines[3][anchor] != " "

    def test_table_values_match_report(self):
        report = self.make_report()
        table = report_to_table(report)
        assert f"{report.f1_macro:.4f}" in table
