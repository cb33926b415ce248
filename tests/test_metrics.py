"""Confusion counting and macro-averaged metrics against hand arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowid.errors import ConfigError
from flowid.metrics import confusion_matrix, macro_f1_score, macro_metrics


def test_perfect_predictions_diagonal():
    truth = np.array([0, 1, 2, 1, 0, 2, 2])
    counts = confusion_matrix(truth, truth, 3)
    np.testing.assert_array_equal(counts, np.diag([2, 2, 3]))


def test_all_predicted_class_zero():
    truth = np.array([0, 1, 2, 1])
    counts = confusion_matrix(np.zeros(4, dtype=int), truth, 3)
    assert counts[:, 1:].sum() == 0
    np.testing.assert_array_equal(counts[:, 0], [1, 2, 1])


def test_confusion_matches_counting_oracle():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 4, 50)
    pred = rng.integers(0, 4, 50)
    counts = confusion_matrix(pred, truth, 4)
    oracle = np.zeros((4, 4), dtype=int)
    for p, t in zip(pred, truth):
        oracle[t, p] += 1
    np.testing.assert_array_equal(counts, oracle)


def test_confusion_rejects_out_of_range():
    with pytest.raises(ConfigError):
        confusion_matrix(np.array([0, 3]), np.array([0, 1]), 3)


def test_confusion_rejects_unequal_lengths():
    with pytest.raises(ConfigError, match="equal-length"):
        confusion_matrix(np.array([0, 1, 1]), np.array([0, 1]), 2)


def test_perfect_two_class_metrics():
    report = macro_metrics(np.diag([5, 7]))
    assert report.accuracy == 1.0
    assert report.macro_precision == 1.0
    assert report.macro_recall == 1.0
    assert report.macro_f1 == 1.0


def test_all_one_class_hand_worked():
    # 4 balanced samples, everything predicted class 0
    counts = confusion_matrix(np.zeros(4, dtype=int), np.array([0, 0, 1, 1]), 2)
    report = macro_metrics(counts)
    c0, c1 = report.per_class
    assert abs(c0.precision - 0.5) <= 1e-12
    assert abs(c0.recall - 1.0) <= 1e-12
    assert abs(c0.f1 - 2.0 / 3.0) <= 1e-12
    assert (c1.precision, c1.recall, c1.f1) == (0.0, 0.0, 0.0)
    assert abs(report.macro_f1 - 1.0 / 3.0) <= 1e-12
    assert abs(report.accuracy - 0.5) <= 1e-12


@given(st.permutations(list(range(4))))
@settings(max_examples=24, deadline=None)
def test_macro_metrics_invariant_under_relabeling(perm):
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 9, (4, 4))
    counts[0, 0] += 3  # keep it nonempty
    perm = np.array(perm)
    base = macro_metrics(counts)
    moved = macro_metrics(counts[perm][:, perm])
    assert abs(base.macro_f1 - moved.macro_f1) <= 1e-12
    assert abs(base.macro_precision - moved.macro_precision) <= 1e-12
    assert abs(base.macro_recall - moved.macro_recall) <= 1e-12
    assert abs(base.accuracy - moved.accuracy) <= 1e-12


def test_macro_f1_is_mean_of_f1s_not_f1_of_macros():
    # asymmetric case where the two definitions differ
    counts = np.array([[8, 2], [5, 1]])
    report = macro_metrics(counts)
    mean_of_f1s = np.mean([c.f1 for c in report.per_class])
    assert abs(report.macro_f1 - mean_of_f1s) <= 1e-12
    p, r = report.macro_precision, report.macro_recall
    f1_of_macros = 2 * p * r / (p + r)
    assert abs(report.macro_f1 - f1_of_macros) > 1e-3


def test_accuracy_equals_micro_recall():
    rng = np.random.default_rng(9)
    truth = rng.integers(0, 3, 60)
    pred = rng.integers(0, 3, 60)
    counts = confusion_matrix(pred, truth, 3)
    report = macro_metrics(counts)
    micro_recall = np.trace(counts) / counts.sum()
    assert abs(report.accuracy - micro_recall) <= 1e-12


def test_empty_confusion_rejected():
    with pytest.raises(ConfigError):
        macro_metrics(np.zeros((3, 3), dtype=int))
    with pytest.raises(ConfigError):
        macro_metrics(np.zeros((1, 1), dtype=int))


def test_report_serialization_round_trip():
    counts = confusion_matrix(np.array([0, 1, 1]), np.array([0, 1, 0]), 2)
    report = macro_metrics(counts)
    data = report.to_dict()
    assert data["confusion"] == counts.tolist()
    assert {"accuracy", "macro_precision", "macro_recall", "macro_f1",
            "per_class", "confusion"} <= set(data)
    text = report.to_text()
    assert "macro" in text and "accuracy" in text


def test_macro_f1_score_helper():
    assert macro_f1_score([0, 1], [0, 1], 2) == 1.0
