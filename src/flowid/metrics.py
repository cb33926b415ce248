"""Confusion matrix and macro-averaged classification metrics.

Macro metrics compute each class's precision/recall/F1 independently and take
the unweighted mean; 0/0 cases count as 0. Accuracy is trace over total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    accuracy: float
    per_class: list[ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_class": [
                {"class": i, "precision": c.precision, "recall": c.recall, "f1": c.f1}
                for i, c in enumerate(self.per_class)
            ],
            "confusion": self.confusion.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        """Aligned per-class table plus the macro row."""
        lines = [f"{'class':>8} {'precision':>10} {'recall':>10} {'f1':>10}"]
        for i, c in enumerate(self.per_class):
            lines.append(f"{i:>8} {c.precision:>10.4f} {c.recall:>10.4f} {c.f1:>10.4f}")
        lines.append(f"{'macro':>8} {self.macro_precision:>10.4f} "
                     f"{self.macro_recall:>10.4f} {self.macro_f1:>10.4f}")
        lines.append(f"accuracy {self.accuracy:.4f}")
        return "\n".join(lines)


def confusion_matrix(pred, truth, n_classes: int) -> np.ndarray:
    """counts[i, j] = number of samples with true class i predicted as j."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ConfigError(f"pred/truth must be equal-length vectors, got "
                          f"{pred.shape} vs {truth.shape}")
    indices = np.concatenate((pred, truth))
    outside = indices[(indices < 0) | (indices >= n_classes)]
    if outside.size:
        raise ConfigError(f"class index {outside.max()} out of range for C={n_classes}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return counts


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def macro_metrics(confusion: np.ndarray) -> MetricsReport:
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1] or confusion.shape[0] < 2:
        raise ConfigError(f"confusion matrix must be CxC with C >= 2, got {confusion.shape}")
    total = confusion.sum()
    if total == 0:
        raise ConfigError("empty confusion matrix")
    per_class = []
    for i in range(confusion.shape[0]):
        tp = float(confusion[i, i])
        precision = _safe_div(tp, float(confusion[:, i].sum()))
        recall = _safe_div(tp, float(confusion[i, :].sum()))
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class.append(ClassMetrics(precision, recall, f1))
    return MetricsReport(
        accuracy=float(np.trace(confusion)) / float(total),
        per_class=per_class,
        macro_precision=float(np.mean([c.precision for c in per_class])),
        macro_recall=float(np.mean([c.recall for c in per_class])),
        macro_f1=float(np.mean([c.f1 for c in per_class])),
        confusion=confusion.copy(),
    )


def macro_f1_score(pred, truth, n_classes: int) -> float:
    return macro_metrics(confusion_matrix(pred, truth, n_classes)).macro_f1
