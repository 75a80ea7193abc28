"""Confusion-matrix metrics and the session-structured fold planner.

The positive class is the (minority) target. Ratios with a 0/0 denominator
are defined as 0, which keeps degenerate predictors (e.g. the all-negative
baseline) well defined and pessimistic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import EpochSet
from .errors import DimensionMismatch, InvalidLabel, LayoutMismatch, LengthMismatch


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricReport:
    sensitivity: float
    precision: float
    f_measure: float
    specificity: float
    mcc: float
    accuracy: float


@dataclass(frozen=True)
class FoldPlan:
    """Ordered (train_indices, test_indices) pairs; test sets partition the data."""

    folds: tuple[tuple[np.ndarray, np.ndarray], ...]


def confusion(pred_labels, true_labels) -> ConfusionCounts:
    """Tally TP/FP/FN/TN with 1 as the positive class."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.ndim != 1:
        raise LengthMismatch(
            f"label vectors must be 1-D and equal length, got {pred.shape} vs {true.shape}")
    for name, arr in (("pred", pred), ("true", true)):
        if not np.all(np.isin(arr, (0, 1))):
            raise InvalidLabel(f"{name} labels must be 0 or 1")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0.0 else 0.0


def metric_report(cm: ConfusionCounts) -> MetricReport:
    """Derive the six rate metrics from confusion counts."""
    if cm.total < 1:
        raise ValueError("confusion counts are empty")
    tp, fp, fn, tn = float(cm.tp), float(cm.fp), float(cm.fn), float(cm.tn)
    sens = _ratio(tp, tp + fn)
    prec = _ratio(tp, tp + fp)
    spec = _ratio(tn, tn + fp)
    acc = (tp + tn) / cm.total
    f_meas = _ratio(2.0 * prec * sens, prec + sens)
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = _ratio(tp * tn - fp * fn, mcc_den)
    return MetricReport(sensitivity=sens, precision=prec, f_measure=f_meas,
                        specificity=spec, mcc=mcc, accuracy=acc)


def session_kfold(n_sessions: int = 12, runs_per_session: int = 6,
                  n_images: int = 12, n_samples: int | None = None) -> FoldPlan:
    """One fold per session: fold k tests session k's trials, trains on the rest.

    Assumes trials are laid out in ascending (session, run, image) order, the
    ordering the CSV contract guarantees. When n_samples is given it is
    checked against the grid size.
    """
    if not all(isinstance(k, numbers.Integral) and k >= 1
               for k in (n_sessions, runs_per_session, n_images)):
        raise ValueError("grid dimensions must be positive integers")
    total = n_sessions * runs_per_session * n_images
    if n_samples is not None and n_samples != total:
        raise LayoutMismatch(
            f"{n_samples} samples do not fill a "
            f"{n_sessions}x{runs_per_session}x{n_images} grid ({total})")
    per_session = runs_per_session * n_images
    all_idx = np.arange(total)
    folds = []
    for k in range(n_sessions):
        test = all_idx[k * per_session:(k + 1) * per_session]
        train = np.concatenate([all_idx[:k * per_session],
                                all_idx[(k + 1) * per_session:]])
        folds.append((train, test))
    return FoldPlan(folds=tuple(folds))


def grand_average(epochs: EpochSet) -> np.ndarray:
    """Per-trial mean over channels: (trials, samples) feature matrix.

    Complex epoch data raises ValueError.
    """
    if np.iscomplexobj(epochs.data):
        raise ValueError("epochs.data must be real, got complex entries")
    data = np.asarray(epochs.data, dtype=float)
    if data.ndim != 3:
        raise DimensionMismatch(f"epoch data must be 3-D, got {data.ndim}-D")
    return data.mean(axis=1)
