"""Tests for confusion counting, the metric suite, folds, and averaging."""

import numpy as np
import pytest

from elmbench import (
    ConfusionCounts,
    EpochSet,
    confusion,
    grand_average,
    metric_report,
    session_kfold,
)
from elmbench.errors import DimensionMismatch, InvalidLabel, LayoutMismatch, LengthMismatch


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------

def test_confusion_perfect_prediction():
    true = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    cm = confusion(true, true)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 7, 0, 0)


def test_confusion_all_negative_baseline():
    true = np.array([1] * 72 + [0] * 792)
    cm = confusion(np.zeros(864, dtype=int), true)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 72, 0, 792)


def test_confusion_enumerated_pairs():
    cm = confusion([1, 0, 1, 0], [1, 1, 0, 0])
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([0, 1], [0, 1, 1])


def test_confusion_invalid_label():
    with pytest.raises(InvalidLabel):
        confusion([0, 2], [0, 1])


# ---------------------------------------------------------------------------
# metric_report
# ---------------------------------------------------------------------------

def test_metrics_majority_baseline():
    rep = metric_report(ConfusionCounts(tp=0, fn=72, fp=0, tn=792))
    assert abs(rep.accuracy - 792.0 / 864.0) <= 1e-12
    assert abs(rep.accuracy - 0.91667) <= 1e-4
    assert rep.sensitivity == 0.0
    assert rep.mcc == 0.0
    assert rep.precision == 0.0
    assert rep.f_measure == 0.0


def test_metrics_perfect_classifier():
    rep = metric_report(ConfusionCounts(tp=72, fn=0, fp=0, tn=792))
    for value in (rep.sensitivity, rep.precision, rep.f_measure,
                  rep.specificity, rep.mcc, rep.accuracy):
        assert value == 1.0


def test_metrics_hand_counts():
    rep = metric_report(ConfusionCounts(tp=2, fp=1, fn=1, tn=4))
    assert abs(rep.sensitivity - 2.0 / 3.0) <= 1e-12
    assert abs(rep.precision - 2.0 / 3.0) <= 1e-12
    assert abs(rep.specificity - 4.0 / 5.0) <= 1e-12
    assert abs(rep.accuracy - 0.75) <= 1e-12
    assert abs(rep.f_measure - 2.0 / 3.0) <= 1e-12
    assert abs(rep.mcc - 7.0 / 15.0) <= 1e-12


def test_metrics_match_brute_force_recount():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        true = rng.integers(0, 2, n)
        pred = rng.integers(0, 2, n)
        rep = metric_report(confusion(pred, true))
        tp = sum(1 for p, t in zip(pred, true) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(pred, true) if p == 1 and t == 0)
        fn = sum(1 for p, t in zip(pred, true) if p == 0 and t == 1)
        tn = sum(1 for p, t in zip(pred, true) if p == 0 and t == 0)
        def ratio(a, b):
            return a / b if b else 0.0
        assert abs(rep.sensitivity - ratio(tp, tp + fn)) <= 1e-12
        assert abs(rep.precision - ratio(tp, tp + fp)) <= 1e-12
        assert abs(rep.specificity - ratio(tn, tn + fp)) <= 1e-12
        assert abs(rep.accuracy - (tp + tn) / n) <= 1e-12
        den = ((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)) ** 0.5
        assert abs(rep.mcc - ratio(tp * tn - fp * fn, den)) <= 1e-12


def test_metrics_class_swap_symmetry():
    rng = np.random.default_rng(73)
    true = rng.integers(0, 2, 120)
    pred = rng.integers(0, 2, 120)
    rep = metric_report(confusion(pred, true))
    swapped = metric_report(confusion(1 - pred, 1 - true))
    assert abs(rep.sensitivity - swapped.specificity) <= 1e-12
    assert abs(rep.specificity - swapped.sensitivity) <= 1e-12
    assert abs(rep.accuracy - swapped.accuracy) <= 1e-12
    assert abs(abs(rep.mcc) - abs(swapped.mcc)) <= 1e-12


def test_metric_report_rejects_empty_counts():
    with pytest.raises(ValueError, match="confusion counts are empty"):
        metric_report(ConfusionCounts(tp=0, fp=0, fn=0, tn=0))


def test_metric_ranges():
    rng = np.random.default_rng(79)
    for _ in range(20):
        counts = rng.integers(0, 50, 4)
        if counts.sum() == 0:
            counts[0] = 1
        rep = metric_report(ConfusionCounts(*[int(c) for c in counts]))
        for value in (rep.sensitivity, rep.precision, rep.f_measure,
                      rep.specificity, rep.accuracy):
            assert 0.0 <= value <= 1.0
        assert -1.0 <= rep.mcc <= 1.0


# ---------------------------------------------------------------------------
# session_kfold
# ---------------------------------------------------------------------------

def test_kfold_default_grid():
    plan = session_kfold()
    assert len(plan.folds) == 12
    for train, test in plan.folds:
        assert len(test) == 72
        assert len(train) == 792


def test_kfold_degenerate_leave_one_out():
    plan = session_kfold(n_sessions=2, runs_per_session=1, n_images=1)
    assert np.array_equal(plan.folds[0][1], [0])
    assert np.array_equal(plan.folds[0][0], [1])
    assert np.array_equal(plan.folds[1][1], [1])
    assert np.array_equal(plan.folds[1][0], [0])


@pytest.mark.parametrize("grid", [(2.0, 2, 2), (2, 2.5, 2), (2, 2, "2"), (0, 2, 2)])
def test_kfold_rejects_grids_that_are_not_positive_integers(grid):
    with pytest.raises(ValueError, match="^grid dimensions must be positive"):
        session_kfold(*grid)
    assert len(session_kfold(np.int64(2), 2, 2).folds) == 2


def test_kfold_partitions_exactly():
    rng = np.random.default_rng(83)
    for _ in range(10):
        s, r, i = (int(rng.integers(1, 8)) for _ in range(3))
        plan = session_kfold(s, r, i)
        seen = np.concatenate([test for _, test in plan.folds])
        assert sorted(seen) == list(range(s * r * i))
        assert len(set(seen.tolist())) == len(seen)
        for train, test in plan.folds:
            assert not set(train.tolist()) & set(test.tolist())
            assert len(train) + len(test) == s * r * i


def test_kfold_layout_mismatch():
    with pytest.raises(LayoutMismatch):
        session_kfold(2, 3, 4, n_samples=25)


# ---------------------------------------------------------------------------
# grand_average
# ---------------------------------------------------------------------------

def _epochs(data):
    data = np.asarray(data, dtype=float)
    trials = data.shape[0]
    return EpochSet(data=data,
                    labels=np.zeros(trials, dtype=np.int64),
                    layout=np.zeros((trials, 3), dtype=np.int64))


def test_grand_average_single_channel():
    seg = np.arange(8.0).reshape(1, 1, 8)
    assert np.array_equal(grand_average(_epochs(seg)), seg[:, 0, :])


def test_grand_average_cancellation():
    v = np.linspace(-1.0, 1.0, 16)
    data = np.stack([np.stack([v, -v])])
    assert np.allclose(grand_average(_epochs(data)), 0.0)


def test_grand_average_constant_channels():
    data = np.full((3, 14, 8), 2.5)
    assert np.allclose(grand_average(_epochs(data)), 2.5)


def test_grand_average_linearity():
    rng = np.random.default_rng(89)
    data = rng.standard_normal((5, 4, 16))
    base = grand_average(_epochs(data))
    scaled = grand_average(_epochs(3.5 * data))
    assert np.allclose(scaled, 3.5 * base)


def test_grand_average_rejects_data_that_is_not_3d():
    with pytest.raises(DimensionMismatch, match="must be 3-D, got 2-D"):
        grand_average(_epochs(np.ones((3, 8))))
