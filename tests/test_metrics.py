"""Synthetic dataset generator and classification metrics.  The published
confusion matrix and the figures it gives are checked in the acceptance
suite (criterion 10)."""

import re

import numpy as np
import pytest

from scgaccel.errors import ConfigError, ShapeError
from scgaccel.metrics import (CLASS_NAMES, DIA_FREQ_HZS, SAMPLE_RATE_HZ,
                              SYS_FREQ_HZ, LabeledWindowSet, average_precision,
                              confusion_matrix, evaluate,
                              expected_calibration_error,
                              summary_from_confusion, synth_windows, softmax)


# ---------------------------------------------------------------------------
# Counting oracle
# ---------------------------------------------------------------------------

def oracle_counts(labels, preds, n_classes=3):
    cm = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(labels, preds):
        cm[t][p] += 1
    return cm


def test_confusion_matches_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        labels = rng.integers(0, 3, size=n)
        preds = rng.integers(0, 3, size=n)
        assert confusion_matrix(labels, preds).tolist() \
            == oracle_counts(labels.tolist(), preds.tolist())


def test_summary_matches_manual_formulas():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, size=500)
    preds = rng.integers(0, 3, size=500)
    cm = confusion_matrix(labels, preds)
    s = summary_from_confusion(cm)
    for c in range(3):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        assert s.precision[c] == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)
        assert s.recall[c] == pytest.approx(tp / (tp + fn) if tp + fn else 0.0)
    assert s.accuracy == pytest.approx(np.trace(cm) / cm.sum())
    assert cm.sum(axis=1).tolist() == [int((labels == c).sum()) for c in range(3)]


def test_perfect_predictions():
    labels = np.repeat([0, 1, 2], 10)
    s = evaluate(labels, probs=np.eye(3)[labels])
    assert np.array_equal(s.confusion, 10 * np.eye(3, dtype=int))
    assert s.f1.tolist() == [1.0, 1.0, 1.0]
    assert s.macro_f1 == 1.0 and s.accuracy == 1.0
    assert s.ece == 0.0


def test_evaluate_takes_given_classes_over_the_probabilities():
    # flat probabilities argmax to class 0; the given classes are all right
    labels = np.repeat([0, 1, 2], 4)
    s = evaluate(labels, probs=np.full((12, 3), 1 / 3), pred_classes=labels)
    assert s.accuracy == 1.0
    assert evaluate(labels, probs=np.full((12, 3), 1 / 3)).accuracy == 4 / 12


def test_evaluate_shape_errors():
    with pytest.raises(ShapeError):
        evaluate(np.zeros(5, dtype=int), pred_classes=np.zeros(4, dtype=int))
    # a class outside the head: -1 would count as class 2, 3 would index past
    # the matrix, and a float label is no class index
    for labels, preds in (([-1, 0], [2, 0]), ([3, 0], [0, 0]),
                          ([0, 0], [0, 3]), ([1.0, 0.0], [1, 0])):
        with pytest.raises(ShapeError, match="class indices"):
            evaluate(labels, pred_classes=preds)
    with pytest.raises(ShapeError):
        evaluate(np.zeros(5, dtype=int), probs=np.zeros((5, 2)))
    with pytest.raises(ShapeError):
        evaluate(np.zeros(5, dtype=int))


# ---------------------------------------------------------------------------
# ECE and AP
# ---------------------------------------------------------------------------

def test_ece_manual_two_bins():
    conf = np.array([0.95, 0.95, 0.55, 0.55])
    correct = np.array([1.0, 0.0, 1.0, 1.0])
    # bin 9: conf .95, acc .5 -> |.5-.95| * 2/4; bin 5: conf .55, acc 1 -> .45 * 2/4
    assert expected_calibration_error(conf, correct) \
        == pytest.approx(0.5 * 0.45 + 0.5 * 0.45)
    assert expected_calibration_error(np.array([]), np.array([])) == 0.0


def test_average_precision_hand_case():
    # ranked: pos, neg, pos -> AP = (1/1 + 2/3) / 2
    scores = np.array([0.9, 0.8, 0.7])
    positives = np.array([True, False, True])
    assert average_precision(scores, positives) == pytest.approx((1 + 2 / 3) / 2)
    assert average_precision(scores, np.zeros(3, dtype=bool)) == 0.0
    assert average_precision(scores, np.ones(3, dtype=bool)) == 1.0


def test_softmax_rows_sum_to_one():
    logits = np.array([[1000, 0, -1000], [3, 3, 3]])
    p = softmax(logits, scale=0.1)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert p[0].argmax() == 0
    assert np.allclose(p[1], 1 / 3)


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

def test_synth_deterministic_per_seed():
    a = synth_windows(60, seed=42)
    b = synth_windows(60, seed=42)
    assert np.array_equal(a.windows, b.windows)
    assert np.array_equal(a.labels, b.labels)
    c = synth_windows(60, seed=43)
    assert not np.array_equal(a.windows, c.windows)


def test_synth_class_proportions_within_one():
    for n in (30, 31, 32, 100):
        counts = np.bincount(synth_windows(n, seed=0).labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n


def test_synth_noise_free_band_energy_separation():
    ds = synth_windows(90, noise=0.0, seed=7)
    energy = (ds.windows.astype(np.float64) ** 2).sum(axis=1)
    assert energy[ds.labels != 0].min() > energy[ds.labels == 0].max()


def test_synth_event_frequencies_distinguishable():
    ds = synth_windows(90, noise=0.0, seed=8)
    freqs = np.fft.rfftfreq(ds.windows.shape[1], d=1.0 / SAMPLE_RATE_HZ)
    for label, f0 in ((1, SYS_FREQ_HZ), (2, DIA_FREQ_HZS)):
        spectra = np.abs(np.fft.rfft(ds.windows[ds.labels == label], axis=1))
        peak = freqs[spectra.mean(axis=0).argmax()]
        assert abs(peak - f0) < 10.0


def test_synth_rejects_empty():
    with pytest.raises(ConfigError):
        synth_windows(0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: LabeledWindowSet(np.zeros(512), np.zeros(1)),
     ShapeError, "one label per window required"),
    (lambda: LabeledWindowSet(np.zeros((2, 512)), np.zeros(1)),
     ShapeError, "one label per window required"),
    (lambda: LabeledWindowSet(np.zeros((2, 512)), [0, 3]),
     ShapeError, "labels must be in {0, 1, 2}"),
    (lambda: synth_windows(3, window_len=0),
     ConfigError, "n 3 and window_len 0 must be >= 1"),
    (lambda: synth_windows(3, noise=np.inf),
     ConfigError, "noise must be finite and >= 0, got inf"),
    (lambda: synth_windows(3, noise=np.nan),
     ConfigError, "noise must be finite and >= 0, got nan"),
    (lambda: synth_windows(3, noise=-1.0),
     ConfigError, "noise must be finite and >= 0, got -1.0"),
    # finite, but its samples overflow float32 (noise 0 is the noise-free
    # set of the tests above)
    (lambda: synth_windows(3, noise=1e39), ConfigError,
     "noise 1e+39 overflows float32: window 0: samples must be finite"),
], ids=["windows-1d", "label-count", "label-range", "no-samples", "noise-inf",
        "noise-nan", "noise-negative", "noise-overflow"])
def test_dataset_refuses_what_it_cannot_hold(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_class_names():
    assert CLASS_NAMES == ("background", "systolic", "diastolic")
