"""Classification metrics and synthetic SCG-like signal generation.

The dataset generator is a deterministic stand-in for the (private) clinical
recordings: oscillatory bursts with distinct frequency and envelope for the
systolic and diastolic classes over Gaussian noise, labeled by the class of
the window-center sample.  Background windows keep any burst at least 0.05 s
away from the center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .qnn import check_windows

CLASS_NAMES = ("background", "systolic", "diastolic")
NUM_CLASSES = 3
SAMPLE_RATE_HZ = 1000
WINDOW_LEN = 512
ECE_BINS = 10
EVENT_GUARD_S = 0.05       # minimum event distance from a background center
HEART_RATE_BPM = (55.0, 95.0)   # per-window heart rate, drawn uniformly

SYS_FREQ_HZ = 55.0
SYS_DURATION_S = 0.10
DIA_FREQ_HZS = 14.0
DIA_DURATION_S = 0.16
DIA_AMPLITUDE = 0.8


@dataclass
class LabeledWindowSet:
    windows: np.ndarray     # float32, [n, WINDOW_LEN]
    labels: np.ndarray      # int, in {0, 1, 2}

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.windows.ndim != 2 or self.windows.shape[0] != self.labels.shape[0]:
            raise ShapeError("one label per window required")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= NUM_CLASSES:
            raise ShapeError("labels must be in {0, 1, 2}")

    def __len__(self) -> int:
        return len(self.labels)


def _burst(length: int, center: int, freq_hz: float, duration_s: float,
           amplitude: float, phase: float) -> np.ndarray:
    """Gaussian-enveloped sinusoidal burst added in place around `center`."""
    t = (np.arange(length) - center) / SAMPLE_RATE_HZ
    envelope = np.exp(-0.5 * (t / (duration_s / 2.0)) ** 2)
    return amplitude * envelope * np.sin(2 * np.pi * freq_hz * t + phase)


def synth_windows(n: int, noise: float = 0.15, seed: int = 0,
                  window_len: int = WINDOW_LEN) -> LabeledWindowSet:
    """Deterministic synthetic dataset with near-equal class counts."""
    if n <= 0 or window_len <= 0:
        raise ConfigError(f"n {n} and window_len {window_len} must be >= 1")
    if not (np.isfinite(noise) and noise >= 0):
        raise ConfigError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    windows = np.empty((n, window_len), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    center = window_len // 2
    guard = int(EVENT_GUARD_S * SAMPLE_RATE_HZ)
    for i in range(n):
        label = i % NUM_CLASSES     # round-robin keeps proportions within 1
        hr = rng.uniform(*HEART_RATE_BPM)
        period = int(round(60.0 / hr * SAMPLE_RATE_HZ))
        sig = rng.normal(0.0, noise, size=window_len) if noise > 0 \
            else np.zeros(window_len)
        phase = rng.uniform(0, 2 * np.pi)
        if label == 1:
            event_center = center + int(rng.integers(-guard + 1, guard))
            sig += _burst(window_len, event_center, SYS_FREQ_HZ, SYS_DURATION_S,
                          1.0, phase)
        elif label == 2:
            event_center = center + int(rng.integers(-guard + 1, guard))
            sig += _burst(window_len, event_center, DIA_FREQ_HZS, DIA_DURATION_S,
                          DIA_AMPLITUDE, phase)
        else:
            # nearest beat lies beyond the window edge, so only faint burst
            # tails reach the visible samples (quiescent inter-beat segment)
            margin = window_len // 2 + 3 * guard
            offset = margin + int(rng.integers(0, period))
            side = 1 if rng.random() < 0.5 else -1
            sys_center = center + side * offset
            sig += _burst(window_len, sys_center, SYS_FREQ_HZ,
                          SYS_DURATION_S, 1.0, phase)
            sig += _burst(window_len, sys_center + side * int(0.35 * period),
                          DIA_FREQ_HZS, DIA_DURATION_S, DIA_AMPLITUDE, phase)
        with np.errstate(over="ignore"):    # an overflow is refused below
            windows[i] = sig
        labels[i] = label
    try:    # with n, window_len and noise checked, only an overflow is left
        check_windows(windows)
    except ShapeError as exc:
        raise ConfigError(f"noise {noise} overflows float32: {exc}") from exc
    return LabeledWindowSet(windows=windows, labels=labels)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalSummary:
    confusion: np.ndarray                 # [true, pred] counts
    precision: np.ndarray                 # per class
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float
    weighted_f1: float
    accuracy: float
    ece: float | None = None
    average_precision: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "f1": self.f1.tolist(),
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "accuracy": self.accuracy,
            "ece": self.ece,
            "average_precision": {str(k): v for k, v in
                                  self.average_precision.items()},
        }


def confusion_matrix(labels, preds) -> np.ndarray:
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    if labels.shape != preds.shape:
        raise ShapeError("labels and predictions must align")
    for name, a in (("labels", labels), ("predictions", preds)):
        if a.dtype.kind not in "iu" or not np.all((a >= 0) & (a < NUM_CLASSES)):
            raise ShapeError(f"{name} must be class indices in [0, {NUM_CLASSES})")
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def summary_from_confusion(cm: np.ndarray) -> EvalSummary:
    """Precision/recall/F1/accuracy from raw confusion counts (rows = truth)."""
    cm = np.asarray(cm, dtype=np.int64)
    tp = np.diag(cm).astype(np.float64)
    support = cm.sum(axis=1).astype(np.float64)
    pred_count = cm.sum(axis=0).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_count > 0, tp / pred_count, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    total = cm.sum()
    accuracy = float(tp.sum() / total) if total else 0.0
    weighted_f1 = float((f1 * support).sum() / support.sum()) if support.sum() else 0.0
    return EvalSummary(confusion=cm, precision=precision, recall=recall, f1=f1,
                       macro_f1=float(f1.mean()), weighted_f1=weighted_f1,
                       accuracy=accuracy)


def expected_calibration_error(confidences, correct) -> float:
    """ECE over ECE_BINS equal-width bins: sum_b (n_b/N) |acc_b - conf_b|."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    n = confidences.size
    bins = np.minimum((confidences * ECE_BINS).astype(int), ECE_BINS - 1)
    ece = 0.0
    for b in range(ECE_BINS):
        mask = bins == b
        nb = int(mask.sum())
        if nb == 0:
            continue
        ece += nb / n * abs(correct[mask].mean() - confidences[mask].mean())
    return float(ece)


def average_precision(scores, positives) -> float:
    """Step-wise AP over the one-vs-rest precision-recall curve."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    if n_pos == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    hits = positives[order]
    tp = np.cumsum(hits)
    precision = tp / np.arange(1, len(hits) + 1)
    return float(precision[hits].sum() / n_pos)


def evaluate(labels, probs=None, pred_classes=None) -> EvalSummary:
    """Window-level evaluation.

    Per-class probabilities (`probs`, [n, NUM_CLASSES]), predicted classes,
    or both can be supplied; the classes come from probs only when none are
    given.  ECE and AP are only available with probabilities.
    """
    labels = np.asarray(labels)
    if probs is not None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (labels.size, NUM_CLASSES):
            raise ShapeError("probs must be [n, NUM_CLASSES]")
        if pred_classes is None:
            pred_classes = probs.argmax(axis=1)
    if pred_classes is None:
        raise ShapeError("need probs or pred_classes")
    pred_classes = np.asarray(pred_classes)
    cm = confusion_matrix(labels, pred_classes)
    summary = summary_from_confusion(cm)
    if probs is not None:
        summary.ece = expected_calibration_error(probs.max(axis=1),
                                                 pred_classes == labels)
        for cls in (1, 2):   # event classes, one-vs-rest
            summary.average_precision[cls] = average_precision(
                probs[:, cls], labels == cls)
    return summary


def softmax(logits: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Post-hoc softmax over (scaled) integer logits for calibration analysis."""
    z = np.asarray(logits, dtype=np.float64) * scale
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
