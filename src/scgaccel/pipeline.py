"""End-to-end pipeline glue: window quantization, golden prediction, and a
constructed (not trained) reference model for the synthetic dataset.

The reference model uses a fixed filter bank tuned to the two burst
frequencies plus random projections for the deeper layers; the classifier
head is a nearest-class-mean discriminant computed in closed form from
calibration features.  No gradient training is involved.
"""

from __future__ import annotations

import math

import numpy as np

from .metrics import (CLASS_NAMES, DIA_FREQ_HZS, NUM_CLASSES, LabeledWindowSet,
                      SAMPLE_RATE_HZ, SYS_FREQ_HZ, softmax)
from .modeltools import (FloatLayerParams, FloatModel, PackedModel,
                         activation_scales, calibration_windows,
                         float_forward, float_layer_forward, observe_max_abs,
                         quantize_model)
from .errors import ConfigError
# INPUT_SCALE is imported from here by bench/workloads.py
from .qnn import (INPUT_SCALE, INPUT_ZERO_POINT, NetworkSpec, QuantTensor,
                  _check_input, _layer_outputs, check_positive, check_windows,
                  quantize_zscores, zscore)


def quantize_windows(windows: np.ndarray) -> list[QuantTensor]:
    """zscore_quantize of every row of a [N, L] float array, as one array
    pass; the tensors share one u8 array."""
    codes = quantize_zscores(check_windows(windows))
    return [QuantTensor(row, zero_point=INPUT_ZERO_POINT)
            for row in codes[:, np.newaxis, :]]


# Windows per golden_predict pass.  Each layer runs one im2col GEMM, one
# pool and one requantize for the whole chunk, which spreads the per-call
# numpy and Python overhead over its windows, while the chunk's im2col stays
# small: the default net's largest, L1's 144 x 256 float32 (L2's 288 x 128
# is the same size), is about 150 KB a window, 1.2 MB a chunk.  On
# bench/run.py's eval-golden (one pinned CPU of a 2-vCPU host, two 10 s
# runs a size) 1, 4, 8 and 16 windows a chunk gave 2,540-2,620,
# 3,502-3,512, 3,713-3,729 and 3,680-3,739 windows/s at peak RSS 41.7,
# 42.2-42.3, 43.4-43.5 and 45.3-45.4 MB: past 8 only the RSS grows.
GOLDEN_CHUNK = 8


def golden_predict(model: PackedModel, windows: np.ndarray,
                   logit_scale: float = 1.0):
    """Golden-model logits, probabilities, and classes for raw float windows.

    The windows are quantized in one pass and run through the layers
    GOLDEN_CHUNK at a time, as one [1, B, L] map each (the last chunk may
    be shorter); every window gets the result infer_window gives it alone,
    and a chunk raises AccumulatorOverflow exactly when one of its windows
    would.  Each class is the first argmax of the integer logits, as the
    device's priority encoder (Logits.predicted_class) gives it; the
    probabilities are softmax(logits * logit_scale).  A logit_scale that is
    not finite and positive, or whose scaled logits overflow, is refused
    (ConfigError).
    """
    check_positive("logit_scale", logit_scale)
    codes = quantize_zscores(check_windows(windows))
    net = model.to_network_spec(input_length=codes.shape[1])
    ws = model.to_weight_set()
    _check_input(net, ws, 1, codes.shape[1])
    logits = np.zeros((len(codes), net.num_classes), dtype=np.int64)
    for i in range(0, len(codes), GOLDEN_CHUNK):
        chunk = codes[np.newaxis, i:i + GOLDEN_CHUNK]
        head = _layer_outputs(net, ws, chunk, INPUT_ZERO_POINT)[-1]
        logits[i:i + GOLDEN_CHUNK] = head[:, :, 0].T
    # softmax takes each scaled logit less the largest, so the widest
    # difference, lo - hi, must be finite too
    hi = float(logits.max(initial=0)) * logit_scale
    lo = float(logits.min(initial=0)) * logit_scale
    if not math.isfinite(lo - hi):
        raise ConfigError(f"logit_scale {logit_scale} overflows the scaled "
                          f"logits: {logits.min()}..{logits.max()}")
    return logits, softmax(logits, scale=logit_scale), logits.argmax(axis=1)


def _matched_kernel(freq_hz: float, taps: int, phase: float = 0.0) -> np.ndarray:
    t = (np.arange(taps) - (taps - 1) / 2) / SAMPLE_RATE_HZ
    k = np.sin(2 * np.pi * freq_hz * t + phase)
    return k / np.linalg.norm(k)


def _front_end_bank(c_out: int, taps: int, rng: np.random.Generator) -> np.ndarray:
    """Fixed analysis filters: band-matched, derivative, smoothing, random."""
    bank = []
    for phase in (0.0, np.pi / 2):
        bank.append(_matched_kernel(SYS_FREQ_HZ, taps, phase))
        bank.append(_matched_kernel(DIA_FREQ_HZS, taps, phase))
    diff = np.zeros(taps)
    diff[0], diff[-1] = -1.0, 1.0
    bank.append(diff / np.linalg.norm(diff))
    bank.append(np.ones(taps) / np.sqrt(taps))
    while len(bank) < c_out:
        k = rng.normal(size=taps)
        bank.append(k / np.linalg.norm(k))
    w = np.stack(bank[:c_out])
    # both signs so ReLU keeps the full waveform energy
    w[1::2] *= -1.0
    return w[:, np.newaxis, :]


CALIB_WINDOWS = 64      # the calibration windows whose ranges set the scales


def reference_float_model(calib: LabeledWindowSet,
                          seed: int = 7) -> tuple[FloatModel, list[float]]:
    """The reference model in float and its activation scales, from one
    float pass over the calibration windows.

    Returns (FloatModel, scales).  Each window's forward through the fixed
    body gives its head features; the first CALIB_WINDOWS windows' forwards
    also raise each body layer's running max |activation|, and the fitted
    head's logits on those windows' features give the logit range.  So the
    scales are calibrate_activation_scales(fm, calib.windows[:CALIB_WINDOWS]),
    but only the maxima and the [N, c_in] features are kept.  It refuses the
    windows calibration refuses (calibration_windows), and a calibration set
    that lacks a class (ConfigError, naming the class).
    """
    rng = np.random.default_rng(seed)
    net = NetworkSpec.default()
    windows = calibration_windows(calib.windows, net.input_length)
    missing = [c for c in range(NUM_CLASSES) if not np.any(calib.labels == c)]
    if missing:
        raise ConfigError("calibration set has no window of class " + ", ".join(
            f"{c} ({CLASS_NAMES[c]})" for c in missing))
    params: list[FloatLayerParams] = []
    for i, spec in enumerate(net.layers[:-1]):
        if i == 0:
            w = _front_end_bank(spec.c_out, spec.kernel, rng)
        else:
            w = rng.normal(scale=1.0 / np.sqrt(spec.c_in * spec.kernel),
                           size=(spec.c_out, spec.c_in, spec.kernel))
        params.append(FloatLayerParams(weights=w, bias=np.zeros(spec.c_out)))

    # provisional zero head, replaced by the class-mean discriminant below
    head_spec = net.layers[-1]
    params.append(FloatLayerParams(
        weights=np.zeros((head_spec.c_out, head_spec.c_in, 1)),
        bias=np.zeros(head_spec.c_out)))
    fm = FloatModel(net=net, layers=params)

    maxima = np.zeros(len(net.layers))
    feats = np.zeros((len(calib), head_spec.c_in))
    for i, window in enumerate(windows):
        acts = float_forward(fm, zscore(window))
        feats[i] = acts[-2][:, 0]
        if i < CALIB_WINDOWS:
            observe_max_abs(maxima[:-1], acts[:-1])
    mus = np.stack([feats[calib.labels == c].mean(axis=0)
                    for c in range(NUM_CLASSES)])
    # argmax of f.mu_c - |mu_c|^2/2 is unchanged by subtracting the common f.mu_bar
    head_w = mus - mus.mean(axis=0)
    head_b = -0.5 * (mus ** 2).sum(axis=1)
    params[-1] = FloatLayerParams(weights=head_w[:, :, np.newaxis], bias=head_b)
    for f in feats[:CALIB_WINDOWS]:
        observe_max_abs(maxima[-1:], [float_layer_forward(
            head_spec, params[-1], f[:, np.newaxis], len(net.layers) - 1)])
    return FloatModel(net=net, layers=params), activation_scales(maxima)


def build_reference_model(calib: LabeledWindowSet, seed: int = 7):
    """Construct a quantized model for the synthetic task.

    Returns (PackedModel, logit_scale); accuracy comes from the fixed filter
    bank plus a closed-form nearest-class-mean head, not from training.
    """
    fm, scales = reference_float_model(calib, seed)
    return quantize_model(fm, scales), scales[-1]
