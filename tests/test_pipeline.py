"""The reference model's one float pass: its scales, its memory and the
calibration sets it refuses."""

import tracemalloc
import warnings

import numpy as np
import pytest

from scgaccel.errors import ConfigError, ShapeError
from scgaccel.metrics import LabeledWindowSet, synth_windows
from scgaccel.modeltools import calibrate_activation_scales, quantize_model
from scgaccel.pipeline import (CALIB_WINDOWS, build_reference_model,
                               reference_float_model)
from scgaccel.qnn import INPUT_SCALE, NetworkSpec


@pytest.mark.parametrize("n, seed", [(96, 3), (96, 7), (192, 11)])
def test_one_pass_scales_equal_a_separate_calibration_pass(n, seed):
    calib = synth_windows(n, seed=seed)
    fm, scales = reference_float_model(calib, seed=seed)
    assert scales == calibrate_activation_scales(
        fm, calib.windows[:CALIB_WINDOWS], INPUT_SCALE)
    model, logit_scale = build_reference_model(calib, seed=seed)
    assert model.to_bytes() == quantize_model(fm, scales).to_bytes()
    assert logit_scale == scales[-1]


def test_one_pass_keeps_no_window_activations():
    """The build's traced peak stays under a bound set by what it keeps.

    Held through the build: the float parameters (W weights) and the
    [n, c_in] head features.  On top, at any one time, one layer's work: at
    most three float64 copies the size of the largest layer (the conv's tap
    copy, or the quantizer's scaled, rounded and clipped weights) and one
    window's activations, counted twice for the conv outputs before pooling.
    At n = 96 that is 8 * (64,528 + 12,288 + 3 * 40,960 + 2 * 12,419) bytes,
    1.80 MB.  Keeping the activations of the CALIB_WINDOWS windows, as a
    pass that stored them for a later scale pass would, takes 6.36 MB on its
    own.  The build peaks at about 1.3 MB.
    """
    net = NetworkSpec.default()
    lengths = net.layer_input_lengths()[1:] + [1]
    weights = sum(s.c_out * s.c_in * s.kernel for s in net.layers)
    largest = max(s.c_out * s.c_in * s.kernel for s in net.layers)
    acts = sum(s.c_out * w for s, w in zip(net.layers, lengths))
    n = 96
    bound = 8 * (weights + n * net.layers[-1].c_in + 3 * largest + 2 * acts)
    assert (weights, largest, acts) == (64_528, 40_960, 12_419)
    assert bound < 8 * CALIB_WINDOWS * acts
    calib = synth_windows(n, seed=7)
    build_reference_model(calib)    # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        build_reference_model(calib)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_a_calibration_set_without_a_class_is_refused():
    calib = synth_windows(96, seed=7)
    keep = calib.labels != 2
    short = LabeledWindowSet(calib.windows[keep], calib.labels[keep])
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # refused before any numpy warning
        with pytest.raises(ConfigError,
                           match=r"^calibration set has no window of class 2 \(diastolic\)$"):
            build_reference_model(short)


def _nan_in_window_70(calib):
    calib.windows[70, 3] = np.nan       # past the CALIB_WINDOWS scale windows
    return calib


@pytest.mark.parametrize("make, match", [
    (lambda: LabeledWindowSet(np.zeros((0, 512)), np.zeros(0, dtype=int)),
     "^calibration needs at least one window$"),
    (lambda: _nan_in_window_70(synth_windows(96, seed=7)),
     "^window 70: samples must be finite$"),
    (lambda: synth_windows(96, seed=7, window_len=256),
     "^windows have 256 samples, the network runs 512$"),
], ids=["empty", "nan", "wrong-length"])
def test_the_build_refuses_windows_it_cannot_measure(make, match):
    with pytest.raises(ShapeError, match=match):
        build_reference_model(make())
