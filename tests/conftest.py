"""Shared helpers: random geometries, models, and inputs for equivalence tests."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from scgaccel.modeltools import (DESCRIPTOR_SIZE, HEADER_SIZE, PackedModel,
                                 random_input, random_model, random_small_net)
from scgaccel.qnn import (GAP_LENGTH, INT32_MAX, INT32_MIN, MAX_REQUANT_SHIFT,
                          Activation, LayerKind, LayerSpec, LayerWeights,
                          NetworkSpec, PoolMode, WeightSet)

__all__ = ["einsum_conv", "every_kind_net", "gap_overflow_model", "random_input",
           "random_small_net", "reserved_byte_blobs", "seed1_blob", "shift63_blob",
           "shift_edge_model", "signed_conv_blob", "wide_image_net"]

_RELU = dict(kind=LayerKind.CONV1D, activation=Activation.RELU_SATURATE)
_FC = dict(kind=LayerKind.FULLY_CONNECTED, kernel=1, padding=0,
           pool_mode=PoolMode.BYPASS, activation=Activation.SIGNED_BYPASS)


def einsum_conv(x, w, pad):
    """Reference stride-1 conv of x [B, C, L] with w [O, C, K] -> [B, O, L].

    An einsum over sliding windows of a zero-padded copy of x; exact on
    int64 operands.
    """
    b, c, n = x.shape
    k = w.shape[2]
    xp = np.zeros((b, c, pad + n + max(k - 1 - pad, 0)), dtype=np.result_type(x, w))
    xp[:, :, pad:pad + n] = x
    windows = sliding_window_view(xp, k, axis=2)[:, :, :n, :]   # [B, C, L, K]
    return np.einsum("ock,bctk->bot", w, windows)


def every_kind_net() -> NetworkSpec:
    """Maxpool conv, bypass-ReLU conv, GAP conv at length 64, FC head."""
    return NetworkSpec(layers=(
        LayerSpec(c_in=1, c_out=4, kernel=9, padding=4,
                  pool_mode=PoolMode.MAXPOOL2, **_RELU),
        LayerSpec(c_in=4, c_out=4, kernel=5, padding=2,
                  pool_mode=PoolMode.BYPASS, **_RELU),
        LayerSpec(c_in=4, c_out=8, kernel=3, padding=1,
                  pool_mode=PoolMode.GLOBAL_AVG, **_RELU),
        LayerSpec(c_in=8, c_out=3, **_FC),
    ), input_length=2 * GAP_LENGTH)


def gap_overflow_model(model: PackedModel) -> PackedModel:
    """`model`, on every_kind_net, with the GAP conv (layer 2) at bias
    INT32_MAX and every weight 127: its accumulator overflows on any window
    that leaves layer 1 a nonzero sample, after layers 0 and 1 complete."""
    ws = model.to_weight_set()
    spec = model.layers[2]
    ws.layers[2] = LayerWeights(
        weights=np.full((spec.c_out, spec.c_in, spec.kernel), 127),
        biases=np.full(spec.c_out, INT32_MAX))
    return PackedModel.from_weights(every_kind_net(), ws)


def wide_image_net() -> NetworkSpec:
    """A net that passes VERIFY but runs no window over 504 samples.

    Layer 0 writes 65 channels of its input length.  At 512 samples that is
    65 * 256 = 16,640 words, more than the 16,384-word ping-pong buffer; at
    504 it is 65 * 252 = 16,380 words, which fits.
    """
    return NetworkSpec(layers=(
        LayerSpec(kind=LayerKind.CONV1D, c_in=1, c_out=65, kernel=3, padding=1,
                  pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE),
        LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=65, c_out=3, kernel=1,
                  padding=0, pool_mode=PoolMode.BYPASS,
                  activation=Activation.SIGNED_BYPASS),
    ), input_length=512)


def seed1_blob() -> bytes:
    """SANN bytes of the random model of seed 1 on the default network."""
    return random_model(NetworkSpec.default(), np.random.default_rng(1)).to_bytes()


def signed_conv_blob() -> bytes:
    """SANN bytes that break only the layout rule: the seed-1 default model
    with descriptor 0's activation byte (offset 9) set to signed."""
    blob = bytearray(seed1_blob())
    blob[9] = Activation.SIGNED_BYPASS
    return bytes(blob)


def reserved_byte_blobs() -> dict[str, bytes]:
    """SANN bytes that break only the reserved-byte rule, by id: the seed-1
    default model with byte 14 or 15 of descriptor 0 or of the head
    (descriptor 4) set to 1."""
    base, blobs = seed1_blob(), {}
    for descriptor in (0, 4):
        for byte in (14, 15):
            blob = bytearray(base)
            blob[HEADER_SIZE + descriptor * DESCRIPTOR_SIZE + byte] = 1
            blobs[f"descriptor{descriptor}-byte{byte}"] = bytes(blob)
    return blobs


def shift_edge_model() -> PackedModel:
    """A conv 1->1 (K 1, bypass) and an FC head 1->3 at the largest requant
    shift, with multiplier INT32_MIN, zero weights and biases
    [INT32_MIN, 0, 5]: logit 0 rounds the largest i32 x i32 product,
    INT32_MIN * INT32_MIN = 2^62."""
    net = NetworkSpec(layers=(
        LayerSpec(kind=LayerKind.CONV1D, c_in=1, c_out=1, kernel=1, padding=0,
                  pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE),
        LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=1, c_out=3, kernel=1,
                  padding=0, pool_mode=PoolMode.BYPASS,
                  activation=Activation.SIGNED_BYPASS,
                  requant_multiplier=INT32_MIN, requant_shift=MAX_REQUANT_SHIFT),
    ), input_length=6)
    ws = WeightSet(layers=[
        LayerWeights(weights=np.zeros((1, 1, 1)), biases=[0]),
        LayerWeights(weights=np.zeros((3, 1, 1)), biases=[INT32_MIN, 0, 5])])
    return PackedModel.from_weights(net, ws)


def shift63_blob() -> bytes:
    """SANN bytes of shift_edge_model with the head's shift byte (offset 5
    of descriptor 1) set to 63, one past the MAX_REQUANT_SHIFT that the
    loader and VERIFY accept."""
    blob = bytearray(shift_edge_model().to_bytes())
    blob[HEADER_SIZE + DESCRIPTOR_SIZE + 5] = 63
    return bytes(blob)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def default_pair(rng):
    """One random model + input on the published topology."""
    net = NetworkSpec.default()
    return net, random_model(net, rng), random_input(rng, net)
