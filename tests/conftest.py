"""Shared helpers: random geometries, models, and inputs for equivalence tests."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from scgaccel.modeltools import (DESCRIPTOR_SIZE, HEADER_SIZE, PackedModel,
                                 random_input, random_model, random_small_net)
from scgaccel.qnn import (INT32_MIN, MAX_REQUANT_SHIFT, Activation, LayerKind,
                          LayerSpec, LayerWeights, NetworkSpec, PoolMode,
                          WeightSet)

__all__ = ["einsum_conv", "random_input", "random_small_net", "reserved_byte_blobs",
           "seed1_blob", "shift63_blob", "shift_edge_model", "signed_conv_blob",
           "wide_image_net"]


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


def wide_image_net() -> NetworkSpec:
    """A net that passes VERIFY but whose layer-0 output image does not fit.

    Layer 0 writes 65 channels of 512 samples, 65 * 256 = 16,640 words, into
    the 16,384-word ping-pong buffer.
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
