"""Shared helpers: random geometries, models, and inputs for equivalence tests."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from scgaccel.modeltools import (DESCRIPTOR_SIZE, HEADER_SIZE, random_input,
                                 random_model, random_small_net)
from scgaccel.qnn import (Activation, LayerKind, LayerSpec, NetworkSpec,
                          PoolMode)

__all__ = ["einsum_conv", "random_input", "random_small_net", "reserved_byte_blobs",
           "seed1_blob", "signed_conv_blob", "wide_image_net"]


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def default_pair(rng):
    """One random model + input on the published topology."""
    net = NetworkSpec.default()
    return net, random_model(net, rng), random_input(rng, net)
