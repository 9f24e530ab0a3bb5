"""Folding, quantization, packing, and the weight binary format."""

import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import (einsum_conv, reserved_byte_blobs, seed1_blob, shift63_blob,
                      signed_conv_blob)
from scgaccel.errors import (BadMagicError, CapacityError, ConfigError,
                             SerializationError, ShapeError, TruncationError)
from scgaccel.modeltools import (DESCRIPTOR_SIZE, HEADER_SIZE, INPUT_MEM_WORDS,
                                 PINGPONG_WORDS, BatchNorm, FloatLayerParams,
                                 FloatModel, PackedModel, WEIGHT_MEM_WORDS,
                                 calibrate_activation_scales,
                                 derive_requant_constants, float_layer_forward,
                                 fold_batchnorm, image_words, layer_word_count,
                                 pack_weight_bytes, quantize_model,
                                 quantize_weights, random_model,
                                 unpack_weight_bytes)
from scgaccel.qnn import (Activation, LayerKind, LayerSpec, LayerWeights,
                          NetworkSpec, PoolMode, WeightSet)


# ---------------------------------------------------------------------------
# Batch-norm folding
# ---------------------------------------------------------------------------

def _random_layer_params(rng, c_out=4, c_in=3, k=5, with_bn=True):
    bn = None
    if with_bn:
        bn = BatchNorm(gamma=rng.uniform(0.5, 2.0, c_out),
                       beta=rng.normal(size=c_out),
                       running_mean=rng.normal(size=c_out),
                       running_var=rng.uniform(0.1, 2.0, c_out))
    return FloatLayerParams(weights=rng.normal(size=(c_out, c_in, k)),
                            bias=rng.normal(size=c_out), bn=bn)


def test_fold_identity_bn_is_noop():
    rng = np.random.default_rng(0)
    params = _random_layer_params(rng)
    params.bn = BatchNorm(gamma=np.ones(4), beta=np.zeros(4),
                          running_mean=np.zeros(4), running_var=np.ones(4),
                          epsilon=0.0)
    folded = fold_batchnorm(params)
    assert np.allclose(folded.weights, params.weights)
    assert np.allclose(folded.bias, params.bias)


def test_fold_scale_only_bn_doubles_weights():
    rng = np.random.default_rng(1)
    params = _random_layer_params(rng, with_bn=False)
    params.bn = BatchNorm(gamma=np.full(4, 2.0), beta=np.zeros(4),
                          running_mean=np.zeros(4), running_var=np.ones(4),
                          epsilon=0.0)
    folded = fold_batchnorm(params)
    assert np.allclose(folded.weights, 2.0 * params.weights)
    assert np.allclose(folded.bias, 2.0 * params.bias)


def test_fold_matches_unfolded_forward_to_1e6():
    rng = np.random.default_rng(2)
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=3, c_out=4, kernel=5,
                     padding=2, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    for _ in range(20):
        params = _random_layer_params(rng)
        x = rng.normal(size=(3, 16))
        with_bn = float_layer_forward(spec, params, x)
        folded = float_layer_forward(spec, fold_batchnorm(params), x)
        assert np.max(np.abs(with_bn - folded)) < 1e-6


def test_float_layer_forward_matches_einsum_reference():
    rng = np.random.default_rng(12)
    for _ in range(200):
        c_in, c_out = (int(v) for v in rng.integers(1, 6, size=2))
        k = int(rng.choice([1, 3, 5, 9]))
        pad = int(rng.integers(0, k + 2))
        spec = LayerSpec(kind=LayerKind.CONV1D, c_in=c_in, c_out=c_out, kernel=k,
                         padding=pad, pool_mode=PoolMode.BYPASS,
                         activation=Activation.SIGNED_BYPASS)
        params = _random_layer_params(rng, c_out=c_out, c_in=c_in, k=k,
                                      with_bn=False)
        x = rng.normal(size=(c_in, int(rng.integers(1, 40))))
        expect = einsum_conv(x[np.newaxis], params.weights, pad)[0] \
            + params.bias[:, np.newaxis]
        got = float_layer_forward(spec, params, x)
        assert np.max(np.abs(got - expect)) <= 1e-9 * np.max(np.abs(expect))


@pytest.mark.parametrize("pool, bad, good, message", [
    (PoolMode.GLOBAL_AVG, 10, 64, "GAP unit is hardwired for length 64, got 10"),
    (PoolMode.MAXPOOL2, 7, 8, "maxpool input length 7 must be even"),
], ids=["gap-at-10", "odd-maxpool"])
def test_float_layer_forward_pools_to_out_length(pool, bad, good, message):
    rng = np.random.default_rng(14)
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=3, c_out=2, kernel=3, padding=1,
                     pool_mode=pool, activation=Activation.RELU_SATURATE)
    params = _random_layer_params(rng, c_out=2, k=3, with_bn=False)
    with pytest.raises(ConfigError, match=message):
        float_layer_forward(spec, params, rng.normal(size=(3, bad)))
    y = float_layer_forward(spec, params, rng.normal(size=(3, good)))
    assert y.shape == (2, spec.out_length(good))


def _one_tap_layer(pool: PoolMode, weight: float) -> tuple[LayerSpec, FloatLayerParams]:
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=1, c_out=1, kernel=1, padding=0,
                     pool_mode=pool, activation=Activation.RELU_SATURATE)
    return spec, FloatLayerParams(weights=np.full((1, 1, 1), weight), bias=np.zeros(1))


@pytest.mark.parametrize("pool, weight, layer, message", [
    # -inf out of the conv, which the maxpool and the ReLU would turn into 0
    (PoolMode.MAXPOOL2, -1e200, 3, "layer 3: conv output is not finite"),
    (PoolMode.BYPASS, -1e200, None, "float forward: conv output is not finite"),
    # a finite conv output of 1e307 whose GAP sum over 64 samples overflows
    (PoolMode.GLOBAL_AVG, 1e107, 2, "layer 2: GAP output is not finite"),
], ids=["maxpool-relu", "unnamed", "gap-sum"])
def test_float_layer_forward_refuses_an_activation_that_is_not_finite(
        pool, weight, layer, message):
    spec, params = _one_tap_layer(pool, weight)
    x = np.full((1, 64), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match=message):
        float_layer_forward(spec, params, x, layer)


def test_fold_requires_bn():
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigError):
        fold_batchnorm(_random_layer_params(rng, with_bn=False))


# ---------------------------------------------------------------------------
# Weight quantization and requant constants
# ---------------------------------------------------------------------------

def test_quantize_weights_bounds_and_scale():
    rng = np.random.default_rng(4)
    params = _random_layer_params(rng, with_bn=False)
    lw, s_w = quantize_weights(params, input_scale=1 / 32)
    assert lw.weights.dtype == np.int8
    assert lw.weights.min() >= -127 and lw.weights.max() <= 127
    assert s_w == pytest.approx(np.abs(params.weights).max() / 127.0)
    # the extreme weight maps to +-127 exactly
    assert np.abs(lw.weights).max() == 127


def test_quantize_weights_refuses_unfolded_bn():
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigError):
        quantize_weights(_random_layer_params(rng), input_scale=1.0)


def test_requant_constants_known_ratios():
    assert derive_requant_constants(0.5, 1.0, 1.0) == (1 << 30, 31)
    assert derive_requant_constants(1.0, 1.0, 1.0) == (1 << 30, 30)
    # the mantissa 1 - 2^-40 rounds up to 2^31, so it halves into the shift
    assert derive_requant_constants(1 - 2.0 ** -40, 1.0, 1.0) == (1 << 30, 30)


def test_requant_constants_reconstruction_error():
    rng = np.random.default_rng(6)
    for _ in range(500):
        s_in, s_w, s_out = rng.uniform(1e-4, 10.0, size=3)
        mult, shift = derive_requant_constants(s_in, s_w, s_out)
        ratio = s_in * s_w / s_out
        assert (1 << 30) <= mult < (1 << 31)
        assert abs(mult / (1 << shift) - ratio) <= ratio * 2.0 ** -30


def test_requant_constants_reject_bad_scales():
    with pytest.raises(ConfigError):
        derive_requant_constants(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        derive_requant_constants(1e-12, 1e-12, 1.0)   # shift would exceed 62


@pytest.mark.parametrize("scales, message", [
    ((1.0, 1.0, np.inf), "s_out must be positive and finite, got inf"),
    ((np.inf, 1.0, 1.0), "s_in must be positive and finite, got inf"),
    ((1.0, np.nan, 1.0), "s_w must be positive and finite, got nan"),
    ((1.0, 1.0, np.nan), "s_out must be positive and finite, got nan"),
    ((1e-300, 1e-300, 1.0), "ratio must be positive and finite, got 0.0"),
    ((1e300, 1e300, 1.0), "ratio must be positive and finite, got inf"),
], ids=["inf-out", "inf-in", "nan-w", "nan-out", "underflow", "overflow"])
def test_requant_constants_refuse_scales_that_are_not_finite_and_positive(
        scales, message):
    with pytest.raises(ConfigError, match=f"^requant {message}$"):
        derive_requant_constants(*scales)


def _bn(c_out, running_var=1.0):
    return BatchNorm(gamma=np.ones(c_out), beta=np.zeros(c_out),
                     running_mean=np.zeros(c_out),
                     running_var=np.full(c_out, running_var))


def _zero_float_model(net):
    return FloatModel(net=net, layers=[
        FloatLayerParams(weights=np.zeros((s.c_out, s.c_in, s.kernel)),
                         bias=np.zeros(s.c_out)) for s in net.layers])


@pytest.mark.parametrize("make, error, message", [
    (lambda: FloatLayerParams(np.zeros((2, 1, 3)), np.zeros(2), bn=_bn(3)),
     ShapeError, "bn.gamma must have length c_out"),
    (lambda: FloatModel(net=NetworkSpec.default(), layers=[]),
     ShapeError, "float model layer count mismatch"),
    (lambda: fold_batchnorm(FloatLayerParams(np.zeros((1, 1, 1)), np.zeros(1),
                                             bn=_bn(1, running_var=-1.0))),
     ConfigError, "running_var + epsilon must be positive"),
    (lambda: quantize_weights(FloatLayerParams(np.full((1, 1, 1), np.nan),
                                               np.zeros(1)), input_scale=1.0),
     ConfigError, "parameters must be finite"),
    (lambda: derive_requant_constants(1e10, 1.0, 1.0),
     ConfigError, "requant ratio 1e+10 too large for the datapath"),
    (lambda: quantize_model(_zero_float_model(NetworkSpec.default()), [1.0]),
     ConfigError, "need one scale per layer boundary"),
], ids=["bn-length", "float-model-layers", "bn-variance", "nan-weights",
        "ratio-too-large", "scale-count"])
def test_model_preparation_refuses_a_malformed_argument(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

def test_pack_weight_bytes_examples():
    assert pack_weight_bytes(np.array([1, 2], dtype=np.int8)).tolist() == [0x0201]
    assert pack_weight_bytes(np.array([1, 2, 3], dtype=np.int8)).tolist() \
        == [0x0201, 0x0003]
    assert pack_weight_bytes(np.array([-1, -2], dtype=np.int8)).tolist() \
        == [0xFEFF]


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(7)
    for n in (1, 2, 7, 64, 1001):
        flat = rng.integers(-128, 128, size=n).astype(np.int8)
        words = pack_weight_bytes(flat)
        assert words.size == (n + 1) // 2
        assert np.array_equal(unpack_weight_bytes(words, n)[0].view(np.int8), flat)


@pytest.mark.parametrize("length", [6, 7])
def test_pack_weight_bytes_ignores_memory_order(length):
    rows = np.random.default_rng(13).integers(0, 256, size=(3, length),
                                               dtype=np.uint8)
    expect = pack_weight_bytes(rows)
    assert np.array_equal(pack_weight_bytes(np.asfortranarray(rows)), expect)
    assert np.array_equal(pack_weight_bytes(np.ascontiguousarray(rows.T).T), expect)
    assert np.array_equal(pack_weight_bytes(rows.astype(np.int8, order="F")), expect)


def test_default_network_weight_word_count():
    net = NetworkSpec.default()
    model = random_model(net, np.random.default_rng(8))
    per_layer = [s.c_out * s.c_in * s.kernel for s in net.layers]
    assert per_layer == [144, 4608, 18432, 40960, 384]
    assert sum(per_layer) == 64_528
    assert model.weight_words.size == 32_264
    assert model.layer_word_base == [0, 72, 2376, 11592, 32072]
    # fits the 32K-word space with the last word below the limit
    assert model.layer_word_base[-1] + 192 <= WEIGHT_MEM_WORDS


def test_memory_map_fills_the_up5k_memories():
    # iCE40UP5K (Lattice FPGA-DS-02008): four 16K x 16 SPRAM blocks, and
    # 256 x 16 EBR blocks
    spram_block, ebr_block = 16 * 1024, 256
    assert WEIGHT_MEM_WORDS + 2 * PINGPONG_WORDS == 4 * spram_block
    assert INPUT_MEM_WORDS == 2 * ebr_block
    default = NetworkSpec.default()
    assert sum(layer_word_count(s) for s in default.layers) == 32_264
    assert WEIGHT_MEM_WORDS == 32_768


@pytest.mark.parametrize("channels, length", [(1, 1), (1, 512), (3, 7), (16, 256)])
def test_image_words_counts_what_pack_weight_bytes_makes(channels, length):
    rows = np.zeros((channels, length), dtype=np.uint8)
    assert image_words(channels, length) == pack_weight_bytes(rows).size


def test_from_weights_capacity_error_names_layer():
    # 64x64x9 weights = 18,432 words per conv layer: one fits, two overflow
    conv = LayerSpec(kind=LayerKind.CONV1D, c_in=64, c_out=64, kernel=9,
                     padding=4, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    head = LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=64, c_out=3, kernel=1,
                     padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.SIGNED_BYPASS)

    def weights(*layers):
        return WeightSet(layers=[LayerWeights(
            weights=np.zeros((s.c_out, s.c_in, s.kernel), dtype=np.int8),
            biases=np.zeros(s.c_out, dtype=np.int32)) for s in layers])
    one = NetworkSpec(layers=(conv, head))
    assert PackedModel.from_weights(one, weights(conv, head)).weight_words.size \
        == 18_432 + 96
    two = NetworkSpec(layers=(conv, conv, head))
    with pytest.raises(CapacityError, match=r"^layer 1 exceeds the 64 KB weight "
                       r"memory: 36864 > 32768 words$"):
        PackedModel.from_weights(two, weights(conv, conv, head))


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

def test_serialize_round_trip(default_pair):
    _, model, _ = default_pair
    blob = model.to_bytes()
    back = PackedModel.from_bytes(blob)
    assert back.layers == model.layers
    assert all(np.array_equal(a, b) for a, b in zip(back.biases, model.biases))
    assert np.array_equal(back.weight_words, model.weight_words)
    assert back.to_bytes() == blob


def test_serialize_round_trip_preserves_inference(default_pair):
    net, model, x = default_pair
    from scgaccel.qnn import infer_window
    back = PackedModel.from_bytes(model.to_bytes())
    a, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    b, _ = infer_window(back.to_network_spec(), back.to_weight_set(), x)
    assert np.array_equal(a.values, b.values)


def test_deserialize_error_kinds(default_pair):
    _, model, _ = default_pair
    blob = model.to_bytes()
    with pytest.raises(BadMagicError):
        PackedModel.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(TruncationError):
        PackedModel.from_bytes(blob[:3])
    for cut in (10, 90, len(blob) // 2, len(blob) - 1):
        with pytest.raises(TruncationError):
            PackedModel.from_bytes(blob[:cut])
    with pytest.raises(SerializationError, match="trailing"):
        PackedModel.from_bytes(blob + b"\x00")
    bad_version = blob[:4] + b"\x63\x00" + blob[6:]
    with pytest.raises(SerializationError, match="version"):
        PackedModel.from_bytes(bad_version)
    with pytest.raises(SerializationError):
        PackedModel.from_bytes(blob[:4] + b"\x01\x00\x00")   # zero layers


def test_deserialize_rejects_a_bad_layout():
    with pytest.raises(SerializationError, match="ReLU conv"):
        PackedModel.from_bytes(signed_conv_blob())
    # layer 1 takes 8 channels from layer 0's 16; the weight image shrinks to
    # match, so every size field is consistent and only the chain is broken
    model = random_model(NetworkSpec.default(), np.random.default_rng(1))
    narrow = replace(model.layers[1], c_in=8)
    blob = bytearray(model.to_bytes())
    struct.pack_into("<H", blob, HEADER_SIZE + DESCRIPTOR_SIZE + 6, narrow.c_in)
    del blob[-2 * (layer_word_count(model.layers[1]) - layer_word_count(narrow)):]
    with pytest.raises(SerializationError, match="channel chain broken"):
        PackedModel.from_bytes(bytes(blob))


def test_deserialize_rejects_a_head_that_pools():
    blob = bytearray(seed1_blob())
    blob[HEADER_SIZE + 4 * DESCRIPTOR_SIZE + 1] = PoolMode.MAXPOOL2  # pool byte
    with pytest.raises(SerializationError, match="descriptor 4 invalid: FC "
                       "layers bypass the pooling unit"):
        PackedModel.from_bytes(bytes(blob))


@pytest.mark.parametrize("blob", [pytest.param(blob, id=name) for name, blob
                                  in reserved_byte_blobs().items()])
def test_deserialize_rejects_a_nonzero_reserved_byte(blob):
    with pytest.raises(SerializationError, match="descriptor [04]: reserved"):
        PackedModel.from_bytes(blob)


def test_deserialize_rejects_requant_shift_63():
    with pytest.raises(SerializationError, match=r"shift must be in \[0, 62\]"):
        PackedModel.from_bytes(shift63_blob())


def test_header_and_descriptor_bytes_are_refused_or_round_trip():
    # flip each byte of the header and the five descriptors with three masks:
    # the loader either refuses the blob or reads a model that writes the
    # same bytes back, so no byte is accepted and then dropped
    blob = seed1_blob()
    for off in range(HEADER_SIZE + 5 * DESCRIPTOR_SIZE):    # 87 bytes
        for mask in (0x01, 0x80, 0xFF):
            mutated = bytearray(blob)
            mutated[off] ^= mask
            try:
                back = PackedModel.from_bytes(bytes(mutated))
            except SerializationError:
                continue
            assert back.to_bytes() == mutated, f"offset {off}, mask {mask:#04x}"


def _over_capacity(fields):
    # a conv 256->256 with K=1 and an FC 256->3 take 32,768 + 384 = 33,152
    # words, a layout NetworkSpec accepts whose image exceeds the memory
    relu = LayerSpec(kind=LayerKind.CONV1D, c_in=256, c_out=256, kernel=1,
                     padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    head = LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=256, c_out=3,
                     kernel=1, padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.SIGNED_BYPASS)
    words = layer_word_count(relu) + layer_word_count(head)
    assert words == 33_152 > WEIGHT_MEM_WORDS
    return dict(layers=[relu, head], biases=[np.zeros(256), np.zeros(3)],
                weight_words=np.zeros(words))


@pytest.mark.parametrize("edit, error, match", [
    (lambda f: dict(f, biases=f["biases"][:-1]),
     SerializationError, "bias table layer count"),
    (lambda f: dict(f, biases=[f["biases"][0][:-1]] + f["biases"][1:]),
     SerializationError, "layer 0: bias count"),
    (lambda f: dict(f, weight_words=f["weight_words"][:-1]),
     SerializationError, "weight image has"),
    (_over_capacity, CapacityError, "64 KB"),
], ids=["bias-list", "bias-array", "weight-image", "capacity"])
def test_packed_model_rejects_fields_that_do_not_match(edit, error, match):
    model = random_model(NetworkSpec.default(l3_width=16),
                         np.random.default_rng(1))
    fields = dict(layers=model.layers, biases=model.biases,
                  weight_words=model.weight_words)
    with pytest.raises(error, match=match):
        PackedModel(**edit(fields))


def test_descriptor_size_is_stable(default_pair):
    _, model, _ = default_pair
    header = 4 + 2 + 1
    biases = 4 * sum(s.c_out for s in model.layers)
    expected = header + 16 * len(model.layers) + biases \
        + 2 * model.weight_words.size
    assert len(model.to_bytes()) == expected


# ---------------------------------------------------------------------------
# End-to-end quantization
# ---------------------------------------------------------------------------

def test_quantize_model_produces_valid_packed_model():
    rng = np.random.default_rng(10)
    net = NetworkSpec.default(l3_width=16)
    params = []
    for i, s in enumerate(net.layers):
        bn = None
        if s.activation == Activation.RELU_SATURATE:
            bn = BatchNorm(gamma=rng.uniform(0.5, 1.5, s.c_out),
                           beta=rng.normal(0, 0.1, s.c_out),
                           running_mean=rng.normal(0, 0.1, s.c_out),
                           running_var=rng.uniform(0.5, 1.5, s.c_out))
        params.append(FloatLayerParams(
            weights=rng.normal(scale=1 / np.sqrt(s.c_in * s.kernel),
                               size=(s.c_out, s.c_in, s.kernel)),
            bias=rng.normal(0, 0.05, s.c_out), bn=bn))
    fm = FloatModel(net=net, layers=params)
    calib = rng.normal(size=(8, 512))
    model = quantize_model(fm, calibrate_activation_scales(fm, calib))
    model.validate()
    assert len(model.layers) == 5
    for spec in model.layers:
        assert (1 << 30) <= spec.requant_multiplier < (1 << 31)
    # quantized network must run
    from scgaccel.qnn import QuantTensor, infer_window, zscore_quantize
    x = zscore_quantize(rng.normal(size=512))
    logits, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert logits.values.shape == (3,)
    assert isinstance(x, QuantTensor)


def _nan_in_window_5(rng):
    windows = rng.normal(size=(8, 512))
    windows[5, 100] = np.nan
    return windows


@pytest.mark.parametrize("windows, match", [
    (lambda rng: np.zeros((0, 512)), "^calibration needs at least one window$"),
    (_nan_in_window_5, "^window 5: samples must be finite$"),
    (lambda rng: rng.normal(size=(8, 256)),
     "^windows have 256 samples, the network runs 512$"),
], ids=["empty", "nan", "wrong-length"])
def test_calibration_refuses_windows_it_cannot_measure(rng, windows, match):
    # unchecked, an empty set gives 1e-12/255 scales, max(m, nan) skips a
    # NaN window, and the float GAP averages any length
    net = NetworkSpec.default(l3_width=16)
    fm = FloatModel(net=net, layers=[
        FloatLayerParams(weights=rng.normal(size=(s.c_out, s.c_in, s.kernel)),
                         bias=np.zeros(s.c_out)) for s in net.layers])
    with pytest.raises(ShapeError, match=match):
        calibrate_activation_scales(fm, windows(rng))
    scales = calibrate_activation_scales(fm, rng.normal(size=512))
    assert len(scales) == 6 and all(s > 1e-12 / 255 for s in scales)
