"""Golden-model ops against independent brute-force oracles.

The oracles below are written in plain Python integer arithmetic with no
numpy vectorization, so any shortcut in the library implementation shows up
as a mismatch rather than a shared bug.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _FC, einsum_conv, wide_image_net
from scgaccel.errors import AccumulatorOverflow, ConfigError, ShapeError
from scgaccel.metrics import softmax, synth_windows
from scgaccel.modeltools import PackedModel, layer_weights, random_model
from scgaccel.pipeline import (GOLDEN_CHUNK, build_reference_model, golden_predict,
                               quantize_windows)
from scgaccel.qnn import (GAP_LENGTH, GAP_SHIFT, INPUT_SCALE,
                          INPUT_ZERO_POINT, INT32_MAX, INT32_MIN, Activation,
                          LayerKind, LayerSpec, Logits, NetworkSpec,
                          LayerWeights, PoolMode, QuantTensor, WeightSet,
                          conv1d_acc, conv1d_gemm, gap_shift_acc, gemm_operands,
                          infer_window, layer_step, maxpool2_acc, quantize_zscores,
                          requantize, round_shift, zscore_quantize)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_conv(x, zp, weights, biases, pad):
    """Triple-loop integer convolution with zero-point padding."""
    c_out, c_in, k = len(weights), len(weights[0]), len(weights[0][0])
    w_in = len(x[0])
    out = [[0] * w_in for _ in range(c_out)]
    for o in range(c_out):
        for t in range(w_in):
            acc = int(biases[o])
            for c in range(c_in):
                for j in range(k):
                    idx = t + j - pad
                    sample = int(x[c][idx]) if 0 <= idx < w_in else zp
                    acc += int(weights[o][c][j]) * (sample - zp)
            out[o][t] = acc
    return out


def oracle_maxpool2(acc):
    out = []
    for row in acc:
        pooled = []
        for i in range(0, len(row), 2):
            pair = row[i:i + 2]
            pooled.append(max(int(v) for v in pair) if len(pair) == 2
                          else max(int(pair[0]), INT32_MIN))
        out.append(pooled)
    return out


def oracle_gap(acc):
    return [sum(int(v) >> GAP_SHIFT for v in row) for row in acc]


def oracle_requant(acc, multiplier, shift, signed):
    """Pure-integer round-to-nearest, ties away from zero, then saturate."""
    p = int(acc) * int(multiplier)
    if shift == 0:
        r = p
    else:
        mag = (abs(p) + (1 << (shift - 1))) >> shift
        r = -mag if p < 0 else mag
    if signed:
        return max(INT32_MIN, min(INT32_MAX, r))
    return max(0, min(255, r))


def oracle_round_shift(p, shift):
    """p / 2^shift rounded to nearest, ties away from zero, by divmod."""
    q, r = divmod(abs(p), 1 << shift)
    mag = q + (2 * r >= 1 << shift)
    return -mag if p < 0 else mag


def oracle_zscore_quantize(window, zero_point, scale_divisor):
    """One window's u8 codes by the where/floor/ceil/clip formula."""
    w = np.asarray(window, dtype=np.float64)
    z = (w - w.mean()) / (w.std() or 1.0) / scale_divisor
    q = np.where(z >= 0, np.floor(z + 0.5), np.ceil(z - 0.5)) + zero_point
    return np.clip(q, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Oracle checks; acceptance criterion 8 sweeps conv, maxpool, GAP and
# requant against the oracles above
# ---------------------------------------------------------------------------

def test_round_shift_matches_divmod_oracle_every_shift():
    # |p| = 2^62 (INT32_MIN * INT32_MIN) and its neighbours, powers of two
    # and ties at every shift, random i32 x i32 products, and 1,000 draws of
    # p in +-2^62 each at a random shift of 0 to 62, on int64 arrays and on
    # Python ints
    rng = np.random.default_rng(13)
    edges = [0, 1, 2, 3, (1 << 62) - 1, 1 << 62, INT32_MAX * INT32_MAX,
             INT32_MAX * -INT32_MIN]
    edges += [(1 << s) + d for s in range(63) for d in (-1, 0, 1)]
    products = (rng.integers(INT32_MIN, INT32_MAX + 1, size=400)
                * rng.integers(INT32_MIN, INT32_MAX + 1, size=400))
    draws = rng.integers(-(1 << 62), 1 << 62, size=1000)
    draw_shifts = rng.integers(0, 63, size=1000)
    for shift in range(64):
        ties = [(2 * k + 1) << (shift - 1) for k in (0, 1, 2, 1 << 20)
                if shift and (2 * k + 1) << (shift - 1) <= 1 << 62]
        values = (edges + ties + [int(v) for v in products]
                  + draws[draw_shifts == shift].tolist())
        values += [-v for v in values]
        expect = [oracle_round_shift(v, shift) for v in values]
        assert [round_shift(v, shift) for v in values] == expect, shift
        assert round_shift(np.array(values, dtype=np.int64), shift).tolist() \
            == expect, shift
        # an unsigned array takes the one-shift form, in place: at shift 63
        # p = 2^62 reaches 2^62 + 2^62 = 2^63 before its shift
        unsigned = [(v, e) for v, e in zip(values, expect) if v >= 0]
        p = np.array([v for v, _ in unsigned], dtype=np.uint64)
        got = round_shift(p, shift)
        assert got.dtype == np.uint64 and np.shares_memory(got, p), shift
        assert got.tolist() == [e for _, e in unsigned], shift


def test_requant_shift63_rounds_the_largest_product_exactly():
    # INT32_MIN * INT32_MIN = 2^62, and 2^62 / 2^63 = 0.5 rounds away to 1
    r = requantize(np.array([INT32_MIN]), INT32_MIN, 63, Activation.SIGNED_BYPASS)
    assert r.tolist() == [1]


@pytest.mark.parametrize("activation", list(Activation))
def test_requant_refuses_a_nonzero_out_zero_point(activation):
    # a ReLU output's range starts at 0: the epilogue has no offset
    with pytest.raises(ConfigError, match="out_zero_point must be 0"):
        requantize(np.array([1]), 1, 0, activation, 1)
    assert requantize(np.array([1]), 1, 0, activation, 0).tolist() == [1]


def _requant_edges(mult, shift):
    """i32 accumulators at the i32 limits, around 0 and on each side of the
    ReLU's 0/1 and 254/255 boundaries: for each boundary product (v + 1/2)
    * 2^shift, the accumulators whose products lie nearest it, ties
    included wherever mult divides it."""
    accs = {0, 1, -1, INT32_MIN, INT32_MIN + 1, INT32_MAX - 1, INT32_MAX}
    for v in (0, 1, 254, 255):
        a = ((2 * v + 1) << shift) // (2 * mult)
        accs.update(a + d for d in range(-2, 3))
    return sorted(a for a in accs if INT32_MIN <= a <= INT32_MAX)


@pytest.mark.parametrize("mult", [INT32_MIN, -1, 1, INT32_MAX])
def test_requant_epilogue_matches_oracle_at_every_shift_and_boundary(mult):
    # The ReLU epilogue clamps the product at 0 before it rounds and rounds
    # a uint64 view; layer_step forms the product as s*m + b*m.  Each
    # accumulator runs through requantize and through a 1x1 BYPASS
    # layer_step, one output channel per accumulator, whose input d = 255
    # puts s = w * d on the accumulator's own side of 0 and the rest in the
    # bias, so the scan runs and both terms are exercised.
    rng = np.random.default_rng(mult & 0xFFFF)
    ties = set()
    for shift in range(64):
        accs = _requant_edges(mult, shift)
        acc = np.array(accs, dtype=np.int64)
        w = np.where(acc >= 0, rng.integers(0, 128, acc.size),
                     rng.integers(-128, 0, acc.size))
        lw = LayerWeights(weights=w.reshape(-1, 1, 1), biases=acc - 255 * w)
        for act in Activation:
            expect = [oracle_requant(a, mult, shift,
                                     act == Activation.SIGNED_BYPASS) for a in accs]
            got = requantize(acc, mult, shift, act)
            assert got.tolist() == expect, (shift, act)
            spec = LayerSpec(kind=LayerKind.CONV1D, c_in=1, c_out=acc.size,
                             kernel=1, padding=0, pool_mode=PoolMode.BYPASS,
                             activation=act)
            step = layer_step(np.array([[255]], dtype=np.uint8), 0, spec,
                              lw.gemm_operands, mult, shift)
            assert step.dtype == got.dtype and step[:, 0].tolist() == expect, \
                (shift, act)
        if shift:
            ties.update((shift, a * mult >> shift) for a in accs
                        if a * mult % (1 << shift) == 1 << (shift - 1))
    # the 0/1 and 254/255 ties are exact products at every shift where
    # some i32 accumulator makes one: (2v + 1) * 2^(shift - 1) / mult
    shifts = {1: range(1, 24), -1: range(1, 24), INT32_MIN: range(32, 55),
              INT32_MAX: ()}[mult]
    assert {(s, v) for s in shifts for v in (0, 254)} <= ties


def test_gap_element_shift_differs_from_sum_shift():
    # shifting each element before accumulation loses low bits per element,
    # which a shift of the final sum would not
    acc = np.full((1, GAP_LENGTH), 63, dtype=np.int64)  # each >> 6 == 0
    assert gap_shift_acc(acc)[0] == 0
    assert (acc.sum() >> GAP_SHIFT) != 0


# ---------------------------------------------------------------------------
# The GEMM conv is exact on integers, in float32 and in float64
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sample, zp", [(255, 0), (0, 255)])
def test_conv_exact_at_worst_case_magnitudes(sample, zp):
    # |x - zp| = 255 against weights -128 and 127, with biases that put the
    # accumulator exactly on INT32_MAX and on INT32_MIN; 63 channels make the
    # sums odd and above 2^24, so a float32 sum would round them
    c_in, k, pad, w_in = 63, 9, 4, 16
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=c_in, c_out=2, kernel=k,
                     padding=pad, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    x = np.full((c_in, w_in), sample, dtype=np.uint8)
    w = np.stack([np.full((c_in, k), 127), np.full((c_in, k), -128)]).astype(np.int8)
    sums = oracle_conv(x.tolist(), zp, w.tolist(), [0, 0], pad)
    # the channel whose sums are positive reaches the top, the other the bottom
    edge = [INT32_MAX - max(row) if max(row) > 0 else INT32_MIN - min(row)
            for row in sums]
    acc = conv1d_acc(QuantTensor(x, zero_point=zp), spec,
                     LayerWeights(weights=w, biases=edge))
    assert acc.max() == INT32_MAX and acc.min() == INT32_MIN
    assert acc.tolist() == oracle_conv(x.tolist(), zp, w.tolist(), edge, pad)
    for o in range(2):
        beyond = list(edge)
        beyond[o] += 1 if edge[o] > 0 else -1
        with pytest.raises(AccumulatorOverflow):
            conv1d_acc(QuantTensor(x, zero_point=zp), spec,
                       LayerWeights(weights=w, biases=beyond))


@pytest.mark.parametrize("c_in, k", [(1, 1), (3, 5), (103, 5)])
@pytest.mark.parametrize("top", [True, False])
def test_conv_overflow_scan_bound_at_its_edge(c_in, k, top):
    # every product is (0 - 255) * -128 = 32640 at the top, -32640 at the
    # bottom, so output 0 sits exactly on an i32 limit; max|bias| +
    # C*K*32640 <= INT32_MAX lets conv1d_acc skip its scan, and one step
    # further out must raise (C*K = 515 takes the float64 form)
    reach = c_in * k * 32640
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=c_in, c_out=1, kernel=k,
                     padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    x, zp = (0, 255) if top else (255, 0)
    x = QuantTensor(np.full((c_in, k), x, dtype=np.uint8), zero_point=zp)
    w = np.full((1, c_in, k), -128, dtype=np.int8)
    edge = INT32_MAX - reach if top else INT32_MIN + reach
    acc = conv1d_acc(x, spec, LayerWeights(weights=w, biases=[edge]))
    assert acc[0, 0] == (INT32_MAX if top else INT32_MIN)
    with pytest.raises(AccumulatorOverflow):
        conv1d_acc(x, spec, LayerWeights(weights=w, biases=[edge + (1 if top else -1)]))


def test_conv_gemm_matches_einsum_reference():
    # one window [C, n], or B = 1 to 3 windows [C, B, n], each of which
    # must get the reference conv of itself alone, at every pad 0..k+1
    rng = np.random.default_rng(11)
    for _ in range(400):
        c, o = (int(v) for v in rng.integers(1, 5, size=2))
        k = int(rng.choice([1, 2, 3, 5, 9]))
        n = int(rng.integers(1, 20))
        pad = int(rng.integers(0, k + 2))
        b = int(rng.integers(0, 4))
        xs = rng.integers(-255, 256, size=(c, max(b, 1), n))
        x = xs[:, 0] if b == 0 else xs
        w = rng.integers(-128, 128, size=(o, c, k))
        expect = einsum_conv(xs.swapaxes(0, 1), w, pad)      # [B, O, n]
        # int64 takes the per-tap float64 form, float32 (C*K <= 36, under
        # the 2^24 bound) the one-GEMM form
        for xin, dtype in ((x, np.float64), (x.astype(np.float32), np.float32)):
            got = conv1d_gemm(xin, w, pad)
            assert got.dtype == dtype and got.shape == (o, *x.shape[1:])
            windows = [got] if b == 0 else np.moveaxis(got, 1, 0)
            for window, want in zip(windows, expect, strict=True):
                assert np.array_equal(window, want), (c, k, n, pad, b)


@pytest.mark.parametrize("c_in, k, small", [(257, 2, None), (103, 5, (40, 3))])
def test_conv_exact_at_the_float32_bound(c_in, k, small):
    # C*K = 514, the largest that sums in float32: every product is
    # (0 - 255) * -128 = 255*128 and the sum, 514*255*128 = 16,776,960, is
    # just under 2^24.  C*K = 515 sums in float64: 514 such products and one
    # of 255*3 make 16,777,725, odd and above 2^24, which float32 cannot hold.
    assert (c_in * k * 255 * 128 < 1 << 24) == (small is None)
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=c_in, c_out=1, kernel=k,
                     padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    x = np.zeros((c_in, k), dtype=np.uint8)
    w = np.full((1, c_in, k), -128, dtype=np.int8)
    if small is not None:
        w[0][small] = -3
    acc = conv1d_acc(QuantTensor(x, zero_point=255), spec,
                     LayerWeights(weights=w, biases=[0]))
    expect = 16_776_960 if small is None else 16_777_725
    assert acc[0, 0] == expect
    ref = einsum_conv(x[np.newaxis].astype(np.int64) - 255, w.astype(np.int64), 0)
    assert np.array_equal(acc, ref[0])


@pytest.mark.parametrize("c_in, k, dtype", [(257, 2, np.float32),
                                             (103, 5, np.float64)])
def test_gemm_operands_of_a_memory_view_are_fresh(c_in, k, dtype):
    # the sim fast path builds its operands on every run from views of
    # memory: they must share nothing with the words or the biases, so a
    # later write to memory cannot reach them, and must equal the operands
    # a weight set keeps; C*K = 514 sums in float32 and 515 in float64
    net = NetworkSpec(layers=(
        _layer(c_in=c_in, c_out=2, kernel=k),
        LayerSpec(c_in=2, c_out=3, **_FC),
    ), input_length=8)
    model = random_model(net, np.random.default_rng(c_in))
    words, biases = model.weight_words.copy(), [b.copy() for b in model.biases]
    kept = model.to_weight_set()
    built = [gemm_operands(layer_weights(spec, words[base:]), b)
             for spec, b, base in zip(model.layers, biases, model.layer_word_base)]
    assert built[0][0].dtype == dtype
    snapshot = [(w.copy(), bias.copy()) for w, bias, _ in built]
    for (w, bias, scan), lw, b in zip(built, kept.layers, biases):
        for a in (w, bias):
            assert not np.shares_memory(a, words) and not np.shares_memory(a, b)
        kw, kbias, kscan = lw.gemm_operands
        assert w.dtype == kw.dtype and np.array_equal(w, kw)
        assert bias.dtype == kbias.dtype and np.array_equal(bias, kbias)
        assert scan == kscan
    words[:] = ~words
    for b in biases:
        b[:] = ~b
    for (w, bias, _), (w0, bias0) in zip(built, snapshot):
        assert np.array_equal(w, w0) and np.array_equal(bias, bias0)


def test_conv_gemm_exact_at_widest_layer_spec():
    widest = LayerSpec(kind=LayerKind.CONV1D, c_in=0xFFFF, c_out=0xFFFF,
                       kernel=0xFF, padding=0xFF, pool_mode=PoolMode.BYPASS,
                       activation=Activation.RELU_SATURATE)
    # every partial sum of one output is an integer below 2^53, so exact
    assert widest.c_in * widest.kernel * 255 * 128 < 2 ** 53
    # all 65535 channels at the extreme magnitude, summed over three taps
    x = np.full((widest.c_in, 3), 255.0)
    w = np.full((1, widest.c_in, 3), -128, dtype=np.int8)
    got = conv1d_gemm(x, w, 1)
    assert got[0].tolist() == [-128 * 255 * widest.c_in * n for n in (2, 3, 2)]


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@given(a=st.integers(INT32_MIN, INT32_MAX), b=st.integers(INT32_MIN, INT32_MAX),
       mult=st.integers(1, INT32_MAX), shift=st.integers(0, 62))
@settings(max_examples=300, deadline=None)
def test_requant_monotone_in_accumulator(a, b, mult, shift):
    lo, hi = sorted((a, b))
    ra = requantize(np.array([lo]), mult, shift, Activation.SIGNED_BYPASS)[0]
    rb = requantize(np.array([hi]), mult, shift, Activation.SIGNED_BYPASS)[0]
    assert ra <= rb


@given(acc=st.integers(INT32_MIN, INT32_MAX), mult=st.integers(1, INT32_MAX),
       shift=st.integers(0, 63))
@settings(max_examples=300, deadline=None)
def test_requant_saturation_bounds(acc, mult, shift):
    relu = requantize(np.array([acc]), mult, shift, Activation.RELU_SATURATE)[0]
    assert 0 <= relu <= 255
    signed = requantize(np.array([acc]), mult, shift, Activation.SIGNED_BYPASS)[0]
    assert INT32_MIN <= signed <= INT32_MAX


@given(st.integers(0, 255))
@settings(max_examples=50, deadline=None)
def test_conv_zero_point_neutrality(zp):
    # an all-zero-point input contributes nothing but the bias
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=2, c_out=3, kernel=3,
                     padding=1, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    x = QuantTensor(np.full((2, 8), zp, dtype=np.uint8), zero_point=zp)
    lw = LayerWeights(weights=np.arange(-9, 9).reshape(3, 2, 3).astype(np.int8),
                      biases=np.array([5, -7, 11], dtype=np.int32))
    acc = conv1d_acc(x, spec, lw)
    assert (acc == lw.biases[:, np.newaxis]).all()


def test_conv_padding_equals_explicit_zero_point_border():
    rng = np.random.default_rng(5)
    zp = 77
    x = rng.integers(0, 256, size=(2, 10), dtype=np.uint8)
    w = rng.integers(-50, 50, size=(3, 2, 5)).astype(np.int8)
    b = rng.integers(-100, 100, size=3).astype(np.int32)
    padded_spec = LayerSpec(kind=LayerKind.CONV1D, c_in=2, c_out=3, kernel=5,
                            padding=2, pool_mode=PoolMode.BYPASS,
                            activation=Activation.RELU_SATURATE)
    acc = conv1d_acc(QuantTensor(x, zero_point=zp), padded_spec,
                     LayerWeights(weights=w, biases=b))
    # same conv on an input with a physical zero-point border, no padding
    xb = np.full((2, 14), zp, dtype=np.uint8)
    xb[:, 2:12] = x
    wide_spec = LayerSpec(kind=LayerKind.CONV1D, c_in=2, c_out=3, kernel=5,
                          padding=0, pool_mode=PoolMode.BYPASS,
                          activation=Activation.RELU_SATURATE)
    acc_b = conv1d_acc(QuantTensor(xb, zero_point=zp), wide_spec,
                       LayerWeights(weights=w, biases=b))
    assert np.array_equal(acc, acc_b[:, :10])


def test_infer_window_composes_layer_ops(default_pair):
    net, model, x = default_pair
    ws = model.to_weight_set()
    logits, snaps = infer_window(net, ws, x)
    cur = x
    manual_snaps = []
    manual = None
    for layer, lw in zip(net.layers, ws.layers):
        acc = conv1d_acc(cur, layer, lw)
        if layer.pool_mode == PoolMode.MAXPOOL2:
            acc = maxpool2_acc(acc)
        elif layer.pool_mode == PoolMode.GLOBAL_AVG:
            acc = gap_shift_acc(acc)[:, np.newaxis]
        out = requantize(acc, layer.requant_multiplier, layer.requant_shift,
                         layer.activation)
        if layer.activation == Activation.RELU_SATURATE:
            cur = QuantTensor(out, zero_point=0)
            manual_snaps.append(out)
        else:
            manual = out[:, 0]
    assert np.array_equal(logits.values, manual)
    assert len(snaps) == len(manual_snaps)
    for snap, expect in zip(snaps, manual_snaps):
        assert np.array_equal(snap.data, expect)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_layer_step_equals_its_op_by_op_composition(data):
    # layer_step pools the exact sums before it widens and biases them; the
    # composition biases every position first.  C*K straddles 514, where the
    # sums move from float32 to float64, and an edge bias puts each row's
    # extreme in window 0 within 3 of an i32 limit, so the scan runs and
    # about half the time fires, at a kept, pooled-away or trimmed position
    # alike.  The windows stacked as [C, B, n] give each window's result in
    # its slice, and overflow when any one of them does.
    draw = data.draw
    pool = draw(st.sampled_from(list(PoolMode)))
    k = draw(st.sampled_from([1, 3, 5, 9]))
    c_in = draw(st.integers(-(-515 // k), -(-515 // k) + 8) if draw(st.booleans())
                else st.integers(1, 514 // k))
    c_out, pad = draw(st.integers(1, 4)), draw(st.integers(0, k))
    if pool == PoolMode.GLOBAL_AVG:
        length = GAP_LENGTH
    elif pool == PoolMode.MAXPOOL2:
        length = 2 * draw(st.integers(1, 10))
    else:
        length = draw(st.integers(1, 20))
    n = length + draw(st.integers(0, 6))
    zp = draw(st.integers(0, 255))
    act = draw(st.sampled_from(list(Activation)))
    mult, shift = draw(st.integers(INT32_MIN, INT32_MAX)), draw(st.integers(0, 63))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, 256, size=(c_in, draw(st.integers(1, 3)), n), dtype=np.uint8)
    w = rng.integers(-128, 128, size=(c_out, c_in, k))
    if draw(st.booleans()):
        sums = einsum_conv(xs[np.newaxis, :, 0].astype(np.int64) - zp, w, pad)[0]
        edge = np.where(rng.random(c_out) < 0.5, INT32_MAX - sums.max(axis=1),
                        INT32_MIN - sums.min(axis=1))
        b = np.clip(edge + rng.integers(-3, 4, size=c_out), INT32_MIN, INT32_MAX)
    else:
        b = rng.integers(-(1 << 20), 1 << 20, size=c_out)
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=c_in, c_out=c_out, kernel=k,
                     padding=pad, pool_mode=pool, activation=act)
    lw = LayerWeights(weights=w, biases=b)
    expects = []
    for xd in np.moveaxis(xs, 1, 0):
        try:
            acc = conv1d_acc(QuantTensor(xd, zero_point=zp), spec, lw)[:, :length]
        except AccumulatorOverflow:
            with pytest.raises(AccumulatorOverflow):
                layer_step(xd, zp, spec, lw.gemm_operands, mult, shift, length)
            expects.append(None)
            continue
        if pool == PoolMode.MAXPOOL2:
            acc = maxpool2_acc(acc)
        elif pool == PoolMode.GLOBAL_AVG:
            acc = gap_shift_acc(acc)[:, np.newaxis]
        expect = requantize(acc, mult, shift, act)
        got = layer_step(xd, zp, spec, lw.gemm_operands, mult, shift, length)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
        expects.append(expect)
    if any(e is None for e in expects):
        with pytest.raises(AccumulatorOverflow):
            layer_step(xs, zp, spec, lw.gemm_operands, mult, shift, length)
        return
    got = layer_step(xs, zp, spec, lw.gemm_operands, mult, shift, length)
    assert got.dtype == expects[0].dtype
    assert got.shape == (c_out, len(expects)) + expects[0].shape[1:]
    for i, expect in enumerate(expects):
        assert np.array_equal(got[:, i], expect)


# ---------------------------------------------------------------------------
# Edge behavior and validation
# ---------------------------------------------------------------------------

def test_zscore_flat_window_is_all_zero_point():
    q = zscore_quantize(np.full(16, 3.5), 128)
    assert (q.data == 128).all()


def test_zscore_round_half_away_from_zero():
    # z/scale values of exactly +-0.5 land one code away from the zero point
    window = np.array([1.0, -1.0] * 8)
    q = zscore_quantize(window, 128, scale_divisor=2.0)
    assert set(np.unique(q.data)) == {127, 129}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_zscore_refuses_non_finite_samples(bad):
    window = np.linspace(-1.0, 1.0, 64)
    window[5] = bad
    with pytest.raises(ShapeError, match="finite"):
        zscore_quantize(window)
    with pytest.raises(ShapeError, match="finite"):
        zscore_quantize(np.full(64, bad))


@pytest.mark.parametrize("divisor", [0.0, -1.0, np.nan, np.inf])
def test_both_front_ends_refuse_a_scale_divisor_that_is_not_finite_and_positive(
        divisor):
    windows = np.random.default_rng(19).normal(size=(2, 16))
    message = "scale_divisor must be positive and finite"
    with pytest.raises(ConfigError, match=message):
        quantize_zscores(windows, 128, divisor)
    with pytest.raises(ConfigError, match=message):
        zscore_quantize(windows[0], 128, divisor)


def test_zscore_saturates_outliers():
    window = np.zeros(64)
    window[0] = 1e6
    q = zscore_quantize(window, 128)
    assert q.data.max() == 255


def test_quantize_windows_matches_per_window_and_oracle():
    rng = np.random.default_rng(17)
    sets = [synth_windows(240, seed=seed).windows for seed in (1, 7, 4242)]
    edge = rng.normal(size=(6, 512))
    edge[0] = 3.5                       # flat: all zero point
    edge[1, :2] = (1e6, -1e6)           # saturates at both ends
    edge[2] = 0.0
    edge[2, 0] = 1e-300                 # a tiny std that is not 0
    sets.append(edge)
    for windows in sets:
        got = quantize_windows(windows)
        one = [zscore_quantize(w) for w in windows]
        expect = np.stack([oracle_zscore_quantize(w, INPUT_ZERO_POINT, INPUT_SCALE)
                           for w in windows])
        codes = np.concatenate([x.data for x in got])
        assert codes.tobytes() == expect.tobytes()
        assert all(x.data.tobytes() == y.data.tobytes() and x.zero_point
                   == y.zero_point == INPUT_ZERO_POINT for x, y in zip(got, one))
    # z / scale of exactly +-0.5 (or +-1.5) in both positions, and a z of
    # -0.0 (-0.0 minus a mean of +0.0), as one array
    ties = np.array([[1.0, -1.0] * 8, [-1.0, 1.0] * 8,
                     [-0.0] + [1.0, -1.0] * 7 + [0.0]])
    for scale in (2.0, 2.0 / 3.0):
        expect = np.stack([oracle_zscore_quantize(w, 128, scale) for w in ties])
        assert quantize_zscores(ties, 128, scale).tobytes() == expect.tobytes()
    codes = quantize_zscores(ties, 128, 2.0)
    assert set(codes[:2].ravel()) == {127, 129} and codes[2, 0] == 128


def test_quantize_windows_names_the_first_non_finite_window():
    windows = np.random.default_rng(18).normal(size=(20, 64))
    windows[17, 3] = np.inf
    windows[18, 0] = np.nan
    with pytest.raises(ShapeError, match="^window 17: samples must be finite$"):
        quantize_windows(windows)
    for bad in (np.zeros(64), np.zeros((2, 0))):
        with pytest.raises(ShapeError):
            quantize_windows(bad)


@pytest.mark.parametrize("windows", [
    np.full((2, 8), "1.0"), np.ones((2, 8), dtype=complex),
    np.ones((2, 8), dtype=bool), np.ones((2, 8), dtype=object),
], ids=["str", "complex", "bool", "object"])
def test_both_front_ends_refuse_windows_that_are_not_numbers(windows):
    message = f"^windows must hold numbers, got dtype {windows.dtype}$"
    with pytest.raises(ShapeError, match=message):
        quantize_windows(windows)
    with pytest.raises(ShapeError, match=message):
        zscore_quantize(windows[0])


def test_zscore_quantize_takes_one_window_of_integers_or_floats():
    window = np.arange(-8, 8)
    expect = oracle_zscore_quantize(window.astype(float), 128, INPUT_SCALE)
    for w in (window, window.astype(np.float32), list(window)):
        assert zscore_quantize(w).data.tobytes() == expect.tobytes()
    for bad in (np.zeros((2, 8)), np.zeros(0), 3.0):
        with pytest.raises(ShapeError, match=r"\[n\]\[length\]"):
            zscore_quantize(bad)


def test_golden_predict_refuses_a_single_1d_window():
    model = random_model(NetworkSpec.default(), np.random.default_rng(3))
    with pytest.raises(ShapeError, match=r"\[n\]\[length\]"):
        golden_predict(model, np.zeros(512))


def _reference_model():
    model, scale = build_reference_model(synth_windows(96, seed=7))
    return model, scale, 512


def _float64_layer_model():
    """A random model whose GAP conv has C*K = 60 * 9 = 540 > 514, so its
    sums run in the float64 per-tap form."""
    net = NetworkSpec(layers=(
        _layer(c_out=8, kernel=9, padding=4, pool_mode=PoolMode.MAXPOOL2),
        _layer(c_in=8, c_out=60, kernel=5, padding=2),
        _layer(c_in=60, c_out=8, kernel=9, padding=4, pool_mode=PoolMode.GLOBAL_AVG),
        LayerSpec(c_in=8, c_out=3, **_FC),
    ), input_length=2 * GAP_LENGTH)
    model = random_model(net, np.random.default_rng(5))
    assert model.to_weight_set().layers[2].gemm_operands[0].dtype == np.float64
    return model, 0.05, net.input_length


@pytest.mark.parametrize("make", [_reference_model, _float64_layer_model],
                         ids=["reference", "float64-layer"])
def test_golden_predict_equals_a_per_window_loop_across_chunk_boundaries(make):
    model, scale, length = make()
    net, ws = model.to_network_spec(length), model.to_weight_set()
    windows = synth_windows(2 * GOLDEN_CHUNK + 1, seed=11, window_len=length).windows
    for n in (0, 1, GOLDEN_CHUNK - 1, GOLDEN_CHUNK, GOLDEN_CHUNK + 1,
              2 * GOLDEN_CHUNK + 1):
        logits, probs, classes = golden_predict(model, windows[:n], scale)
        expect = np.zeros((n, net.num_classes), dtype=np.int64)
        for i, x in enumerate(quantize_windows(windows[:n])):
            expect[i] = infer_window(net, ws, x)[0].values
        assert logits.dtype == np.int64 and np.array_equal(logits, expect)
        assert np.array_equal(probs, softmax(expect, scale))
        assert classes.tolist() == [Logits(v).predicted_class for v in expect]


def test_golden_predict_refuses_what_one_window_refuses():
    # a conv at bias INT32_MAX - 127 * 126 with weight 127 overflows only on
    # a code of 255: a spike of sqrt(31) sigma, which window 10 holds and no
    # sine window (at most sqrt(2) sigma) does
    net = NetworkSpec(layers=(_layer(kernel=1, padding=0),
                              LayerSpec(c_in=1, c_out=3, **_FC)), input_length=32)
    model = PackedModel.from_weights(net, WeightSet(layers=[
        LayerWeights(np.full((1, 1, 1), 127), np.array([INT32_MAX - 127 * 126])),
        LayerWeights(np.ones((3, 1, 1)), np.zeros(3))]))
    t = np.arange(32)
    windows = np.sin(2 * np.pi * (t + np.arange(2 * GOLDEN_CHUNK)[:, np.newaxis]) / 16)
    windows[10, 5] = 100.0
    ws = model.to_weight_set()
    for i, x in enumerate(quantize_windows(windows)):
        if i == 10:
            with pytest.raises(AccumulatorOverflow):
                infer_window(net, ws, x)
        else:
            infer_window(net, ws, x)
    with pytest.raises(AccumulatorOverflow):
        golden_predict(model, windows)
    assert len(golden_predict(model, np.delete(windows, 10, axis=0))[0]) == 15
    default = random_model(NetworkSpec.default(), np.random.default_rng(3))
    with pytest.raises(ConfigError, match="^maxpool input length 511 must be even$"):
        golden_predict(default, np.zeros((GOLDEN_CHUNK + 1, 511)))
    windows = np.random.default_rng(4).normal(size=(2 * GOLDEN_CHUNK, 512))
    windows[12, 3] = np.nan
    with pytest.raises(ShapeError, match="^window 12: samples must be finite$"):
        golden_predict(default, windows)


def test_argmax_tie_prefers_lowest_index():
    assert Logits(np.array([5, 5, 5])).predicted_class == 0
    assert Logits(np.array([-1, 7, 7])).predicted_class == 1


def test_accumulator_overflow_detected():
    spec = LayerSpec(kind=LayerKind.CONV1D, c_in=1, c_out=1, kernel=1,
                     padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    x = QuantTensor(np.full((1, 4), 255, dtype=np.uint8), zero_point=0)
    lw = LayerWeights(weights=np.array([[[127]]], dtype=np.int8),
                      biases=np.array([INT32_MAX], dtype=np.int32))
    with pytest.raises(AccumulatorOverflow):
        conv1d_acc(x, spec, lw)


def test_gap_rejects_wrong_length():
    with pytest.raises(ConfigError):
        gap_shift_acc(np.zeros((2, GAP_LENGTH - 1)))


def test_maxpool_odd_tail_uses_identity_element():
    acc = np.array([[INT32_MIN + 5, INT32_MIN + 3, -17]])
    out = maxpool2_acc(acc)
    assert out.tolist() == [[INT32_MIN + 5, -17]]


def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=4, c_out=3, kernel=3,
                  padding=0, pool_mode=PoolMode.BYPASS,
                  activation=Activation.SIGNED_BYPASS)
    with pytest.raises(ConfigError):
        LayerSpec(kind=LayerKind.CONV1D, c_in=0, c_out=3, kernel=3, padding=1,
                  pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE)


@pytest.mark.parametrize("field, value", [
    ("c_in", 0x10000), ("c_out", 0x10000), ("kernel", 0x100), ("padding", 0x100),
    ("requant_shift", 63)])
def test_layer_spec_enforces_sann_field_widths(field, value):
    fields = dict(kind=LayerKind.CONV1D, c_in=1, c_out=1, kernel=3, padding=1,
                  pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE)
    with pytest.raises(ConfigError):
        LayerSpec(**{**fields, field: value})


def test_output_zero_point_is_a_constant_not_a_field():
    fields = dict(kind=LayerKind.CONV1D, c_in=1, c_out=1, kernel=3, padding=1,
                  pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE)
    spec = LayerSpec(**fields)
    assert spec.out_zero_point == LayerSpec.out_zero_point == 0
    with pytest.raises(TypeError):
        LayerSpec(**fields, out_zero_point=0)
    with pytest.raises(TypeError):
        replace(spec, out_zero_point=0)


def test_network_spec_validation():
    good = NetworkSpec.default()
    assert good.layer_input_lengths() == [512, 256, 128, 64, 1]
    with pytest.raises(ConfigError):
        NetworkSpec(layers=(good.layers[0], good.layers[2]), input_length=512)


@pytest.mark.parametrize("length", [0, -3])
def test_network_spec_refuses_an_input_under_one_sample(length):
    # wide_image_net has no maxpool or GAP layer to refuse the length
    net = wide_image_net()
    with pytest.raises(ConfigError,
                       match=f"^input length {length} must be at least 1 sample$"):
        NetworkSpec(net.layers, input_length=length)
    assert NetworkSpec(net.layers, input_length=1).layer_input_lengths() == [1, 1]


def test_network_spec_layout_rule():
    # ReLU conv layers, then one FC head; nothing else is a network
    conv = LayerSpec(kind=LayerKind.CONV1D, c_in=3, c_out=3, kernel=3,
                     padding=1, pool_mode=PoolMode.BYPASS,
                     activation=Activation.RELU_SATURATE)
    signed_conv = replace(conv, activation=Activation.SIGNED_BYPASS)
    head = LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=3, c_out=3, kernel=1,
                     padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.SIGNED_BYPASS)
    for layers in ((conv, signed_conv, head),    # signed conv before the head
                   (conv, head, head),           # FC layer before the head
                   (conv, conv)):                # conv head
        with pytest.raises(ConfigError):
            NetworkSpec(layers=layers, input_length=12)
    assert NetworkSpec(layers=(head,), input_length=12).num_classes == 3


def test_quant_tensor_validation():
    with pytest.raises(ShapeError):
        QuantTensor(np.zeros(8, dtype=np.uint8))
    with pytest.raises(ShapeError):
        QuantTensor(np.zeros((1, 8), dtype=np.uint8), zero_point=300)
    # a numpy integer zero point is taken, as a Python int
    x = QuantTensor(np.zeros((1, 8), dtype=np.uint8), zero_point=np.uint8(128))
    assert type(x.zero_point) is int and x.zero_point == 128


@pytest.mark.parametrize("make, message", [
    (lambda: QuantTensor(np.array([[300, -1]])), r"activations must be in \[0, 255\]"),
    (lambda: QuantTensor([[300, -1]]), r"activations must be in \[0, 255\]"),
    (lambda: LayerWeights(np.array([[[200]]]), np.array([0])),
     r"weights must be in \[-128, 127\]"),
    (lambda: LayerWeights(np.array([[[1]]]), np.array([2**31])),
     r"biases must be in \[-2147483648, 2147483647\]"),
    (lambda: LayerWeights([[[-129]]], [0]), r"weights must be in"),
    (lambda: LayerWeights([[[1]]], [-2**31 - 1]), r"biases must be in"),
    (lambda: Logits(np.array([2**31, 5])), r"logits must be in"),
    (lambda: LayerWeights([[[1.5]]], [2]), r"weights must be integers"),
    (lambda: LayerWeights(np.ones((1, 1, 1)), [2.7]), r"biases must be integers"),
], ids=["u8-array", "u8-list", "i8-array", "i32-array", "i8-list", "i32-list",
        "logits", "i8-fraction", "i32-fraction"])
def test_wrappers_refuse_values_outside_their_dtype(make, message):
    # numpy would wrap an array (300 -> 44), raise OverflowError on a list
    # and truncate a fraction (2.7 -> 2); an integral float is taken
    with pytest.raises(ShapeError, match=message):
        make()


@pytest.mark.parametrize("name", ["c_in", "c_out", "kernel", "padding",
                                  "requant_multiplier", "requant_shift"])
def test_layer_spec_refuses_an_integer_field_that_is_not_an_integer(name):
    value = getattr(_layer(), name)
    with pytest.raises(ConfigError, match=f"^{name} {value}.0 is not an integer$"):
        _layer(**{name: float(value)})
    _layer(**{name: np.int64(value)})     # a numpy integer is taken


def test_weight_set_check_against():
    net = NetworkSpec.default()
    ws = WeightSet(layers=[LayerWeights(
        weights=np.zeros((s.c_out, s.c_in, s.kernel), dtype=np.int8),
        biases=np.zeros(s.c_out, dtype=np.int32)) for s in net.layers])
    ws.check_against(net)
    ws.layers[0] = LayerWeights(weights=np.zeros((2, 1, 9), dtype=np.int8),
                                biases=np.zeros(2, dtype=np.int32))
    with pytest.raises(ShapeError):
        ws.check_against(net)


def _layer(**fields):
    return LayerSpec(**{**dict(kind=LayerKind.CONV1D, c_in=1, c_out=1, kernel=3,
                               padding=1, pool_mode=PoolMode.BYPASS,
                               activation=Activation.RELU_SATURATE), **fields})


def _zero_weights(spec, kernel=None):
    return LayerWeights(np.zeros((spec.c_out, spec.c_in, kernel or spec.kernel),
                                 dtype=np.int8), np.zeros(spec.c_out, dtype=np.int32))


def _infer_at_length(length):
    net = NetworkSpec.default(l3_width=16)
    ws = random_model(net, np.random.default_rng(0)).to_weight_set()
    infer_window(net, ws, QuantTensor(np.zeros((1, length), dtype=np.uint8)))


@pytest.mark.parametrize("make, error, message", [
    (lambda: QuantTensor(np.zeros((0, 4), dtype=np.uint8)),
     ShapeError, "channels and length must be >= 1"),
    # a fractional zero point reads differently in the golden model and the
    # sim fast path, whose u8 overhang truncates it
    (lambda: QuantTensor(np.zeros((1, 4), dtype=np.uint8), zero_point=127.5),
     ShapeError, "zero_point 127.5 is not an integer"),
    (lambda: _layer(padding=-1), ConfigError, "padding must be >= 0"),
    (lambda: _layer(requant_multiplier=INT32_MAX + 1),
     ConfigError, "requant multiplier must fit in i32"),
    (lambda: LayerWeights(np.zeros((2, 3), dtype=np.int8), np.zeros(2)),
     ShapeError, "weights must be [c_out][c_in][K]"),
    (lambda: LayerWeights(np.zeros((2, 1, 1), dtype=np.int8), np.zeros(3)),
     ShapeError, "one bias per output channel"),
    (lambda: WeightSet(layers=[]).check_against(NetworkSpec.default()),
     ShapeError, "weight set layer count mismatch"),
    (lambda: conv1d_acc(QuantTensor(np.zeros((2, 8))), _layer(),
                        _zero_weights(_layer())),
     ShapeError, "input has 2 channels, layer expects 1"),
    (lambda: conv1d_acc(QuantTensor(np.zeros((1, 8))), _layer(),
                        _zero_weights(_layer(), kernel=2)),
     ShapeError, "weight tensor does not match layer geometry"),
    (lambda: maxpool2_acc(np.zeros(4)),
     ShapeError, "accumulator map must be [c_out][length]"),
    (lambda: gap_shift_acc(np.zeros(GAP_LENGTH)),
     ShapeError, "accumulator map must be [c_out][length]"),
    (lambda: requantize(np.zeros(2), 1, 64, Activation.RELU_SATURATE),
     ConfigError, "shift must be in [0, 63]"),
    (lambda: _infer_at_length(256),
     ShapeError, "input 1x256 does not match network 1x512"),
], ids=["tensor-empty", "zero-point-fraction", "padding", "multiplier",
        "weights-2d", "bias-count", "weight-set-layers", "conv-channels",
        "conv-weights", "maxpool-1d", "gap-1d", "requant-shift", "infer-length"])
def test_golden_model_refuses_a_malformed_argument(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
