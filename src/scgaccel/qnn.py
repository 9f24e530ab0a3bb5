"""Bit-exact integer-only golden model of the 5-layer 1D CNN.

All arithmetic is exact: int64 intermediates held to the 32-bit accumulator
budget (scanned where no bound proves it, see conv1d_acc), and conv products
summed in float32 where a layer's worst-case sum stays below 2^24, else in
float64; both are exact on these integers (see conv1d_gemm).  So every result
here is the contract the cycle-accurate simulator has to match exactly.  Every
integer function takes one window, as the accelerator classifies one per
inference; the float front end (zscore, quantize_zscores) also takes an
[N, L] array of windows.

NetworkSpec is the one layout rule: ReLU conv layers, then one FC head whose
signed i32 outputs are the logits; only the input has a zero point, every ReLU
output is u8 at zero point 0.  A lone LayerSpec may be anything its fields
allow, such as the signed convs of the op-level tests.

LayerSpec.out_length is the one input-geometry rule: every input holds at
least 1 sample, a maxpool input an even number and a GAP input exactly
GAP_LENGTH; NetworkSpec refuses, with ConfigError, an input length its layers
cannot run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar

import numpy as np

from .errors import AccumulatorOverflow, ConfigError, ShapeError

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

# Fixed feature depth the GAP shifter is hardwired for (1 << GAP_SHIFT elements).
GAP_LENGTH = 64
GAP_SHIFT = 6

# the deployed input format: z-scored samples as u8, 32 steps per sigma
INPUT_ZERO_POINT = 128
INPUT_SCALE = 1.0 / 32.0

# A layer's requant shift: the bound the SANN loader and VERIFY publish.
# round_shift is exact for every shift 0..63, which the op-level requantize
# takes; at 62 or 63 any i32 x i32 product (|p| <= 2^62) rounds to -1, 0 or 1.
MAX_REQUANT_SHIFT = 62


class LayerKind(IntEnum):
    CONV1D = 0
    FULLY_CONNECTED = 1


class PoolMode(IntEnum):
    MAXPOOL2 = 0
    GLOBAL_AVG = 1
    BYPASS = 2


class Activation(IntEnum):
    RELU_SATURATE = 0
    SIGNED_BYPASS = 1


def _as_int_array(values, dtype, what: str) -> np.ndarray:
    """`values` as a `dtype` array.  A value outside the dtype's range raises
    ShapeError, where numpy would wrap it or raise OverflowError; an input
    already of `dtype` is taken as it is, so the hot paths pay nothing."""
    a = np.asarray(values)
    if a.dtype == dtype:
        return a
    info = np.iinfo(dtype)
    if a.size and not (info.min <= a.min() and a.max() <= info.max):
        raise ShapeError(f"{what} must be in [{info.min}, {info.max}]")
    return a.astype(dtype)


@dataclass
class QuantTensor:
    """Channel-major 8-bit activation map with quantization metadata."""

    data: np.ndarray  # uint8, shape [channels, length]
    zero_point: int = 0

    def __post_init__(self):
        self.data = _as_int_array(self.data, np.uint8, "activations")
        if self.data.ndim != 2:
            raise ShapeError(f"expected [channels][length], got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ShapeError("channels and length must be >= 1")
        if not 0 <= self.zero_point <= 255:
            raise ShapeError(f"zero_point {self.zero_point} outside u8 range")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LayerSpec:
    """Runtime configuration of one accelerator layer."""

    kind: LayerKind
    c_in: int
    c_out: int
    kernel: int
    padding: int
    pool_mode: PoolMode
    activation: Activation
    requant_multiplier: int = 1 << 30
    requant_shift: int = 30
    out_zero_point: ClassVar[int] = 0   # a ReLU output's range starts at 0

    def __post_init__(self):
        if self.c_in < 1 or self.c_out < 1 or self.kernel < 1:
            raise ConfigError("channel counts and kernel must be >= 1")
        if self.padding < 0:
            raise ConfigError("padding must be >= 0")
        # the SANN descriptor's field widths
        if self.c_in > 0xFFFF or self.c_out > 0xFFFF:
            raise ConfigError("channel counts must fit in u16")
        if self.kernel > 0xFF or self.padding > 0xFF:
            raise ConfigError("kernel and padding must fit in u8")
        if self.kind == LayerKind.FULLY_CONNECTED:
            if self.kernel != 1 or self.padding != 0:
                raise ConfigError("FC layers are 1x1 convolutions without padding")
            if self.pool_mode != PoolMode.BYPASS:
                raise ConfigError("FC layers bypass the pooling unit")
            if self.activation != Activation.SIGNED_BYPASS:
                raise ConfigError("FC layers emit signed logits")
        if not INT32_MIN <= self.requant_multiplier <= INT32_MAX:
            raise ConfigError("requant multiplier must fit in i32")
        if not 0 <= self.requant_shift <= MAX_REQUANT_SHIFT:
            raise ConfigError(f"requant shift must be in [0, {MAX_REQUANT_SHIFT}]")

    def out_length(self, w_in: int) -> int:
        """Spatial length after conv (stride 1, resolution preserving) and pooling."""
        if w_in < 1:
            raise ConfigError(f"input length {w_in} must be at least 1 sample")
        if self.pool_mode == PoolMode.MAXPOOL2:
            if w_in % 2 != 0:
                raise ConfigError(f"maxpool input length {w_in} must be even")
            return w_in // 2
        if self.pool_mode == PoolMode.GLOBAL_AVG:
            if w_in != GAP_LENGTH:
                raise ConfigError(f"GAP unit is hardwired for length {GAP_LENGTH}, "
                                  f"got {w_in}")
            return 1
        return w_in


@dataclass(frozen=True)
class NetworkSpec:
    """ReLU conv layers, then one FC head, at an input length they can run."""

    layers: tuple[LayerSpec, ...]
    input_length: int = 512
    # (kind, activation) of every layer before the head, held here since
    # enum member look-ups are slow and each model load checks a layout
    _RELU_CONV = (LayerKind.CONV1D, Activation.RELU_SATURATE)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        self.check_layout(self.layers)
        self.layer_input_lengths()

    @classmethod
    def check_layout(cls, layers) -> None:
        """The layout rule alone, at no input length (a model's check)."""
        if not layers:
            raise ConfigError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if (a.kind, a.activation) != cls._RELU_CONV:
                raise ConfigError("every layer before the head must be a ReLU conv")
            if a.c_out != b.c_in:
                raise ConfigError(f"channel chain broken: {a.c_out} -> {b.c_in}")
        # LayerSpec forces an FC layer to bypass pooling and emit signed logits
        if layers[-1].kind != LayerKind.FULLY_CONNECTED:
            raise ConfigError("the last layer must be the fully-connected head")

    @property
    def num_classes(self) -> int:
        return self.layers[-1].c_out

    def layer_input_lengths(self) -> list[int]:
        """Spatial input length seen by each layer."""
        lengths = []
        w = self.input_length
        for layer in self.layers:
            lengths.append(w)
            w = layer.out_length(w)
        return lengths

    @staticmethod
    def default(l3_width: int = 128) -> "NetworkSpec":
        """The published 5-layer topology (L3 width configurable, default 128)."""
        conv = dict(kind=LayerKind.CONV1D, pool_mode=PoolMode.MAXPOOL2,
                    activation=Activation.RELU_SATURATE)
        layers = (
            LayerSpec(c_in=1, c_out=16, kernel=9, padding=4, **conv),
            LayerSpec(c_in=16, c_out=32, kernel=9, padding=4, **conv),
            LayerSpec(c_in=32, c_out=64, kernel=9, padding=4, **conv),
            LayerSpec(kind=LayerKind.CONV1D, c_in=64, c_out=l3_width, kernel=5,
                      padding=2, pool_mode=PoolMode.GLOBAL_AVG,
                      activation=Activation.RELU_SATURATE),
            LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=l3_width, c_out=3,
                      kernel=1, padding=0, pool_mode=PoolMode.BYPASS,
                      activation=Activation.SIGNED_BYPASS),
        )
        return NetworkSpec(layers=layers)


@dataclass
class LayerWeights:
    """INT8 weights and INT32 biases for one layer."""

    weights: np.ndarray  # int8, [c_out, c_in, K]
    biases: np.ndarray   # int32, [c_out]

    def __post_init__(self):
        self.weights = _as_int_array(self.weights, np.int8, "weights")
        self.biases = _as_int_array(self.biases, np.int32, "biases")
        if self.weights.ndim != 3:
            raise ShapeError("weights must be [c_out][c_in][K]")
        if self.biases.shape != (self.weights.shape[0],):
            raise ShapeError("one bias per output channel")


@dataclass
class WeightSet:
    layers: list[LayerWeights]

    def check_against(self, net: NetworkSpec) -> None:
        if len(self.layers) != len(net.layers):
            raise ShapeError("weight set layer count mismatch")
        for lw, spec in zip(self.layers, net.layers):
            if lw.weights.shape != (spec.c_out, spec.c_in, spec.kernel):
                raise ShapeError(
                    f"weights {lw.weights.shape} != "
                    f"({spec.c_out}, {spec.c_in}, {spec.kernel})")


@dataclass
class Logits:
    values: np.ndarray  # int32, one per class

    def __post_init__(self):
        self.values = _as_int_array(self.values, np.int32, "logits")

    @property
    def predicted_class(self) -> int:
        # np.argmax returns the first maximum: lowest index wins ties,
        # matching a hardware priority encoder.
        return int(np.argmax(self.values))


def zscore(windows: np.ndarray) -> np.ndarray:
    """Z-score over the last axis, in the windows' own dtype, into a new
    array; a flat window (std 0) is divided by 1, so it maps to 0."""
    std = windows.std(axis=-1, keepdims=True)
    std[std == 0] = 1.0
    z = windows - windows.mean(axis=-1, keepdims=True)
    z /= std
    return z


def check_windows(windows: np.ndarray, length: int | None = None) -> np.ndarray:
    """An [N, L] array of finite integer or real-float windows, in its own
    dtype; with `length`, L must equal it.  Anything else is refused with
    ShapeError, which names the first window holding a non-finite sample."""
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] == 0:
        raise ShapeError("windows must be a [n][length] array, length >= 1")
    if windows.dtype.kind not in "iuf":
        raise ShapeError(f"windows must hold numbers, got dtype {windows.dtype}")
    if length is not None and windows.shape[1] != length:
        raise ShapeError(f"windows have {windows.shape[1]} samples, "
                         f"the network runs {length}")
    finite = np.isfinite(windows).all(axis=1)
    if not finite.all():
        raise ShapeError(f"window {int(np.argmin(finite))}: samples must be finite")
    return windows


def check_positive(name: str, value: float) -> float:
    """`value` when it is finite and above 0; anything else is refused with
    a ConfigError that names it."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def quantize_zscores(windows: np.ndarray, zero_point: int = INPUT_ZERO_POINT,
                     scale_divisor: float = INPUT_SCALE) -> np.ndarray:
    """u8 input codes of finite windows, z-scored in float64 over the last
    axis.

    z / scale_divisor rounds to nearest, ties away from zero (trunc of
    z + copysign(0.5, z)), is offset by zero_point and saturates to
    [0, 255], all in place on the z-score but for the copysign term.  A
    float64 copy of float32 windows is freed once the z-score is taken.
    A scale_divisor that is not finite and positive is refused (ConfigError).
    """
    check_positive("scale_divisor", scale_divisor)
    z = zscore(np.asarray(windows, dtype=np.float64))
    z /= scale_divisor
    z += np.copysign(0.5, z)
    np.trunc(z, out=z)
    z += zero_point
    np.minimum(np.maximum(z, 0, out=z), 255, out=z)
    return z.astype(np.uint8)


def zscore_quantize(window, zero_point: int = INPUT_ZERO_POINT,
                    scale_divisor: float = INPUT_SCALE) -> QuantTensor:
    """quantize_zscores of one window, which check_windows takes as [1, L],
    as a 1-channel u8 tensor."""
    windows = check_windows(np.asarray(window)[np.newaxis])
    return QuantTensor(quantize_zscores(windows, zero_point, scale_divisor),
                       zero_point=zero_point)


def conv1d_gemm(x: np.ndarray, w: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 convolution of one window x [C, L] with w [O, C, K] -> [O, L].

    out[o, t] = sum over c, j of w[o, c, j] * x[c, t + j - pad], with taps
    outside [0, L) reading zero.  Both forms read one zero-margined plane
    [C, pad + L + max(K - 1 - pad, 0)]; the form follows x's dtype, and so
    does the result:

    - float32: one [C*K, L] im2col of the plane, built by K slice copies,
      and one GEMM of w as [O, C*K] against it.
    - anything else, in float64: one GEMM per tap j over plane[:, j:j + L],
      so no im2col buffer is built.

    Exact on integer operands while the sum of |products| of one output stays
    below 2^24 in float32 or 2^53 in float64, since every partial sum, in
    any order the BLAS takes, is an integer no larger than that.  With u8
    activations minus a u8 zero point (|x| <= 255) and i8 weights
    (|w| <= 128), float32 holds for C*K*255*128 < 2^24, i.e. C*K <= 514,
    which conv1d_acc checks; every layer of the default net qualifies.
    float64 holds for any layer the SANN field widths that LayerSpec
    enforces allow (c_in <= 65535, K <= 255): 65535*255*255*128 ~ 5.5e11.

    float64, which the float forward also uses, keeps the per-tap form.  On
    a shared 2-vCPU host with the benchmark pinned to one CPU, the one-GEMM
    form in float64 raised eval-golden set-up by up to 52%: OpenBLAS threads
    its larger dgemm calls, and with one BLAS thread it was faster instead.
    """
    c, n = x.shape
    o, k = w.shape[0], w.shape[2]
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    plane = np.zeros((c, pad + n + max(k - 1 - pad, 0)), dtype=dtype)
    plane[:, pad:pad + n] = x
    if dtype == np.float32:
        cols = np.empty((c, k, n), dtype=np.float32)
        for j in range(k):
            cols[:, j] = plane[:, j:j + n]
        return w.reshape(o, c * k).astype(np.float32) @ cols.reshape(c * k, n)
    taps = w.transpose(2, 0, 1).astype(np.float64)    # [K, O, C]
    out = taps[0] @ plane[:, :n]
    for j in range(1, k):
        out += taps[j] @ plane[:, j:j + n]
    return out


def conv1d_acc(x: QuantTensor, layer: LayerSpec, lw: LayerWeights) -> np.ndarray:
    """Stride-1 integer convolution of one window into the signed 32-bit
    accumulator map [c_out, length].

    Out-of-range taps read the zero point, i.e. contribute nothing after the
    offset subtraction; output length equals input length.  The products are
    summed by conv1d_gemm, exactly: in float32 when C*K*255*128 < 2^24,
    else in float64.  The bias is added in int64.  An output can only leave
    i32, raising AccumulatorOverflow, when max|bias| + C*K*255*128 exceeds
    INT32_MAX; only then is the map scanned for it.
    """
    if x.channels != layer.c_in:
        raise ShapeError(f"input has {x.channels} channels, layer expects {layer.c_in}")
    if lw.weights.shape != (layer.c_out, layer.c_in, layer.kernel):
        raise ShapeError("weight tensor does not match layer geometry")
    # |x - zero_point| <= 255 and |w| <= 128, so no output moves further
    # than reach from its bias
    reach = layer.c_in * layer.kernel * 255 * 128
    xoff = np.subtract(x.data, x.zero_point,
                       dtype=np.float32 if reach < 1 << 24 else np.float64)
    acc = conv1d_gemm(xoff, lw.weights, layer.padding).astype(np.int64)
    bias = lw.biases.astype(np.int64)
    acc += bias[:, np.newaxis]
    if int(np.abs(bias).max()) + reach > INT32_MAX and (
            acc.min() < INT32_MIN or acc.max() > INT32_MAX):
        raise AccumulatorOverflow(
            f"accumulator range [{acc.min()}, {acc.max()}] exceeds signed 32-bit")
    return acc


def maxpool2_acc(acc: np.ndarray) -> np.ndarray:
    """Pairwise max over the spatial axis; odd tails are padded with INT32_MIN."""
    acc = np.asarray(acc, dtype=np.int64)
    if acc.ndim != 2:
        raise ShapeError("accumulator map must be [c_out][length]")
    c, n = acc.shape
    if n % 2 != 0:
        pad = np.full((c, 1), INT32_MIN, dtype=np.int64)  # identity element of max
        acc = np.concatenate([acc, pad], axis=1)
        n += 1
    return np.maximum(acc[:, 0::2], acc[:, 1::2])


def gap_shift_acc(acc: np.ndarray) -> np.ndarray:
    """Per-element arithmetic right shift by 6, then sum over the spatial axis.

    The hardware shifts each sample before feeding the persistent accumulator,
    so this is NOT equivalent to shifting the final sum.
    """
    acc = np.asarray(acc, dtype=np.int64)
    if acc.ndim != 2:
        raise ShapeError("accumulator map must be [c_out][length]")
    if acc.shape[1] != GAP_LENGTH:
        raise ConfigError(f"GAP unit is hardwired for length {GAP_LENGTH}, "
                          f"got {acc.shape[1]}")
    return np.sum(acc >> GAP_SHIFT, axis=1)


def round_shift(p, shift: int):
    """Arithmetic right shift rounding to nearest, ties away from zero.

    For shift >= 1 it shifts by one less, keeping one fraction bit, adds 1
    and drops that bit: ((p - (p < 0)) >> (shift - 1)) + 1 >> 1.  Taking 1
    off a negative p first makes its ties round away from zero too.  Built
    from operators only (no branch on the sign), so the same definition is
    bit-exact on int64 arrays and cheap on Python ints.  No intermediate is
    further than |p| + 1 from zero, so int64 is exact for every shift 0..63
    on any i32 x i32 product, INT32_MIN * INT32_MIN = 2^62 included.
    Shift 0 returns p.
    """
    if shift == 0:
        return p
    return (((p - (p < 0)) >> (shift - 1)) + 1) >> 1


def requantize(acc, multiplier: int, shift: int, activation: Activation,
               out_zero_point: int = 0):
    """Scale an array of 32-bit accumulators back to the activation format.

    64-bit product, round to nearest with ties away from zero (round_shift,
    exact for every shift 0..63), then either unsigned saturation to
    [0, 255] (fused ReLU) or signed 32-bit saturation for raw logits, in
    place on the fresh product, then one cast.  out_zero_point is an
    op-level offset; the network passes 0.
    """
    if not 0 <= shift <= 63:
        raise ConfigError("shift must be in [0, 63]")
    r = round_shift(np.asarray(acc, dtype=np.int64) * np.int64(multiplier),
                    int(shift))
    if activation == Activation.RELU_SATURATE:
        if out_zero_point:
            r += out_zero_point
        np.minimum(np.maximum(r, 0, out=r), 255, out=r)
        return r.astype(np.uint8)
    np.minimum(np.maximum(r, INT32_MIN, out=r), INT32_MAX, out=r)
    return r.astype(np.int32)


def layer_step(x: QuantTensor, layer: LayerSpec, lw: LayerWeights,
               multiplier: int, shift: int, length: int | None = None) -> np.ndarray:
    """One layer: conv, keep the first `length` positions (all by default),
    maxpool or GAP, then requantize."""
    acc = conv1d_acc(x, layer, lw)[:, :length]
    if layer.pool_mode == PoolMode.MAXPOOL2:
        acc = maxpool2_acc(acc)
    elif layer.pool_mode == PoolMode.GLOBAL_AVG:
        acc = gap_shift_acc(acc)[:, np.newaxis]
    return requantize(acc, multiplier, shift, layer.activation)


def infer_window(net: NetworkSpec, ws: WeightSet, x: QuantTensor):
    """Run the full golden pipeline; returns (Logits, per-layer snapshots).

    Snapshots hold the post-requantization QuantTensor of every layer before
    the head; the head's signed outputs are the logits.
    """
    ws.check_against(net)
    if x.length != net.input_length or x.channels != net.layers[0].c_in:
        raise ShapeError(f"input {x.channels}x{x.length} does not match network "
                         f"{net.layers[0].c_in}x{net.input_length}")
    snapshots: list[QuantTensor] = []
    cur = x
    for layer, lw in zip(net.layers, ws.layers):
        out = layer_step(cur, layer, lw, layer.requant_multiplier, layer.requant_shift)
        if layer.activation == Activation.RELU_SATURATE:
            cur = QuantTensor(out)
            snapshots.append(cur)
    return Logits(out[:, 0]), snapshots   # the head is the last layer
