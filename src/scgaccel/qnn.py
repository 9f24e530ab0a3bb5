"""Bit-exact integer-only golden model of the 5-layer 1D CNN.

All arithmetic is exact: int64 intermediates held to the 32-bit accumulator
budget (scanned where no bound proves it, see _exact_sums), and conv products
summed in float32 where a layer's worst-case sum stays below 2^24, else in
float64; both are exact on these integers (see conv1d_gemm).  So every result
here is the contract the cycle-accurate simulator has to match exactly.  The
accelerator classifies one window per inference, and a window is a [C, L]
map; the layer ops (conv1d_gemm, maxpool2_acc, gap_shift_acc, requantize,
layer_step) also take a map [C, ..., L] whose middle axes index windows, and
give each window the result it gets alone, so the golden model can run
several windows through a layer at once.  The float front end (zscore,
quantize_zscores) takes one window or an [N, L] array of windows.

A layer is conv, bias, maxpool or GAP, then requantize (conv1d_acc,
maxpool2_acc, gap_shift_acc, requantize).  layer_step, which infer_window,
golden_predict and the simulator's fast path run, gives the same result in
fewer passes: it max-pools the exact float sums before it widens them to
int64, since a per-channel bias b commutes with max,
max(a + b, c + b) = max(a, c) + b, and it widens them straight into the
requant product s*m + b*m, which it rounds and saturates in place.  The
bias does not commute with the GAP's per-element shift, so a GAP layer adds
it to every position before the shift.

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
import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
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
    """`values` as a `dtype` array.  A value outside the dtype's range, or a
    fractional one, raises ShapeError, where numpy would wrap it, raise
    OverflowError or truncate it; an input already of `dtype` is taken as it
    is, so the hot paths pay nothing."""
    a = np.asarray(values)
    if a.dtype == dtype:
        return a
    info = np.iinfo(dtype)
    if a.size and not (info.min <= a.min() and a.max() <= info.max):
        raise ShapeError(f"{what} must be in [{info.min}, {info.max}]")
    if a.dtype.kind not in "biu" and (a % 1).any():
        raise ShapeError(f"{what} must be integers")
    return a.astype(dtype)


def _as_int(value, what: str, error: type[Exception]) -> int:
    """`value` as an int; a value that is not an integer, such as 1.0 or
    127.5, raises `error`, where int() would take or truncate it."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


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
        self.zero_point = _as_int(self.zero_point, "zero_point", ShapeError)
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
        # a plain int costs one type test, as every model load builds specs;
        # anything else must pass operator.index
        for name in ("c_in", "c_out", "kernel", "padding", "requant_multiplier",
                     "requant_shift"):
            if type(getattr(self, name)) is not int:
                _as_int(getattr(self, name), name, ConfigError)
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


def gemm_operands(weights: np.ndarray, biases: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, bool]:
    """(weights, bias, scan): the GEMM operands of a layer's int8 weights
    [c_out, c_in, K] and int32 biases [c_out], the one place they are
    derived.

    |x - zero_point| <= 255 and |w| <= 128, so no conv sum moves further
    than reach = C*K*255*128 from its bias.  The weights come in the float
    dtype their sums are exact in (float32 where reach < 2^24, else
    float64; see conv1d_gemm), the biases as an int64 [c_out, 1] column,
    and scan tells whether a sum plus its bias can leave i32: whether
    max|bias| + reach exceeds INT32_MAX.  Both arrays are fresh, so they
    do not follow later writes to what they were built from: the sim fast
    path builds them on every run from its views of memory, and the
    weights' float conversion is its one copy of them.
    """
    _, c, k = weights.shape
    reach = c * k * 255 * 128
    bias = biases.astype(np.int64)[:, np.newaxis]
    return (weights.astype(np.float32 if reach < 1 << 24 else np.float64),
            bias, int(np.abs(bias).max()) + reach > INT32_MAX)


@dataclass(frozen=True, init=False)
class LayerWeights:
    """INT8 weights and INT32 biases for one layer.

    Frozen, so the GEMM operands built from the fields on first use
    (gemm_operands) can be kept for the life of the object: one weight set
    converts each layer's weights once, not once per window.  The sim fast
    path builds no LayerWeights: it takes qnn.gemm_operands of its views of
    memory on every run, so no operand outlives a run.
    """

    weights: np.ndarray  # int8, [c_out, c_in, K]
    biases: np.ndarray   # int32, [c_out]

    # written out so that each field is set once: the generated frozen
    # __init__ and a __post_init__ would set it twice, on every model load
    def __init__(self, weights, biases):
        weights = _as_int_array(weights, np.int8, "weights")
        biases = _as_int_array(biases, np.int32, "biases")
        if weights.ndim != 3:
            raise ShapeError("weights must be [c_out][c_in][K]")
        if biases.shape != (weights.shape[0],):
            raise ShapeError("one bias per output channel")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @cached_property
    def gemm_operands(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """qnn.gemm_operands of the fields, built on first use and kept."""
        return gemm_operands(self.weights, self.biases)


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
    a ConfigError that names it.  It is the one such check: the input
    scale_divisor, the requant scales, golden_predict's logit_scale and the
    cycle report's clock, power, measured latency and derived figures all
    pass it."""
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


def conv1d_gemm(x: np.ndarray, w: np.ndarray, pad: int,
                zero_point: int = 0) -> np.ndarray:
    """Stride-1 convolution of x [C, ..., L], less zero_point, with
    w [O, C, K] -> [O, ..., L].  The middle axes, if any, index windows,
    and each window is convolved alone.

    out[o, ..., t] = sum over c, j of w[o, c, j] * (x[c, ..., t + j - pad]
    - zero_point), with taps outside [0, L) reading zero.  Both forms read
    one zero-margined plane [C, ..., pad + L + max(K - 1 - pad, 0)], into
    which x - zero_point is written, so no offset copy of x is made.  The
    form is float32 when x or w is float32, else float64, and so is the
    result:

    - float32: one im2col [C, K, ..., L] of the plane, a strided view in
      which each tap j starts j samples further along and reuses the length
      stride, so cols[c, j, ..., t] = plane[c, ..., j + t]; the reshape to
      [C*K, B*L], where B is the number of windows, copies it once, and one
      GEMM takes w as [O, C*K] against it.
    - float64: one GEMM per tap j over plane[..., j:j + L], so no im2col
      buffer is built; with windows, a broadcasting matmul over a view of
      the plane whose channel axis sits next to its length axis.

    w is converted to the form's dtype only when it is not already in it,
    so weights that come from gemm_operands, already in it, are not
    converted again.

    Exact on integer operands while the sum of |products| of one output stays
    below 2^24 in float32 or 2^53 in float64, since every partial sum, in
    any order the BLAS takes, is an integer no larger than that.  With u8
    activations minus a u8 zero point (|x| <= 255) and i8 weights
    (|w| <= 128), float32 holds for C*K*255*128 < 2^24, i.e. C*K <= 514,
    which gemm_operands checks; every layer of the default net qualifies.
    float64 holds for any layer the SANN field widths that
    LayerSpec enforces allow (c_in <= 65535, K <= 255): 65535*255*255*128
    ~ 5.5e11.

    float64, which the float forward also uses, keeps the per-tap form.  On
    a shared 2-vCPU host with the benchmark pinned to one CPU, the one-GEMM
    form in float64 raised eval-golden set-up by up to 52%: OpenBLAS threads
    its larger dgemm calls, and with one BLAS thread it was faster instead.
    """
    c, mid, n = x.shape[0], x.shape[1:-1], x.shape[-1]
    o, k = w.shape[0], w.shape[2]
    dtype = np.float32 if np.float32 in (x.dtype, w.dtype) else np.float64
    plane = np.zeros((c, *mid, pad + n + max(k - 1 - pad, 0)), dtype=dtype)
    np.subtract(x, zero_point, out=plane[..., pad:pad + n], dtype=dtype)
    if dtype == np.float32:
        # the view needs the plane fresh and contiguous; j + t <= n + K - 2
        # stays inside each row, which holds at least n + K - 1 samples, and
        # ndarray refuses a view that would reach past the buffer
        step = plane.strides[-1]
        cols = np.ndarray((c, k, *mid, n), np.float32, buffer=plane,
                          strides=(plane.strides[0], step, *plane.strides[1:-1], step))
        return (w.reshape(o, c * k).astype(np.float32, copy=False)
                @ cols.reshape(c * k, -1)).reshape(o, *mid, n)
    taps = w.transpose(2, 0, 1).astype(np.float64, copy=False)    # [K, O, C]
    plane = plane.swapaxes(0, -2)                                 # [..., C, L]
    out = taps[0] @ plane[..., :n]
    for j in range(1, k):
        out += taps[j] @ plane[..., j:j + n]
    return out.swapaxes(0, -2)


def _exact_sums(x: np.ndarray, zero_point: int, layer: LayerSpec,
                operands: tuple[np.ndarray, np.ndarray, bool]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The exact conv sums [c_out, ..., length] of x [c_in, ..., length],
    as floats and before the bias, and the int64 bias column, shaped
    [c_out, 1, ...] to broadcast against them, from the layer's
    gemm_operands.

    Out-of-range taps read the zero point, i.e. contribute nothing after the
    offset subtraction.  Where a sum plus its bias can leave i32 (the
    operands' scan flag), every position of every window is scanned, as
    each row's max and min plus that row's bias, before any caller trims
    or pools the sums; one outside i32 raises AccumulatorOverflow, so
    several windows raise it exactly when one of them would alone.
    """
    if x.shape[0] != layer.c_in:
        raise ShapeError(f"input has {x.shape[0]} channels, layer expects {layer.c_in}")
    w, bias, scan = operands
    if w.shape != (layer.c_out, layer.c_in, layer.kernel):
        raise ShapeError("weight tensor does not match layer geometry")
    sums = conv1d_gemm(x, w, layer.padding, zero_point)
    if scan:
        positions = tuple(range(1, sums.ndim))
        lo = int((sums.min(axis=positions).astype(np.int64) + bias[:, 0]).min())
        hi = int((sums.max(axis=positions).astype(np.int64) + bias[:, 0]).max())
        if lo < INT32_MIN or hi > INT32_MAX:
            raise AccumulatorOverflow(
                f"accumulator range [{lo}, {hi}] exceeds signed 32-bit")
    return sums, bias.reshape(bias.shape + (1,) * (sums.ndim - 2))


def conv1d_acc(x: QuantTensor, layer: LayerSpec, lw: LayerWeights) -> np.ndarray:
    """Stride-1 integer convolution of one window into the signed 32-bit
    accumulator map [c_out, length], held in int64.

    Output length equals input length.  The products are summed exactly by
    conv1d_gemm, the bias is added in int64, and the map is scanned for
    an i32 overflow only where a bound cannot rule one out (_exact_sums).
    """
    sums, bias = _exact_sums(x.data, x.zero_point, layer, lw.gemm_operands)
    acc = sums.astype(np.int64)
    acc += bias
    return acc


def maxpool2_acc(acc: np.ndarray) -> np.ndarray:
    """Pairwise max over the last (spatial) axis; odd tails are padded with
    INT32_MIN.

    A float map keeps its dtype (INT32_MIN is exact in float32), so
    layer_step can pool the exact conv sums before it widens them; any other
    map is widened to int64.
    """
    acc = np.asarray(acc)
    if acc.dtype.kind != "f":
        acc = acc.astype(np.int64, copy=False)
    if acc.ndim < 2:
        raise ShapeError("accumulator map must be [c_out][length]")
    if acc.shape[-1] % 2 != 0:
        pad = np.full(acc.shape[:-1] + (1,), INT32_MIN,
                      dtype=acc.dtype)    # identity element of max
        acc = np.concatenate([acc, pad], axis=-1)
    return np.maximum(acc[..., 0::2], acc[..., 1::2])


def gap_shift_acc(acc: np.ndarray) -> np.ndarray:
    """Per-element arithmetic right shift by 6, then sum over the last
    (spatial) axis.

    The hardware shifts each sample before feeding the persistent accumulator,
    so this is NOT equivalent to shifting the final sum.
    """
    acc = np.asarray(acc, dtype=np.int64)
    if acc.ndim < 2:
        raise ShapeError("accumulator map must be [c_out][length]")
    if acc.shape[-1] != GAP_LENGTH:
        raise ConfigError(f"GAP unit is hardwired for length {GAP_LENGTH}, "
                          f"got {acc.shape[-1]}")
    return (acc >> GAP_SHIFT).sum(axis=-1)


def round_shift(p, shift: int):
    """Arithmetic right shift rounding to nearest, ties away from zero.

    For shift >= 1 it shifts by one less, keeping one fraction bit, adds 1
    and drops that bit: ((p - (p < 0)) >> (shift - 1)) + 1 >> 1.  Taking 1
    off a negative p first makes its ties round away from zero too.  Built
    from operators only (no branch on the sign), so the same definition is
    bit-exact on int64 arrays and cheap on Python ints.  No intermediate is
    further than |p| + 1 from zero, so int64 is exact for every shift 0..63
    on any i32 x i32 product, INT32_MIN * INT32_MIN = 2^62 included.

    Shift 0 returns p itself.  Otherwise a signed array is left as it is:
    the result is a fresh array, made once for p - (p < 0) and worked on in
    place.  An unsigned array holds no negative p, so it takes the same
    rounding in one shift, (p + 2^(shift - 1)) >> shift, in place on the
    array itself, which is returned: two passes instead of three.  It is
    exact while p + 2^(shift - 1) < 2^64, so on every p the ReLU epilogue
    (_saturate) gives it, its fresh product clamped at 0 as a uint64 view
    without a copy: p <= 2^62, and 2^62 + 2^62 < 2^64 at every shift.
    """
    if shift == 0:
        return p
    if isinstance(p, np.ndarray) and p.dtype.kind == "u":
        p += 1 << (shift - 1)
        p >>= shift
        return p
    q = p - (p < 0)
    q >>= shift - 1
    q += 1
    q >>= 1
    return q


def _saturate(p: np.ndarray, shift: int, activation: Activation) -> np.ndarray:
    """The fresh int64 product p rounded by `shift` (round_shift) and
    saturated, in place on p, then cast once: the epilogue of requantize
    and layer_step.

    A ReLU clamps p at 0 first, which changes no result since a negative p
    rounds to at most 0; round_shift then rounds a uint64 view of p in
    place, in one add and one shift, and the result is capped at 255 and
    cast to u8.  A signed layer is rounded and saturated to i32.  A shift
    outside 0..63 is refused with ConfigError.
    """
    if not 0 <= shift <= 63:
        raise ConfigError("shift must be in [0, 63]")
    if activation == Activation.RELU_SATURATE:
        r = round_shift(np.maximum(p, 0, out=p).view(np.uint64), shift)
        return np.minimum(r, 255, out=r).astype(np.uint8)
    r = round_shift(p, shift)
    np.minimum(np.maximum(r, INT32_MIN, out=r), INT32_MAX, out=r)
    return r.astype(np.int32)


def requantize(acc, multiplier: int, shift: int, activation: Activation,
               out_zero_point: int = 0):
    """Scale an array of 32-bit accumulators back to the activation format.

    64-bit product, round to nearest with ties away from zero (round_shift,
    exact for every shift 0..63), then either unsigned saturation to
    [0, 255] (fused ReLU) or signed 32-bit saturation for raw logits
    (_saturate).  The result is a fresh u8 or i32 array: the product is a
    new int64 array, rounded and saturated in place, and acc is left as it
    is.  out_zero_point is LayerSpec.out_zero_point, always 0; any other
    value is refused with ConfigError.
    """
    if out_zero_point:
        raise ConfigError("out_zero_point must be 0: a ReLU output's range "
                          "starts at 0")
    return _saturate(np.asarray(acc, dtype=np.int64) * np.int64(multiplier),
                     int(shift), activation)


def layer_step(x: np.ndarray, zero_point: int, layer: LayerSpec,
               operands: tuple[np.ndarray, np.ndarray, bool], multiplier: int,
               shift: int, length: int | None = None) -> np.ndarray:
    """One layer of u8 codes x [c_in, ..., L] at zero_point: conv with the
    layer's gemm_operands, keep the first `length` positions (all by
    default), maxpool or GAP, then requantize.  The golden model passes a
    LayerWeights' kept operands, the sim fast path ones it builds from
    memory for the run.  The middle axes, if any, index windows, and each
    window's slice of the result is what it gives alone.  x is taken as it
    is, and may be a view (the simulator passes one of its memory): it is
    only read.  A window is checked where it enters (infer_window,
    SimMachine.load_input, golden_predict's check_windows).  The result is
    a fresh array, u8 for a ReLU layer and i32 for the head.

    The result equals conv1d_acc, then [..., :length], then maxpool2_acc or
    gap_shift_acc, then requantize, with fewer passes over the map.  The
    exact float sums s are trimmed and max-pooled before they are widened:
    max is exact on integer-valued floats, and a per-channel bias b
    commutes with it, max(a + b, c + b) = max(a, c) + b.  The pooled sums
    then go to int64 as s*m + b*m, with b*m a per-channel column, and are
    rounded and saturated in place (_saturate), so the biased accumulator
    s + b is never made.  int64 holds every term: the scan or the bound
    (_exact_sums) holds each s + b to i32, and b is an i32, so
    |s| <= 2^32 - 1 and |s*m| <= (2^32 - 1) * 2^31 < 2^63, |b*m| <= 2^62,
    and their sum, (s + b) * m, is at most 2^62 from zero.  GAP shifts each
    biased element before it sums, and neither the bias nor the multiplier
    can move past the shift, so a GAP layer widens and biases every
    position, then requantizes the GAP sums.  The overflow scan sees every
    position, pooled away or trimmed, as conv1d_acc's does.  A maxpool
    `length` is even (LayerSpec.out_length); an odd tail padded with
    INT32_MIN before the bias equals one padded after it only while no
    unbiased sum is below INT32_MIN, i.e. C*K*255*128 <= 2^31.
    """
    sums, bias = _exact_sums(x, zero_point, layer, operands)
    sums = sums[..., :length]
    if layer.pool_mode == PoolMode.MAXPOOL2:
        sums = maxpool2_acc(sums)
    p = sums.astype(np.int64)
    if layer.pool_mode == PoolMode.GLOBAL_AVG:
        p += bias
        return requantize(gap_shift_acc(p)[..., np.newaxis], multiplier, shift,
                          layer.activation)
    p *= multiplier
    p += bias * multiplier
    return _saturate(p, shift, layer.activation)


def _check_input(net: NetworkSpec, ws: WeightSet, channels: int,
                 length: int) -> None:
    """Refuse, with ShapeError, a weight set that does not fit the net or
    an input of another channel count or length than it runs."""
    ws.check_against(net)
    if length != net.input_length or channels != net.layers[0].c_in:
        raise ShapeError(f"input {channels}x{length} does not match network "
                         f"{net.layers[0].c_in}x{net.input_length}")


def _layer_outputs(net: NetworkSpec, ws: WeightSet, x: np.ndarray,
                   zero_point: int) -> list[np.ndarray]:
    """Every layer's layer_step output for the codes x [c_in, ..., L] at
    zero_point, in order: the u8 ReLU outputs, at zero point 0, then the
    head's i32 logits [classes, ..., 1].  The caller checks x and ws
    (_check_input)."""
    outs = []
    for layer, lw in zip(net.layers, ws.layers):
        x = layer_step(x, zero_point, layer, lw.gemm_operands,
                       layer.requant_multiplier, layer.requant_shift)
        zero_point = 0
        outs.append(x)
    return outs


def infer_window(net: NetworkSpec, ws: WeightSet, x: QuantTensor):
    """Run the full golden pipeline; returns (Logits, per-layer snapshots).

    Snapshots hold the post-requantization QuantTensor of every layer before
    the head; the head's signed outputs are the logits.
    """
    _check_input(net, ws, x.channels, x.length)
    *relus, head = _layer_outputs(net, ws, x.data, x.zero_point)
    return Logits(head[:, 0]), [QuantTensor(out) for out in relus]
