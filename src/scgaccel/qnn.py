"""Bit-exact integer-only golden model of the 5-layer 1D CNN.

All arithmetic is exact: int64 intermediates checked against the 32-bit
accumulator budget, and conv products summed in float32 where a layer's
worst-case sum stays below 2^24, else in float64; both are exact on these
integers (see conv1d_gemm).  So every result here is the contract the
cycle-accurate simulator has to match exactly.

Like the simulator's run_inference and start(), infer_window rejects a maxpool
input of odd length with ConfigError (NetworkSpec.layer_input_lengths); only
the op-level maxpool2_acc pads an odd tail with INT32_MIN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

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


@dataclass
class QuantTensor:
    """Channel-major 8-bit activation map with quantization metadata."""

    data: np.ndarray  # uint8, shape [channels, length]
    zero_point: int = 0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
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
    out_zero_point: int = 0  # optional output offset, 0 in the default scheme

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
        if not 0 <= self.out_zero_point <= 255:
            raise ConfigError("output zero point must be in [0, 255]")
        if self.kind == LayerKind.FULLY_CONNECTED:
            if self.kernel != 1 or self.padding != 0:
                raise ConfigError("FC layers are 1x1 convolutions without padding")
            if self.pool_mode != PoolMode.BYPASS:
                raise ConfigError("FC layers bypass the pooling unit")
            if self.activation != Activation.SIGNED_BYPASS:
                raise ConfigError("FC layers emit signed logits")
        if not INT32_MIN <= self.requant_multiplier <= INT32_MAX:
            raise ConfigError("requant multiplier must fit in i32")
        if not 0 <= self.requant_shift <= 63:
            raise ConfigError("requant shift must be in [0, 63]")

    def out_length(self, w_in: int) -> int:
        """Spatial length after conv (stride 1, resolution preserving) and pooling."""
        if self.pool_mode == PoolMode.MAXPOOL2:
            if w_in % 2 != 0:
                raise ConfigError(f"maxpool input length {w_in} must be even")
            return w_in // 2
        if self.pool_mode == PoolMode.GLOBAL_AVG:
            return 1
        return w_in


@dataclass(frozen=True)
class NetworkSpec:
    """The whole network: an ordered layer chain plus input geometry."""

    layers: tuple[LayerSpec, ...]
    input_length: int = 512

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.c_out != b.c_in:
                raise ConfigError(f"channel chain broken: {a.c_out} -> {b.c_in}")

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
        self.weights = np.asarray(self.weights, dtype=np.int8)
        self.biases = np.asarray(self.biases, dtype=np.int32)
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
        self.values = np.asarray(self.values, dtype=np.int32)

    @property
    def predicted_class(self) -> int:
        # np.argmax returns the first maximum: lowest index wins ties,
        # matching a hardware priority encoder.
        return int(np.argmax(self.values))


def zscore(window: np.ndarray) -> np.ndarray:
    """Per-window z-score in the window's own dtype; a flat window maps to 0."""
    return (window - window.mean()) / (window.std() or 1.0)


def zscore_quantize(window, zero_point: int = INPUT_ZERO_POINT,
                    scale_divisor: float = INPUT_SCALE) -> QuantTensor:
    """Per-window z-score normalize then quantize to a 1-channel u8 tensor."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or window.size == 0:
        raise ShapeError("window must be a non-empty 1-D array")
    if scale_divisor <= 0:
        raise ConfigError("scale_divisor must be positive")
    z = zscore(window) / scale_divisor
    q = np.where(z >= 0, np.floor(z + 0.5), np.ceil(z - 0.5)) + zero_point
    q = np.clip(q, 0, 255).astype(np.uint8)
    return QuantTensor(q[np.newaxis, :], zero_point=zero_point)


def conv1d_gemm(x: np.ndarray, w: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 convolution of x [B, C, L] with w [O, C, K] -> [B, O, L].

    out[b, o, t] = sum over c, j of w[o, c, j] * x[b, c, t + j - pad], with
    taps outside [0, L) reading zero.  The form follows x's dtype, and so
    does the result:

    - float32: one [B, C*K, L] im2col of the zero-margined input, built by K
      slice copies, and one GEMM of w as [O, C*K] against it.
    - anything else, in float64: the B inputs lie side by side in one
      channel-major plane, each in a zero-margined segment of seg = pad + L +
      max(K - 1 - pad, 0) columns, and each tap is one GEMM over a shifted
      view of it, so no im2col buffer is built.

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
    b, c, n = x.shape
    o, k = w.shape[0], w.shape[2]
    seg = pad + n + max(k - 1 - pad, 0)
    if x.dtype == np.float32:
        plane = np.zeros((b, c, seg), dtype=np.float32)
        plane[:, :, pad:pad + n] = x
        cols = np.empty((b, c, k, n), dtype=np.float32)
        for j in range(k):
            cols[:, :, j] = plane[:, :, j:j + n]
        return w.reshape(o, c * k).astype(np.float32) @ cols.reshape(b, c * k, n)
    # one spare zero segment at the end lets every tap read B*seg columns,
    # so each GEMM writes whole contiguous rows; output column b*seg + t
    # reads plane column b*seg + t + j at tap j
    plane = np.zeros((c, b + 1, seg))
    plane[:, :b, pad:pad + n] = x.transpose(1, 0, 2)
    plane = plane.reshape(c, (b + 1) * seg)
    taps = w.transpose(2, 0, 1).astype(np.float64)    # [K, O, C]
    span = b * seg
    out = taps[0] @ plane[:, :span]
    for j in range(1, k):
        out += taps[j] @ plane[:, j:j + span]
    return out.reshape(o, b, seg)[:, :, :n].transpose(1, 0, 2)


def conv1d_acc(x: QuantTensor, layer: LayerSpec, lw: LayerWeights) -> np.ndarray:
    """Stride-1 integer convolution into the signed 32-bit accumulator map.

    Out-of-range taps read the zero point, i.e. contribute nothing after the
    offset subtraction; output length equals input length.  The products are
    summed by conv1d_gemm, exactly: in float32 when C*K*255*128 < 2^24,
    else in float64.  The bias is added in int64.
    """
    if x.channels != layer.c_in:
        raise ShapeError(f"input has {x.channels} channels, layer expects {layer.c_in}")
    if lw.weights.shape != (layer.c_out, layer.c_in, layer.kernel):
        raise ShapeError("weight tensor does not match layer geometry")
    exact32 = layer.c_in * layer.kernel * 255 * 128 < 1 << 24
    xoff = np.subtract(x.data, x.zero_point,
                       dtype=np.float32 if exact32 else np.float64)
    acc = conv1d_gemm(xoff[np.newaxis], lw.weights, layer.padding)[0].astype(np.int64)
    acc += lw.biases.astype(np.int64)[:, np.newaxis]
    if acc.min() < INT32_MIN or acc.max() > INT32_MAX:
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

    Built from operators only (no branch on the sign), so the same definition
    is bit-exact on int64 arrays and cheap on Python ints; shift 0 is exact.
    """
    mag = (abs(p) + ((1 << shift) >> 1)) >> shift
    return mag * (1 - 2 * (p < 0))


def requantize(acc, multiplier: int, shift: int, activation: Activation,
               out_zero_point: int = 0):
    """Scale a 32-bit accumulator back to the activation format.

    64-bit product, round to nearest with ties away from zero, then either
    unsigned saturation to [0, 255] (fused ReLU) or signed 32-bit saturation
    for raw logits.
    """
    if not 0 <= shift <= 63:
        raise ConfigError("shift must be in [0, 63]")
    acc = np.asarray(acc, dtype=np.int64)
    r = round_shift(acc * np.int64(multiplier), int(shift))
    if activation == Activation.RELU_SATURATE:
        r = np.clip(r + out_zero_point, 0, 255)
        return r.astype(np.uint8)
    r = np.clip(r, INT32_MIN, INT32_MAX)
    return r.astype(np.int32)


def pool_requantize(acc: np.ndarray, layer: LayerSpec, multiplier: int,
                    shift: int) -> np.ndarray:
    """A layer's conv output through its maxpool or GAP, then requantized."""
    if layer.pool_mode == PoolMode.MAXPOOL2:
        acc = maxpool2_acc(acc)
    elif layer.pool_mode == PoolMode.GLOBAL_AVG:
        acc = gap_shift_acc(acc)[:, np.newaxis]
    return requantize(acc, multiplier, shift, layer.activation,
                      layer.out_zero_point)


def infer_window(net: NetworkSpec, ws: WeightSet, x: QuantTensor):
    """Run the full golden pipeline; returns (Logits, per-layer snapshots).

    Snapshots hold the post-requantization QuantTensor of every ReLU layer;
    the final signed logits are returned separately.
    """
    ws.check_against(net)
    if x.length != net.input_length or x.channels != net.layers[0].c_in:
        raise ShapeError(f"input {x.channels}x{x.length} does not match network "
                         f"{net.layers[0].c_in}x{net.input_length}")
    net.layer_input_lengths()   # the simulator's geometry checks
    snapshots: list[QuantTensor] = []
    cur = x
    logits = None
    for layer, lw in zip(net.layers, ws.layers):
        out = pool_requantize(conv1d_acc(cur, layer, lw), layer,
                              layer.requant_multiplier, layer.requant_shift)
        if layer.activation == Activation.RELU_SATURATE:
            cur = QuantTensor(out, zero_point=layer.out_zero_point)
            snapshots.append(cur)
        else:
            logits = Logits(out[:, 0])
    if logits is None:
        raise ConfigError("network has no signed-output classification layer")
    return logits, snapshots
