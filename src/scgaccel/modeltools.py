"""Model preparation and serialization.

Covers the full path from floating-point layer parameters to the packed
weight-memory image the device loads: batch-norm folding, symmetric INT8
weight quantization, requant-constant derivation, the versioned weight
binary format, and SRAM image packing.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BadMagicError, CapacityError, ConfigError, SerializationError,
                     ShapeError, TruncationError)
from .qnn import (INPUT_SCALE, INT32_MAX, INT32_MIN, MAX_REQUANT_SHIFT,
                  Activation, LayerKind, LayerSpec, LayerWeights, NetworkSpec,
                  PoolMode, QuantTensor, WeightSet, check_positive,
                  check_windows, conv1d_gemm, zscore)

MAGIC = b"SANN"
FORMAT_VERSION = 1
DESCRIPTOR_SIZE = 16
HEADER_SIZE = len(MAGIC) + 2 + 1  # magic + u16 version + u8 layer_count

# The memory map, in 16-bit words: the weights fill two of the iCE40UP5K's
# four 16K x 16 SPRAM blocks (a 15-bit word address), each ping-pong
# activation buffer one more, and the input window two 256 x 16 EBR blocks.
WEIGHT_MEM_WORDS = 32768
PINGPONG_WORDS = 16384
INPUT_MEM_WORDS = 2 * 256


# ---------------------------------------------------------------------------
# Floating-point side
# ---------------------------------------------------------------------------

@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))


@dataclass
class FloatLayerParams:
    weights: np.ndarray          # float, [c_out, c_in, K]
    bias: np.ndarray             # float, [c_out]
    bn: BatchNorm | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3:
            raise ShapeError("weights must be [c_out][c_in][K]")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("one bias per output channel")
        if self.bn is not None:
            c_out = self.weights.shape[0]
            for name in ("gamma", "beta", "running_mean", "running_var"):
                if getattr(self.bn, name).shape != (c_out,):
                    raise ShapeError(f"bn.{name} must have length c_out")


@dataclass
class FloatModel:
    """Float parameters bound to a network geometry (requant fields unused)."""

    net: NetworkSpec
    layers: list[FloatLayerParams]

    def __post_init__(self):
        if len(self.layers) != len(self.net.layers):
            raise ShapeError("float model layer count mismatch")
        for p, spec in zip(self.layers, self.net.layers):
            if p.weights.shape != (spec.c_out, spec.c_in, spec.kernel):
                raise ShapeError("float weights do not match layer geometry")


def fold_batchnorm(params: FloatLayerParams) -> FloatLayerParams:
    """Fold frozen batch-norm scale and bias into the convolution parameters."""
    if params.bn is None:
        raise ConfigError("layer has no batch-norm to fold")
    bn = params.bn
    denom = bn.running_var + bn.epsilon
    if np.any(denom <= 0):
        raise ConfigError("running_var + epsilon must be positive")
    factor = bn.gamma / np.sqrt(denom)                       # [c_out]
    w = params.weights * factor[:, np.newaxis, np.newaxis]
    b = (params.bias - bn.running_mean) * factor + bn.beta
    return FloatLayerParams(weights=w, bias=b, bn=None)


def quantize_weights(params: FloatLayerParams, input_scale: float):
    """Symmetric per-tensor INT8 quantization; biases to i32 at s_in * s_w."""
    if params.bn is not None:
        raise ConfigError("fold batch-norm before quantizing")
    if not np.all(np.isfinite(params.weights)) or not np.all(np.isfinite(params.bias)):
        raise ConfigError("parameters must be finite")
    max_abs = float(np.max(np.abs(params.weights)))
    s_w = max_abs / 127.0 if max_abs > 0 else 1.0
    q = np.clip(np.rint(params.weights / s_w), -127, 127).astype(np.int8)
    bias_scale = input_scale * s_w
    b = np.rint(params.bias / bias_scale)
    if np.any(b < INT32_MIN) or np.any(b > INT32_MAX):
        raise ConfigError("quantized bias exceeds i32")
    return LayerWeights(weights=q, biases=b.astype(np.int32)), s_w


def derive_requant_constants(s_in: float, s_w: float, s_out: float) -> tuple[int, int]:
    """Fixed-point (multiplier, shift) with multiplier/2^shift ~ s_in*s_w/s_out.

    A scale, or their ratio after an overflow or underflow, that is not
    finite and positive is refused (ConfigError), as is a ratio the shift
    cannot reach."""
    for name, value in (("s_in", s_in), ("s_w", s_w), ("s_out", s_out)):
        check_positive(f"requant {name}", value)
    ratio = check_positive("requant ratio", s_in * s_w / s_out)
    mantissa, exponent = math.frexp(ratio)   # ratio = mantissa * 2^exponent, mantissa in [0.5, 1)
    multiplier = round(mantissa * (1 << 31))
    if multiplier == 1 << 31:
        multiplier //= 2
        exponent += 1
    shift = 31 - exponent
    if shift > MAX_REQUANT_SHIFT:
        raise ConfigError(f"requant ratio {ratio:g} too small: "
                          f"shift {shift} > {MAX_REQUANT_SHIFT}")
    if shift < 0:
        raise ConfigError(f"requant ratio {ratio:g} too large for the datapath")
    return multiplier, shift


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

def pack_weight_bytes(rows: np.ndarray) -> np.ndarray:
    """Pack bytes two per 16-bit word, low byte first.

    Each row of a [C, L] array starts on a fresh word, so an odd-length row
    ends in a zero high byte: the channel-aligned layout shared by the weight
    image, the input buffer and the activation buffers.  A 1-D array is one
    row; signed bytes are stored as their two's-complement bit pattern.
    """
    rows = np.atleast_2d(np.asarray(rows))
    c, n = rows.shape
    raw = np.zeros((c, n + n % 2), dtype=np.uint8)
    raw[:, :n] = rows    # wraps signed bytes to their bit pattern
    # a little-endian word holds its low byte first
    return raw.view("<u2").reshape(-1).astype(np.uint16, copy=False)


def image_words(channels: int, length: int) -> int:
    """Words that pack_weight_bytes makes of a [channels, length] array:
    the one words-per-row rule, which unpack_weight_bytes, layer_word_count
    and SimMachine.load_input read, so the simulator derives no plane or
    image size itself (only its micro path keeps its own row width, as part
    of the independent check)."""
    return channels * ((length + 1) // 2)


def unpack_weight_bytes(words: np.ndarray, count: int, channels: int = 1) -> np.ndarray:
    """Inverse of pack_weight_bytes: the [channels, count] u8 bytes of the
    `channels` channel-aligned rows at the start of `words`."""
    wpc = image_words(1, count)
    words = np.ascontiguousarray(words[:channels * wpc], dtype="<u2")
    return words.reshape(channels, wpc).view(np.uint8)[:, :count].copy()


def layer_word_count(spec: LayerSpec) -> int:
    """Words a layer's weights take in the SRAM image, two INT8 per word."""
    return image_words(1, spec.c_out * spec.c_in * spec.kernel)


def layer_weights(spec: LayerSpec, words: np.ndarray) -> np.ndarray:
    """A layer's int8 weights [c_out, c_in, K] from the words at its base."""
    n = spec.c_out * spec.c_in * spec.kernel
    return unpack_weight_bytes(words, n).view(np.int8).reshape(
        spec.c_out, spec.c_in, spec.kernel)


def pack_sram_image(ws: WeightSet) -> np.ndarray:
    """Lay out all layer weights in controller traversal order.

    Each layer starts on a word boundary so its fetch address is a pure
    counter from the layer base (`PackedModel.layer_word_base`).
    """
    return np.concatenate([pack_weight_bytes(lw.weights.reshape(-1))
                           for lw in ws.layers])


# ---------------------------------------------------------------------------
# PackedModel and the weight binary format
# ---------------------------------------------------------------------------

_DESCRIPTOR = struct.Struct("<BBBBBBHHiH")  # kind, pool, act, K, pad, shift, c_in,
                                            # c_out, multiplier, reserved (bytes 14-15)


@dataclass
class PackedModel:
    """Self-describing deployable model: topology, constants, weight image."""

    layers: list[LayerSpec]
    biases: list[np.ndarray]          # i32 per output channel per layer
    weight_words: np.ndarray          # uint16 SRAM image, layer-aligned

    def __post_init__(self):
        self.weight_words = np.asarray(self.weight_words, dtype=np.uint16)
        self.biases = [np.asarray(b, dtype=np.int32) for b in self.biases]
        self.validate()

    @property
    def layer_word_base(self) -> list[int]:
        """Word address of each layer's first weight in the SRAM image."""
        return list(itertools.accumulate(
            (layer_word_count(s) for s in self.layers[:-1]), initial=0))

    def validate(self) -> None:
        """The one check of a model's layout, bias tables and weight image.

        Every model passes it, however it is built (from_weights,
        from_bytes, SimMachine.export_model or the constructor), so no
        packer or simulator path bounds a weight address again.  The first
        layer whose cumulative image crosses WEIGHT_MEM_WORDS is refused
        with CapacityError, naming it; pack_sram_image only lays out."""
        try:
            NetworkSpec.check_layout(self.layers)
        except ConfigError as exc:
            raise SerializationError(f"invalid layout: {exc}") from exc
        if len(self.biases) != len(self.layers):
            raise SerializationError("bias table layer count mismatch")
        expect_words = 0
        for i, spec in enumerate(self.layers):
            if self.biases[i].shape != (spec.c_out,):
                raise SerializationError(f"layer {i}: bias count != c_out")
            expect_words += layer_word_count(spec)
            if expect_words > WEIGHT_MEM_WORDS:
                raise CapacityError(f"layer {i} exceeds the 64 KB weight memory: "
                                    f"{expect_words} > {WEIGHT_MEM_WORDS} words")
        if self.weight_words.size != expect_words:
            raise SerializationError(
                f"weight image has {self.weight_words.size} words, expected {expect_words}")

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_weights(net: NetworkSpec, ws: WeightSet) -> "PackedModel":
        ws.check_against(net)
        return PackedModel(layers=list(net.layers),
                           biases=[lw.biases.copy() for lw in ws.layers],
                           weight_words=pack_sram_image(ws))

    def to_network_spec(self, input_length: int = 512) -> NetworkSpec:
        return NetworkSpec(layers=tuple(self.layers), input_length=input_length)

    def to_weight_set(self) -> WeightSet:
        return WeightSet(layers=[
            LayerWeights(weights=layer_weights(spec, self.weight_words[base:]),
                         biases=b.copy())
            for spec, b, base in zip(self.layers, self.biases, self.layer_word_base)])

    # -- wire format --------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += MAGIC
        out += struct.pack("<HB", FORMAT_VERSION, len(self.layers))
        for spec in self.layers:
            out += _DESCRIPTOR.pack(int(spec.kind), int(spec.pool_mode),
                                    int(spec.activation), spec.kernel, spec.padding,
                                    spec.requant_shift, spec.c_in, spec.c_out,
                                    spec.requant_multiplier, 0)
        for b in self.biases:
            out += b.astype("<i4").tobytes()
        out += self.weight_words.astype("<u2").tobytes()
        return bytes(out)

    @staticmethod
    def from_bytes(blob: bytes) -> "PackedModel":
        if len(blob) < HEADER_SIZE:
            raise TruncationError("stream shorter than header")
        if blob[:4] != MAGIC:
            raise BadMagicError(f"bad magic {blob[:4]!r}")
        version, layer_count = struct.unpack_from("<HB", blob, 4)
        if version != FORMAT_VERSION:
            raise SerializationError(f"unsupported format version {version}")
        off = HEADER_SIZE
        specs: list[LayerSpec] = []
        for i in range(layer_count):
            if off + DESCRIPTOR_SIZE > len(blob):
                raise TruncationError(f"descriptor {i} truncated")
            (kind, pool, act, kernel, padding, shift,
             c_in, c_out, multiplier, reserved) = _DESCRIPTOR.unpack_from(blob, off)
            off += DESCRIPTOR_SIZE
            if reserved:
                raise SerializationError(f"descriptor {i}: reserved bytes 14-15 not 0")
            try:
                specs.append(LayerSpec(kind=LayerKind(kind), c_in=c_in, c_out=c_out,
                                       kernel=kernel, padding=padding,
                                       pool_mode=PoolMode(pool),
                                       activation=Activation(act),
                                       requant_multiplier=multiplier,
                                       requant_shift=shift))
            except (ValueError, ConfigError) as exc:
                raise SerializationError(f"descriptor {i} invalid: {exc}") from exc
        biases: list[np.ndarray] = []
        for i, spec in enumerate(specs):
            nbytes = 4 * spec.c_out
            if off + nbytes > len(blob):
                raise TruncationError(f"bias table for layer {i} truncated")
            biases.append(np.frombuffer(blob, dtype="<i4", count=spec.c_out,
                                        offset=off).astype(np.int32))
            off += nbytes
        total_words = sum(layer_word_count(s) for s in specs)
        if off + 2 * total_words > len(blob):
            raise TruncationError("weight image truncated")
        words = np.frombuffer(blob, dtype="<u2", count=total_words,
                              offset=off).astype(np.uint16)
        off += 2 * total_words
        if off != len(blob):
            raise SerializationError(f"{len(blob) - off} trailing bytes")
        return PackedModel(layers=specs, biases=biases, weight_words=words)


# ---------------------------------------------------------------------------
# Float reference forward (for folding checks and activation calibration)
# ---------------------------------------------------------------------------

def float_layer_forward(spec: LayerSpec, params: FloatLayerParams,
                        x: np.ndarray, layer: int | None = None) -> np.ndarray:
    """Float conv -> (bn) -> pool -> activation, mirroring the integer order;
    a length the layer cannot run is refused as `LayerSpec.out_length` does.

    An activation that is not finite is refused (ConfigError, naming
    `layer` when given) where it first appears: after the conv and batch
    norm, where a maxpool or ReLU could still hide it, or after the GAP
    mean, whose sum can overflow.
    """
    def check_finite(y: np.ndarray, stage: str) -> np.ndarray:
        if not np.isfinite(y).all():
            where = "float forward" if layer is None else f"layer {layer}"
            raise ConfigError(f"{where}: {stage} output is not finite")
        return y

    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != spec.c_in:
        raise ShapeError("channel mismatch in float forward")
    spec.out_length(x.shape[1])
    y = conv1d_gemm(x, params.weights, spec.padding) + params.bias[:, np.newaxis]
    if params.bn is not None:
        bn = params.bn
        factor = bn.gamma / np.sqrt(bn.running_var + bn.epsilon)
        y = (y - bn.running_mean[:, np.newaxis]) * factor[:, np.newaxis] \
            + bn.beta[:, np.newaxis]
    check_finite(y, "conv")
    if spec.pool_mode == PoolMode.MAXPOOL2:
        y = np.maximum(y[:, 0::2], y[:, 1::2])
    elif spec.pool_mode == PoolMode.GLOBAL_AVG:
        y = check_finite(y.mean(axis=1, keepdims=True), "GAP")
    if spec.activation == Activation.RELU_SATURATE:
        y = np.maximum(y, 0.0)
    return y


def float_forward(fm: FloatModel, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer float activations for a single 1-channel input."""
    outs = []
    cur = np.asarray(x, dtype=np.float64)
    if cur.ndim == 1:
        cur = cur[np.newaxis, :]
    for li, (spec, params) in enumerate(zip(fm.net.layers, fm.layers)):
        cur = float_layer_forward(spec, params, cur, li)
        outs.append(cur)
    return outs


def calibration_windows(windows: np.ndarray, input_length: int) -> np.ndarray:
    """The [N, input_length] array of one or more finite calibration windows
    (a single 1-D window is one row); anything else is refused with
    ShapeError, as quantize_windows refuses it."""
    windows = check_windows(np.atleast_2d(windows), input_length)
    if len(windows) == 0:
        raise ShapeError("calibration needs at least one window")
    return windows


def observe_max_abs(maxima: np.ndarray, acts) -> None:
    """Raise each maxima[i] to max |acts[i]|, in place."""
    for i, act in enumerate(acts):
        maxima[i] = max(maxima[i], float(np.max(np.abs(act))))


def activation_scales(maxima: np.ndarray) -> list[float]:
    """The input scale INPUT_SCALE, at which every window is quantized, then
    one scale per layer output that maps the layer's observed max
    |activation| to 255 (an observed max is floored at 1e-12)."""
    return [INPUT_SCALE] + [max(m, 1e-12) / 255.0 for m in maxima]


def calibrate_activation_scales(fm: FloatModel, windows: np.ndarray) -> list[float]:
    """Per-layer activation scales from observed float ranges.

    Returns one scale per layer boundary: index 0 is the input scale, index
    i+1 the output scale of layer i (u8 with zero point 0 after ReLU; the
    final entry is the logit scale taken from the observed logit range).
    The windows are checked as calibration_windows checks them.
    """
    maxima = np.zeros(len(fm.layers))
    for window in calibration_windows(windows, fm.net.input_length):
        observe_max_abs(maxima, float_forward(fm, zscore(window)))
    return activation_scales(maxima)


def quantize_model(fm: FloatModel, act_scales: list[float]) -> PackedModel:
    """Full float-to-device pipeline: fold, quantize, derive requant constants."""
    if len(act_scales) != len(fm.layers) + 1:
        raise ConfigError("need one scale per layer boundary")
    specs: list[LayerSpec] = []
    q_layers: list[LayerWeights] = []
    for i, (spec, params) in enumerate(zip(fm.net.layers, fm.layers)):
        if params.bn is not None:
            params = fold_batchnorm(params)
        s_in, s_out = act_scales[i], act_scales[i + 1]
        lw, s_w = quantize_weights(params, s_in)
        mult, shift = derive_requant_constants(s_in, s_w, s_out)
        specs.append(replace(spec, requant_multiplier=mult, requant_shift=shift))
        q_layers.append(lw)
    net = NetworkSpec(layers=tuple(specs), input_length=fm.net.input_length)
    return PackedModel.from_weights(net, WeightSet(layers=q_layers))


# ---------------------------------------------------------------------------
# Random models, geometries and inputs for equivalence testing
# ---------------------------------------------------------------------------

RANDOM_WEIGHT_RANGE = 64         # random_model weights are uniform in [-64, 64]


def random_model(net: NetworkSpec, rng: np.random.Generator) -> PackedModel:
    """Random INT8 model with requant shifts sized to keep activations lively."""
    specs, q_layers = [], []
    for spec in net.layers:
        n = spec.c_in * spec.kernel
        w = rng.integers(-RANDOM_WEIGHT_RANGE, RANDOM_WEIGHT_RANGE + 1,
                         size=(spec.c_out, spec.c_in, spec.kernel)).astype(np.int8)
        b = rng.integers(-1000, 1000, size=spec.c_out).astype(np.int32)
        mult = int(rng.integers(1 << 30, 1 << 31))
        # random-walk accumulator sigma ~ sqrt(n) * sigma_w * sigma_x
        sigma = math.sqrt(n) * (RANDOM_WEIGHT_RANGE / math.sqrt(3)) * 74.0
        shift = min(max(31 + round(math.log2(max(sigma, 1.0) / 64.0)), 1),
                    MAX_REQUANT_SHIFT)
        if spec.activation == Activation.SIGNED_BYPASS:
            shift = max(shift - 4, 1)  # keep logits spread out
        specs.append(replace(spec, requant_multiplier=mult, requant_shift=shift))
        q_layers.append(LayerWeights(weights=w, biases=b))
    rnet = NetworkSpec(layers=tuple(specs), input_length=net.input_length)
    return PackedModel.from_weights(rnet, WeightSet(layers=q_layers))


def random_small_net(rng: np.random.Generator,
                     max_channels: int = 8, max_length: int = 48) -> NetworkSpec:
    """Random small conv stack + FC head with a maxpool-compatible length."""
    depth = int(rng.integers(1, 4))
    length = int(rng.integers(1, max_length // (2 ** depth) + 1)) * (2 ** depth)
    layers = []
    c_in = int(rng.integers(1, max_channels // 2 + 1))
    for _ in range(depth):
        c_out = int(rng.integers(1, max_channels + 1))
        k = int(rng.choice([1, 3, 5, 9]))
        layers.append(LayerSpec(kind=LayerKind.CONV1D, c_in=c_in, c_out=c_out,
                                kernel=k, padding=int(rng.integers(0, k // 2 + 1)),
                                pool_mode=PoolMode.MAXPOOL2,
                                activation=Activation.RELU_SATURATE))
        c_in = c_out
    layers.append(LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=c_in, c_out=3,
                            kernel=1, padding=0, pool_mode=PoolMode.BYPASS,
                            activation=Activation.SIGNED_BYPASS))
    return NetworkSpec(layers=tuple(layers), input_length=length)


def random_input(rng: np.random.Generator, net: NetworkSpec) -> QuantTensor:
    """Uniform u8 input window for `net` with a random zero point."""
    data = rng.integers(0, 256, size=(net.layers[0].c_in, net.input_length),
                        dtype=np.uint8)
    return QuantTensor(data, zero_point=int(rng.integers(0, 256)))
