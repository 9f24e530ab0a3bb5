"""Cycle-accurate functional simulator of the accelerator.

Models the memory subsystem (banked weight SPRAM, dual-bank input buffer,
ping-pong activation buffers, bias/scale storage), the six-PE systolic
cluster, the staged 32x32 serial multiplier in the requantization engine,
the result packer, and the nested-loop control FSM.

Two execution paths produce bit-identical outputs and identical cycle splits:

* ``run_inference`` is the fast path used for full-network runs.  Each layer
  unpacks its input plane from simulated memory, runs ``qnn.layer_step`` on
  it, packs the result into its output buffer and takes its cycle split from
  the run plan (``cyclemodel.layer_cycles``).
* ``start``/``step`` drive a per-clock micro model that walks the loop nest
  one cycle at a time with its own MAC, multiplier stages, saturation,
  packer and address counters, emitting a structured trace event per cycle.
  It is the independent check of the fast path.  There is no cluster
  object: the layer generator holds the six PE lanes as the fields of two
  Python ints, one ``LANE_BITS`` field per lane (SIMD within a register).
  The sample pipe is a shift register of the bytes as read, with padding
  and overhang taps at the zero point: priming shifts six samples in at the
  top field, in position order, so field j then holds the sample for output
  position j, and each tap shifts one more in the same way.  A tap's six
  MACs are one multiply-add of its weight and the pipe into the group's lane
  sums, beside a running sum of the weights; when the group completes, lane
  j's accumulator is ``bias + field j - zp * sum(weights)``.  A weight word
  is fetched (and traced) at an even weight index or a channel group's first
  tap and held, so the next odd tap takes its high byte without a second
  read.  The bias is read at the group's first clock.  Weight words and
  activation bytes are read inline from live memoryviews, so every read sees
  simulated memory as it is on that clock; nothing is cached or snapshot.
  Neither read has a bound check of its own: ``PackedModel.validate``
  bounds each layer's weight image, and ``load_input`` each activation
  image by its buffer.
  Each clock is counted where it is yielded: into the machine's cycle
  counter and, for prime and compute, into the layer's split.  The requant
  engine, one loop over a group's (accumulator, output position) pairs
  (maxpool pairs, bypass lanes, or the GAP sum at the last batch), takes
  the rest of the layer's clocks: four multiplier stages and two of
  overhead per pair.  The layer's ``LayerCycles`` holds only those counts.

``load_input`` refuses, before it writes anything, a length ``NetworkSpec``
refuses, an image over the input buffer or a ReLU image over its output
buffer, and builds the run plan both paths walk, so a run can fail only on
data (``SimFault``).  Each plan step names the buffer its layer reads and
the one it writes: layer 0 reads the input buffer, layer i writes pong when
i is even and ping when it is odd, and layer i + 1 reads what layer i wrote,
so the machine keeps no ping-pong toggle.  Both paths record into one last
run: an entry per completed layer (its u8 output image, or none for the head,
and its cycle split), the logits and the micro stepper.  ``load_model`` drops
the plan and the last run; ``load_input`` and each new run drop the last run,
and every readback reads that run alone, so a faulted run reports only the
layers it completed and a micro run that another run overtook cannot be
stepped.  ``modeltools`` defines the memory map, the weight layout and the
word packing of every plane and image.

Batch overhang: the array always computes whole batches of six positions, so
a layer whose input length is not a multiple of six has overhang lanes past
its end.  Those lanes read the zero point, their accumulators are
overflow-checked like every other lane (an overflow there is a ``SimFault``
even though the golden model never computes the position), and their
results are never stored.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .cyclemodel import (LayerCycles, PE_COUNT, REQUANT_CYCLES_TABLE,
                         layer_cycles)
from .errors import (AccumulatorOverflow, ConfigError, MemoryFault, ShapeError,
                     SimFault, StateError)
from .modeltools import (INPUT_MEM_WORDS, PINGPONG_WORDS, WEIGHT_MEM_WORDS,
                         PackedModel, image_words, layer_weights,
                         pack_weight_bytes, unpack_weight_bytes)
from .qnn import (GAP_LENGTH, GAP_SHIFT, INT32_MAX, INT32_MIN, Activation,
                  LayerWeights, Logits, PoolMode, QuantTensor, layer_step,
                  round_shift)

REQUANT_MUL_STAGES = 4           # serial multiplier partial products
REQUANT_OVERHEAD = REQUANT_CYCLES_TABLE - REQUANT_MUL_STAGES

# The micro path holds its PE lanes as fields of one Python int, LANE_BITS
# per lane: the sample pipe holds bytes, and a group's lane sums gather
# weight * byte over its c_in * K taps.  A LayerSpec caps c_in at 0xFFFF and
# K at 0xFF, so a lane's sum is at most 0xFFFF * 0xFF * 255 * 128 < 2^40 in
# magnitude.  Each sum starts at 2^63 in its field (LANE_ORIGIN), so it stays
# inside [0, 2^64): no field carries into or borrows from its neighbour, and
# each lane reads back with a shift and a mask.
LANE_BITS = 64
LANE_MASK = (1 << LANE_BITS) - 1
LANE_ORIGIN_FIELD = 1 << (LANE_BITS - 1)
LANE_ORIGIN = sum(LANE_ORIGIN_FIELD << LANE_BITS * j for j in range(PE_COUNT))


# ---------------------------------------------------------------------------
# Serial 32x32 -> 64 multiplier
# ---------------------------------------------------------------------------

def _partial_products(a, b):
    """The serial multiplier's four partial products, in stage order.

    Each operand splits into a signed upper and an unsigned lower 16-bit
    half.  Works on Python ints and elementwise on int64 arrays of i32s.
    """
    ah, al = a >> 16, a & 0xFFFF
    bh, bl = b >> 16, b & 0xFFFF
    return al * bl, (al * bh) << 16, (ah * bl) << 16, (ah * bh) << 32


def mul64signed(a, b):
    """Full signed 64-bit product: the sum of the four partial products."""
    return sum(_partial_products(a, b))


# ---------------------------------------------------------------------------
# Memory subsystem
# ---------------------------------------------------------------------------

class MemorySubsystem:
    def __init__(self):
        self.weight_mem = np.zeros(WEIGHT_MEM_WORDS, dtype=np.uint16)
        self.bias_rom: list[np.ndarray] = []
        self.scale_regs: list[tuple[int, int]] = []
        self.input_words = np.zeros(INPUT_MEM_WORDS, dtype=np.uint16)
        self.ping = np.zeros(PINGPONG_WORDS, dtype=np.uint16)
        self.pong = np.zeros(PINGPONG_WORDS, dtype=np.uint16)


# ---------------------------------------------------------------------------
# Result packer
# ---------------------------------------------------------------------------

class ResultPacker:
    """Adapts the 8-bit result stream to 16-bit buffer words, channel aligned."""

    def __init__(self, target: np.ndarray):
        self.target = target
        self.word_addr = 0
        self.pending: int | None = None

    def push(self, byte: int):
        if self.pending is None:
            self.pending = byte & 0xFF
        else:
            self._write((byte & 0xFF) << 8 | self.pending)
            self.pending = None

    def flush(self):
        """Channel boundary: emit the half-full word with a zero-pad high byte."""
        if self.pending is not None:
            self._write(self.pending)
            self.pending = None

    def _write(self, word: int):
        if self.word_addr >= self.target.size:
            raise MemoryFault("ping-pong buffer overflow")
        self.target[self.word_addr] = word
        self.word_addr += 1


# ---------------------------------------------------------------------------
# Trace events
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class CycleEvent:
    cycle: int
    state: str          # prime | compute | requant
    layer: int
    c_out: int
    batch: int
    c_in: int
    k: int
    reads: list
    macs: int
    note: str

    def to_json(self) -> str:
        """The fields as one JSON object, in declaration order."""
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)})


# ---------------------------------------------------------------------------
# Machine
# ---------------------------------------------------------------------------

@dataclass
class _LayerEntry:
    """One layer the run completed: its output image and its cycle split."""
    image: np.ndarray | None    # u8 [c_out, w_out]; None for the signed head
    cycles: LayerCycles


@dataclass
class _Run:
    """The last run: its completed layers in order, logits and micro stepper."""
    layers: list[_LayerEntry] = field(default_factory=list)
    logits: Logits | None = None
    stepper: Iterator[CycleEvent] | None = None


class SimMachine:
    def __init__(self, trace_sink=None):
        self.mem = MemorySubsystem()
        self.cycle_counter = 0
        self.trace_sink = trace_sink
        self.model: PackedModel | None = None
        self._plan: list[tuple] | None = None    # the loaded input's run plan
        self._run = _Run()

    # -- loading ------------------------------------------------------------

    def load_model(self, model: PackedModel):
        # a PackedModel is validated when it is built, and nothing mutates one
        self.mem.weight_mem[:] = 0
        self.mem.weight_mem[:model.weight_words.size] = model.weight_words
        self.mem.bias_rom = [b.copy() for b in model.biases]
        self.mem.scale_regs = [(spec.requant_multiplier, spec.requant_shift)
                               for spec in model.layers]
        self.model = model
        self._plan = None
        self._clear_run()

    def load_input(self, x: QuantTensor):
        """Write the window and its run plan, or refuse it before writing."""
        if self.model is None:
            raise StateError("load a model before the input window")
        layers = self.model.layers
        if x.channels != layers[0].c_in:
            raise ShapeError(f"input has {x.channels} channels, "
                             f"model expects {layers[0].c_in}")
        mem = self.mem
        if (n_words := image_words(x.channels, x.length)) > mem.input_words.size:
            raise ShapeError(f"input needs {n_words} words, buffer has "
                             f"{mem.input_words.size}")
        lengths = self.model.to_network_spec(x.length).layer_input_lengths()
        plan, src = [], mem.input_words
        for li, (spec, w_in, base) in enumerate(
                zip(layers, lengths, self.model.layer_word_base)):
            dst = (mem.pong, mem.ping)[li % 2]
            # each layer but the head writes a ReLU image into dst
            out_words = image_words(spec.c_out, spec.out_length(w_in))
            if spec.activation == Activation.RELU_SATURATE and out_words > dst.size:
                raise ShapeError(f"layer {li}: {out_words}-word output image "
                                 "overflows the ping-pong buffer")
            plan.append((li, spec, w_in, 0 if li else x.zero_point, base,
                         layer_cycles(spec, w_in), src, dst))
            src = dst
        self._plan = plan
        mem.input_words[:] = 0
        mem.input_words[:n_words] = pack_weight_bytes(x.data)
        self._clear_run()

    # -- run set-up shared by both paths ------------------------------------

    def _clear_run(self):
        self._run = _Run()

    def _begin_run(self) -> list[tuple]:
        """Clear the last run; returns the run plan: per layer (index, spec,
        input length, input zero point, weight base, LayerCycles, the buffer
        it reads, the buffer it writes)."""
        if self._plan is None:
            raise StateError("model and input must be loaded before running")
        self._clear_run()
        return self._plan

    # -- fast path -----------------------------------------------------------

    def run_inference(self):
        """Execute the layer sequencer end to end.

        Returns (Logits, cycles_this_run, per-layer LayerCycles).
        """
        for layer in self._begin_run():
            self._run_layer_fast(*layer)
        return self._last_run()

    def _run_layer_fast(self, li: int, spec, w_in: int, zp: int, base: int, lc,
                        src: np.ndarray, dst: np.ndarray):
        """One layer: qnn.layer_step on the plane held in simulated memory."""
        mem = self.mem
        # whole batches of six; the overhang lanes read the zero point
        ext = np.full((spec.c_in, lc.n_batches * PE_COUNT), zp, dtype=np.uint8)
        ext[:, :w_in] = unpack_weight_bytes(src, w_in, spec.c_in)
        # read as PackedModel.to_weight_set reads them, on every run, so the
        # GEMM operands LayerWeights keeps follow an upset in mem; the
        # model's build bounds its image by the weight memory
        lw = LayerWeights(layer_weights(spec, mem.weight_mem[base:]),
                          mem.bias_rom[li])
        try:
            out = layer_step(ext, zp, spec, lw, *mem.scale_regs[li],
                             length=w_in)
        except AccumulatorOverflow as exc:
            raise SimFault(f"layer {li}: 32-bit accumulator overflow at cycle "
                           f"{self.cycle_counter}") from exc
        if spec.activation == Activation.SIGNED_BYPASS:
            self._run.logits, image = Logits(out[:, 0]), None
        else:
            image, words = out, pack_weight_bytes(out)
            dst[:words.size] = words
        self.cycle_counter += lc.total
        self._run.layers.append(_LayerEntry(image, lc))

    # -- micro (per-cycle) path ---------------------------------------------

    def start(self):
        """Arm the per-cycle stepper; each step() then advances one clock."""
        layers = self._begin_run()
        self._run.stepper = chain.from_iterable(
            self._micro_layer(*layer) for layer in layers)

    def step(self) -> CycleEvent:
        stepper = self._run.stepper
        if stepper is None:
            raise StateError("machine is idle; call start() first")
        try:
            event = next(stepper)
        except StopIteration:
            raise StateError("run already complete")
        except BaseException:
            # whatever a layer raises ends the run, where the chain would go
            # on to the next layer
            self._run.stepper = iter(())
            raise
        if self.trace_sink is not None:
            self.trace_sink(event)
        return event

    def run_micro(self):
        """Drain the per-cycle stepper; same results as run_inference."""
        self.start()
        while True:
            try:
                self.step()
            except StateError:
                break
        return self._last_run()

    def _last_run(self):
        """(Logits, cycles, per-layer LayerCycles) of the last run."""
        return self.last_logits, self.last_cycles, [e.cycles for e in self._run.layers]

    def _micro_layer(self, li: int, spec, w_in: int, zp: int, base: int, _lc,
                     src: np.ndarray, dst: np.ndarray):
        mem = self.mem
        n_batches = -(-w_in // PE_COUNT)
        c_in, k, pad = spec.c_in, spec.kernel, spec.padding
        multiplier, shift = mem.scale_regs[li]
        signed = spec.activation == Activation.SIGNED_BYPASS
        # live views: each read sees simulated memory as it is on that clock;
        # load_input bounds each image by its buffer, so an in-range sample
        # at an even row reads inside it, low byte first
        act_words, wpc = memoryview(src), (w_in + 1) // 2
        weights = memoryview(mem.weight_mem)
        top = LANE_BITS * (PE_COUNT - 1)        # the pipe's entry field
        lane_shifts = range(0, LANE_BITS * PE_COUNT, LANE_BITS)

        if spec.pool_mode == PoolMode.GLOBAL_AVG and w_in != GAP_LENGTH:
            raise ConfigError(f"GAP layer requires input length {GAP_LENGTH}")

        first_cycle, prime, compute = self.cycle_counter, 0, 0
        packer = ResultPacker(dst)
        logits = np.zeros(spec.c_out, dtype=np.int64) if signed else None
        for o in range(spec.c_out):
            gap_acc = 0
            for b in range(n_batches):
                base_t = b * PE_COUNT
                t0 = base_t - pad          # lane 0's sample at tap 0
                for c in range(c_in):
                    row = 2 * c * wpc      # channel c's first byte
                    # prime: load bias on a fresh group, then fill the pipe
                    if c == 0:
                        bias = int(mem.bias_rom[li][o])
                        sums, wsum = LANE_ORIGIN, 0
                    self.cycle_counter += 1
                    prime += 1
                    yield CycleEvent(self.cycle_counter, "prime", li, o, b, c, -1,
                                     [], 0, "" if c else "bias")
                    # each sample enters the top field; padding outside
                    # [0, w_in) reads no memory and is the zero point
                    pipe = 0
                    for t in range(t0, t0 + PE_COUNT):
                        pipe = pipe >> LANE_BITS | (
                            act_words[(row + t) >> 1] >> (t & 1) * 8 & 0xFF
                            if 0 <= t < w_in else zp) << top
                        self.cycle_counter += 1
                        prime += 1
                        yield CycleEvent(self.cycle_counter, "prime", li, o, b, c,
                                         -1, [{"mem": "act", "t": t}], 0, "")
                    # field j now holds x[t0 + j]; each tap shifts one more in
                    idx = (o * c_in + c) * k
                    for kk in range(k):
                        # a fetch at an even index or a group's first tap;
                        # an odd tap takes the high byte of the held word
                        if idx % 2 == 0 or kk == 0:
                            # inside the layer's image: validate bounds it
                            addr = base + idx // 2
                            word = weights[addr]
                            reads = [{"mem": "weight", "addr": addr}]
                        else:
                            reads = []
                        byte = word >> 8 if idx % 2 else word & 0xFF
                        weight = byte - 256 if byte >= 128 else byte
                        sums += weight * pipe      # one MAC per lane field
                        wsum += weight
                        t = t0 + kk + PE_COUNT
                        pipe = pipe >> LANE_BITS | (
                            act_words[(row + t) >> 1] >> (t & 1) * 8 & 0xFF
                            if 0 <= t < w_in else zp) << top
                        self.cycle_counter += 1
                        compute += 1
                        yield CycleEvent(self.cycle_counter, "compute", li, o, b, c,
                                         kk, reads, PE_COUNT, "")
                        idx += 1
                # lane j: bias + sum of (x - zp) * w = bias + field - zp * sum w
                offset = bias - zp * wsum - LANE_ORIGIN_FIELD
                acc = [(sums >> s & LANE_MASK) + offset for s in lane_shifts]
                # overflow is checked on the completed group, mirroring the
                # final-accumulator check of the golden model and fast path
                if max(acc) > INT32_MAX or min(acc) < INT32_MIN:
                    raise SimFault(f"layer {li}: accumulator overflow at "
                                   f"cycle {self.cycle_counter}")
                # group complete for all input channels: pool, then the
                # (accumulator, output position) pairs the requant engine takes
                if spec.pool_mode == PoolMode.MAXPOOL2:
                    # overhang pairs are requantized, and their results dropped
                    jobs = [(max(acc[j], acc[j + 1]), base_t + j)
                            for j in range(0, PE_COUNT, 2)]
                elif spec.pool_mode == PoolMode.GLOBAL_AVG:
                    gap_acc += sum(a >> GAP_SHIFT for t, a in enumerate(acc, base_t)
                                   if t < w_in)
                    jobs = [(gap_acc, 0)] if b == n_batches - 1 else []
                else:  # bypass
                    jobs = [(a, t) for t, a in enumerate(acc, base_t) if t < w_in]
                # the requant engine: four multiplier stages, each adding one
                # partial product, then its overhead clocks
                for a, t in jobs:
                    p = 0
                    for partial in _partial_products(a, multiplier):
                        p += partial
                        self.cycle_counter += 1
                        yield CycleEvent(self.cycle_counter, "requant", li, o, b,
                                         -1, -1, [], 0, "mul-stage")
                    r = round_shift(p, shift)
                    for _ in range(REQUANT_OVERHEAD):
                        self.cycle_counter += 1
                        yield CycleEvent(self.cycle_counter, "requant", li, o, b,
                                         -1, -1, [], 0, "pack")
                    if signed:
                        if t == 0:          # logit = position 0
                            logits[o] = max(INT32_MIN, min(INT32_MAX, r))
                    elif t < w_in:
                        packer.push(max(0, min(255, r)))
            packer.flush()   # a no-op for the head, which pushes nothing

        if signed:
            self._run.logits = Logits(logits)
            image = None
        else:   # the image as the packer wrote it
            image = unpack_weight_bytes(dst, spec.out_length(w_in), spec.c_out)
        # the requant engine counted the layer's other clocks
        requant_cycles = self.cycle_counter - first_cycle - prime - compute
        self._run.layers.append(_LayerEntry(
            image, LayerCycles(prime, compute, requant_cycles, n_batches)))

    # -- readback ------------------------------------------------------------

    def read_layer_activation(self, layer: int) -> QuantTensor:
        """A copy of the output image of a ReLU layer the last run completed."""
        if not 0 <= layer < len(self._run.layers):
            raise StateError(f"layer {layer} has not been executed")
        image = self._run.layers[layer].image
        if image is None:
            raise StateError("signed logit layers have no activation tensor")
        return QuantTensor(image.copy())

    @property
    def last_logits(self) -> Logits | None:
        """The last run's logits; None until its head layer has run."""
        return self._run.logits

    @property
    def last_cycles(self) -> int:
        """Cycles of the layers the last run completed."""
        return sum(entry.cycles.total for entry in self._run.layers)

    @property
    def mac_count(self) -> int:
        """MACs of the layers the last run completed: six per compute cycle."""
        return PE_COUNT * sum(entry.cycles.compute for entry in self._run.layers)

    def export_model(self) -> PackedModel:
        """Reconstruct a PackedModel from live machine memory (for verification)."""
        if self.model is None:
            raise StateError("no model loaded")
        layers = [replace(spec, requant_multiplier=m, requant_shift=s)
                  for spec, (m, s) in zip(self.model.layers, self.mem.scale_regs)]
        return PackedModel(
            layers=layers,
            biases=[b.copy() for b in self.mem.bias_rom],
            weight_words=self.mem.weight_mem[:self.model.weight_words.size].copy())
