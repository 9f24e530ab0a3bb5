"""Cycle-accurate simulator: arithmetic units, memories, and both execution
paths against the golden model."""

from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from conftest import (_FC, _RELU, every_kind_net, gap_overflow_model, random_input,
                      random_small_net, shift_edge_model, wide_image_net)
from scgaccel.cyclemodel import (PE_COUNT, LayerCycles, layer_cycles,
                                 network_report, pooled_outputs)
from scgaccel.errors import (AccumulatorOverflow, CapacityError, ConfigError,
                             MemoryFault, ShapeError, SimFault, StateError)
from scgaccel.modeltools import (INPUT_MEM_WORDS, PINGPONG_WORDS, PackedModel,
                                 pack_weight_bytes, random_model,
                                 unpack_weight_bytes)
from scgaccel.modeltools import WEIGHT_MEM_WORDS as WEIGHT_ADDR_LIMIT
from scgaccel.qnn import (GAP_LENGTH, INT32_MAX, INT32_MIN, MAX_REQUANT_SHIFT,
                          LayerSpec, LayerWeights, NetworkSpec, PoolMode,
                          QuantTensor, WeightSet, infer_window, layer_step)
from scgaccel.sim import ResultPacker, SimMachine, mul64signed


def small_nets(rng, count: int, **kw):
    """`count` random small nets, then the net with every layer kind."""
    for _ in range(count):
        yield random_small_net(rng, **kw)
    yield every_kind_net()


# ---------------------------------------------------------------------------
# Serial multiplier
# ---------------------------------------------------------------------------

def test_mul64signed_scalar_matches_array():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = int(rng.integers(INT32_MIN, INT32_MAX + 1))
        b = int(rng.integers(INT32_MIN, INT32_MAX + 1))
        assert mul64signed(a, b) == int(mul64signed(
            np.array([a]), np.array([b]))[0])


# ---------------------------------------------------------------------------
# Memories and packer
# ---------------------------------------------------------------------------

def test_packer_pairs_bytes_and_flushes_tail():
    target = np.zeros(4, dtype=np.uint16)
    packer = ResultPacker(target)
    for byte in (0x11, 0x22, 0x33):
        packer.push(byte)
    packer.flush()
    assert target.tolist() == [0x2211, 0x0033, 0, 0]
    packer.push(0x44)
    packer.push(0x55)
    assert target.tolist() == [0x2211, 0x0033, 0x5544, 0]


def test_packer_overflow_fault():
    packer = ResultPacker(np.zeros(1, dtype=np.uint16))
    packer.push(1)
    packer.push(2)
    with pytest.raises(MemoryFault):
        packer.push(3)
        packer.push(4)


def test_load_input_validation(default_pair):
    _, model, x = default_pair
    machine = SimMachine()
    with pytest.raises(StateError):
        machine.load_input(x)          # no model yet
    machine.load_model(model)
    with pytest.raises(ShapeError):
        machine.load_input(QuantTensor(np.zeros((2, 512), dtype=np.uint8)))
    big = QuantTensor(np.zeros((1, 2048), dtype=np.uint8))
    with pytest.raises((CapacityError, ShapeError)):
        machine.load_input(big)


def test_input_buffer_round_trip(default_pair):
    _, model, x = default_pair
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    got = unpack_weight_bytes(machine.mem.input_words, x.length, x.channels)
    assert np.array_equal(got, x.data)


def test_memories_are_allocated_from_the_memory_map():
    mem = SimMachine().mem
    assert (mem.weight_mem.size, mem.input_words.size, mem.ping.size,
            mem.pong.size) == (WEIGHT_ADDR_LIMIT, INPUT_MEM_WORDS,
                               PINGPONG_WORDS, PINGPONG_WORDS)


@pytest.mark.parametrize("run", [SimMachine.run_inference, SimMachine.run_micro],
                         ids=["fast", "micro"])
def test_layer_i_writes_pong_or_ping_by_parity(rng, run):
    """Layer 0 writes pong and layer 1 ping; layer 2 overwrites pong."""
    net = every_kind_net()
    machine = SimMachine()
    machine.load_model(random_model(net, rng))
    machine.load_input(random_input(rng, net))
    run(machine)
    for li, buf in ((1, machine.mem.ping), (2, machine.mem.pong)):
        img = pack_weight_bytes(machine.read_layer_activation(li).data)
        assert np.array_equal(buf[:img.size], img)


def test_layer_i_reads_the_buffer_layer_i_minus_1_wrote(rng):
    """Zeroing ping once layer 1 has written it zeroes layer 2's input."""
    net = every_kind_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    machine.start()
    while machine.step().layer < 2:    # layer 2's first clock reads nothing
        pass
    machine.mem.ping[:] = 0
    while True:
        try:
            machine.step()
        except StateError:
            break
    spec, ws = model.layers[2], model.to_weight_set()
    zeros = np.zeros((spec.c_in, GAP_LENGTH), dtype=np.uint8)
    expect = layer_step(zeros, 0, spec, ws.layers[2], spec.requant_multiplier,
                        spec.requant_shift)
    assert np.array_equal(machine.read_layer_activation(2).data, expect)
    clean = infer_window(model.to_network_spec(x.length), ws, x)[1][2]
    assert not np.array_equal(clean.data, expect)


def test_load_input_accepts_any_memory_order(rng):
    net = NetworkSpec(layers=(
        LayerSpec(c_in=2, c_out=3, kernel=3, padding=1,
                  pool_mode=PoolMode.MAXPOOL2, **_RELU),
        LayerSpec(c_in=3, c_out=3, **_FC),
    ), input_length=8)
    model = random_model(net, rng)
    x = random_input(rng, net)
    gold, _ = infer_window(model.to_network_spec(net.input_length),
                           model.to_weight_set(), x)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(QuantTensor(np.asfortranarray(x.data), zero_point=x.zero_point))
    sim, _, _ = machine.run_inference()
    assert np.array_equal(sim.values, gold.values)


def test_export_model_round_trip(default_pair):
    _, model, _ = default_pair
    machine = SimMachine()
    machine.load_model(model)
    assert machine.export_model().to_bytes() == model.to_bytes()


# ---------------------------------------------------------------------------
# Fast path vs golden
# ---------------------------------------------------------------------------

def test_fast_cycles_match_analytical_model(rng):
    for _ in range(10):
        net = random_small_net(rng)
        model = random_model(net, rng)
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(random_input(rng, net))
        _, cycles, per_layer = machine.run_inference()
        report = network_report(net, avg_power_mw=None)
        assert cycles == report.total_cycles
        for got, want in zip(per_layer, report.layers):
            assert (got.prime, got.compute, got.requant) \
                == (want.prime, want.compute, want.requant)


def test_batch_overhang_lane_overflow_is_a_fault():
    # L0 sees 4 samples, so its one batch of six has overhang lanes t = 4, 5.
    # Lane 4 sees samples 3, 4, 5: sample 3 is 127 above the zero point and
    # 4, 5 read the zero point, so acc = bias + 127 * 127 overflows there,
    # while every stored lane fits.
    net = NetworkSpec(layers=(
        LayerSpec(c_in=1, c_out=1, kernel=3, padding=1,
                  pool_mode=PoolMode.BYPASS, **_RELU),
        LayerSpec(c_in=1, c_out=3, **_FC),
    ), input_length=4)
    ws = WeightSet(layers=[
        LayerWeights(weights=[[[127, -127, -127]]], biases=[INT32_MAX - 100]),
        LayerWeights(weights=[[[1]], [[-1]], [[2]]], biases=[0, 0, 0]),
    ])
    x = QuantTensor(np.array([[128, 128, 255, 255]], dtype=np.uint8),
                    zero_point=128)
    gold, _ = infer_window(net, ws, x)     # golden never computes lane 4
    assert gold.values.shape == (3,)
    model = PackedModel.from_weights(net, ws)
    for run in (SimMachine.run_inference, SimMachine.run_micro):
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(x)
        with pytest.raises(SimFault):
            run(machine)


def test_overflow_the_maxpool_would_hide_is_a_fault():
    # position 0 is (0 - 128) * 127 below INT32_MIN + 100, so below INT32_MIN,
    # while position 1 reads the zero point and its pair's max, the bias,
    # still fits: a scan of the pooled values alone would miss it
    net = NetworkSpec(layers=(
        LayerSpec(c_in=1, c_out=1, kernel=1, padding=0,
                  pool_mode=PoolMode.MAXPOOL2, **_RELU),
        LayerSpec(c_in=1, c_out=3, **_FC),
    ), input_length=2)
    ws = WeightSet(layers=[
        LayerWeights(weights=[[[127]]], biases=[INT32_MIN + 100]),
        LayerWeights(weights=[[[1]], [[-1]], [[2]]], biases=[0, 0, 0]),
    ])
    x = QuantTensor(np.array([[0, 128]], dtype=np.uint8), zero_point=128)
    with pytest.raises(AccumulatorOverflow):
        infer_window(net, ws, x)
    model = PackedModel.from_weights(net, ws)
    for run in (SimMachine.run_inference, SimMachine.run_micro):
        assert _sim_logits(model, x, run) is SimFault


def _flip_weight_bit(mem):
    mem.weight_mem[0] ^= 1 << 14


def _flip_bias_bit(mem):
    mem.bias_rom[1][0] ^= 1 << 12


def _flip_multiplier_bit(mem):
    m, s = mem.scale_regs[2]
    mem.scale_regs[2] = (m ^ 1 << 28, s)


@pytest.mark.parametrize("upset", [_flip_weight_bit, _flip_bias_bit,
                                   _flip_multiplier_bit],
                         ids=["weight_mem", "bias_rom", "scale_regs"])
def test_fast_path_follows_an_upset_in_memory_between_runs(upset):
    # the fast path reads weights, biases and scales from mem on every run,
    # so a bit flipped after one run reaches the next; the golden model of
    # what the machine now holds is the reference
    rng = np.random.default_rng(2901)
    net = NetworkSpec.default()
    x = random_input(rng, net)
    machine = SimMachine()
    machine.load_model(random_model(net, rng))
    machine.load_input(x)
    before = machine.run_inference()[0].values.tolist()
    upset(machine.mem)
    after = machine.run_inference()[0].values.tolist()
    exported = machine.export_model()
    gold, snaps = infer_window(exported.to_network_spec(), exported.to_weight_set(), x)
    assert after == gold.values.tolist() != before
    for li, snap in enumerate(snaps):
        assert np.array_equal(machine.read_layer_activation(li).data, snap.data)


@pytest.mark.parametrize("c_in, k", [(1, 1), (3, 5), (103, 5)])
def test_overflow_scan_bound_edge_on_both_sim_paths(c_in, k):
    # every product of lane 0 is (0 - 255) * -128 = 32640, so with bias
    # INT32_MAX - C*K*32640 its accumulator is exactly INT32_MAX, and
    # conv1d_acc skips its scan; one more and both paths must fault
    edge = INT32_MAX - c_in * k * 32640
    x = QuantTensor(np.zeros((c_in, 6), dtype=np.uint8), zero_point=255)
    net = NetworkSpec(layers=(
        LayerSpec(c_in=c_in, c_out=1, kernel=k, padding=0,
                  pool_mode=PoolMode.BYPASS, **_RELU),
        LayerSpec(c_in=1, c_out=3, **_FC),
    ), input_length=6)
    for bias, fault in ((edge, False), (edge + 1, True)):
        ws = WeightSet(layers=[
            LayerWeights(weights=np.full((1, c_in, k), -128), biases=[bias]),
            LayerWeights(weights=[[[1]], [[-1]], [[2]]], biases=[0, 0, 0]),
        ])
        model = PackedModel.from_weights(net, ws)
        for run in (SimMachine.run_inference, SimMachine.run_micro):
            if fault:
                assert _sim_logits(model, x, run) is SimFault
            else:
                gold, _ = infer_window(net, ws, x)
                assert _sim_logits(model, x, run) == gold.values.tolist()


def extreme_model(net: NetworkSpec, rng) -> PackedModel:
    """A model on `net` with requant multipliers drawn from INT32_MIN, -1, 1,
    INT32_MAX and a random i32, any shift a layer takes, weights over the
    full i8 range, and about one bias in five at an i32 limit."""
    specs, layers = [], []
    for spec in net.layers:
        mult = [INT32_MIN, -1, 1, INT32_MAX,
                int(rng.integers(INT32_MIN, INT32_MAX + 1))][int(rng.integers(0, 5))]
        specs.append(replace(spec, requant_multiplier=mult,
                             requant_shift=int(rng.integers(0, MAX_REQUANT_SHIFT + 1))))
        biases = rng.integers(-1000, 1000, size=spec.c_out)
        at_limit = rng.random(spec.c_out) < 0.2
        biases[at_limit] = rng.choice([INT32_MIN, INT32_MAX], size=at_limit.sum())
        layers.append(LayerWeights(
            weights=rng.integers(-128, 128, size=(spec.c_out, spec.c_in, spec.kernel)),
            biases=biases))
    return PackedModel.from_weights(
        NetworkSpec(tuple(specs), input_length=net.input_length), WeightSet(layers))


def _sim_logits(model: PackedModel, x: QuantTensor, run):
    """The logits of one run as a list, or SimFault if the run faults."""
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    try:
        return run(machine)[0].values.tolist()
    except SimFault:
        return SimFault


def test_golden_and_both_sim_paths_agree_on_extreme_requant_constants():
    rng = np.random.default_rng(1201)
    outcomes = Counter()
    for _ in range(400):
        net = random_small_net(rng, max_channels=3, max_length=16)
        model = extreme_model(net, rng)
        x = random_input(rng, net)
        fast = _sim_logits(model, x, SimMachine.run_inference)
        assert _sim_logits(model, x, SimMachine.run_micro) == fast
        try:
            gold, _ = infer_window(model.to_network_spec(net.input_length),
                                   model.to_weight_set(), x)
        except AccumulatorOverflow:
            assert fast is SimFault
            outcomes["overflow"] += 1
            continue
        if fast is SimFault:
            # only an overhang lane, which golden never computes, can overflow
            assert any(w % PE_COUNT for w in net.layer_input_lengths())
            outcomes["overhang"] += 1
        else:
            assert fast == gold.values.tolist()
            outcomes["equal"] += 1
    assert set(outcomes) == {"equal", "overflow", "overhang"}


def test_largest_requant_shift_rounds_alike_on_all_three_paths():
    model = shift_edge_model()
    x = QuantTensor(np.full((1, 6), 128, dtype=np.uint8), zero_point=128)
    gold, _ = infer_window(model.to_network_spec(6), model.to_weight_set(), x)
    assert gold.values.tolist() == [1, 0, 0]      # (2^62 + 2^61) >> 62
    for run in (SimMachine.run_inference, SimMachine.run_micro):
        assert _sim_logits(model, x, run) == [1, 0, 0]


def _assert_refused_load_keeps_the_last_input(machine, x, error, match):
    """load_input(x) raises `error` and leaves the input buffer, the last run
    and the loaded input's next run as they were."""
    words = machine.mem.input_words.copy()
    logits, cycles = machine.last_logits, machine.last_cycles
    with pytest.raises(error, match=match):
        machine.load_input(x)
    assert np.array_equal(machine.mem.input_words, words)
    assert machine.last_logits is logits
    rerun, rerun_cycles, _ = machine.run_inference()
    assert (rerun.values.tolist(), rerun_cycles) == (logits.values.tolist(), cycles)


# maxpool layer 0 cannot take 7 samples; at 64 the GAP layer (2) gets 32
@pytest.mark.parametrize("length, match", [
    (7, "maxpool input length 7 must be even"),
    (GAP_LENGTH, f"GAP unit is hardwired for length {GAP_LENGTH}, got 32"),
], ids=["odd-maxpool", "short-gap"])
def test_a_length_the_layers_cannot_run_is_refused_where_it_enters(rng, length,
                                                                   match):
    net = every_kind_net()
    with pytest.raises(ConfigError, match=match):
        NetworkSpec(net.layers, input_length=length)
    model = random_model(net, rng)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(random_input(rng, net))
    machine.run_inference()
    x = QuantTensor(rng.integers(0, 256, (1, length), dtype=np.uint8))
    _assert_refused_load_keeps_the_last_input(machine, x, ConfigError, match)


def test_an_image_over_the_pingpong_buffer_is_refused_at_load(rng):
    net = wide_image_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert gold.values.shape == (3,)
    machine = SimMachine()
    machine.load_model(model)
    # 504 samples leave layer 0 an image of 65 * 252 = 16,380 words
    machine.load_input(QuantTensor(x.data[:, :504]))
    machine.run_inference()
    _assert_refused_load_keeps_the_last_input(
        machine, QuantTensor(x.data[:, :505]), ShapeError,
        "layer 0: 16445-word output image overflows the ping-pong buffer")
    _assert_refused_load_keeps_the_last_input(machine, x, ShapeError, "ping-pong")


def test_rerun_is_deterministic(default_pair):
    _, model, x = default_pair
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    first, cycles_a, _ = machine.run_inference()
    second, cycles_b, _ = machine.run_inference()
    assert np.array_equal(first.values, second.values)
    assert cycles_a == cycles_b


def test_a_returned_cycle_record_cannot_be_edited(default_pair):
    # a run hands out the records of its plan, so an edited record would
    # reach every later run
    net, model, x = default_pair
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    _, _, split = machine.run_inference()
    with pytest.raises(FrozenInstanceError):
        split[0].prime = 0
    report = network_report(net)
    _, cycles, split = machine.run_inference()
    assert (cycles, split) == (report.total_cycles, report.layers)


# ---------------------------------------------------------------------------
# Micro (per-cycle) path
# ---------------------------------------------------------------------------

def test_micro_path_matches_fast_path(rng):
    for net in small_nets(rng, 6, max_channels=6, max_length=24):
        model = random_model(net, rng)
        x = random_input(rng, net)
        fast = SimMachine()
        fast.load_model(model)
        fast.load_input(x)
        fl, fc, fsplit = fast.run_inference()
        micro = SimMachine()
        micro.load_model(model)
        micro.load_input(x)
        ml, mc, msplit = micro.run_micro()
        assert np.array_equal(fl.values, ml.values)
        assert fc == mc
        assert [(a.prime, a.compute, a.requant) for a in fsplit] \
            == [(b.prime, b.compute, b.requant) for b in msplit]
        for i in range(len(net.layers) - 1):
            assert np.array_equal(fast.read_layer_activation(i).data,
                                  micro.read_layer_activation(i).data)


# the default window is stepped clock by clock once, in the acceptance suite
@pytest.mark.parametrize("net, run", [
    (NetworkSpec.default(), SimMachine.run_inference),
    (every_kind_net(), SimMachine.run_inference),
    (every_kind_net(), SimMachine.run_micro),
], ids=["default-fast", "every_kind-fast", "every_kind-micro"])
def test_layer_cycles_hold_counts_and_derive_the_rest(net, run):
    # a layer's split holds only what the path counted; its array efficiency
    # and output count follow from those counts
    assert [f.name for f in fields(LayerCycles)] \
        == ["prime", "compute", "requant", "n_batches"]
    rng = np.random.default_rng(27)
    machine = SimMachine()
    machine.load_model(random_model(net, rng))
    machine.load_input(random_input(rng, net))
    _, _, split = run(machine)
    for spec, w_in, lc in zip(net.layers, net.layer_input_lengths(), split,
                              strict=True):
        n_batches = -(-w_in // PE_COUNT)
        assert lc.n_batches == n_batches
        assert lc.array_eff == spec.kernel / (spec.kernel + 7)
        assert lc.n_outputs == pooled_outputs(spec, w_in, n_batches)


def test_micro_mac_count_is_six_per_compute_cycle(rng):
    net = random_small_net(rng, max_channels=4, max_length=12)
    model = random_model(net, rng)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(random_input(rng, net))
    _, _, split = machine.run_micro()
    assert machine.mac_count == 6 * sum(lc.compute for lc in split)
    # the vectorized path accounts identically
    machine.run_inference()
    assert machine.mac_count == 6 * sum(lc.compute for lc in split)


def test_trace_is_reproducible(rng):
    net = random_small_net(rng, max_channels=4, max_length=12)
    model = random_model(net, rng)
    x = random_input(rng, net)
    traces = []
    for _ in range(2):
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(x)
        machine.start()
        traces.append([machine.step().to_json() for _ in range(100)])
    assert traces[0] == traces[1]
    # events carry monotonically increasing cycle numbers
    cycles = [__import__("json").loads(e)["cycle"] for e in traces[0]]
    assert cycles == list(range(cycles[0], cycles[0] + 100))


@pytest.mark.parametrize("first", ["fast", "micro", "faulted-micro"])
def test_a_run_numbers_its_first_clock_after_the_last_run(rng, first):
    net = every_kind_net()
    model = random_model(net, rng)
    if first == "faulted-micro":
        model = gap_overflow_model(model)
    events = []
    machine = SimMachine(trace_sink=events.append)
    machine.load_model(model)
    machine.load_input(random_input(rng, net))
    if first == "fast":
        _, last, _ = machine.run_inference()     # the counter starts at 0
    elif first == "micro":
        machine.run_micro()
        last = events[-1].cycle
    else:
        with pytest.raises(SimFault, match="layer 2") as fault:
            machine.run_micro()
        last = events[-1].cycle
        assert str(fault.value).endswith(f"at cycle {last}")
    machine.start()
    assert machine.step().cycle == last + 1


def test_run_micro_hands_the_sink_the_events_step_returns():
    rng = np.random.default_rng(4242)
    net = every_kind_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    sunk = []
    sinking = SimMachine(trace_sink=lambda event: sunk.append(event.to_json()))
    stepping = SimMachine()
    for machine in (sinking, stepping):
        machine.load_model(model)
        machine.load_input(x)
    sinking.run_micro()
    stepping.start()
    stepped = []
    while True:
        try:
            stepped.append(stepping.step().to_json())
        except StateError:
            break
    assert len(stepped) == network_report(net).total_cycles
    assert sunk == stepped


def test_trace_event_counts_match_split_and_fetch_rule(rng):
    for net in small_nets(rng, 3, max_channels=4, max_length=24):
        model = random_model(net, rng)
        x = random_input(rng, net)
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(x)
        machine.start()
        states, weight_reads, act_reads = Counter(), Counter(), Counter()
        while True:
            try:
                event = machine.step()
            except StateError:
                break
            states[event.layer, event.state] += 1
            for read in event.reads:
                if read["mem"] == "weight":
                    weight_reads[event.layer] += 1
                else:
                    act_reads[event.layer, event.c_out, event.batch,
                              event.c_in] += 1
        _, _, split = machine.run_micro()
        for li, (spec, w_in) in enumerate(zip(net.layers,
                                              net.layer_input_lengths())):
            want = layer_cycles(spec, w_in)
            got = tuple(states[li, s] for s in ("prime", "compute", "requant"))
            assert got == (split[li].prime, split[li].compute, split[li].requant)
            assert got == (want.prime, want.compute, want.requant)
            # a word is fetched at an even weight index or a group's first tap
            fetches = sum(idx % 2 == 0 or idx % spec.kernel == 0
                          for idx in range(spec.c_out * spec.c_in * spec.kernel))
            assert weight_reads[li] == want.n_batches * fetches
            groups = [key for key in act_reads if key[0] == li]
            assert len(groups) == spec.c_out * want.n_batches * spec.c_in
            assert all(act_reads[key] == PE_COUNT for key in groups)


def test_micro_path_reads_activation_memory_live(rng):
    # no snapshot: a write to the input buffer mid-run reaches every later read
    net = every_kind_net()
    model = random_model(net, rng)
    # window B shares A's zero point, which the run took when it started
    xa = random_input(rng, net)
    windows = [xa, QuantTensor(random_input(rng, net).data, zero_point=xa.zero_point)]
    fast = []
    for x in windows:
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(x)
        machine.run_inference()
        fast.append(machine)
    a, b = (m.read_layer_activation(0).data for m in fast)
    assert not np.array_equal(a[0], b[0]) and not np.array_equal(a[1:], b[1:])
    micro = SimMachine()
    micro.load_model(model)
    micro.load_input(windows[0])
    micro.start()
    while True:
        event = micro.step()
        if event.layer == 0 and event.c_out == 1:
            break
    micro.mem.input_words[:] = fast[1].mem.input_words    # window B's image
    while True:
        try:
            micro.step()
        except StateError:
            break
    got = micro.read_layer_activation(0).data
    assert np.array_equal(got[0], a[0])
    assert np.array_equal(got[1:], b[1:])


def _layer0_image(model: PackedModel, x: QuantTensor, run=SimMachine.run_inference,
                  at=None, write=None) -> np.ndarray:
    """Layer 0's ReLU image after one run; with `at`, a micro run that calls
    `write(machine)` right after the first clock whose event `at` accepts."""
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    if at is None:
        run(machine)
        return machine.read_layer_activation(0).data
    machine.start()
    while not at(machine.step()):
        pass
    write(machine)
    while True:
        try:
            machine.step()
        except StateError:
            break
    return machine.read_layer_activation(0).data


def test_micro_path_reads_a_weight_word_at_its_fetch_clock(rng):
    # layer 0 (K = 9) fetches word 0, weights 0 and 1 of output channel 0,
    # at its tap 0, and tap 1 takes weight 1 from the held word; a write
    # after batch 0's fetch reaches batch 1 on, and not batch 0's tap 1
    net = every_kind_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    addr = model.layer_word_base[0]
    word = int(model.weight_words[addr])
    new_word, high_only = word ^ 0x8080, word ^ 0x8000

    def with_word(w):
        words = model.weight_words.copy()
        words[addr] = w
        return replace(model, weight_words=words)
    a, b, h = (_layer0_image(m, x) for m in
               (model, with_word(new_word), with_word(high_only)))
    # batch 0 (pooled positions 0..2) tells the held word from a re-read
    assert not np.array_equal(a[0, :3], h[0, :3])
    assert not np.array_equal(a[0, 3:], b[0, 3:])

    def fetched(event):
        return event.layer == 0 and {"mem": "weight", "addr": addr} in event.reads

    def overwrite(machine):
        machine.mem.weight_mem[addr] = new_word
    got = _layer0_image(model, x, at=fetched, write=overwrite)
    assert np.array_equal(got[0, :3], a[0, :3])
    assert np.array_equal(got[0, 3:], b[0, 3:])
    assert np.array_equal(got[1:], a[1:])


def test_micro_path_reads_a_bias_at_its_groups_bias_clock(rng):
    # output channel 0 of layer 0 loads its bias at the first clock of each
    # batch's group; a write after batch 0's reaches batch 1 on
    net = every_kind_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    biases = [bias.copy() for bias in model.biases]
    biases[0][0] -= 1 << 13
    a, b = _layer0_image(model, x), _layer0_image(replace(model, biases=biases), x)
    assert not np.array_equal(a[0, :3], b[0, :3])
    assert not np.array_equal(a[0, 3:], b[0, 3:])

    def bias_clock(event):
        return event.layer == 0 and event.c_out == 0 and event.note == "bias"

    def overwrite(machine):
        machine.mem.bias_rom[0][0] = biases[0][0]
    got = _layer0_image(model, x, at=bias_clock, write=overwrite)
    assert np.array_equal(got[0, :3], a[0, :3])
    assert np.array_equal(got[0, 3:], b[0, 3:])
    assert np.array_equal(got[1:], a[1:])


def test_neighbouring_lanes_at_opposite_extremes_of_the_reach():
    # every weight is -128 and the window alternates 0 and 255 about zero
    # point 128, so neighbouring lanes sum to +103 * 128 * 128 and
    # -103 * 128 * 127 before the bias, and a borrow out of each negative
    # lane's sum would cross into its neighbour.  Requant is the identity and
    # each bias puts one lane of a pair inside [0, 255], so the ReLU image
    # shows a lane that is off by one.
    c_in, reach = 103, 103 * 128
    net = NetworkSpec(layers=(
        LayerSpec(c_in=c_in, c_out=3, kernel=1, padding=0,
                  pool_mode=PoolMode.BYPASS, **_RELU),
        LayerSpec(c_in=3, c_out=3, **_FC),
    ), input_length=8)
    ws = WeightSet(layers=[
        LayerWeights(weights=np.full((3, c_in, 1), -128),
                     biases=[100 - reach * 128, 37 + reach * 127,
                             255 - reach * 128]),
        LayerWeights(weights=[[[1], [-1], [2]], [[-2], [1], [0]], [[3], [0], [-1]]],
                     biases=[0, 5, -5]),
    ])
    x = QuantTensor(np.tile(np.array([0, 255], dtype=np.uint8), (c_in, 4)),
                    zero_point=128)
    gold, snapshots = infer_window(net, ws, x)
    assert snapshots[0].data.tolist() == [[100, 0] * 4, [255, 37] * 4,
                                          [255, 0] * 4]
    model = PackedModel.from_weights(net, ws)
    for run in (SimMachine.run_inference, SimMachine.run_micro):
        assert _sim_logits(model, x, run) == gold.values.tolist()
        assert np.array_equal(_layer0_image(model, x, run), snapshots[0].data)


def test_step_after_a_micro_fault_is_refused(rng):
    # the GAP layer (2) overflows its accumulator when the run gets there
    net = every_kind_net()
    machine = SimMachine()
    machine.load_model(gap_overflow_model(random_model(net, rng)))
    machine.load_input(random_input(rng, net))
    machine.start()
    with pytest.raises(SimFault, match="layer 2"):
        while True:
            machine.step()
    with pytest.raises(StateError, match="already complete"):
        machine.step()
    assert machine.last_logits is None
    with pytest.raises(StateError, match="has not been executed"):
        machine.read_layer_activation(2)


def test_step_requires_start(default_pair):
    _, model, x = default_pair
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    with pytest.raises(StateError):
        machine.step()


def test_step_after_another_run_is_refused(default_pair):
    # run_inference drops the micro run it overtakes; it cannot be resumed
    _, model, x = default_pair
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    machine.start()
    for _ in range(5):
        machine.step()
    machine.run_inference()
    with pytest.raises(StateError, match="idle"):
        machine.step()


@pytest.mark.parametrize("run", [SimMachine.run_inference, SimMachine.run_micro],
                         ids=["fast", "micro"])
def test_a_faulted_run_reports_only_the_layers_it_completed(rng, run):
    # the same window on a model whose GAP layer (2) overflows
    net = every_kind_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    run(machine)
    assert machine.read_layer_activation(1).data.any()
    assert machine.read_layer_activation(2).length == 1
    machine.load_model(gap_overflow_model(model))
    machine.load_input(x)
    with pytest.raises(SimFault, match="layer 2"):
        run(machine)
    assert machine.last_logits is None
    assert machine.read_layer_activation(0).length == GAP_LENGTH
    assert machine.read_layer_activation(1).length == GAP_LENGTH
    for layer in (2, 3):
        with pytest.raises(StateError, match="has not been executed"):
            machine.read_layer_activation(layer)


def test_read_layer_activation_errors(default_pair):
    _, model, x = default_pair
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    with pytest.raises(StateError):
        machine.read_layer_activation(0)   # nothing executed yet
    machine.run_inference()
    with pytest.raises(StateError):
        machine.read_layer_activation(4)   # signed output layer
    with pytest.raises(StateError):
        machine.read_layer_activation(9)


@pytest.mark.parametrize("layer", [-1, -2, -9])
def test_read_layer_activation_refuses_a_negative_index(default_pair, layer):
    # -2 would name layer 3 of the 5 by Python indexing, and -9 none at all
    _, model, x = default_pair
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    machine.run_inference()
    with pytest.raises(StateError, match=f"layer {layer} "):
        machine.read_layer_activation(layer)


def test_run_requires_model_and_input():
    machine = SimMachine()
    with pytest.raises(StateError):
        machine.run_inference()


@pytest.mark.parametrize("call, message", [
    (lambda m: m.load_input(QuantTensor(np.zeros((1, 8)))),
     "load a model before the input window"),
    (SimMachine.start, "model and input must be loaded before running"),
    (SimMachine.export_model, "no model loaded"),
], ids=["load-input", "start", "export-model"])
def test_a_machine_with_no_model_refuses(call, message):
    with pytest.raises(StateError, match=f"^{message}$"):
        call(SimMachine())


# ---------------------------------------------------------------------------
# Run state: what the machine reports after any sequence of calls
# ---------------------------------------------------------------------------

class RunStates(RuleBasedStateMachine):
    """SimMachine against a model of its last run on small random nets.

    The model holds the current net and model, the golden logits and
    snapshots of the current input (None before one is loaded), how many
    layers the current run completed, and whether start() began it and its
    stepper has not yet ended.
    """

    def __init__(self):
        super().__init__()
        self.machine = SimMachine()

    def _drop_run(self):
        self.layers_done, self.stepping = 0, False

    def _set_net(self, net):
        self.net = net
        # the clock each layer's last cycle falls on, counted from the start
        self.layer_ends = np.cumsum([lc.total for lc in network_report(net).layers])

    @initialize(seed=st.integers(0, 2**32 - 1))
    def load_model_and_input(self, seed):
        self.load_model(seed)
        self.load_input(seed)

    @rule(seed=st.integers(0, 2**32 - 1))
    def load_model(self, seed):
        rng = np.random.default_rng(seed)
        self._set_net(random_small_net(rng, max_channels=3, max_length=16))
        self.model = random_model(self.net, rng)
        self.machine.load_model(self.model)
        self.golden = None
        self._drop_run()

    @rule(seed=st.integers(0, 2**32 - 1))
    def load_input(self, seed):
        self._load(random_input(np.random.default_rng(seed), self.net))

    def _load(self, x):
        self.machine.load_input(x)
        self.golden = infer_window(self.model.to_network_spec(self.net.input_length),
                                   self.model.to_weight_set(), x)
        self._drop_run()

    @rule(seed=st.integers(0, 2**32 - 1))
    def load_window_of_any_length(self, seed):
        # load_input refuses exactly the lengths NetworkSpec refuses, and a
        # refused window leaves the last run and its stepper as they were
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 2 * self.net.input_length + 1))
        x = QuantTensor(rng.integers(0, 256, (self.net.layers[0].c_in, length),
                                     dtype=np.uint8))
        try:
            net = NetworkSpec(self.net.layers, input_length=length)
        except ConfigError:
            logits = self.machine.last_logits
            with pytest.raises(ConfigError):
                self.machine.load_input(x)
            assert self.machine.last_logits is logits
            return
        self._set_net(net)
        self._load(x)

    @rule()
    def run_inference(self):
        self._run(self.machine.run_inference)

    @rule()
    def run_micro(self):
        self._run(self.machine.run_micro)

    def _run(self, run):
        if self.golden is None:
            with pytest.raises(StateError):
                run()
            return
        logits, cycles, split = run()
        assert logits is self.machine.last_logits
        assert cycles == self.machine.last_cycles == self.layer_ends[-1]
        assert len(split) == len(self.net.layers)
        self._drop_run()
        self.layers_done = len(self.net.layers)

    @rule()
    def start(self):
        if self.golden is None:
            with pytest.raises(StateError):
                self.machine.start()
            return
        self.machine.start()
        self._drop_run()
        self.stepping, self.steps = True, 0

    @rule(k=st.integers(1, 400))
    def step(self, k):
        for _ in range(k):
            if not self.stepping or self.steps == self.layer_ends[-1]:
                with pytest.raises(StateError):
                    self.machine.step()
                if self.stepping:     # the step that ends the run
                    self.stepping, self.layers_done = False, len(self.net.layers)
                continue
            event = self.machine.step()
            self.steps += 1
            # a layer is recorded when the clock after its last one is taken
            self.layers_done = int(np.sum(self.layer_ends < self.steps))
            assert event.layer == self.layers_done

    @invariant()
    def logits_only_for_a_completed_run(self):
        if self.layers_done == len(self.net.layers):
            assert np.array_equal(self.machine.last_logits.values,
                                  self.golden[0].values)
        else:
            assert self.machine.last_logits is None

    @invariant()
    def activations_only_for_completed_layers(self):
        n = len(self.net.layers)
        for layer in range(-1, n + 1):
            # the head's logits are no activation
            if 0 <= layer < min(self.layers_done, n - 1):
                got = self.machine.read_layer_activation(layer)
                assert np.array_equal(got.data, self.golden[1][layer].data)
            else:
                with pytest.raises(StateError):
                    self.machine.read_layer_activation(layer)

    @invariant()
    def macs_of_completed_layers(self):
        done = network_report(self.net).layers[:self.layers_done]
        assert self.machine.mac_count == PE_COUNT * sum(lc.compute for lc in done)


RunStates.TestCase.settings = settings(max_examples=40, stateful_step_count=25,
                                       deadline=None)
test_run_states = RunStates.TestCase
