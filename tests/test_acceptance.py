"""Acceptance gate: the full criteria list with pinned tolerances.

The "Published figures" section of README.md lists every number the paper
publishes, the twin's derivation of it and the criterion here that pins it
(criteria 1 to 5 and 10).  This module is the one home of those figures: the
last test fails if another test file states one.  Criteria 6 to 9 are the one
home of the self-check sweeps: golden against the fast path, the serial
multiplier, the op oracles and the protocol; the unit tests keep only what
these do not check.  The one deliberately failing check (the published
third-layer system efficiency) is a strict xfail, and that section records
why.
"""

import itertools
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import every_kind_net, random_input, random_small_net
from scgaccel.cyclemodel import network_report
from scgaccel.link import (Command, DeviceEmulator, Frame, HostClient,
                           serve_in_thread)
from scgaccel.metrics import evaluate, summary_from_confusion, synth_windows
from scgaccel.modeltools import random_model
from scgaccel.pipeline import build_reference_model, golden_predict
from scgaccel.qnn import INT32_MAX, INT32_MIN, NetworkSpec, infer_window
from scgaccel.sim import SimMachine, mul64signed
from test_link import _CorruptingTransport
from test_qnn import (oracle_conv, oracle_gap, oracle_maxpool2,
                      oracle_requant)


def test_criterion_1_table_reproduction_exact():
    start = time.monotonic()
    report = network_report(NetworkSpec.default())
    got = [(lc.prime, lc.compute, lc.requant) for lc in report.layers]
    assert got == [(9_632, 12_384, 24_768), (154_112, 198_144, 24_768),
                   (315_392, 405_504, 25_344), (630_784, 450_560, 768),
                   (2_688, 384, 18)]
    assert (report.total_prime, report.total_compute, report.total_requant) \
        == (1_112_608, 1_066_976, 75_666)
    assert time.monotonic() - start < 1.0


def test_criterion_1_table_counted_clock_by_clock():
    # the per-clock machine, not the cycle model, counts the published
    # network: one seeded default window, every clock stepped
    rng = np.random.default_rng(2026)
    net = NetworkSpec.default()
    model = random_model(net, rng)
    x = random_input(rng, net)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    logits, cycles, split = machine.run_micro()
    assert [(lc.prime, lc.compute, lc.requant) for lc in split] \
        == [(9_632, 12_384, 24_768), (154_112, 198_144, 24_768),
            (315_392, 405_504, 25_344), (630_784, 450_560, 768),
            (2_688, 384, 18)]
    # whole records, batch counts included, against the cycle model
    assert split == network_report(net).layers
    assert cycles == 2_255_250
    assert machine.mac_count == 6 * 1_066_976
    gold, snaps = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert np.array_equal(logits.values, gold.values)
    assert len(snaps) == 4
    for li, snap in enumerate(snaps):
        assert np.array_equal(machine.read_layer_activation(li).data, snap.data)


def test_criterion_2_latency_fps():
    report = network_report(NetworkSpec.default())
    assert report.total_cycles == 2_255_250
    assert report.latency_s * 1e3 == pytest.approx(93.97, abs=0.005)
    assert report.fps == pytest.approx(10.64, abs=0.005)
    # "approximately 2.26M cycles" within 1%
    assert report.total_cycles == pytest.approx(2.26e6, rel=0.01)


def test_criterion_3_throughput_derivation():
    report = network_report(NetworkSpec.default(), measured_latency_s=0.0955)
    assert report.total_macs == 6 * 1_066_976
    assert abs(report.mmacs_per_s - 67.0) <= 0.05
    assert abs(report.mops_per_s - 134.0) <= 0.1


def test_criterion_4_energy_derivation():
    report = network_report(NetworkSpec.default(), avg_power_mw=8.55,
                            measured_latency_s=0.0955)
    assert report.energy_uj == pytest.approx(816.5, abs=0.05)
    # within 1% of the published 819.1 uJ (residual: power rounding)
    assert abs(report.energy_uj - 819.1) / 819.1 < 0.01


def test_criterion_5_efficiency_formulas():
    # the default net's kernels are 9, 9, 9, 5 and 1
    report = network_report(NetworkSpec.default())
    assert round(report.layers[0].array_eff * 100, 2) == 56.25
    assert round(report.layers[3].array_eff * 100, 2) == pytest.approx(41.67)
    assert round(report.layers[4].array_eff * 100, 2) == 12.5
    effs = [round(lc.sys_eff * 100, 1) for lc in report.layers[:3]]
    assert effs[0] == 26.5
    assert effs[1] == 52.6
    assert effs[2] == 54.3


@pytest.mark.xfail(strict=True, reason="published third-layer system "
                   "efficiency (53.3%) is inconsistent with its own "
                   "formula: 405,504 / 746,240 = 54.3%; see README.md, "
                   "Published figures")
def test_criterion_5_published_l2_system_efficiency():
    report = network_report(NetworkSpec.default())
    assert round(report.layers[2].sys_eff * 100, 1) == 53.3


def test_criterion_6_golden_sim_bitexact_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    default_net = NetworkSpec.default()
    nets = itertools.chain([default_net] * 100,
                           (random_small_net(rng) for _ in range(100)),
                           [every_kind_net()])
    for trial, net in enumerate(nets):
        model = random_model(net, rng)
        x = random_input(rng, net)
        gold, snaps = infer_window(model.to_network_spec(net.input_length),
                                   model.to_weight_set(), x)
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(x)
        sim, cycles, _ = machine.run_inference()
        assert np.array_equal(gold.values, sim.values), f"trial {trial}"
        if net is default_net:
            assert cycles == 2_255_250, f"trial {trial}"
        for i, snap in enumerate(snaps):
            assert np.array_equal(machine.read_layer_activation(i).data,
                                  snap.data), f"trial {trial} layer {i}"
    assert time.monotonic() - start < 60.0


def test_criterion_7_serial_multiplier_oracle():
    rng = np.random.default_rng(7)
    a = rng.integers(INT32_MIN, INT32_MAX + 1, size=1_000_000, dtype=np.int64)
    b = rng.integers(INT32_MIN, INT32_MAX + 1, size=1_000_000, dtype=np.int64)
    assert np.array_equal(mul64signed(a, b), a * b)
    edges = [0, 1, -1, 1 << 15, -(1 << 15), (1 << 15) - 1, -((1 << 15) - 1),
             INT32_MAX, INT32_MIN, INT32_MIN + 1, INT32_MAX - 1]
    for x in edges:
        for y in edges:
            assert mul64signed(x, y) == x * y, (x, y)


def test_criterion_8_op_oracles_1000_instances():
    from scgaccel.qnn import (Activation, LayerKind, LayerSpec, LayerWeights,
                              GAP_LENGTH, PoolMode, QuantTensor, conv1d_acc,
                              gap_shift_acc, maxpool2_acc, requantize)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        # conv
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5, 9]))
        w_in = int(rng.integers(1, 13))
        pad = int(rng.integers(0, k + 1))
        zp = int(rng.integers(0, 256))
        x = rng.integers(0, 256, size=(c_in, w_in), dtype=np.uint8)
        w = rng.integers(-127, 128, size=(c_out, c_in, k)).astype(np.int8)
        bias = rng.integers(-(1 << 20), 1 << 20, size=c_out).astype(np.int32)
        spec = LayerSpec(kind=LayerKind.CONV1D, c_in=c_in, c_out=c_out,
                         kernel=k, padding=pad, pool_mode=PoolMode.BYPASS,
                         activation=Activation.RELU_SATURATE)
        acc = conv1d_acc(QuantTensor(x, zero_point=zp), spec,
                         LayerWeights(weights=w, biases=bias))
        assert acc.tolist() == oracle_conv(x.tolist(), zp, w.tolist(),
                                           bias.tolist(), pad)
        # maxpool, of the conv output and of a full-i32 map
        assert maxpool2_acc(acc).tolist() == oracle_maxpool2(acc.tolist())
        pacc = rng.integers(INT32_MIN, INT32_MAX, size=(
            int(rng.integers(1, 5)), int(rng.integers(1, 17))))
        assert maxpool2_acc(pacc).tolist() == oracle_maxpool2(pacc.tolist())
        # gap
        gacc = rng.integers(INT32_MIN, INT32_MAX,
                            size=(int(rng.integers(1, 6)), GAP_LENGTH))
        assert gap_shift_acc(gacc).tolist() == oracle_gap(gacc.tolist())
        # requant
        value = int(rng.integers(INT32_MIN, INT32_MAX))
        mult = int(rng.integers(1, INT32_MAX))
        shift = int(rng.integers(0, 64))
        signed = bool(rng.integers(0, 2))
        act = Activation.SIGNED_BYPASS if signed else Activation.RELU_SATURATE
        assert int(requantize(np.array([value]), mult, shift, act)[0]) \
            == oracle_requant(value, mult, shift, signed)


def test_criterion_9_protocol_end_to_end():
    rng = np.random.default_rng(9)
    net = NetworkSpec.default()
    model = random_model(net, rng)
    x = random_input(rng, net)
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)

    # scripted LOAD -> VERIFY -> RUN session
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(host_end, timeout=30.0)
    try:
        client.load_model(model)
        client.verify(model)
        remote, cycles = client.run(x)
    finally:
        client.close()
    assert np.array_equal(remote.values, gold.values)
    assert cycles == 2_255_250

    # one injected corrupted frame recovered via retransmission
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(_CorruptingTransport(host_end, corrupt_send=2),
                        timeout=30.0)
    try:
        client.load_model(model)
        remote, _ = client.run(x)
    finally:
        client.close()
    assert np.array_equal(remote.values, gold.values)

    # 10^4 fuzzed frames of known commands, then 10^4 of any command byte,
    # never crash the service, and each gets one reply on its own seq
    device = DeviceEmulator()
    fuzz = np.random.default_rng(90)
    for i in range(20_000):
        command = (Command(int(fuzz.choice([c.value for c in Command])))
                   if i < 10_000 else int(fuzz.integers(0, 256)))
        seq = int(fuzz.integers(0, 256))
        reply = device.handle_frame(Frame(
            command, seq=seq,
            payload=fuzz.integers(0, 256, size=int(fuzz.integers(0, 80)),
                                  dtype=np.uint8).tobytes()))
        assert reply.command in (Command.ACK, Command.NACK, Command.RESULT)
        assert reply.seq == seq


def test_criterion_10_metrics_reproduction():
    published = np.array([[9469, 39, 383], [55, 9914, 125], [44, 45, 9926]])
    summary = summary_from_confusion(published)
    assert abs(summary.accuracy * 100 - 97.70) <= 0.01
    recalls = [round(float(r) * 100, 2) for r in summary.recall]
    assert recalls == [95.73, 98.22, 99.11]
    assert summary.confusion.sum() == 30_000
    assert int(np.trace(summary.confusion)) == 29_309
    # same numbers via the prediction-level entry point
    labels = np.repeat([0, 1, 2], published.sum(axis=1))
    preds = np.concatenate([np.repeat([0, 1, 2], row) for row in published])
    assert np.array_equal(evaluate(labels, pred_classes=preds).confusion,
                          published)


def test_criterion_11_constructed_model_over_90_percent():
    calib = synth_windows(192, seed=11)
    model, logit_scale = build_reference_model(calib)
    test = synth_windows(300, seed=99)
    _, probs, _ = golden_predict(model, test.windows, logit_scale)
    summary = evaluate(test.labels, probs=probs)
    assert summary.accuracy > 0.90


# README's "Published figures": the four-or-more-digit counts of the cycle
# table and the confusion matrix, and the decimals
PUBLISHED_COUNTS = (9_632, 12_384, 24_768, 154_112, 198_144, 315_392, 405_504,
                    25_344, 630_784, 450_560, 2_688, 1_112_608, 1_066_976,
                    75_666, 2_255_250, 9_469, 9_914, 9_926)
PUBLISHED_DECIMALS = ("93.97", "10.64", "67.0", "134.0", "816.5", "819.1",
                      "56.25", "41.67", "26.5", "52.6", "54.3", "53.3",
                      "97.70", "95.73", "98.22", "99.11")


def test_published_figures_are_stated_only_here():
    # each count in plain, `_` and `,` form; a figure is a whole number, so
    # one inside a longer number or a hex digest does not count
    forms = {form for n in PUBLISHED_COUNTS
             for form in (str(n), f"{n:_}", f"{n:,}")}
    figure = re.compile(r"(?<!\w)(?<!\d[.,])(?:"
                        + "|".join(map(re.escape, forms | set(PUBLISHED_DECIMALS)))
                        + r")(?!\w|[.,]\d)")
    here = Path(__file__)
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(here.parent.glob("*.py")) if path != here
             for n, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             if figure.search(line)]
    assert not found, "published figures outside the acceptance suite:\n" \
        + "\n".join(found)
