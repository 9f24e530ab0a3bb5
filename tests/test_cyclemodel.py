"""Analytical cycle model against the published per-layer breakdown."""

import math

import pytest

from scgaccel.cyclemodel import (DEFAULT_CLOCK_HZ, PE_COUNT, layer_cycles,
                                 network_report, peak_mmacs)
from scgaccel.errors import ConfigError
from scgaccel.qnn import NetworkSpec

# The published per-layer breakdown, frozen: (prime, compute, requant).
TABLE = [
    (9_632, 12_384, 24_768),
    (154_112, 198_144, 24_768),
    (315_392, 405_504, 25_344),
    (630_784, 450_560, 768),
    (2_688, 384, 18),
]
TOTALS = (1_112_608, 1_066_976, 75_666)
GRAND_TOTAL = 2_255_250


def test_published_table_exact():
    report = network_report(NetworkSpec.default())
    got = [(lc.prime, lc.compute, lc.requant) for lc in report.layers]
    assert got == TABLE
    assert (report.total_prime, report.total_compute,
            report.total_requant) == TOTALS
    assert report.total_cycles == GRAND_TOTAL


def test_latency_fps_at_default_clock():
    report = network_report(NetworkSpec.default())
    assert report.latency_s * 1e3 == pytest.approx(93.97, abs=0.005)
    assert report.fps == pytest.approx(10.64, abs=0.005)


def test_throughput_and_energy_from_measured_latency():
    report = network_report(NetworkSpec.default(), measured_latency_s=0.0955)
    assert report.total_macs == 6 * 1_066_976
    assert report.mmacs_per_s == pytest.approx(67.0, abs=0.05)
    assert report.mops_per_s == pytest.approx(134.0, abs=0.1)
    assert report.energy_uj == pytest.approx(816.5, abs=0.05)


def test_array_efficiency_by_kernel():
    # the default net's kernels are 9, 9, 9, 5 and 1
    layers = network_report(NetworkSpec.default()).layers
    assert layers[0].array_eff == pytest.approx(0.5625)
    assert layers[3].array_eff == pytest.approx(5 / 12)
    assert layers[4].array_eff == pytest.approx(0.125)


def test_system_efficiency_rounded():
    report = network_report(NetworkSpec.default())
    effs = [round(lc.sys_eff * 100, 1) for lc in report.layers]
    assert effs[0] == 26.5
    assert effs[1] == 52.6
    assert effs[2] == 54.3     # frozen computed value; see decisions ledger


def test_prime_compute_linear_in_batches():
    net = NetworkSpec.default()
    lc = layer_cycles(net.layers[0], 512)
    n_batches = math.ceil(512 / PE_COUNT)
    assert lc.n_batches == n_batches
    assert lc.prime == net.layers[0].c_out * n_batches * net.layers[0].c_in * 7
    assert lc.compute == net.layers[0].c_out * n_batches * net.layers[0].c_in * 9
    # doubling the length in whole batches doubles prime and compute
    lc2 = layer_cycles(net.layers[0], 2 * PE_COUNT * n_batches)
    assert lc2.prime == 2 * lc.prime and lc2.compute == 2 * lc.compute


@pytest.mark.parametrize("w_in, n_batches", [
    (6 * 2**53 + 1, 2**53 + 1),
    (2**60 + 1, (2**60 + 2) // 6),   # 2^60 + 1 is 5 mod 6
])
def test_batches_are_counted_in_integers(w_in, n_batches):
    # past 2^53 a float quotient rounds, and its ceiling loses whole batches
    layer = NetworkSpec.default().layers[0]
    lc = layer_cycles(layer, w_in)
    assert lc.n_batches == n_batches
    assert lc.prime == layer.c_out * n_batches * layer.c_in * 7
    assert lc.compute == layer.c_out * n_batches * layer.c_in * layer.kernel


def test_requant_conventions_differ_by_ratio():
    # the formula text's 9 requant cycles per output against the table's 6
    report = network_report(NetworkSpec.default())
    formula_requant = report.formula_cycles - report.total_prime - report.total_compute
    assert report.total_requant * 9 == formula_requant * 6
    assert report.formula_cycles == 2_293_083
    assert report.formula_latency_s == 2_293_083 / DEFAULT_CLOCK_HZ
    d = report.to_dict()
    assert (d["formula_cycles"], d["formula_latency_s"]) \
        == (2_293_083, report.formula_latency_s)
    assert "Formula text, 9 requant cycles per output: 2,293,083 cycles | " \
        "latency 95.55 ms\n" in report.to_text()


def test_pooled_output_counts():
    net = NetworkSpec.default()
    report = network_report(net)
    # maxpool layers requant 3 values per batch per channel, overhang included
    assert report.layers[0].n_outputs == 16 * 86 * 3
    assert report.layers[3].n_outputs == 128       # GAP: one per channel
    assert report.layers[4].n_outputs == 3         # FC on a length-1 input


def test_peak_throughput():
    assert peak_mmacs(DEFAULT_CLOCK_HZ) == pytest.approx(144.0)


def test_rejects_bad_inputs():
    net = NetworkSpec.default()
    with pytest.raises(ConfigError):
        layer_cycles(net.layers[0], 0)
    with pytest.raises(ConfigError):
        network_report(net, clock_hz=0)


@pytest.mark.parametrize("option, value", [
    ("clock_hz", math.inf), ("clock_hz", math.nan), ("clock_hz", -1.0),
    ("avg_power_mw", -5.0), ("avg_power_mw", math.inf),
    ("measured_latency_s", 0.0), ("measured_latency_s", math.nan),
])
def test_report_refuses_inputs_that_are_not_finite_and_positive(option, value):
    with pytest.raises(ConfigError, match=f"{option} must be positive and finite"):
        network_report(NetworkSpec.default(), **{option: value})


@pytest.mark.parametrize("inputs, figure", [
    (dict(clock_hz=1e-310, avg_power_mw=None), "latency_s"),
    (dict(clock_hz=1e-300), "energy_uj"),
    (dict(clock_hz=1e308), "mmacs_per_s"),
    (dict(measured_latency_s=1e-310), "mmacs_per_s"),
    # 2,255,250 cycles stay finite where the formula's 2,293,083 do not
    (dict(clock_hz=1.265e-302, avg_power_mw=None), "formula_latency_s"),
])
def test_report_refuses_a_derived_figure_that_is_not_finite(inputs, figure):
    with pytest.raises(ConfigError, match=f"derived {figure} must be positive "
                                          "and finite, got inf"):
        network_report(NetworkSpec.default(), **inputs)


def test_report_keeps_extreme_inputs_whose_figures_stay_finite():
    # 2,255,250 cycles at 1e-290 Hz take about 2.3e296 s: finite
    report = network_report(NetworkSpec.default(), clock_hz=1e-290, avg_power_mw=None)
    assert report.latency_s == pytest.approx(2_255_250e290)
    assert 0 < report.fps < 1e-295 and 0 < report.mmacs_per_s < 1e-295


def test_report_without_power_or_measured_latency():
    report = network_report(NetworkSpec.default(), avg_power_mw=None,
                            measured_latency_s=None)
    assert report.energy_uj is None
    assert report.throughput_latency_s == report.latency_s


def test_report_serialization_schema():
    report = network_report(NetworkSpec.default(), measured_latency_s=0.0955)
    d = report.to_dict()
    assert d["totals"]["cycles"] == GRAND_TOTAL
    assert len(d["layers"]) == 5
    for key in ("latency_s", "fps", "mmacs_per_s", "mops_per_s", "energy_uj"):
        assert key in d
    text = report.to_text()
    assert "2,255,250" in text
