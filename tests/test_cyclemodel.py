"""Analytical cycle model: batch counting, output counts, the formula-text
convention and the checks on report inputs and derived figures.  The
published breakdown it reproduces is pinned in the acceptance suite."""

import math

import pytest

from scgaccel.cyclemodel import (DEFAULT_CLOCK_HZ, PE_COUNT, layer_cycles,
                                 network_report, peak_mmacs)
from scgaccel.errors import ConfigError
from scgaccel.qnn import NetworkSpec


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
    # the table's cycles stay finite where the formula text's do not
    (dict(clock_hz=1.265e-302, avg_power_mw=None), "formula_latency_s"),
])
def test_report_refuses_a_derived_figure_that_is_not_finite(inputs, figure):
    with pytest.raises(ConfigError, match=f"derived {figure} must be positive "
                                          "and finite, got inf"):
        network_report(NetworkSpec.default(), **inputs)


def test_report_keeps_extreme_inputs_whose_figures_stay_finite():
    # the default net's cycles at 1e-290 Hz take about 2.3e296 s: finite
    cycles = network_report(NetworkSpec.default()).total_cycles
    report = network_report(NetworkSpec.default(), clock_hz=1e-290, avg_power_mw=None)
    assert report.latency_s == pytest.approx(cycles * 1e290)
    assert 0 < report.fps < 1e-295 and 0 < report.mmacs_per_s < 1e-295


def test_report_without_power_or_measured_latency():
    report = network_report(NetworkSpec.default(), avg_power_mw=None,
                            measured_latency_s=None)
    assert report.energy_uj is None
    assert report.throughput_latency_s == report.latency_s


def test_report_serialization_schema():
    report = network_report(NetworkSpec.default(), measured_latency_s=0.0955)
    d = report.to_dict()
    assert d["totals"]["cycles"] == report.total_cycles
    assert len(d["layers"]) == 5
    for key in ("latency_s", "fps", "mmacs_per_s", "mops_per_s", "energy_uj"):
        assert key in d
    text = report.to_text()
    assert f"Cycles {report.total_cycles:,} | " in text
