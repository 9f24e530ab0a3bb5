"""CLI surface: exit codes, output formats, and command plumbing."""

import json

import numpy as np
import pytest

from scgaccel.cli import main
from scgaccel.cyclemodel import network_report
from scgaccel.modeltools import PackedModel, random_model
from scgaccel.qnn import (INT32_MAX, Activation, LayerKind, LayerSpec,
                          LayerWeights, NetworkSpec, PoolMode, WeightSet)


@pytest.fixture
def model_file(tmp_path, rng):
    model = random_model(NetworkSpec.default(), rng)
    path = tmp_path / "model.bin"
    path.write_bytes(model.to_bytes())
    return str(path)


@pytest.fixture
def window_file(tmp_path, rng):
    path = tmp_path / "window.f32"
    rng.normal(size=512).astype("<f4").tofile(path)
    return str(path)


def test_analyze_text_matches_published_columns(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    for cell in ("9,632", "154,112", "315,392", "630,784", "2,688",
                 "12,384", "198,144", "405,504", "450,560",
                 "24,768", "25,344", "2,255,250"):
        assert cell in out


def test_analyze_json_schema(capsys):
    assert main(["analyze", "--json", "--measured-latency-s", "0.0955"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["totals"]["cycles"] == 2_255_250
    assert d["mmacs_per_s"] == pytest.approx(67.0, abs=0.05)
    assert d["energy_uj"] == pytest.approx(816.5, abs=0.05)


def test_analyze_input_length_applies_to_the_default_topology(capsys):
    assert main(["analyze", "--input-length", "256", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    net = NetworkSpec(NetworkSpec.default().layers, input_length=256)
    cycles = network_report(net).total_cycles
    assert d["totals"]["cycles"] == cycles != 2_255_250


def test_analyze_rejects_a_zero_clock(capsys):
    assert main(["analyze", "--clock-hz", "0"]) == 1
    assert "clock_hz must be positive" in capsys.readouterr().err


def test_infer_both_reports_exact_match(model_file, window_file, capsys):
    assert main(["infer", "--model", model_file, "--input", window_file,
                 "--both"]) == 0
    out = capsys.readouterr().out
    assert "EXACT MATCH" in out
    assert "2,255,250" in out


def test_infer_golden_json(model_file, window_file, capsys):
    assert main(["infer", "--model", model_file, "--input", window_file,
                 "--golden", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert len(d["golden_logits"]) == 3
    assert d["predicted_class"] in (0, 1, 2)


def test_infer_missing_model_is_usage_error(window_file, capsys):
    assert main(["infer", "--model", "/nonexistent.bin",
                 "--input", window_file]) == 2


def test_infer_corrupt_model_is_runtime_error(tmp_path, window_file):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"SANN\x01\x00\x05garbage")
    assert main(["infer", "--model", str(bad), "--input", window_file]) == 1


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
    assert main(["analyze", "--bogus-flag"]) == 2


@pytest.mark.parametrize("addr", ["localhost", ":7000", "localhost:",
                                  "localhost:port", "localhost:65536"])
def test_malformed_address_is_usage_error(addr, model_file, window_file, capsys):
    # each is rejected before any socket is opened
    assert main(["serve", "--transport", addr, "--once"]) == 2
    assert main(["load", "--connect", addr, "--model", model_file]) == 2
    assert main(["run", "--connect", addr, "--input", window_file]) == 2
    assert capsys.readouterr().err.count("address must be host:port") == 3


def test_trace_emits_json_lines(model_file, window_file, tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    assert main(["trace", "--model", model_file, "--input", window_file,
                 "--cycles", "50", "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 50
    first = json.loads(lines[0])
    assert first["cycle"] == 1 and first["layer"] == 0
    assert [json.loads(l)["cycle"] for l in lines] == list(range(1, 51))


def test_trace_fault_writes_the_lines_before_it_and_exits_1(tmp_path, capsys):
    # batch-overhang overflow: lane 4 of layer 0's one batch overflows when
    # its channel group completes, after 7 prime and 3 compute cycles
    net = NetworkSpec(layers=(
        LayerSpec(kind=LayerKind.CONV1D, c_in=1, c_out=1, kernel=3, padding=1,
                  pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE),
        LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=1, c_out=3, kernel=1,
                  padding=0, pool_mode=PoolMode.BYPASS,
                  activation=Activation.SIGNED_BYPASS),
    ), input_length=4)
    ws = WeightSet(layers=[
        LayerWeights(weights=[[[127, -127, -127]]], biases=[INT32_MAX - 100]),
        LayerWeights(weights=[[[1]], [[-1]], [[2]]], biases=[0, 0, 0]),
    ])
    model_file = tmp_path / "model.bin"
    model_file.write_bytes(PackedModel.from_weights(net, ws).to_bytes())
    window_file = tmp_path / "window.u8"
    window_file.write_bytes(bytes([128, 128, 255, 255]))
    out_file = tmp_path / "trace.jsonl"
    assert main(["trace", "--model", str(model_file), "--input", str(window_file),
                 "--format", "u8", "--cycles", "1000",
                 "--out", str(out_file)]) == 1
    assert "overflow" in capsys.readouterr().err
    lines = out_file.read_text().strip().splitlines()
    assert [json.loads(l)["cycle"] for l in lines] == list(range(1, 11))


def test_synth_then_eval_round_trip(model_file, tmp_path, capsys):
    data = tmp_path / "ds.npz"
    assert main(["synth", "--n", "12", "--seed", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    summary_file = tmp_path / "summary.json"
    dump_file = tmp_path / "dump.json"
    assert main(["eval", "--model", model_file, "--data", str(data),
                 "--out", str(summary_file), "--dump", str(dump_file)]) == 0
    summary = json.loads(summary_file.read_text())
    assert np.array(summary["confusion"]).sum() == 12
    assert 0.0 <= summary["accuracy"] <= 1.0
    rows = json.loads(dump_file.read_text())
    assert len(rows) == 12 and set(rows[0]) == {"label", "pred", "logits"}


def test_pack_produces_loadable_model(tmp_path, rng, capsys):
    net = NetworkSpec.default(l3_width=16)
    arrays = {}
    for i, s in enumerate(net.layers):
        arrays[f"w{i}"] = rng.normal(scale=1 / np.sqrt(s.c_in * s.kernel),
                                     size=(s.c_out, s.c_in, s.kernel))
        arrays[f"b{i}"] = np.zeros(s.c_out)
    arrays["w3"] = arrays["w3"]    # l3 width inferred from this array
    src = tmp_path / "float.npz"
    np.savez(src, **arrays)
    out = tmp_path / "packed.bin"
    assert main(["pack", "--from-float", str(src), "--out", str(out)]) == 0
    model = PackedModel.from_bytes(out.read_bytes())
    assert len(model.layers) == 5
    assert model.layers[3].c_out == 16


def test_selftest_passes(capsys):
    assert main(["selftest", "--sweeps", "6"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 6
    assert "recalls [95.73, 98.22, 99.11]" in out
