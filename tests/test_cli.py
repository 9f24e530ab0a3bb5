"""CLI surface: exit codes, output formats, and command plumbing."""

import gc
import io
import json
import os
import select
import socket
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import every_kind_net, signed_conv_blob
from scgaccel.cli import main
from scgaccel.cyclemodel import network_report
from scgaccel.errors import TransportError
from scgaccel.link import HostClient, Transport
from scgaccel.metrics import synth_windows
from scgaccel.modeltools import PackedModel, random_model
from scgaccel.pipeline import build_reference_model
from scgaccel.qnn import (INT32_MAX, Activation, LayerKind, LayerSpec,
                          LayerWeights, Logits, NetworkSpec, PoolMode,
                          WeightSet, infer_window, zscore_quantize)
from scgaccel.sim import SimMachine

ROOT = Path(__file__).resolve().parent.parent
# the cycle model's count for one default window; the acceptance suite pins
# it to the published table
DEFAULT_CYCLES = network_report(NetworkSpec.default()).total_cycles


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
    assert capsys.readouterr().out \
        == network_report(NetworkSpec.default()).to_text() + "\n"


def test_analyze_json_schema(capsys):
    assert main(["analyze", "--json", "--measured-latency-s", "0.0955"]) == 0
    report = network_report(NetworkSpec.default(), measured_latency_s=0.0955)
    assert json.loads(capsys.readouterr().out) == report.to_dict()


def test_analyze_input_length_applies_to_the_default_topology(capsys):
    # the default topology runs only 512 samples: three maxpools leave the
    # GAP layer 64
    assert main(["analyze", "--input-length", "512", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["totals"]["cycles"] == DEFAULT_CYCLES
    for length, message in ((256, "GAP unit is hardwired for length 64, got 32"),
                            (508, "maxpool input length 127 must be even")):
        assert main(["analyze", "--input-length", str(length), "--json"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")


def test_a_window_the_model_cannot_run_exits_1(model_file, tmp_path, capsys):
    # 256 samples leave the default topology's GAP layer 32 of its 64
    u8_file = tmp_path / "window.u8"
    u8_file.write_bytes(bytes(256))
    u8 = ["--model", model_file, "--input", str(u8_file), "--format", "u8"]
    out_file = tmp_path / "trace.jsonl"
    for argv in (["infer", *u8, "--sim"], ["infer", *u8, "--golden"],
                 ["trace", *u8, "--cycles", "100", "--out", str(out_file)]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "hardwired for length 64" in err, argv
    assert not out_file.exists()


def test_analyze_rejects_a_zero_clock(capsys):
    assert main(["analyze", "--clock-hz", "0"]) == 1
    assert "clock_hz must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--clock-hz", "inf", "clock_hz must be positive and finite, got inf"),
    ("--clock-hz", "nan", "clock_hz must be positive and finite, got nan"),
    ("--power-mw", "-5", "avg_power_mw must be positive and finite, got -5.0"),
    ("--measured-latency-s", "0", "measured_latency_s must be positive and finite"),
])
def test_analyze_refuses_a_figure_that_is_not_finite_and_positive(option, value,
                                                                   message, capsys):
    assert main(["analyze", option, value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("options, figure", [
    (["--clock-hz", "1e-310"], "latency_s"),
    (["--clock-hz", "1e-300"], "energy_uj"),
    (["--clock-hz", "1e308"], "mmacs_per_s"),
    (["--measured-latency-s", "1e-310"], "mmacs_per_s"),
    (["--power-mw", "1e308", "--measured-latency-s", "10"], "energy_uj"),
], ids=["subnormal-clock", "tiny-clock", "huge-clock", "subnormal-latency",
        "huge-power"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_analyze_refuses_a_derived_figure_that_is_not_finite(options, figure,
                                                             json_flag, capsys):
    # each input is finite and positive, but the figure derived from it
    # overflows; JSON has no Infinity, so nothing is printed
    assert main(["analyze", *options, *json_flag]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: derived {figure} must be positive and finite, got inf\n"


def test_infer_both_reports_exact_match(model_file, window_file, capsys):
    assert main(["infer", "--model", model_file, "--input", window_file,
                 "--both"]) == 0
    out = capsys.readouterr().out
    assert "EXACT MATCH" in out
    assert out.endswith(f" cycles {DEFAULT_CYCLES:,}\n")


def test_infer_both_json_reports_both_logits(model_file, window_file, capsys):
    assert main(["infer", "--model", model_file, "--input", window_file,
                 "--both", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"mode", "golden_logits", "sim_logits", "predicted_class",
                      "cycles", "match"}
    assert d["match"] is True and d["golden_logits"] == d["sim_logits"]
    assert d["predicted_class"] == int(np.argmax(d["golden_logits"]))
    assert d["cycles"] == DEFAULT_CYCLES


def test_infer_golden_json(model_file, window_file, capsys):
    assert main(["infer", "--model", model_file, "--input", window_file,
                 "--golden", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert len(d["golden_logits"]) == 3
    assert d["predicted_class"] in (0, 1, 2)


@pytest.mark.parametrize("mode", ["golden", "sim"])
def test_infer_one_mode_prints_its_logits_as_text(mode, model_file, window_file,
                                                 capsys):
    argv = ["infer", "--model", model_file, "--input", window_file, f"--{mode}"]
    assert main([*argv, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    cycles = f" cycles {DEFAULT_CYCLES:,}" if mode == "sim" else ""
    assert capsys.readouterr().out == (f"logits {d[f'{mode}_logits']} "
                                       f"class {d['predicted_class']}{cycles}\n")


def test_infer_missing_model_is_usage_error(window_file, capsys):
    assert main(["infer", "--model", "/nonexistent.bin",
                 "--input", window_file]) == 2


def test_infer_corrupt_model_is_runtime_error(tmp_path, window_file, capsys):
    bad = tmp_path / "bad.bin"
    for blob, reason in ((b"SANN\x01\x00\x05garbage", "descriptor 0 truncated"),
                         (signed_conv_blob(), "invalid layout")):
        bad.write_bytes(blob)
        assert main(["infer", "--model", str(bad), "--input", window_file]) == 1
        assert reason in capsys.readouterr().err


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


def _two_channel_net(input_length=8) -> NetworkSpec:
    return NetworkSpec(layers=(
        LayerSpec(kind=LayerKind.CONV1D, c_in=2, c_out=2, kernel=1, padding=0,
                  pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE),
        LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=2, c_out=3, kernel=1,
                  padding=0, pool_mode=PoolMode.BYPASS,
                  activation=Activation.SIGNED_BYPASS),
    ), input_length=input_length)


def test_bad_window_options_are_usage_errors(model_file, window_file, tmp_path,
                                             rng, capsys):
    # a port with no server: run checks its window before it connects
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        closed = f"127.0.0.1:{sock.getsockname()[1]}"
    u8_file = tmp_path / "window.u8"
    u8_file.write_bytes(bytes(512))
    u8 = ["--input", str(u8_file), "--format", "u8"]
    ragged_file = tmp_path / "ragged.f32"
    ragged_file.write_bytes(bytes(4 * 512 + 2))
    odd_file = tmp_path / "odd.u8"
    odd_file.write_bytes(bytes(511))
    two_channel = tmp_path / "two-channel.bin"
    two_channel.write_bytes(random_model(_two_channel_net(), rng).to_bytes())
    for argv, message in [
            (["run", "--connect", closed, "--input", window_file],
             f"cannot connect to {closed}"),
            (["infer", "--model", str(two_channel), "--input", window_file],
             "raw f32 input supports single-channel models only"),
            (["infer", "--model", str(two_channel), "--input", str(odd_file),
              "--format", "u8"], "u8 input length 511 not divisible by 2 channels"),
            (["infer", "--model", model_file, "--input", str(ragged_file)],
             "f32 input of 2050 bytes is not a whole number of 4-byte samples"),
            (["run", "--connect", closed, "--input", str(ragged_file)],
             "f32 input of 2050 bytes is not a whole number"),
            (["run", "--connect", closed, "--input", window_file,
              "--channels", "0"], "argument --channels: must be >= 1, got 0"),
            (["infer", "--model", model_file, *u8, "--zero-point", "256"],
             "zero point must be in [0, 255]"),
            (["trace", "--model", model_file, *u8, "--cycles", "5",
              "--zero-point", "-1"], "zero point must be in [0, 255]"),
            (["run", "--connect", closed, *u8, "--zero-point", "256"],
             "zero point must be in [0, 255]"),
            (["infer", "--model", model_file, "--input", window_file,
              "--zero-point", "128"], "--zero-point applies to u8 windows only"),
            (["run", "--connect", closed, "--input", window_file,
              "--format", "f32", "--zero-point", "0"],
             "--zero-point applies to u8 windows only")]:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err


def test_bad_counts_seeds_lengths_and_removed_options_are_usage_errors(
        model_file, tmp_path, capsys):
    u8_file = tmp_path / "window.u8"
    u8_file.write_bytes(bytes(512))
    for argv, message in [
            (["selftest", "--sweeps", "-3"],
             "argument --sweeps: must be >= 1, got -3"),
            (["trace", "--model", model_file, "--input", str(u8_file),
              "--format", "u8", "--cycles", "0"],
             "argument --cycles: must be >= 1, got 0"),
            (["synth", "--n", "0", "--out", str(tmp_path / "none.npz")],
             "argument --n: must be >= 1, got 0"),
            (["synth", "--n", "3", "--seed", "-1", "--out",
              str(tmp_path / "none.npz")], "argument --seed: must be >= 0, got -1"),
            (["selftest", "--seed", "-1", "--sweeps", "1"],
             "argument --seed: must be >= 0, got -1"),
            (["pack", "--from-float", str(tmp_path / "float.npz"), "--out",
              str(tmp_path / "none.bin"), "--seed", "-1"],
             "argument --seed: must be >= 0, got -1"),
            (["analyze", "--input-length", "0"],
             "argument --input-length: must be >= 1, got 0"),
            (["analyze", "--input-length", "-4"],
             "argument --input-length: must be >= 1, got -4"),
            (["analyze", "--requant-convention", "formula"],
             "unrecognized arguments: --requant-convention formula")]:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err


def test_trace_emits_json_lines(model_file, window_file, tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    assert main(["trace", "--model", model_file, "--input", window_file,
                 "--cycles", "50", "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 50
    first = json.loads(lines[0])
    assert first["cycle"] == 1 and first["layer"] == 0
    assert [json.loads(l)["cycle"] for l in lines] == list(range(1, 51))


def test_trace_past_the_end_of_a_run_writes_every_clock(tmp_path, rng, capsys):
    model_file = tmp_path / "model.bin"
    model_file.write_bytes(random_model(every_kind_net(), rng).to_bytes())
    window_file = tmp_path / "window.u8"
    window_file.write_bytes(rng.integers(0, 256, 128, dtype=np.uint8).tobytes())
    out_file = tmp_path / "trace.jsonl"
    assert main(["trace", "--model", str(model_file), "--input", str(window_file),
                 "--format", "u8", "--cycles", "20000",
                 "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert [json.loads(l)["cycle"] for l in lines] == list(range(1, 10_419))


def test_trace_holds_no_more_memory_for_more_clocks(tmp_path, rng):
    """A streamed trace holds at most its output buffer and the line it is
    writing, whatever the clock count: its peak over every_kind_net's 10,418
    clocks exceeds its peak over 100 clocks by no more than that."""
    model_file = tmp_path / "model.bin"
    model_file.write_bytes(random_model(every_kind_net(), rng).to_bytes())
    window_file = tmp_path / "window.u8"
    window_file.write_bytes(rng.integers(0, 256, 128, dtype=np.uint8).tobytes())
    out_file = tmp_path / "trace.jsonl"

    def peak(cycles: int) -> int:
        gc.collect()    # garbage from an earlier run would free at random
        tracemalloc.start()
        try:
            assert main(["trace", "--model", str(model_file), "--input",
                         str(window_file), "--format", "u8", "--cycles",
                         str(cycles), "--out", str(out_file)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, whole = peak(100), peak(20_000)
    lines = out_file.read_text().splitlines()
    assert len(lines) == 10_418
    assert whole - short <= io.DEFAULT_BUFFER_SIZE + max(map(len, lines)) + 1


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


def test_load_and_run_over_loopback_match_golden(model_file, window_file, capsys):
    # port 0: the server binds an ephemeral port and prints it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "scgaccel.cli", "serve",
         "--transport", "127.0.0.1:0"],
        stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = server.stderr.readline()
        assert line.startswith("listening on 127.0.0.1:"), line
        addr = line.split()[-1]
        assert addr != "127.0.0.1:0"
        assert main(["load", "--connect", addr, "--model", model_file]) == 0
        assert main(["run", "--connect", addr, "--input", window_file]) == 0
        run_out = capsys.readouterr().out
        assert main(["infer", "--model", model_file, "--input", window_file,
                     "--golden", "--json"]) == 0
        golden = json.loads(capsys.readouterr().out)["golden_logits"]
    finally:
        server.kill()
        server.wait(timeout=10.0)
        server.stderr.close()
    assert "model loaded and verified" in run_out
    assert f"logits {golden} " in run_out
    assert f"cycles {DEFAULT_CYCLES:,}" in run_out


class _PipeTransport(Transport):
    """The host end of a child process's stdin and stdout."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc

    def send(self, data: bytes):
        self.proc.stdin.write(data)
        self.proc.stdin.flush()

    def recv(self, timeout=None) -> bytes:
        stdout = self.proc.stdout.fileno()
        if not select.select([stdout], [], [], timeout)[0]:
            raise TransportError("receive timeout")
        return os.read(stdout, 65536)

    def close(self):
        self.proc.stdin.close()


def test_serve_over_stdio_runs_a_session_until_stdin_closes(rng):
    model = random_model(NetworkSpec.default(), rng)
    x = zscore_quantize(rng.normal(size=512))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "scgaccel.cli", "serve", "--transport", "stdio"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    try:
        client = HostClient(_PipeTransport(proc), timeout=30.0)
        client.load_model(model)
        logits, cycles = client.run(x)
        client.close()              # end of input ends the session
        assert proc.wait(timeout=30.0) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    golden, _ = infer_window(model.to_network_spec(x.length),
                             model.to_weight_set(), x)
    assert np.array_equal(logits.values, golden.values)
    assert cycles == DEFAULT_CYCLES


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


@pytest.mark.parametrize("noise, message", [
    ("inf", "noise must be finite and >= 0, got inf"),
    ("nan", "noise must be finite and >= 0, got nan"),
    ("-1", "noise must be finite and >= 0, got -1.0"),
    ("1e39", "noise 1e+39 overflows float32: window 0: samples must be finite"),
])
def test_synth_refuses_a_noise_it_cannot_use(noise, message, tmp_path, capsys):
    out = tmp_path / "ds.npz"
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # and no numpy warning escapes
        assert main(["synth", "--n", "3", "--noise", noise, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_eval_refuses_a_malformed_dataset(model_file, tmp_path, capsys):
    data = tmp_path / "ds.npz"
    windows = np.random.default_rng(3).normal(size=(2, 512)).astype(np.float32)
    np.savez(data, windows=windows[0], labels=[0])
    assert main(["eval", "--model", model_file, "--data", str(data)]) == 2
    assert "windows must be [n][length]" in capsys.readouterr().err
    for labels in ([7, 0], [-1, 0]):
        np.savez(data, windows=windows, labels=labels)
        assert main(["eval", "--model", model_file, "--data", str(data)]) == 1
        assert "labels must be class indices in [0, 3)" in capsys.readouterr().err
    for labels, shape in (([0] * 7, "(7,)"), ([[0]] * 10, "(10, 1)")):
        np.savez(data, windows=np.zeros((10, 512)), labels=labels)
        assert main(["eval", "--model", model_file, "--data", str(data)]) == 2
        assert (f"labels must be [n], one per window: {shape} labels for 10 windows"
                in capsys.readouterr().err)
    windows = np.random.default_rng(4).normal(size=(20, 512))
    windows[17, 3], windows[18, 0] = np.inf, np.nan
    np.savez(data, windows=windows, labels=[0] * 20)
    assert main(["eval", "--model", model_file, "--data", str(data)]) == 1
    assert "window 17: samples must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["zip-magic", "synth-head", "bad-crc", "npy"])
@pytest.mark.parametrize("command, what", [("eval", "dataset"),
                                           ("pack", "float model")],
                         ids=["eval", "pack"])
def test_a_file_that_is_not_a_readable_npz_is_a_usage_error(
        command, what, content, model_file, tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    data = tmp_path / "ds.npz"
    assert main(["synth", "--n", "6", "--out", str(data)]) == 0
    capsys.readouterr()
    archive = data.read_bytes()
    if content == "zip-magic":
        bad.write_bytes(b"PK\x03\x04garbage")
    elif content == "synth-head":
        bad.write_bytes(archive[:200])
    elif content == "bad-crc":     # byte 300 lies inside the windows array
        bad.write_bytes(archive[:300] + bytes([archive[300] ^ 0xFF]) + archive[301:])
    else:
        with open(bad, "wb") as fh:
            np.save(fh, np.ones((2, 512)))
    out = tmp_path / "packed.bin"
    argv = {"eval": ["eval", "--model", model_file, "--data", str(bad)],
            "pack": ["pack", "--from-float", str(bad), "--out", str(out)]}
    assert main(argv[command]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"error: cannot read {what} {bad}: ")
    assert not out.exists()


@pytest.fixture(scope="module")
def reference_eval_files(tmp_path_factory):
    """The reference model built on 96 windows (seed 5), and a 120-window
    dataset (seed 9) on which it scores 1.0."""
    root = tmp_path_factory.mktemp("reference")
    model, _ = build_reference_model(synth_windows(96, seed=5))
    (root / "model.bin").write_bytes(model.to_bytes())
    assert main(["synth", "--n", "120", "--seed", "9",
                 "--out", str(root / "ds.npz")]) == 0
    return str(root / "model.bin"), str(root / "ds.npz")


@pytest.mark.parametrize("scale", ["1.0", "0.01", "1e-300"])
def test_eval_takes_each_class_from_the_integer_logits(scale, reference_eval_files,
                                                       tmp_path, capsys):
    # at 1e-300 the scaled logits no longer differ, so an argmax of the
    # probabilities would give class 0 for every window
    model_file, data = reference_eval_files
    dump = tmp_path / "dump.json"
    capsys.readouterr()
    assert main(["eval", "--model", model_file, "--data", data,
                 "--logit-scale", scale, "--dump", str(dump)]) == 0
    assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0
    rows = json.loads(dump.read_text())
    assert [r["pred"] for r in rows] == [int(np.argmax(r["logits"])) for r in rows]


@pytest.mark.parametrize("scale, message", [
    ("nan", "logit_scale must be positive and finite, got nan"),
    ("inf", "logit_scale must be positive and finite, got inf"),
    ("0", "logit_scale must be positive and finite, got 0.0"),
    ("-1", "logit_scale must be positive and finite, got -1.0"),
    ("1e308", "logit_scale 1e+308 overflows the scaled logits"),
])
def test_eval_refuses_a_logit_scale_it_cannot_apply(scale, message,
                                                    reference_eval_files, capsys):
    model_file, data = reference_eval_files
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # refused before any numpy warning
        assert main(["eval", "--model", model_file, "--data", data,
                     "--logit-scale", scale]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def test_eval_refuses_a_dataset_with_no_windows(model_file, tmp_path, capsys):
    # an empty set has no accuracy, ECE or AP, where evaluate would give 0.0
    data = tmp_path / "empty.npz"
    np.savez(data, windows=np.zeros((0, 512)), labels=np.zeros(0, dtype=np.int64))
    assert main(["eval", "--model", model_file, "--data", str(data)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"cannot read dataset {data}: it holds no windows" in err


def test_eval_refuses_windows_that_are_not_numbers(model_file, tmp_path, capsys):
    data = tmp_path / "ds.npz"
    np.savez(data, windows=np.full((2, 512), "0.5"), labels=[0, 1])
    assert main(["eval", "--model", model_file, "--data", str(data)]) == 1
    assert "windows must hold numbers, got dtype <U3" in capsys.readouterr().err


def _float_arrays(rng, net):
    arrays = {}
    for i, s in enumerate(net.layers):
        arrays[f"w{i}"] = rng.normal(scale=1 / np.sqrt(s.c_in * s.kernel),
                                     size=(s.c_out, s.c_in, s.kernel))
        arrays[f"b{i}"] = np.zeros(s.c_out)
    return arrays


def test_pack_produces_loadable_model(tmp_path, rng, capsys):
    # l3 width inferred from the w3 array
    arrays = _float_arrays(rng, NetworkSpec.default(l3_width=16))
    src = tmp_path / "float.npz"
    np.savez(src, **arrays)
    out = tmp_path / "packed.bin"
    assert main(["pack", "--from-float", str(src), "--out", str(out)]) == 0
    model = PackedModel.from_bytes(out.read_bytes())
    assert len(model.layers) == 5
    assert model.layers[3].c_out == 16


@pytest.mark.parametrize("edit, message", [
    (lambda a: a.pop("b2"), "missing array 'b2'"),
    (lambda a: a.update(bn0_gamma=np.ones(16)), "missing array 'bn0_beta'"),
    (lambda a: a.update(layout="not json"), "'layout' is not a JSON list"),
    (lambda a: a.update(layout='[{"kind": "CONV1D"}]'),
     "'layout' is not a JSON list"),
    (lambda a: a.update(input_length=256), "'input_length' 256 needs a 'layout'"),
    (lambda a: a.update(input_length=[256, 512]),
     "'input_length' must be a scalar integer"),
    (lambda a: a.update(input_length=512.0),
     "'input_length' must be a scalar integer"),
    (lambda a: [a.pop(f"w{i}") for i in range(5)],
     "no w0..wN weight arrays found"),
    (lambda a: a.pop("w4"), "4 weight arrays for 5 layers"),
], ids=["no-b2", "bn0-gamma-only", "layout-not-json", "layout-without-keys",
        "input-length-without-layout", "input-length-not-scalar",
        "input-length-float", "no-weights", "four-weights"])
def test_pack_refuses_a_malformed_float_model(edit, message, tmp_path, rng,
                                              capsys):
    arrays = _float_arrays(rng, NetworkSpec.default())
    edit(arrays)
    src = tmp_path / "float.npz"
    np.savez(src, **arrays)
    out = tmp_path / "packed.bin"
    assert main(["pack", "--from-float", str(src), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _layout(net) -> str:
    """The `layout` JSON string that `pack` reads for `net`."""
    return json.dumps([{"kind": s.kind.name, "c_in": s.c_in, "c_out": s.c_out,
                        "kernel": s.kernel, "padding": s.padding,
                        "pool": s.pool_mode.name, "activation": s.activation.name}
                       for s in net.layers])


def _two_channel_layout(arrays):
    # a layout NetworkSpec accepts, whose first layer the one-channel
    # calibration windows cannot feed
    net = _two_channel_net(512)
    arrays.clear()
    arrays.update(_float_arrays(np.random.default_rng(4), net),
                  input_length=net.input_length, layout=_layout(net))


@pytest.mark.parametrize("edit, message", [
    (lambda a: a.update(w0=a["w0"][:, 0]), "weights must be [c_out][c_in][K]"),
    (lambda a: a.update(b0=a["b0"][:-1]), "one bias per output channel"),
    (lambda a: a.update(w1=a["w1"][:, :, :3]),
     "float weights do not match layer geometry"),
    (lambda a: a.update(b0=np.full_like(a["b0"], 1e12)),
     "quantized bias exceeds i32"),
    (_two_channel_layout, "channel mismatch in float forward"),
    (lambda a: a.update(layout=_layout(NetworkSpec.default()).replace(
        '"c_in": 1,', '"c_in": 1.0,')), "c_in 1.0 is not an integer"),
], ids=["w0-2d", "b0-short", "w1-kernel", "b0-huge", "two-channel-layout",
        "layout-float-c-in"])
def test_pack_refuses_float_parameters_it_cannot_quantize(edit, message,
                                                          tmp_path, rng, capsys):
    arrays = _float_arrays(rng, NetworkSpec.default())
    edit(arrays)
    src = tmp_path / "float.npz"
    np.savez(src, **arrays)
    out = tmp_path / "packed.bin"
    assert main(["pack", "--from-float", str(src), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_pack_builds_a_layout_at_its_input_length(tmp_path, rng, capsys):
    net = every_kind_net()     # 128 samples, with no layer of the default net
    src = tmp_path / "float.npz"
    np.savez(src, layout=_layout(net), input_length=net.input_length,
             **_float_arrays(rng, net))
    out = tmp_path / "packed.bin"
    assert main(["pack", "--from-float", str(src), "--out", str(out)]) == 0
    model = PackedModel.from_bytes(out.read_bytes())
    assert [(s.kind, s.c_in, s.c_out, s.kernel, s.padding, s.pool_mode,
             s.activation) for s in model.layers] == [
        (s.kind, s.c_in, s.c_out, s.kernel, s.padding, s.pool_mode,
         s.activation) for s in net.layers]
    window_file = tmp_path / "window.f32"
    rng.normal(size=net.input_length).astype("<f4").tofile(window_file)
    capsys.readouterr()
    assert main(["infer", "--model", str(out), "--input", str(window_file),
                 "--both"]) == 0
    assert capsys.readouterr().out.startswith("EXACT MATCH: ")


def test_pack_refuses_weights_whose_float_forward_overflows(tmp_path, capsys):
    # finite weights of 1e200 leave layer 0's conv near 1e201, and layer 1's
    # overflows float64; the float forward refuses it there
    arrays = {key: np.full_like(a, 1e200) if key.startswith("w") else a
              for key, a in _float_arrays(np.random.default_rng(6),
                                          NetworkSpec.default()).items()}
    src = tmp_path / "float.npz"
    np.savez(src, **arrays)
    out = tmp_path / "packed.bin"
    with np.errstate(over="ignore", invalid="ignore"):    # the overflow is the input
        assert main(["pack", "--from-float", str(src), "--out", str(out)]) == 1
    assert "error: layer 1: conv output is not finite" in capsys.readouterr().err
    assert not out.exists()


def _calib_with_a_nan_in_window_2():
    calib = np.random.default_rng(5).normal(size=(4, 512))
    calib[2, 9] = np.nan
    return calib


@pytest.mark.parametrize("calib, message", [
    (np.zeros((0, 512)), "calibration needs at least one window"),
    (_calib_with_a_nan_in_window_2(), "window 2: samples must be finite"),
    (np.ones((4, 500)), "windows have 500 samples, the network runs 512"),
    (np.full((2, 512), "1.0"), "windows must hold numbers, got dtype <U3"),
], ids=["empty", "nan", "wrong-length", "strings"])
def test_pack_refuses_calibration_windows_it_cannot_measure(calib, message,
                                                            tmp_path, rng, capsys):
    arrays = _float_arrays(rng, NetworkSpec.default())
    src = tmp_path / "float.npz"
    np.savez(src, calib=calib, **arrays)
    out = tmp_path / "packed.bin"
    assert main(["pack", "--from-float", str(src), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_infer_refuses_a_non_finite_window(model_file, tmp_path, capsys):
    path = tmp_path / "nan.f32"
    samples = np.zeros(512, dtype="<f4")
    samples[7] = np.nan
    samples.tofile(path)
    assert main(["infer", "--model", model_file, "--input", str(path),
                 "--format", "f32"]) == 1
    assert "window 0: samples must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trace", "--model", "{model}", "--input", "{window}", "--cycles", "5",
     "--out", "{missing}"],
    ["eval", "--model", "{model}", "--data", "{data}", "--out", "{missing}"],
    ["eval", "--model", "{model}", "--data", "{data}", "--dump", "{missing}"],
    ["pack", "--from-float", "{float}", "--out", "{missing}"],
    ["synth", "--n", "6", "--out", "{missing}"],
    ["infer", "--model", "{missing}", "--input", "{window}"],
    ["infer", "--model", "{model}", "--input", "{missing}"],
    ["eval", "--model", "{model}", "--data", "{missing}"],
    ["pack", "--from-float", "{missing}", "--out", "{model}"],
], ids=["trace-out", "eval-out", "eval-dump", "pack-out", "synth-out",
        "model", "window", "dataset", "float-model"])
def test_a_path_that_cannot_be_opened_is_a_usage_error(argv, model_file,
                                                       window_file, tmp_path,
                                                       capsys):
    paths = {"model": model_file, "window": window_file,
             "data": str(tmp_path / "ds.npz"), "float": str(tmp_path / "float.npz"),
             "missing": str(tmp_path / "no-such-dir" / "file")}
    np.savez(paths["data"], windows=np.ones((2, 512)), labels=[0, 1])
    np.savez(paths["float"], **_float_arrays(np.random.default_rng(8),
                                             NetworkSpec.default()))
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno 2] ")
    assert paths["missing"] in err


def test_serve_on_a_port_in_use_is_a_usage_error(capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert main(["serve", "--transport", f"127.0.0.1:{port}",
                     "--once"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(port) in err


def test_selftest_passes(capsys):
    assert main(["selftest", "--sweeps", "6"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "[PASS] golden vs simulator: 6 random pairs, 0 mismatches"
    assert lines[1].startswith("[PASS] protocol round trip: logits [")
    assert lines[2] == "selftest PASSED"


def test_a_simulator_that_disagrees_fails_selftest_and_infer(
        model_file, window_file, monkeypatch, capsys):
    real = SimMachine.run_inference

    def off_by_one(self):
        logits, cycles, stats = real(self)
        return Logits(logits.values + 1), cycles, stats

    monkeypatch.setattr(SimMachine, "run_inference", off_by_one)
    assert main(["selftest", "--sweeps", "2"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] golden vs simulator: 2 random pairs, 2 mismatches" in out
    assert out.endswith("selftest FAILED\n")
    assert main(["infer", "--model", model_file, "--input", window_file,
                 "--both"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("MISMATCH: logits ")
    assert "golden and simulator disagree" in err
