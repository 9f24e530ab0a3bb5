"""Command-line surface tying the modules together.

Commands are thin orchestration over the library: `analyze` (cycle model),
`infer`/`trace` (golden model and simulator), `pack` (float -> deployable
model), `serve`/`load`/`run` (device link), `synth`/`eval` (dataset and
metrics), and `selftest` (install check: golden/simulator sweep and a
device-link round trip).

Signal files are raw little-endian float32 samples; quantized windows are
raw u8.  Exit codes: 0 success, 1 runtime failure, 2 usage error, which
includes every OSError: a path that cannot be opened, an address that cannot
be bound.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import socket
import sys
import zipfile
from pathlib import Path

import numpy as np

from .cyclemodel import DEFAULT_CLOCK_HZ, DEFAULT_POWER_MW, network_report
from .errors import AccelError, StateError
from .link import (DeviceEmulator, HostClient, SocketTransport, Transport,
                   serve_in_thread)
from .metrics import NUM_CLASSES, evaluate, synth_windows
from .modeltools import (BatchNorm, FloatLayerParams, FloatModel, PackedModel,
                         calibrate_activation_scales, quantize_model,
                         random_input, random_model, random_small_net)
from .pipeline import CALIB_WINDOWS, golden_predict
from .qnn import (INPUT_ZERO_POINT, Activation, LayerKind, LayerSpec,
                  NetworkSpec, PoolMode, QuantTensor, infer_window,
                  zscore_quantize)
from .sim import SimMachine


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _count(text: str, low: int = 1) -> int:
    """The argparse type of a count: an integer of at least `low`, 1."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _seed(text: str) -> int:
    """The argparse type of a seed, which numpy takes: a count from 0."""
    return _count(text, low=0)


class UsageError(Exception):
    pass


def _read_model(path: str) -> PackedModel:
    return PackedModel.from_bytes(Path(path).read_bytes())


def _read_window(path: str, fmt: str, c_in: int,
                 zero_point: int | None) -> QuantTensor:
    """Raw f32 window (z-scored and quantized) or already-quantized u8, at
    `zero_point` (INPUT_ZERO_POINT if None), which only a u8 window takes."""
    if fmt == "f32" and zero_point is not None:
        raise UsageError("--zero-point applies to u8 windows only; an f32 "
                         f"window is quantized at {INPUT_ZERO_POINT}")
    if zero_point is None:
        zero_point = INPUT_ZERO_POINT
    if not 0 <= zero_point <= 255:
        raise UsageError(f"zero point must be in [0, 255], got {zero_point}")
    blob = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    if fmt == "f32" and c_in != 1:
        raise UsageError("raw f32 input supports single-channel models only")
    if fmt == "f32" and len(blob) % 4:
        raise UsageError(f"f32 input of {len(blob)} bytes is not a whole "
                         "number of 4-byte samples")
    samples = np.frombuffer(blob, dtype="<f4" if fmt == "f32" else np.uint8)
    if samples.size == 0 or samples.size % c_in != 0:
        raise UsageError(f"{fmt} input length {samples.size} not divisible by "
                         f"{c_in} channels")
    if fmt == "f32":
        return zscore_quantize(samples)
    return QuantTensor(samples.reshape(c_in, -1).copy(), zero_point=zero_point)


def _parse_address(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit() or int(port) > 0xFFFF:
        raise UsageError(f"address must be host:port, got {addr!r}")
    return host, int(port)


def _connect(addr: str) -> HostClient:
    try:
        sock = socket.create_connection(_parse_address(addr), timeout=10.0)
    except OSError as exc:
        raise UsageError(f"cannot connect to {addr}: {exc}")
    return HostClient(SocketTransport(sock), timeout=30.0)


def _output(out: str | None):
    """The text file at `out`, to write in a with block, or stdout for None
    or '-'."""
    if out is None or out == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    if args.model:
        net = _read_model(args.model).to_network_spec(args.input_length)
    else:
        net = NetworkSpec(NetworkSpec.default().layers,
                          input_length=args.input_length)
    report = network_report(net, clock_hz=args.clock_hz,
                            avg_power_mw=args.power_mw,
                            measured_latency_s=args.measured_latency_s)
    print(report.to_json() if args.json else report.to_text())
    return 0


# ---------------------------------------------------------------------------
# infer / trace
# ---------------------------------------------------------------------------

def cmd_infer(args) -> int:
    model = _read_model(args.model)
    x = _read_window(args.input, args.format, model.layers[0].c_in,
                     args.zero_point)
    mode = args.mode
    out: dict = {"mode": mode}
    if mode in ("golden", "both"):
        logits, _ = infer_window(model.to_network_spec(x.length),
                                 model.to_weight_set(), x)
        out["golden_logits"] = [int(v) for v in logits.values]
        out["predicted_class"] = int(logits.predicted_class)
    if mode in ("sim", "both"):
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(x)
        logits, cycles, _ = machine.run_inference()
        out["sim_logits"] = [int(v) for v in logits.values]
        out["predicted_class"] = int(logits.predicted_class)
        out["cycles"] = cycles
    if mode == "both":
        match = out["golden_logits"] == out["sim_logits"]
        out["match"] = match
        if args.json:
            print(json.dumps(out))
        else:
            verdict = "EXACT MATCH" if match else "MISMATCH"
            print(f"{verdict}: logits {out['golden_logits']} "
                  f"class {out['predicted_class']} cycles {out['cycles']:,}")
        if not match:
            print("golden and simulator disagree", file=sys.stderr)
            return 1
    else:
        key = f"{mode}_logits"
        print(json.dumps(out) if args.json else
              f"logits {out[key]} class {out['predicted_class']}"
              + (f" cycles {out['cycles']:,}" if "cycles" in out else ""))
    return 0


def cmd_trace(args) -> int:
    model = _read_model(args.model)
    x = _read_window(args.input, args.format, model.layers[0].c_in,
                     args.zero_point)
    machine = SimMachine()
    machine.load_model(model)
    machine.load_input(x)
    machine.start()
    # opened once the run has started, so a window the model cannot run
    # leaves no file; each line is written as it is stepped, so a fault
    # leaves the lines traced up to it, then exits 1
    with _output(args.out) as fh:
        try:
            for _ in range(args.cycles):
                print(machine.step().to_json(), file=fh)
        except StateError:
            pass    # the run ended before --cycles
    return 0


# ---------------------------------------------------------------------------
# pack
# ---------------------------------------------------------------------------

def _read_npz(path: str) -> dict[str, np.ndarray]:
    """Every array of an .npz archive, read at once from the file's bytes.

    np.load leaves its own file handle open on a file that starts like a zip
    but is not one, and reads each array lazily, so a damaged one would fail
    past the caller's check."""
    npz = np.load(io.BytesIO(Path(path).read_bytes()), allow_pickle=False)
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValueError("not an .npz archive")
    with npz:
        return dict(npz)


def _float_model_from_npz(path: str) -> tuple[FloatModel, np.ndarray | None]:
    """Float parameters from an .npz archive.

    Expected keys: per-layer `w{i}` [c_out, c_in, K] and `b{i}` [c_out],
    optional `bn{i}_gamma/beta/mean/var` (all four or none), optional `calib`
    [n, input_length] windows, and a `layout` JSON string that overrides the
    default topology, with a scalar `input_length` (the default runs at 512).
    """
    try:
        archive = _read_npz(path)
    except (ValueError, zipfile.BadZipFile) as exc:
        raise UsageError(f"cannot read float model {path}: {exc}")

    def need(key: str) -> np.ndarray:
        if key not in archive:
            raise UsageError(f"{path}: missing array {key!r}")
        return archive[key]
    n_layers = sum(1 for key in archive if key.startswith("w")
                   and key[1:].isdigit())
    if n_layers == 0:
        raise UsageError(f"{path}: no w0..wN weight arrays found")
    input_length = np.asarray(archive.get("input_length", 512))
    if input_length.ndim or input_length.dtype.kind not in "iu":
        raise UsageError(f"{path}: 'input_length' must be a scalar integer, "
                         f"got {input_length!r}")
    input_length = int(input_length)
    if "layout" in archive:
        try:
            specs = tuple(LayerSpec(kind=LayerKind[d["kind"]],
                                    c_in=d["c_in"], c_out=d["c_out"],
                                    kernel=d["kernel"], padding=d["padding"],
                                    pool_mode=PoolMode[d["pool"]],
                                    activation=Activation[d["activation"]])
                          for d in json.loads(str(archive["layout"])))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"{path}: 'layout' is not a JSON list of layer "
                             f"objects: {exc!r}")
        net = NetworkSpec(layers=specs, input_length=input_length)
    elif input_length != 512:
        raise UsageError(f"{path}: 'input_length' {input_length} needs a "
                         "'layout'; the default topology runs at 512 samples")
    else:
        w3 = archive.get("w3")
        l3_width = w3.shape[0] if w3 is not None else 128
        net = NetworkSpec.default(l3_width=l3_width)
    if len(net.layers) != n_layers:
        raise UsageError(f"{path}: {n_layers} weight arrays for "
                         f"{len(net.layers)} layers")
    params = []
    for i in range(n_layers):
        bn_keys = [f"bn{i}_{part}" for part in ("gamma", "beta", "mean", "var")]
        bn = None
        if any(key in archive for key in bn_keys):
            bn = BatchNorm(*(need(key) for key in bn_keys))
        params.append(FloatLayerParams(weights=need(f"w{i}"),
                                       bias=need(f"b{i}"), bn=bn))
    calib = archive["calib"] if "calib" in archive else None
    return FloatModel(net=net, layers=params), calib


def cmd_pack(args) -> int:
    fm, calib = _float_model_from_npz(args.from_float)
    if calib is None:
        calib = synth_windows(CALIB_WINDOWS, seed=args.seed,
                              window_len=fm.net.input_length).windows
    model = quantize_model(fm, calibrate_activation_scales(fm, calib))
    blob = model.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"packed {len(model.layers)} layers, "
          f"{model.weight_words.size} weight words, {len(blob)} bytes "
          f"-> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# serve / load / run
# ---------------------------------------------------------------------------

class _StdioTransport(Transport):
    """Byte-stream transport over this process's stdin/stdout."""

    def send(self, data: bytes):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()

    def recv(self, timeout=None) -> bytes:
        return sys.stdin.buffer.read1(65536)

    def close(self):
        pass


def cmd_serve(args) -> int:
    device = DeviceEmulator()
    if args.transport == "stdio":
        device.serve(_StdioTransport())
        return 0
    host, port = _parse_address(args.transport)
    with socket.create_server((host, port)) as server:
        host, port = server.getsockname()[:2]    # port 0 binds a free one
        print(f"listening on {host}:{port}", file=sys.stderr)
        while True:
            conn, peer = server.accept()
            print(f"session from {peer[0]}:{peer[1]}", file=sys.stderr)
            device.serve(SocketTransport(conn))
            if args.once:
                return 0


def cmd_load(args) -> int:
    model = _read_model(args.model)
    client = _connect(args.connect)
    try:
        client.load_model(model)
    finally:
        client.close()
    print("model loaded and verified")
    return 0


def cmd_run(args) -> int:
    x = _read_window(args.input, args.format, args.channels, args.zero_point)
    client = _connect(args.connect)
    try:
        logits, cycles = client.run(x)
    finally:
        client.close()
    print(f"logits {[int(v) for v in logits.values]} "
          f"class {logits.predicted_class} cycles {cycles:,}")
    return 0


# ---------------------------------------------------------------------------
# synth / eval
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    ds = synth_windows(args.n, noise=args.noise, seed=args.seed)
    np.savez(args.out, windows=ds.windows, labels=ds.labels)
    counts = np.bincount(ds.labels, minlength=NUM_CLASSES).tolist()
    print(f"wrote {len(ds)} windows (class counts {counts}) -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = _read_model(args.model)
    try:
        archive = _read_npz(args.data)
        windows, labels = archive["windows"], archive["labels"]
        if windows.ndim != 2:
            raise ValueError(f"windows must be [n][length], not {windows.shape}")
        if len(windows) == 0:
            raise ValueError("it holds no windows")
        if labels.shape != windows.shape[:1]:
            raise ValueError(f"labels must be [n], one per window: "
                             f"{labels.shape} labels for {len(windows)} windows")
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise UsageError(f"cannot read dataset {args.data}: {exc}")
    logits, probs, preds = golden_predict(model, windows, args.logit_scale)
    summary = evaluate(labels, probs=probs, pred_classes=preds)
    if args.dump:
        rows = [{"label": int(t), "pred": int(p),
                 "logits": [int(v) for v in l]}
                for t, p, l in zip(labels, preds, logits)]
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
    with _output(args.out) as fh:
        print(json.dumps(summary.to_dict(), indent=2), file=fh)
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    return ok


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    for trial in range(args.sweeps):
        net = NetworkSpec.default() if trial % 4 == 0 else random_small_net(rng)
        model = random_model(net, rng)
        x = random_input(rng, net)
        gold, _ = infer_window(model.to_network_spec(net.input_length),
                               model.to_weight_set(), x)
        machine = SimMachine()
        machine.load_model(model)
        machine.load_input(x)
        sim, _, _ = machine.run_inference()
        if not np.array_equal(gold.values, sim.values):
            mismatches += 1
    ok = _check("golden vs simulator", mismatches == 0,
                f"{args.sweeps} random pairs, {mismatches} mismatches")

    device = DeviceEmulator()
    host_end, _ = serve_in_thread(device)
    client = HostClient(host_end, timeout=30.0)
    net = NetworkSpec.default()
    model = random_model(net, rng)
    x = random_input(rng, net)
    try:
        client.load_model(model)
        remote, _ = client.run(x)
    finally:
        client.close()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    ok &= _check("protocol round trip", np.array_equal(remote.values, gold.values),
                 f"logits {[int(v) for v in remote.values]}")
    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scgaccel", description="Accelerator software twin toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--input", required=True, help="signal file or - for stdin")
    window.add_argument("--format", choices=["f32", "u8"], default="f32")
    window.add_argument("--zero-point", type=int,
                        help=f"u8 windows only (default {INPUT_ZERO_POINT})")

    p = sub.add_parser("analyze",
                       help="analytical cycle/throughput report (text or --json)")
    p.add_argument("--model", help="packed model file (default topology if omitted)")
    p.add_argument("--input-length", type=_count, default=512)
    # a float, so --json prints the default clock as 24000000.0
    p.add_argument("--clock-hz", type=float, default=float(DEFAULT_CLOCK_HZ))
    p.add_argument("--power-mw", type=float, default=DEFAULT_POWER_MW)
    p.add_argument("--measured-latency-s", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("infer", parents=[window],
                       help="run one window through the golden model, the "
                       "simulator or both (--both, the default, asserts "
                       "bit-exactness)")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--golden", dest="mode", action="store_const",
                       const="golden")
    group.add_argument("--sim", dest="mode", action="store_const", const="sim")
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_infer, mode="both")

    p = sub.add_parser("trace", parents=[window],
                       help="per-cycle simulator trace prefix as JSON lines")
    p.add_argument("--model", required=True)
    p.add_argument("--cycles", type=_count, required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("pack",
                       help="quantize a float .npz model into the binary format")
    p.add_argument("--from-float", required=True, help=".npz float parameters")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed for fallback calibration windows")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("serve", help="run the device emulator")
    p.add_argument("--transport", required=True,
                   help="stdio or host:port; port 0 binds a free port and "
                   "prints it on stderr")
    p.add_argument("--once", action="store_true", help="exit after one session")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("load", help="upload and verify a model on a device")
    p.add_argument("--connect", required=True, help="host:port")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("run", parents=[window],
                       help="run one window on a remote device")
    p.add_argument("--connect", required=True, help="host:port")
    p.add_argument("--channels", type=_count, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noise", type=float, default=0.15,
                   help="noise level, finite and >= 0; 0 writes a noise-free set")
    p.add_argument("--out", required=True, help=".npz output")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="evaluate a model on a labeled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help=".npz with windows/labels")
    p.add_argument("--logit-scale", type=float, default=1.0,
                   help="scale applied to integer logits before softmax; it "
                   "shapes only the probabilities (ECE, AP), as each class is "
                   "the first argmax of the integer logits")
    p.add_argument("--out", help="summary JSON (default stdout)")
    p.add_argument("--dump", help="per-window prediction dump JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="install check: golden/simulator "
                       "sweep and device-link round trip")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sweeps", type=_count, default=12)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
