"""The three benchmark workloads.

Each workload function takes ``(seed, seconds, trace)`` and returns a
``Result``.  With ``trace`` false it reports the end-to-end metrics; with
``trace`` true it runs the same work twice, first untraced and then with
spans around each call into the package, and reports the per-layer metrics
plus the tracing overhead.  Every operation's output is checked; a wrong
output or an exception counts as a failed operation instead of stopping the
run.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
from collections import Counter, defaultdict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from scgaccel.cyclemodel import network_report
from scgaccel.errors import StateError
from scgaccel.link import DeviceEmulator, FrameDecoder, HostClient, serve_in_thread
from scgaccel.metrics import evaluate, softmax
from scgaccel import link, metrics, modeltools
from scgaccel.modeltools import PackedModel, random_model
from scgaccel.pipeline import (INPUT_SCALE, INPUT_ZERO_POINT,
                               build_reference_model, golden_predict,
                               quantize_windows)
from scgaccel.qnn import (GAP_LENGTH, Activation, LayerKind, LayerSpec, NetworkSpec,
                          PoolMode, QuantTensor, conv1d_acc, gap_shift_acc,
                          infer_window, maxpool2_acc, requantize,
                          zscore_quantize)
from scgaccel.sim import SimMachine

from tracing import CountingTransport, Tracer

LOAD_SHARE = 0.15        # share of the measured time spent on model loads
MIN_LOADS = 5
LOCAL_LOAD_BATCH = 100   # sub-millisecond local loads are timed 100 at a time
MIN_LATENCY_SAMPLES = 100   # so that at least ten samples lie beyond p90

# Host speed on a shared 2-vCPU virtual machine drifts by up to 2x within
# minutes, for all code alike.  Every timed operation is therefore followed
# by a fixed reference kernel, and each duration is also kept normalized:
# divided by the running median of the kernel's duration and multiplied by
# the kernel's duration on that machine in its fast phases.
REF_NOMINAL_S = 0.0011
REF_PY_ITERS = 6000
REF_WINDOW = 5           # reference runs in the running median
REF_SAMPLE_S = 0.05      # reference interval within a long operation

# eval-golden
N_EVAL_WINDOWS = 240     # the dataset; one pass is one `scgaccel eval`
N_CALIB_WINDOWS = 96
CALIB_SEED_OFFSET = 1_000_003
MIN_EVAL_PASSES = 3
N_SIM_CHECKS = 4
EVAL_SETUP_REPEATS = 5

# device-session
N_REMOTE_WINDOWS = 32
REPLY_TIMEOUT_S = 30.0
DEVICE_SETUP_REPEATS = 21

# micro-trace
N_MICRO_WINDOWS = 8
MICRO_SETUP_REPEATS = 31


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    raw: dict[str, float] | None = None     # end-to-end host times, not normalized

    def record(self, ok: bool, what: str, count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(what)


def attempt(result: Result, what: str, op, count: int = 1):
    """Run one operation; an exception counts as `count` failed operations."""
    try:
        return op()
    except Exception as exc:  # a failing operation is counted, not raised
        result.record(False, f"{what}: {exc!r}", count)
        return None


class Stopwatch:
    """Times operations, each followed by the fixed reference kernel.

    Keeps every duration twice under its key: raw, and normalized by the
    median of the last REF_WINDOW reference durations, the newest measured
    right after the operation.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.integers(-64, 65, (16, 16, 9), dtype=np.int64)
        self._x = rng.integers(-128, 128, (16, 192, 9), dtype=np.int64)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.norm: dict[str, list[float]] = defaultdict(list)
        self._refs: deque[float] = deque(maxlen=REF_WINDOW)

    def _kernel(self):
        np.einsum("ock,ctk->ot", self._w, self._x)
        acc, table = 0, {}
        for i in range(REF_PY_ITERS):
            acc = (acc * 31 + i) & 0xFFFF
            table[i & 63] = acc

    def reference(self) -> float:
        """Seconds for a fixed int64 einsum plus a fixed pure-Python loop.

        The kernel runs twice and only the second, warm run is timed, so the
        cache footprint of the operation before it does not leak in.
        """
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def time(self, key: str, op, per: int = 1):
        """Run `op`, record its duration divided by `per`, and return its result."""
        t0 = time.perf_counter()
        out = op()
        seconds = (time.perf_counter() - t0) / per
        self._refs.append(self.reference())
        self.raw[key].append(seconds)
        self.norm[key].append(seconds * REF_NOMINAL_S / statistics.median(self._refs))
        return out

    def time_long(self, key: str, op, per: int = 1):
        """Like `time`, for an operation that lasts many reference intervals.

        A timer signal interrupts `op` every REF_SAMPLE_S and runs the
        reference kernel, so the normalization follows speed changes within
        the operation.  The interruptions are left out: the operation is
        timed in the segments between them, and each segment is normalized
        by the running median that includes the reference measured right
        after it.  Only for single-threaded work, since the kernel holds the
        GIL while it runs.
        """
        cuts = []       # (start, end, reference median) of each interruption

        def sample(signum, frame):
            start = time.perf_counter()
            self._refs.append(self.reference())
            cuts.append((start, time.perf_counter(), statistics.median(self._refs)))
        previous = signal.signal(signal.SIGALRM, sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_SAMPLE_S, REF_SAMPLE_S)
        try:
            out = op()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._refs.append(self.reference())
        raw = norm = 0.0
        last = t0
        for start, end, ref in [c for c in cuts if c[0] < t1] + [
                (t1, t1, statistics.median(self._refs))]:
            raw += start - last
            norm += (start - last) * REF_NOMINAL_S / ref
            last = end
        self.raw[key].append(raw / per)
        self.norm[key].append(norm / per)
        return out

    def repeat(self, key: str, seconds: float, min_count: int, op, batch: int = 1):
        """Time `op` for `seconds` of wall time and at least `min_count` times.

        Each sample is `batch` consecutive calls, recorded per call.
        """
        def ops():
            for _ in range(batch):
                op()
        end = time.perf_counter() + seconds
        count = 0
        while count < min_count or time.perf_counter() < end:
            self.time(key, ops, per=batch)
            count += 1

    def setup(self, repeats: int, build, teardown=None):
        """Build `repeats` times under key "setup"; return the last context."""
        ctx = None
        for _ in range(repeats):
            if ctx is not None and teardown is not None:
                teardown(ctx)
            gc.collect()
            ctx = self.time_long("setup", build)
        return ctx


def host_metrics(samples: dict[str, list[float]]) -> dict[str, float]:
    """End-to-end host-time metrics from per-operation durations.

    "window" holds seconds per window, "load" per model load, "setup" per
    set-up.
    """
    window = np.asarray(samples["window"])
    return {
        "setup_s": statistics.median(samples["setup"]),
        "windows_per_s": 1.0 / float(window.mean()),
        "upload_ms": statistics.median(samples["load"]) * 1e3,
        "run_ms_p50": float(np.median(window)) * 1e3,
        "run_ms_p90": float(np.percentile(window, 90)) * 1e3,
    }


def end_to_end(result: Result, watch: Stopwatch, accuracy: float) -> Result:
    result.metrics = {**host_metrics(watch.norm), "accuracy": accuracy,
                      "peak_rss_mb": peak_rss_mb()}
    result.raw = host_metrics(watch.raw)
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(watch: Stopwatch) -> float:
    """Traced minus untraced normalized time per window, in % of untraced."""
    untraced = statistics.fmean(watch.norm["window"])
    return (statistics.fmean(watch.norm["traced"]) / untraced - 1.0) * 100.0


# ---------------------------------------------------------------------------
# eval-golden: the `scgaccel eval` path on a synthetic dataset
# ---------------------------------------------------------------------------

def _eval_setup(seed: int):
    data = metrics.synth_windows(N_EVAL_WINDOWS, seed=seed)
    calib = metrics.synth_windows(N_CALIB_WINDOWS, seed=seed + CALIB_SEED_OFFSET)
    model, logit_scale = build_reference_model(calib, seed=seed)
    return data, model, logit_scale


def _traced_infer(tracer: Tracer, net: NetworkSpec, ws, window, macs: list[int]):
    """The golden pipeline op by op, with a span around each qnn call."""
    with tracer.span("qnn.zscore_quantize"):
        cur = zscore_quantize(window, INPUT_ZERO_POINT, INPUT_SCALE)
    logits = None
    for li, (layer, lw) in enumerate(zip(net.layers, ws.layers)):
        with tracer.span(f"qnn.L{li}.conv1d_acc"):
            acc = conv1d_acc(cur, layer, lw)
        macs[li] = acc.size * layer.c_in * layer.kernel
        if layer.pool_mode == PoolMode.MAXPOOL2:
            with tracer.span(f"qnn.L{li}.maxpool2_acc"):
                acc = maxpool2_acc(acc)
        elif layer.pool_mode == PoolMode.GLOBAL_AVG:
            with tracer.span(f"qnn.L{li}.gap_shift_acc"):
                acc = gap_shift_acc(acc)[:, np.newaxis]
        with tracer.span(f"qnn.L{li}.requantize"):
            out = requantize(acc, layer.requant_multiplier, layer.requant_shift,
                             layer.activation, layer.out_zero_point)
        if layer.activation == Activation.RELU_SATURATE:
            cur = QuantTensor(out, zero_point=layer.out_zero_point)
        else:
            logits = out[:, 0]
    return logits


def eval_golden(seed: int, seconds: float, trace: bool) -> Result:
    result, watch, tracer = Result(metrics={}), Stopwatch(), Tracer()
    if trace:
        with tracer.patched((metrics, "synth_windows", "metrics.synth_windows"),
                            (modeltools, "float_forward", "modeltools.float_forward"),
                            (modeltools, "calibrate_activation_scales",
                             "modeltools.calibrate_activation_scales"),
                            (modeltools, "quantize_model", "modeltools.quantize_model")):
            data, model, logit_scale = _eval_setup(seed)
    else:
        data, model, logit_scale = watch.setup(EVAL_SETUP_REPEATS,
                                               lambda: _eval_setup(seed))
    n, width = len(data), data.windows.shape[1]
    blob = model.to_bytes()

    # model load: what `scgaccel eval` does with a model file, then the
    # network and weight views golden_predict builds from it
    def load():
        loaded = PackedModel.from_bytes(blob)
        loaded.to_network_spec(input_length=width)
        loaded.to_weight_set()
        result.record(True, "")
    with tracer.patched((PackedModel, "from_bytes", "modeltools.from_bytes")) \
            if trace else nullcontext():
        watch.repeat("load", LOAD_SHARE * seconds, MIN_LOADS,
                     lambda: attempt(result, "model load", load), LOCAL_LOAD_BATCH)
    result.record(PackedModel.from_bytes(blob).to_bytes() == blob, "model round trip")

    # one untimed pass gives the reference logits and the accuracy
    first_logits = np.zeros((n, model.layers[-1].c_out), dtype=np.int64)
    accuracy = 0.0
    first = attempt(result, "first pass", lambda: golden_predict(
        model, data.windows, logit_scale), n)
    if first is not None:
        result.record(True, "", n)
        first_logits = first[0]
        summary = attempt(result, "evaluate", lambda: evaluate(data.labels,
                                                               probs=first[1]))
        if summary is not None:
            result.record(True, "")
            accuracy = summary.accuracy
    window_s = (1 - LOAD_SHARE) * seconds / (2 if trace else 1)

    # what `scgaccel eval` does: one golden_predict over the dataset, then evaluate
    def eval_pass():
        out = attempt(result, "golden_predict", lambda: golden_predict(
            model, data.windows, logit_scale), n)
        if out is None:
            return
        logits, probs, _ = out
        changed = np.flatnonzero((logits != first_logits).any(axis=1))
        result.record(True, "", n - len(changed))
        for i in changed:
            result.record(False, f"window {i}: logits changed between passes")
        if attempt(result, "evaluate", lambda: evaluate(data.labels, probs=probs)):
            result.record(True, "")

    # a traced run times its passes without interruptions, which would land
    # inside the spans; the untraced passes it compares them with likewise
    timed = watch.time if trace else watch.time_long

    def run_passes(key: str, op):
        gc.collect()
        end = time.perf_counter() + window_s
        count = 0
        while count < MIN_EVAL_PASSES or time.perf_counter() < end:
            timed(key, op, per=n)
            count += 1

    run_passes("window", eval_pass)

    if trace:
        # the same passes op by op, every qnn and metrics call in a span
        net = model.to_network_spec(input_length=width)
        ws = model.to_weight_set()
        macs = [0] * len(net.layers)

        def traced_pass():
            logits = np.zeros_like(first_logits)
            for i in range(n):
                out = attempt(result, f"traced window {i}", lambda: _traced_infer(
                    tracer, net, ws, data.windows[i], macs))
                if out is None:
                    continue
                logits[i] = out
                result.record(bool((out == first_logits[i]).all()),
                              f"window {i}: op-by-op logits differ from infer_window")
            probs = softmax(logits, logit_scale)
            with tracer.span("metrics.evaluate"):
                attempt(result, "evaluate", lambda: evaluate(data.labels, probs=probs))
        run_passes("traced", traced_pass)

    # a sample of windows through the simulator's fast path, bit-exact
    machine = SimMachine()
    machine.load_model(model)
    picks = np.random.default_rng(seed).choice(n, N_SIM_CHECKS, replace=False)
    for i, x in zip(picks, quantize_windows(data.windows[picks])):
        def sim_check():
            machine.load_input(x)
            logits, _, _ = machine.run_inference()
            return bool(np.array_equal(logits.values, first_logits[i]))
        ok = attempt(result, f"sim check window {i}", sim_check)
        if ok is not None:
            result.record(ok, f"window {i}: simulator differs from golden_predict")

    if not trace:
        return end_to_end(result, watch, accuracy)

    m = {
        "qnn.zscore_quantize.ms": tracer.mean("qnn.zscore_quantize") * 1e3,
        "modeltools.float_forward.ms": tracer.mean("modeltools.float_forward") * 1e3,
        "modeltools.calibrate_activation_scales.s":
            tracer.total("modeltools.calibrate_activation_scales"),
        "modeltools.quantize_model.ms": tracer.total("modeltools.quantize_model") * 1e3,
        "modeltools.from_bytes.ms": tracer.mean("modeltools.from_bytes") * 1e3,
        "metrics.synth_windows.s": tracer.total("metrics.synth_windows"),
        "metrics.evaluate.ms": tracer.mean("metrics.evaluate") * 1e3,
        "bench.trace_overhead_pct": overhead_pct(watch),
    }
    for li in range(len(net.layers)):
        for op in ("conv1d_acc", "maxpool2_acc", "gap_shift_acc", "requantize"):
            name = f"qnn.L{li}.{op}"
            if tracer.select(name):
                m[f"{name}.ms"] = tracer.mean(name) * 1e3
        m[f"qnn.L{li}.macs"] = macs[li]
    result.metrics = m
    return result


# ---------------------------------------------------------------------------
# device-session: one closed-loop host client against the device emulator
# ---------------------------------------------------------------------------

@dataclass
class _Session:
    model: PackedModel
    windows: list[QuantTensor]
    device: DeviceEmulator
    client: HostClient
    thread: object

    def close(self):
        self.client.close()
        self.thread.join(timeout=REPLY_TIMEOUT_S)


def _device_setup(seed: int) -> _Session:
    rng = np.random.default_rng(seed)
    net = NetworkSpec.default()
    model = random_model(net, rng)
    windows = [QuantTensor(rng.integers(0, 256, (1, net.input_length), dtype=np.uint8),
                           zero_point=INPUT_ZERO_POINT)
               for _ in range(N_REMOTE_WINDOWS)]
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    return _Session(model, windows, device, HostClient(host_end, timeout=REPLY_TIMEOUT_S),
                    thread)


def device_session(seed: int, seconds: float, trace: bool) -> Result:
    result, watch, tracer = Result(metrics={}), Stopwatch(), Tracer()
    if trace:
        session = _device_setup(seed)
    else:
        session = watch.setup(DEVICE_SETUP_REPEATS, lambda: _device_setup(seed),
                              _Session.close)
    try:
        return _device_session(session, result, watch, tracer, seconds, trace)
    finally:
        session.close()


def _device_session(session: _Session, result: Result, watch: Stopwatch,
                    tracer: Tracer, seconds: float, trace: bool) -> Result:
    client, machine = session.client, session.device.machine
    plain = client.transport
    counting = CountingTransport(plain)
    layer_cycles = []           # per traced run, from run_inference's result

    def capture_cycles(run_inference):
        def run():
            out = run_inference()
            layer_cycles.append(out[2])
            return out
        return run
    targets = (
        (link, "crc8", "link.crc8", lambda data, *_: {"bytes": len(data)}),
        (link, "encode_frame", "link.encode_frame"),
        (FrameDecoder, "next_frame", "link.next_frame"),
        (PackedModel, "to_bytes", "modeltools.to_bytes"),
        (PackedModel, "from_bytes", "modeltools.from_bytes"),
        (session.device, "handle_frame",
         lambda frame: f"link.device.{frame.command.name}"),
        (machine, "load_model", "sim.load_model"),
        (machine, "export_model", "sim.export_model"),
        (machine, "load_input", "sim.load_input"),
        (machine, "run_inference", "sim.run_inference"),
    )

    def upload():
        client.load_model(session.model)
        result.record(True, "")
    client.transport = counting if trace else plain
    with tracer.patched(*targets) if trace else nullcontext():
        watch.repeat("load", LOAD_SHARE * seconds, MIN_LOADS,
                     lambda: attempt(result, "upload", upload))
    client.transport = plain

    # closed loop: the next window is sent only after the previous result
    runs = []      # (window index, (logits, cycles) or None)

    def run_windows(key: str, seconds: float):
        gc.collect()
        end = time.perf_counter() + seconds
        count = 0
        while count < MIN_LATENCY_SAMPLES or time.perf_counter() < end:
            i = len(runs) % N_REMOTE_WINDOWS
            runs.append((i, watch.time(key, lambda: attempt(
                result, f"run window {i}", lambda: client.run(session.windows[i])))))
            count += 1

    window_s = (1 - LOAD_SHARE) * seconds / (2 if trace else 1)
    run_windows("window", window_s)
    if trace:
        client.transport = counting
        machine.run_inference = capture_cycles(machine.run_inference)
        with tracer.patched(*targets, (client, "run", "link.host.run")):
            run_windows("traced", window_s)
        del machine.run_inference
        client.transport = plain

    # checks, outside the timed region
    net = session.model.to_network_spec()
    ws = session.model.to_weight_set()
    golden = [infer_window(net, ws, w)[0] for w in session.windows]
    report = network_report(NetworkSpec.default())
    agree = 0
    for i, out in runs:
        if out is None:
            continue
        logits, cycles = out
        result.record(np.array_equal(logits.values, golden[i].values)
                      and cycles == report.total_cycles,
                      f"window {i}: remote result {logits.values.tolist()} in "
                      f"{cycles} cycles differs from golden")
        agree += logits.predicted_class == golden[i].predicted_class
    if attempt(result, "verify", lambda: client.verify(session.model) or True):
        result.record(True, "")

    if not trace:
        return end_to_end(result, watch, agree / len(runs))

    expected = [(lc.prime, lc.compute, lc.requant) for lc in report.layers]
    for lcs in layer_cycles:
        result.record([(lc.prime, lc.compute, lc.requant) for lc in lcs] == expected,
                      "simulated layer cycles differ from the cycle model")
    last_cycles = layer_cycles[-1] if layer_cycles else []
    host_runs = tracer.select("link.host.run")
    busy = (tracer.total("link.device.LOAD_INPUT")
            + tracer.total("link.device.RUN_INFERENCE"))
    crc_bytes = sum(s.attrs["bytes"] for s in tracer.select("link.crc8"))
    m = {
        "link.crc8.us_per_kb": tracer.total("link.crc8") * 1e6 / (crc_bytes / 1024),
        "link.encode_frame.us": tracer.mean("link.encode_frame") * 1e6,
        "link.next_frame.us": tracer.mean("link.next_frame") * 1e6,
        "link.wait.ms": (tracer.total("link.host.run") - busy) / len(host_runs) * 1e3,
        **counting.metrics(),
        "modeltools.to_bytes.ms": tracer.mean("modeltools.to_bytes") * 1e3,
        "modeltools.from_bytes.ms": tracer.mean("modeltools.from_bytes") * 1e3,
        "sim.load_model.ms": tracer.mean("sim.load_model") * 1e3,
        "sim.export_model.ms": tracer.mean("sim.export_model") * 1e3,
        "sim.load_input.ms": tracer.mean("sim.load_input") * 1e3,
        "sim.run_inference.ms": tracer.mean("sim.run_inference") * 1e3,
        "sim.mac_count": machine.mac_count,
        "sim.total_cycles": sum(lc.total for lc in last_cycles),
        "bench.trace_overhead_pct": overhead_pct(watch),
    }
    for cmd in ("LOAD_WEIGHTS", "VERIFY_MEM", "LOAD_INPUT", "RUN_INFERENCE"):
        m[f"link.device.{cmd}.ms"] = tracer.mean(f"link.device.{cmd}") * 1e3
    for li, lc in enumerate(last_cycles):
        m[f"sim.L{li}.prime_cycles"] = lc.prime
        m[f"sim.L{li}.compute_cycles"] = lc.compute
        m[f"sim.L{li}.requant_cycles"] = lc.requant
    result.metrics = m
    return result


# ---------------------------------------------------------------------------
# micro-trace: the per-clock start()/step() path with a trace sink
# ---------------------------------------------------------------------------

def micro_network() -> NetworkSpec:
    """One layer of every kind: maxpool conv, bypass-ReLU conv, GAP conv, FC."""
    relu = dict(kind=LayerKind.CONV1D, activation=Activation.RELU_SATURATE)
    return NetworkSpec(layers=(
        LayerSpec(c_in=1, c_out=4, kernel=9, padding=4,
                  pool_mode=PoolMode.MAXPOOL2, **relu),
        LayerSpec(c_in=4, c_out=4, kernel=5, padding=2,
                  pool_mode=PoolMode.BYPASS, **relu),
        LayerSpec(c_in=4, c_out=8, kernel=3, padding=1,
                  pool_mode=PoolMode.GLOBAL_AVG, **relu),
        LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=8, c_out=3, kernel=1,
                  padding=0, pool_mode=PoolMode.BYPASS,
                  activation=Activation.SIGNED_BYPASS),
    ), input_length=2 * GAP_LENGTH)


class _StateCounter:
    """Trace sink: simulated cycles per (layer, state) of the current window."""

    def __init__(self):
        self.counts = Counter()

    def reset(self):
        self.counts.clear()

    def __call__(self, event):
        self.counts[event.layer, event.state] += 1

    def layer_cycles(self, n_layers: int) -> list[tuple[int, int, int]]:
        return [(self.counts[li, "prime"], self.counts[li, "compute"],
                 self.counts[li, "requant"]) for li in range(n_layers)]


class _LayerClock(_StateCounter):
    """Also timestamps each layer's first cycle and counts weight-memory reads."""

    def reset(self):
        super().reset()
        self.layer_start: dict[int, float] = {}
        self.weight_reads = 0

    def __call__(self, event):
        self.counts[event.layer, event.state] += 1
        self.end = time.perf_counter()
        if event.layer not in self.layer_start:
            self.layer_start[event.layer] = self.end
        for read in event.reads:
            if read["mem"] == "weight":
                self.weight_reads += 1


@dataclass
class _MicroBench:
    net: NetworkSpec
    model: PackedModel
    windows: list[QuantTensor]
    machine: SimMachine


def _micro_setup(seed: int) -> _MicroBench:
    rng = np.random.default_rng(seed)
    net = micro_network()
    model = random_model(net, rng)
    windows = [QuantTensor(rng.integers(0, 256, (1, net.input_length), dtype=np.uint8),
                           zero_point=INPUT_ZERO_POINT)
               for _ in range(N_MICRO_WINDOWS)]
    return _MicroBench(net, model, windows, SimMachine(trace_sink=_StateCounter()))


def _step_window(machine: SimMachine, x: QuantTensor):
    machine.trace_sink.reset()
    machine.load_input(x)
    machine.start()
    while True:
        try:
            machine.step()
        except StateError:     # the run is complete
            return


def micro_trace(seed: int, seconds: float, trace: bool) -> Result:
    result, watch, tracer = Result(metrics={}), Stopwatch(), Tracer()
    if trace:
        bench = _micro_setup(seed)
    else:
        bench = watch.setup(MICRO_SETUP_REPEATS, lambda: _micro_setup(seed))
    machine, n_layers = bench.machine, len(bench.net.layers)
    blob = bench.model.to_bytes()

    # model load: SANN bytes into the machine, then the readback VERIFY_MEM uses
    def load():
        machine.load_model(PackedModel.from_bytes(blob))
        result.record(machine.export_model().to_bytes() == blob,
                      "machine readback differs from the loaded model")
    with tracer.patched((PackedModel, "from_bytes", "modeltools.from_bytes"),
                        (PackedModel, "to_bytes", "modeltools.to_bytes"),
                        (machine, "load_model", "sim.load_model"),
                        (machine, "export_model", "sim.export_model")) \
            if trace else nullcontext():
        watch.repeat("load", LOAD_SHARE * seconds, MIN_LOADS,
                     lambda: attempt(result, "model load", load), LOCAL_LOAD_BATCH)

    first: dict[int, tuple] = {}     # window -> (logits, layer cycles, activations)
    outcomes = []                    # (window, logits or None) per window run
    relu_layers = [li for li, spec in enumerate(bench.net.layers)
                   if spec.activation == Activation.RELU_SATURATE]

    def window(i: int):
        if attempt(result, f"micro window {i}",
                   lambda: _step_window(machine, bench.windows[i]) or True) is None:
            outcomes.append((i, None))
            return False
        logits = machine.last_logits.values.copy()
        outcomes.append((i, logits))
        if i not in first:
            first[i] = (logits, machine.trace_sink.layer_cycles(n_layers),
                        [machine.read_layer_activation(li).data.copy()
                         for li in relu_layers])
        return True

    def run_windows(key: str, seconds: float, on_window=None):
        gc.collect()
        end = time.perf_counter() + seconds
        count = 0
        while count < MIN_LATENCY_SAMPLES or time.perf_counter() < end:
            i = len(outcomes) % N_MICRO_WINDOWS
            if watch.time(key, lambda: window(i)) and on_window is not None:
                on_window(machine.trace_sink)
            count += 1

    window_s = (1 - LOAD_SHARE) * seconds / (2 if trace else 1)
    run_windows("window", window_s)
    if trace:
        layer_s = np.zeros(n_layers)
        per_window = []

        def on_window(clock: _LayerClock):
            starts = [clock.layer_start[li] for li in range(n_layers)] + [clock.end]
            layer_s[:] += np.diff(starts)
            per_window.append((clock.layer_cycles(n_layers), clock.weight_reads))
        machine.trace_sink = _LayerClock()
        run_windows("traced", window_s, on_window)
        machine.trace_sink = _StateCounter()

    # checks against the fast path and the cycle model, outside the timed region
    fast = SimMachine()
    fast.load_model(bench.model)
    net = bench.model.to_network_spec(input_length=bench.net.input_length)
    ws = bench.model.to_weight_set()
    report = network_report(bench.net)
    expected_cycles = [(lc.prime, lc.compute, lc.requant) for lc in report.layers]
    golden_class = {}
    for i, (logits, cycles, activations) in first.items():
        fast.load_input(bench.windows[i])
        fast_logits, _, fast_cycles = fast.run_inference()
        ok = (np.array_equal(logits, fast_logits.values)
              and cycles == [(lc.prime, lc.compute, lc.requant) for lc in fast_cycles]
              and cycles == expected_cycles
              and all(np.array_equal(a, fast.read_layer_activation(li).data)
                      for a, li in zip(activations, relu_layers)))
        result.record(ok, f"window {i}: micro path differs from the fast path")
        golden_class[i] = infer_window(net, ws, bench.windows[i])[0].predicted_class
    agree = 0
    for i, logits in outcomes:
        if logits is None:
            continue
        result.record(np.array_equal(logits, first[i][0]),
                      f"window {i}: micro logits changed between runs")
        agree += int(np.argmax(logits)) == golden_class[i]

    if not trace:
        return end_to_end(result, watch, agree / len(outcomes))

    for cycles, reads in per_window:
        result.record(cycles == expected_cycles and reads == per_window[0][1],
                      "traced window cycle counts differ")
    cycles, weight_reads = per_window[0] if per_window else ([(0, 0, 0)] * n_layers, 0)
    steps = report.total_cycles
    m = {
        "modeltools.from_bytes.ms": tracer.mean("modeltools.from_bytes") * 1e3,
        "modeltools.to_bytes.ms": tracer.mean("modeltools.to_bytes") * 1e3,
        "sim.load_model.ms": tracer.mean("sim.load_model") * 1e3,
        "sim.export_model.ms": tracer.mean("sim.export_model") * 1e3,
        "micro.cycles_per_s": steps / statistics.fmean(watch.raw["window"]),
        "micro.step.us": statistics.fmean(watch.raw["traced"]) / steps * 1e6,
        "micro.weight_reads": weight_reads,
        "bench.trace_overhead_pct": overhead_pct(watch),
    }
    for s, state in enumerate(("prime", "compute", "requant")):
        m[f"micro.state.{state}"] = sum(c[s] for c in cycles)
    for li in range(n_layers):
        m[f"micro.L{li}.host_s"] = layer_s[li] / max(len(per_window), 1)
        m[f"micro.L{li}.cycles"] = sum(cycles[li])
    result.metrics = m
    return result


WORKLOADS = {
    "eval-golden": eval_golden,
    "device-session": device_session,
    "micro-trace": micro_trace,
}
