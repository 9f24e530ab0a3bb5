"""Framing, protocol state machine, and host/device end-to-end behavior."""

import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_input, wide_image_net
from scgaccel.errors import (CrcError, FramingError, ProtocolError,
                             VerificationError)
from scgaccel.link import (CHUNK_SIZE, Command, DeviceEmulator, Frame,
                           FrameDecoder, HostClient, NackReason, SOF,
                           Transport, crc8, encode_frame, machine_digest,
                           memory_pair, model_digest, serve_in_thread)
from scgaccel.modeltools import PackedModel, random_model
from scgaccel.qnn import (Activation, LayerKind, LayerSpec, LayerWeights,
                          NetworkSpec, PoolMode, QuantTensor, WeightSet,
                          infer_window)
from scgaccel.sim import SimMachine


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _crc8_bitwise(data: bytes) -> int:
    """Reference CRC-8 (poly 0x07, init 0x00), one shift per bit."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def decode_frame(data: bytes) -> Frame | None:
    """One-shot decode of a single complete frame."""
    decoder = FrameDecoder()
    decoder.feed(data)
    return decoder.next_frame()


def test_crc8_known_vectors():
    assert crc8(b"") == 0x00
    assert crc8(b"\x00") == 0x00
    assert crc8(b"123456789") == 0xF4   # standard CRC-8/SMBUS check value


def test_crc8_matches_bitwise_reference_on_every_byte():
    for byte in range(256):
        assert crc8(bytes([byte])) == _crc8_bitwise(bytes([byte])), byte


@given(data=st.binary(max_size=5000))
@settings(max_examples=200, deadline=None)
def test_crc8_matches_bitwise_reference(data):
    assert crc8(data) == _crc8_bitwise(data)


def test_frame_round_trip_simple():
    frame = Frame(Command.LOAD_INPUT, seq=7, payload=b"\x80hello")
    assert decode_frame(encode_frame(frame)) == frame


def test_ack_frame_is_six_bytes():
    wire = encode_frame(Frame(Command.ACK, seq=3))
    assert len(wire) == 6
    assert wire[0] == SOF
    assert wire[1] == 0x80 and wire[2] == 3
    assert struct.unpack_from("<H", wire, 3)[0] == 0


@given(command=st.sampled_from(list(Command)), seq=st.integers(0, 255),
       payload=st.binary(max_size=4096))
@settings(max_examples=300, deadline=None)
def test_frame_round_trip_property(command, seq, payload):
    frame = Frame(command, seq=seq, payload=payload)
    assert decode_frame(encode_frame(frame)) == frame


def test_payload_cap():
    with pytest.raises(FramingError):
        Frame(Command.LOAD_WEIGHTS, payload=b"\x00" * 4097)


def test_single_bit_flip_is_detected():
    wire = bytearray(encode_frame(Frame(Command.RUN_INFERENCE, seq=9,
                                        payload=b"abc")))
    for i in range(1, len(wire)):    # skip SOF: losing it just drops the frame
        for bit in range(8):
            mutated = bytearray(wire)
            mutated[i] ^= 1 << bit
            decoder = FrameDecoder()
            decoder.feed(bytes(mutated))
            try:
                frame = decoder.next_frame()
            except (CrcError, FramingError):
                continue
            # a flip may still parse if it only garbles in-payload SOF resync,
            # but it must never produce the original frame's content unchanged
            if frame is not None:
                assert not (frame.seq == 9 and frame.payload == b"abc"
                            and frame.command == Command.RUN_INFERENCE)


def test_decoder_resyncs_after_garbage():
    decoder = FrameDecoder()
    good = encode_frame(Frame(Command.ACK, seq=1))
    decoder.feed(b"\x00\xff\x17" + good)
    frame = decoder.next_frame()
    assert frame is not None and frame.seq == 1


def test_decoder_streams_partial_frames():
    wire = encode_frame(Frame(Command.LOAD_WEIGHTS, seq=2, payload=b"\x01" * 100))
    decoder = FrameDecoder()
    for i in range(0, len(wire), 7):
        assert decoder.next_frame() is None or i + 7 >= len(wire)
        decoder.feed(wire[i:i + 7])
    frame = decoder.next_frame()
    assert frame is not None and frame.payload == b"\x01" * 100


def test_decoder_rejects_oversized_declared_length():
    body = struct.pack("<BBH", int(Command.ACK), 0, 5000)
    decoder = FrameDecoder()
    decoder.feed(bytes([SOF]) + body + bytes([crc8(body)]))
    with pytest.raises(FramingError):
        decoder.next_frame()


# ---------------------------------------------------------------------------
# Device state machine (direct frame handling)
# ---------------------------------------------------------------------------

def _small_model(rng):
    return random_model(NetworkSpec.default(l3_width=16), rng)


def _load_via_frames(device, model):
    blob = model.to_bytes()
    seq = 0
    for off in range(0, len(blob), CHUNK_SIZE):
        reply = device.handle_frame(Frame(Command.LOAD_WEIGHTS, seq=seq,
                                          payload=blob[off:off + CHUNK_SIZE]))
        assert reply.command == Command.ACK
        seq = (seq + 1) % 256
    return seq


def test_sequence_discipline(rng):
    device = DeviceEmulator()
    model = _small_model(rng)
    blob = model.to_bytes()
    first = Frame(Command.LOAD_WEIGHTS, seq=0, payload=blob[:CHUNK_SIZE])
    assert device.handle_frame(first).command == Command.ACK
    # duplicate of the last chunk (lost ACK) is re-ACKed, not re-applied
    assert device.handle_frame(first).command == Command.ACK
    # skipping ahead is rejected
    skip = Frame(Command.LOAD_WEIGHTS, seq=5, payload=b"x")
    reply = device.handle_frame(skip)
    assert reply.command == Command.NACK
    assert reply.payload[0] == NackReason.BAD_SEQ
    # the in-order successor still works afterwards
    second = Frame(Command.LOAD_WEIGHTS, seq=1, payload=blob[CHUNK_SIZE:2 * CHUNK_SIZE])
    assert device.handle_frame(second).command == Command.ACK


def test_verify_finalizes_load_and_reports_digest(rng):
    device = DeviceEmulator()
    model = _small_model(rng)
    seq = _load_via_frames(device, model)
    digest = model_digest(model)
    reply = device.handle_frame(Frame(Command.VERIFY_MEM, seq=seq, payload=digest))
    assert reply.command == Command.ACK
    assert reply.payload == digest == machine_digest(device.machine)


def test_verify_rejects_wrong_digest(rng):
    device = DeviceEmulator()
    model = _small_model(rng)
    seq = _load_via_frames(device, model)
    reply = device.handle_frame(Frame(Command.VERIFY_MEM, seq=seq,
                                      payload=b"\x00" * 32))
    assert reply.command == Command.NACK
    assert reply.payload[0] == NackReason.VERIFY_FAIL


def test_corrupted_upload_fails_verification(rng):
    device = DeviceEmulator()
    model = _small_model(rng)
    blob = bytearray(model.to_bytes())
    blob[len(blob) // 2] ^= 0xFF    # mutate one weight byte in transit
    seq = 0
    for off in range(0, len(blob), CHUNK_SIZE):
        device.handle_frame(Frame(Command.LOAD_WEIGHTS, seq=seq,
                                  payload=bytes(blob[off:off + CHUNK_SIZE])))
        seq = (seq + 1) % 256
    reply = device.handle_frame(Frame(Command.VERIFY_MEM, seq=seq,
                                      payload=model_digest(model)))
    assert reply.command == Command.NACK
    assert reply.payload[0] == NackReason.VERIFY_FAIL


def test_commands_require_model():
    device = DeviceEmulator()
    for cmd in (Command.LOAD_INPUT, Command.RUN_INFERENCE):
        reply = device.handle_frame(Frame(cmd, payload=b"\x80" + b"\x00" * 16))
        assert reply.command == Command.NACK
        assert reply.payload[0] == NackReason.NO_MODEL
    reply = device.handle_frame(Frame(Command.READ_RESULT))
    assert reply.payload[0] == NackReason.NO_RESULT


def test_read_result_replays_last_inference(rng):
    device = DeviceEmulator()
    model = _small_model(rng)
    seq = _load_via_frames(device, model)
    device.handle_frame(Frame(Command.VERIFY_MEM, seq=seq))
    x = random_input(rng, NetworkSpec.default(l3_width=16))
    payload = bytes([x.zero_point]) + x.data.tobytes()
    assert device.handle_frame(Frame(Command.LOAD_INPUT,
                                     payload=payload)).command == Command.ACK
    run = device.handle_frame(Frame(Command.RUN_INFERENCE))
    assert run.command == Command.RESULT
    again = device.handle_frame(Frame(Command.READ_RESULT))
    assert again.payload == run.payload


# ---------------------------------------------------------------------------
# End-to-end sessions
# ---------------------------------------------------------------------------

def test_end_to_end_matches_golden(rng):
    net = NetworkSpec.default()
    model = random_model(net, rng)
    x = random_input(rng, net)
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(host_end, timeout=30.0)
    try:
        client.load_model(model)
        client.verify(model)
        remote, cycles = client.run(x)
    finally:
        client.close()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert np.array_equal(remote.values, gold.values)
    assert cycles == 2_255_250


def test_four_class_round_trip_matches_golden(rng):
    base = NetworkSpec.default(l3_width=16)
    net = NetworkSpec(layers=base.layers[:-1] + (replace(base.layers[-1], c_out=4),))
    model = random_model(net, rng)
    x = random_input(rng, net)
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(host_end, timeout=30.0)
    try:
        client.load_model(model)
        remote, _ = client.run(x)
    finally:
        client.close()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert remote.values.shape == (4,)
    assert np.array_equal(remote.values, gold.values)


def _wide_head_model(n_classes):
    """Tiny conv + FC model with `n_classes` logits, of which class 0 wins."""
    conv = LayerSpec(kind=LayerKind.CONV1D, c_in=1, c_out=2, kernel=1, padding=0,
                     pool_mode=PoolMode.BYPASS, activation=Activation.RELU_SATURATE)
    head = LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=2, c_out=n_classes,
                     kernel=1, padding=0, pool_mode=PoolMode.BYPASS,
                     activation=Activation.SIGNED_BYPASS)
    net = NetworkSpec(layers=(conv, head), input_length=8)
    ws = WeightSet(layers=[
        LayerWeights(weights=np.ones((2, 1, 1)), biases=np.zeros(2)),
        LayerWeights(weights=np.zeros((n_classes, 2, 1)),
                     biases=-1000 * np.arange(n_classes))])
    return PackedModel.from_weights(net, ws)


def test_model_whose_result_cannot_fit_is_rejected_at_verify(rng):
    # RESULT carries the predicted class in a u8, and 1023 logits would also
    # make a 4097-byte payload, one over the frame cap
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    client = HostClient(host_end, timeout=30.0)
    try:
        for n_classes in (257, 1023):
            with pytest.raises(ProtocolError):
                client.load_model(_wide_head_model(n_classes))
            assert thread.is_alive() and not device.model_loaded
        widest = _wide_head_model(256)
        client.load_model(widest)
        x = random_input(rng, widest.to_network_spec(8))
        remote, _ = client.run(x)
        assert remote.values.tolist() == (-1000 * np.arange(256)).tolist()
        model = _small_model(rng)
        x = random_input(rng, model.to_network_spec())
        client.load_model(model)
        remote, _ = client.run(x)
    finally:
        client.close()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert np.array_equal(remote.values, gold.values)


def test_run_whose_image_overflows_the_pingpong_buffer_is_nacked(rng):
    # the model passes VERIFY; its layer-0 output image only fails at RUN
    wide = random_model(wide_image_net(), rng)
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    client = HostClient(host_end, timeout=30.0)
    try:
        client.load_model(wide)
        with pytest.raises(ProtocolError, match="LOAD_ERROR"):
            client.run(random_input(rng, wide_image_net()))
        assert thread.is_alive()
        net = NetworkSpec.default()
        model = random_model(net, rng)
        x = random_input(rng, net)
        client.load_model(model)
        remote, _ = client.run(x)
    finally:
        client.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert np.array_equal(remote.values, gold.values)


def test_serve_nacks_a_request_whose_handler_raises(rng):
    # a RESULT that cannot be framed, from a model placed in the machine
    # without the VERIFY check
    device = DeviceEmulator()
    model = _wide_head_model(1023)
    device.machine.load_model(model)
    device.model_loaded = True
    host_end, thread = serve_in_thread(device)
    client = HostClient(host_end, timeout=30.0)
    try:
        with pytest.raises(ProtocolError, match="LOAD_ERROR"):
            client.run(random_input(rng, model.to_network_spec(8)))
        assert thread.is_alive()
        reply = client.request(Frame(Command.VERIFY_MEM, seq=0))
        assert reply.command == Command.ACK
    finally:
        client.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class _CorruptingTransport(Transport):
    """Flips one byte of the Nth outgoing frame, once: byte `index`, or the
    middle one."""

    def __init__(self, inner: Transport, corrupt_send: int,
                 index: int | None = None):
        self.inner = inner
        self.remaining = corrupt_send
        self.index = index

    def send(self, data: bytes):
        self.remaining -= 1
        if self.remaining == 0:
            data = bytearray(data)
            data[len(data) // 2 if self.index is None else self.index] ^= 0x40
            data = bytes(data)
        self.inner.send(data)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)

    def close(self):
        self.inner.close()


def test_corrupted_chunk_recovered_by_retransmission(rng):
    net = NetworkSpec.default()
    model = random_model(net, rng)
    x = random_input(rng, net)
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(_CorruptingTransport(host_end, corrupt_send=3),
                        timeout=30.0)
    try:
        client.load_model(model)   # chunk 3 is corrupted, NACKed, resent
        remote, _ = client.run(x)
    finally:
        client.close()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert np.array_equal(remote.values, gold.values)


def test_unreadable_length_is_retransmitted_at_once(rng):
    # byte 4 is the high byte of chunk 2's length: 0x1000 becomes 0x5000,
    # over the cap, and the device answers with a seq-0 BAD_LENGTH NACK
    timeout = 1.0
    model = random_model(NetworkSpec.default(), rng)
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(_CorruptingTransport(host_end, 3, 4), timeout=timeout)
    start = time.monotonic()
    try:
        client.load_model(model)
    finally:
        client.close()
    assert time.monotonic() - start < timeout / 2


def test_one_unreadable_frame_costs_one_retransmit(rng):
    # the LOAD_INPUT frame's high length byte is corrupted; the device drops
    # its SOF and rescans the payload, where each 0xA5 0xFF pair reads as a
    # frame over the cap: 201 seq-0 BAD_LENGTH NACKs answer the one frame
    # (the 0xFF tail keeps the last false SOF from declaring a short frame
    # that would swallow the retransmit)
    timeout = 1.0
    model = _small_model(rng)
    samples = np.full((1, 512), 0xFF, dtype=np.uint8)
    samples[0, :400] = np.tile([0xA5, 0xFF], 200)
    x = QuantTensor(samples, zero_point=128)
    input_send = -(-len(model.to_bytes()) // CHUNK_SIZE) + 2   # after VERIFY
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(_CorruptingTransport(host_end, input_send, 4),
                        timeout=timeout)
    try:
        client.load_model(model)
        start = time.monotonic()
        remote, _ = client.run(x)
        elapsed = time.monotonic() - start
    finally:
        client.close()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert np.array_equal(remote.values, gold.values)
    assert elapsed < timeout / 2


def test_a_rejected_input_length_is_not_retransmitted(rng):
    # 1026 samples need 513 words of the 512-word input buffer: the device
    # reads the frame and NACKs BAD_LENGTH on its seq
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(host_end, timeout=30.0)
    try:
        client.load_model(_small_model(rng))
        with pytest.raises(ProtocolError,
                           match="device rejected LOAD_INPUT: BAD_LENGTH"):
            client.run(QuantTensor(np.zeros((1, 1026), dtype=np.uint8),
                                   zero_point=128))
    finally:
        client.close()


@pytest.mark.parametrize("index, timeout", [
    (2, 30.0),   # seq byte: the reply fails its CRC
    (3, 0.5),    # length byte: the reply declares 64 payload bytes
])
def test_corrupted_reply_recovered_by_retransmission(rng, index, timeout):
    model = _small_model(rng)
    x = random_input(rng, model.to_network_spec())
    host_end, device_end = memory_pair()
    # the device's 2nd frame is the ACK of chunk 1
    threading.Thread(target=DeviceEmulator().serve,
                     args=(_CorruptingTransport(device_end, 2, index),),
                     daemon=True).start()
    client = HostClient(host_end, timeout=timeout)
    try:
        client.load_model(model)
        remote, _ = client.run(x)
    finally:
        client.close()
    gold, _ = infer_window(model.to_network_spec(), model.to_weight_set(), x)
    assert np.array_equal(remote.values, gold.values)


class _SlowOnceMachine(SimMachine):
    """Sleeps `delay` seconds in its first run_inference."""

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay

    def run_inference(self):
        delay, self.delay = self.delay, 0.0
        time.sleep(delay)
        return super().run_inference()


def test_session_stays_in_step_after_a_run_outlasts_the_timeout(rng):
    # the slow RUN is retransmitted and answered twice; the late RESULT must
    # not be taken as the reply to the next window's LOAD_INPUT
    model = _small_model(rng)
    net, ws = model.to_network_spec(), model.to_weight_set()
    windows = [random_input(rng, net) for _ in range(11)]
    host_end, thread = serve_in_thread(DeviceEmulator(_SlowOnceMachine(0.3)))
    client = HostClient(host_end, timeout=0.2)
    try:
        client.load_model(model)
        remote = [client.run(x)[0] for x in windows]
    finally:
        client.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    for x, got in zip(windows, remote):
        gold, _ = infer_window(net, ws, x)
        assert np.array_equal(got.values, gold.values)


class _WrongRepliesTransport(Transport):
    """A peer that answers each request every 10 ms with frames that do not
    answer it: its seq on the wrong kind, and the right kind on another seq.
    Like a socket, it returns within the receive timeout."""

    def __init__(self):
        self.seq = 0

    def send(self, data: bytes):
        self.seq = decode_frame(data).seq

    def recv(self, timeout=None):
        time.sleep(min(0.01, timeout))
        return (encode_frame(Frame(Command.RESULT, seq=self.seq))
                + encode_frame(Frame(Command.ACK, seq=(self.seq + 1) % 256)))

    def close(self):
        pass


def test_replies_that_do_not_answer_the_request_are_dropped():
    timeout, retries = 0.2, 2
    client = HostClient(_WrongRepliesTransport(), timeout=timeout, retries=retries)
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="no valid response to LOAD_INPUT"):
        client.run(QuantTensor(np.zeros((1, 16), dtype=np.uint8), zero_point=128))
    elapsed = time.monotonic() - start
    # every attempt waits out its timeout, however many frames arrive; the
    # margin is for scheduling on a loaded host, not for another attempt
    assert (retries + 1) * timeout <= elapsed < (retries + 1) * timeout + 0.15


class _NackTransport(Transport):
    """A peer that NACKs every request on its seq with one reason byte."""

    def __init__(self, reason: int):
        self.reason = reason
        self.pending = b""

    def send(self, data: bytes):
        seq = decode_frame(data).seq
        self.pending += encode_frame(Frame(Command.NACK, seq=seq,
                                           payload=bytes([self.reason])))

    def recv(self, timeout=None):
        data, self.pending = self.pending, b""
        return data

    def close(self):
        pass


def test_a_nack_reason_outside_the_protocol_is_a_protocol_error():
    client = HostClient(_NackTransport(0xEE), timeout=0.2)
    with pytest.raises(ProtocolError, match="READ_RESULT.*NACK reason 0xEE"):
        client.request(Frame(Command.READ_RESULT, seq=1))


class _EchoTransport(Transport):
    """A peer that answers each request at once with the reply kind the
    request expects, on its seq, and records the requests."""

    def __init__(self):
        self.requests: list[Frame] = []
        self.pending = b""

    def send(self, data: bytes):
        frame = decode_frame(data)
        self.requests.append(frame)
        payload = frame.payload if frame.command == Command.VERIFY_MEM else b""
        self.pending += encode_frame(Frame(Command.ACK, seq=frame.seq, payload=payload))

    def recv(self, timeout=None):
        data, self.pending = self.pending, b""
        return data

    def close(self):
        pass


def test_request_seqs_follow_the_transfer_and_wrap_past_zero(rng):
    model = _small_model(rng)
    peer = _EchoTransport()
    client = HostClient(peer)
    client.load_model(model)
    for _ in range(300):
        client.verify(model)
    seqs = [frame.seq for frame in peer.requests]
    n_chunks = -(-len(model.to_bytes()) // CHUNK_SIZE)
    assert seqs[:n_chunks] == list(range(n_chunks))
    # VERIFY seals the transfer with the next seq; later requests count on
    # to 255 and then start again at 1
    assert seqs[n_chunks:] == [(n_chunks - 2 + k) % 255 + 1 for k in range(1, 302)]


def test_digest_mismatch_after_host_side_mutation(rng):
    model = _small_model(rng)
    host_end, _ = serve_in_thread(DeviceEmulator())
    client = HostClient(host_end, timeout=30.0)
    try:
        client.load_model(model)
        mutated = PackedModel.from_bytes(model.to_bytes())
        mutated.weight_words[100] ^= 0x0001
        with pytest.raises((VerificationError, ProtocolError)):
            client.verify(mutated)
    finally:
        client.close()


def test_fuzz_10k_frames_never_crashes_service(rng):
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    payload_rng = np.random.default_rng(1234)
    for _ in range(100):
        blob = payload_rng.integers(0, 256,
                                    size=int(payload_rng.integers(1, 600)),
                                    dtype=np.uint8).tobytes()
        host_end.send(blob)
    # flush the device's NACK storm, then quiesce the line with one frame
    # whose reply marks the end of the garbage responses
    from scgaccel.errors import TransportError
    host_end.send(encode_frame(Frame(Command.READ_RESULT, seq=0)))
    try:
        while host_end.recv(timeout=0.5):
            pass
    except TransportError:
        pass
    # after the garbage, a well-formed session still works
    client = HostClient(host_end, timeout=30.0, retries=8)
    model = _small_model(rng)
    try:
        client.load_model(model)
        client.verify(model)
    finally:
        client.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_fuzz_random_frames_direct(rng):
    """10^4 syntactically random frames through the dispatch path."""
    device = DeviceEmulator()
    fuzz = np.random.default_rng(99)
    commands = list(Command)
    for _ in range(10_000):
        cmd = commands[int(fuzz.integers(0, len(commands)))]
        payload = fuzz.integers(0, 256, size=int(fuzz.integers(0, 64)),
                                dtype=np.uint8).tobytes()
        reply = device.handle_frame(Frame(cmd, seq=int(fuzz.integers(0, 256)),
                                          payload=payload))
        assert reply.command in (Command.ACK, Command.NACK, Command.RESULT)


def test_mid_load_teardown_leaves_device_idle(rng):
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    model = _small_model(rng)
    blob = model.to_bytes()
    host_end.send(encode_frame(Frame(Command.LOAD_WEIGHTS, seq=0,
                                     payload=blob[:CHUNK_SIZE])))
    host_end.recv(timeout=5.0)     # consume the ACK
    host_end.close()               # hang up mid-transfer
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not device.loading
    assert not device.model_loaded
