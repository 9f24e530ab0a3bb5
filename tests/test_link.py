"""Framing, protocol state machine, and host/device end-to-end behavior."""

import socket
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (every_kind_net, gap_overflow_model, random_input,
                      reserved_byte_blobs, shift63_blob, signed_conv_blob,
                      wide_image_net)
from scgaccel.errors import (CrcError, FramingError, ProtocolError,
                             TransportError, VerificationError)
from scgaccel.link import (CHUNK_SIZE, Command, DeviceEmulator, Frame,
                           FrameDecoder, HEADER_SIZE, HostClient,
                           MAX_PAYLOAD, NackReason, SOF, SocketTransport,
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

def _crc8_bitwise_prefixes(data: bytes) -> list[int]:
    """Reference CRC-8 (poly 0x07, init 0x00), one shift per bit: the CRC
    of each prefix of `data`, from the empty one to the whole."""
    crc = 0
    prefixes = [crc]
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        prefixes.append(crc)
    return prefixes


def _crc8_bitwise(data: bytes) -> int:
    return _crc8_bitwise_prefixes(data)[-1]


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


def test_crc8_matches_bitwise_reference_at_every_body_length():
    body = np.random.default_rng(16).integers(
        0, 256, MAX_PAYLOAD + HEADER_SIZE - 1, dtype=np.uint8).tobytes()
    for n, expected in enumerate(_crc8_bitwise_prefixes(body)):
        prefix = body[:n]
        assert crc8(prefix) == expected, n
        assert crc8(bytearray(prefix)) == expected, n
        assert crc8(memoryview(body)[:n]) == expected, n


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


def test_frame_command_must_fit_in_a_byte():
    for command in (256, -1):
        with pytest.raises(FramingError):
            Frame(command)
    for command in (0, 255):
        assert encode_frame(Frame(command))[1] == command


def test_payload_cap():
    with pytest.raises(FramingError):
        Frame(Command.LOAD_WEIGHTS, payload=b"\x00" * 4097)


@pytest.mark.parametrize("seq", [256, -1])
def test_frame_seq_must_fit_in_a_byte(seq):
    with pytest.raises(FramingError, match="^seq must fit in u8$"):
        Frame(Command.ACK, seq=seq)


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


def test_decoder_waits_for_a_frame_fed_a_byte_at_a_time():
    # the first four bytes hold less than a header, the rest less than a frame
    wire = encode_frame(Frame(Command.RUN_INFERENCE, seq=3, payload=b"ab"))
    decoder = FrameDecoder()
    for byte in wire[:-1]:
        decoder.feed(bytes([byte]))
        assert decoder.next_frame() is None
    decoder.feed(wire[-1:])
    assert decoder.next_frame() == Frame(Command.RUN_INFERENCE, 3, b"ab")
    assert decoder.next_frame() is None


def test_decoder_streams_partial_frames():
    wire = encode_frame(Frame(Command.LOAD_WEIGHTS, seq=2, payload=b"\x01" * 100))
    decoder = FrameDecoder()
    for i in range(0, len(wire), 7):
        assert decoder.next_frame() is None or i + 7 >= len(wire)
        decoder.feed(wire[i:i + 7])
    frame = decoder.next_frame()
    assert frame is not None and frame.payload == b"\x01" * 100


def test_decoder_returns_a_readable_frame_whatever_its_command_byte():
    # known bytes come back as Command members, any other as a plain int
    for byte in range(256):
        frame = decode_frame(encode_frame(Frame(byte, seq=9, payload=b"x")))
        assert (frame.command, frame.seq, frame.payload) == (byte, 9, b"x")
        assert isinstance(frame.command, Command) == (byte in set(Command))


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


@pytest.mark.parametrize("payload", [
    b"\x80",                    # a zero point and no samples
    b"\x80" + b"\x00" * 7,      # 7 samples for 2 input channels
])
def test_load_input_of_a_bad_length_is_nacked(rng, payload):
    net = NetworkSpec(layers=(
        LayerSpec(kind=LayerKind.CONV1D, c_in=2, c_out=3, kernel=3, padding=1,
                  pool_mode=PoolMode.MAXPOOL2, activation=Activation.RELU_SATURATE),
        LayerSpec(kind=LayerKind.FULLY_CONNECTED, c_in=3, c_out=3, kernel=1,
                  padding=0, pool_mode=PoolMode.BYPASS,
                  activation=Activation.SIGNED_BYPASS),
    ), input_length=8)
    device = DeviceEmulator()
    seq = _load_via_frames(device, random_model(net, rng))
    assert device.handle_frame(Frame(Command.VERIFY_MEM, seq=seq)).command \
        == Command.ACK
    reply = device.handle_frame(Frame(Command.LOAD_INPUT, payload=payload))
    assert reply.command == Command.NACK
    assert reply.payload[0] == NackReason.BAD_LENGTH


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


def _window_payload(rng, length: int) -> bytes:
    x = random_input(rng, NetworkSpec.default(l3_width=16))
    return bytes([x.zero_point]) + x.data[:, :length].tobytes()


def test_read_result_answers_only_for_the_current_model_and_input(rng):
    device = DeviceEmulator()

    def request(command, payload=b""):
        return device.handle_frame(Frame(command, payload=payload))

    def assert_no_result():
        reply = request(Command.READ_RESULT)
        assert (reply.command, reply.payload) \
            == (Command.NACK, bytes([NackReason.NO_RESULT]))

    def verify_new_model(model):
        seq = _load_via_frames(device, model)
        assert device.handle_frame(Frame(Command.VERIFY_MEM, seq=seq)).command \
            == Command.ACK

    def run_window(payload: bytes):
        assert request(Command.LOAD_INPUT, payload).command == Command.ACK
        return request(Command.RUN_INFERENCE)

    verify_new_model(_small_model(rng))
    assert run_window(_window_payload(rng, 512)).command == Command.RESULT
    # a new input: the RESULT was of the window before it
    assert request(Command.LOAD_INPUT, _window_payload(rng, 512)).command \
        == Command.ACK
    assert_no_result()
    # a window the model cannot run is refused on arrival and changes nothing:
    # the machine keeps its run plan, READ_RESULT replays the last RUN, and
    # the next RUN equals it, until the next good window
    result = request(Command.RUN_INFERENCE)
    plan = device.machine._plan
    for length in (511, 256):
        reply = request(Command.LOAD_INPUT, _window_payload(rng, length))
        assert reply.payload == bytes([NackReason.BAD_LENGTH])
        assert device.machine._plan is plan
        assert request(Command.READ_RESULT).payload == result.payload
        assert request(Command.RUN_INFERENCE).payload == result.payload
    assert run_window(_window_payload(rng, 512)).command == Command.RESULT
    # a RUN that fails: the GAP layer's accumulator overflows
    net = every_kind_net()
    model = random_model(net, rng)
    x = random_input(rng, net)
    verify_new_model(gap_overflow_model(model))
    payload = bytes([x.zero_point]) + x.data.tobytes()
    assert run_window(payload).payload == bytes([NackReason.LOAD_ERROR])
    assert_no_result()
    # a newly verified model, which also drops the input
    verify_new_model(model)
    result = run_window(payload)
    assert request(Command.READ_RESULT).payload == result.payload
    verify_new_model(_small_model(rng))
    assert_no_result()
    assert request(Command.RUN_INFERENCE).payload == bytes([NackReason.LOAD_ERROR])
    assert_no_result()


# ---------------------------------------------------------------------------
# End-to-end sessions
# ---------------------------------------------------------------------------

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
            assert thread.is_alive() and device.machine.model is None
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


def test_model_with_a_bad_layout_is_rejected_at_verify(rng):
    # a signed conv layer, a non-zero reserved descriptor byte, then a
    # requant shift of 63, one upload after another on the same serve loop
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    client = HostClient(host_end, timeout=30.0)
    try:
        for blob in [signed_conv_blob(), *reserved_byte_blobs().values(),
                     shift63_blob()]:
            chunks = range(0, len(blob), CHUNK_SIZE)
            for seq, off in enumerate(chunks):
                client.request(Frame(Command.LOAD_WEIGHTS, seq=seq,
                                     payload=blob[off:off + CHUNK_SIZE]))
            with pytest.raises(ProtocolError, match="VERIFY_MEM: LOAD_ERROR"):
                client.request(Frame(Command.VERIFY_MEM, seq=len(chunks)))
            assert thread.is_alive() and device.machine.model is None
        client.load_model(random_model(NetworkSpec.default(), rng))
        assert device.machine.model is not None
    finally:
        client.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_run_whose_image_overflows_the_pingpong_buffer_is_nacked(rng):
    # the model passes VERIFY; a window whose layer-0 output image does not
    # fit is NACKed BAD_LENGTH on arrival, and the previous input stays
    wide = random_model(wide_image_net(), rng)
    x = random_input(rng, wide_image_net())
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    client = HostClient(host_end, timeout=30.0)
    try:
        client.load_model(wide)
        fits, _ = client.run(QuantTensor(x.data[:, :504], zero_point=x.zero_point))
        with pytest.raises(ProtocolError,
                           match="device rejected LOAD_INPUT: BAD_LENGTH"):
            client.run(x)
        assert thread.is_alive()
        assert np.array_equal(device.machine.last_logits.values, fits.values)
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


@pytest.mark.parametrize("tail", [0xFF, 0x00], ids=["tail-ff", "tail-00"])
def test_one_unreadable_frame_costs_one_retransmit(rng, tail):
    # the LOAD_INPUT frame's high length byte is corrupted, so it declares a
    # payload over the cap: the device drops all it holds and sends one
    # seq-0 BAD_LENGTH NACK.  The payload's 0xA5 bytes are false SOFs; with
    # the 0x00 tail, the last pair but one reads as a 255-byte frame, which
    # would swallow the retransmit if the decoder rescanned the payload
    timeout = 1.0
    model = _small_model(rng)
    samples = np.full((1, 512), tail, dtype=np.uint8)
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
    # 1026 samples need 513 words of the 512-word input buffer, and the
    # default topology runs only 512 (511 fails a maxpool, 256 leaves the
    # GAP layer 32 samples): the device reads each frame and NACKs
    # BAD_LENGTH on its seq, and the last input and its result stay
    device = DeviceEmulator()
    host_end, thread = serve_in_thread(device)
    client = HostClient(host_end, timeout=30.0)
    try:
        model = _small_model(rng)
        client.load_model(model)
        result, _ = client.run(random_input(rng, model.to_network_spec()))
        for length in (1026, 511, 256):
            with pytest.raises(ProtocolError,
                               match="device rejected LOAD_INPUT: BAD_LENGTH"):
                client.run(QuantTensor(np.zeros((1, length), dtype=np.uint8),
                                       zero_point=128))
            assert thread.is_alive()
            assert np.array_equal(device.machine.last_logits.values, result.values)
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


class _ScriptedPeer(Transport):
    """A peer that answers each request at once with the frames that
    `answer` gives for it, and records the requests.  Each receive hands
    back one reply frame, or times out when none is left."""

    def __init__(self, answer):
        self.answer = answer
        self.requests: list[Frame] = []
        self.pending: list[Frame] = []

    def send(self, data: bytes):
        frame = decode_frame(data)
        self.requests.append(frame)
        self.pending += self.answer(frame)

    def recv(self, timeout=None):
        if not self.pending:
            raise TransportError("receive timeout")
        return encode_frame(self.pending.pop(0))

    def close(self):
        pass


def _replying(replies: dict):
    """An answer: the (command, payload) that `replies` gives for the
    request's command, on its seq."""
    def answer(frame: Frame) -> list[Frame]:
        command, payload = replies[frame.command]
        return [Frame(command, seq=frame.seq, payload=payload)]
    return answer


def test_seq0_nacks_after_a_retransmit_are_dropped_as_stale():
    # the first request draws three seq-0 BAD_CRC NACKs, as the rest of an
    # unreadable frame arriving late can, and the retransmit an ACK
    def answer(frame):
        if len(peer.requests) == 1:
            return [Frame(Command.NACK, seq=0,
                          payload=bytes([NackReason.BAD_CRC]))] * 3
        return [Frame(Command.ACK, seq=frame.seq)]
    peer = _ScriptedPeer(answer)
    client = HostClient(peer, timeout=0.2, retries=1)
    reply = client.request(Frame(Command.VERIFY_MEM, seq=1))
    assert reply.command == Command.ACK and reply.seq == 1
    assert len(peer.requests) == 2


def test_a_readable_reply_of_an_unknown_kind_is_dropped_not_retransmitted():
    # a CRC-valid frame of an unknown command on the request's seq, then an
    # ACK on it
    peer = _ScriptedPeer(lambda frame: [Frame(0x06, seq=frame.seq),
                                        Frame(Command.ACK, seq=frame.seq)])
    client = HostClient(peer, timeout=0.2)
    reply = client.request(Frame(Command.LOAD_INPUT, seq=1, payload=b"\x80\x00"))
    assert (reply.command, reply.seq) == (Command.ACK, 1)
    assert len(peer.requests) == 1


def test_a_nack_reason_outside_the_protocol_is_a_protocol_error():
    client = HostClient(_ScriptedPeer(_replying({
        Command.READ_RESULT: (Command.NACK, b"\xEE")})), timeout=0.2)
    with pytest.raises(ProtocolError, match="READ_RESULT.*NACK reason 0xEE"):
        client.request(Frame(Command.READ_RESULT, seq=1))


@pytest.mark.parametrize("size", [0, 4, 10])
def test_a_result_payload_not_4n_plus_5_bytes_is_a_protocol_error(size):
    client = HostClient(_ScriptedPeer(_replying({
        Command.LOAD_INPUT: (Command.ACK, b""),
        Command.RUN_INFERENCE: (Command.RESULT, bytes(size))})), timeout=0.2)
    with pytest.raises(ProtocolError, match=f"RESULT payload of {size} bytes"):
        client.run(QuantTensor(np.zeros((1, 16), dtype=np.uint8), zero_point=128))


def test_a_verify_ack_with_another_digest_is_a_verification_error(rng):
    model = _small_model(rng)
    client = HostClient(_ScriptedPeer(_replying({
        Command.VERIFY_MEM: (Command.ACK, bytes(32))})), timeout=0.2)
    with pytest.raises(VerificationError, match="digest mismatch"):
        client.verify(model)


def test_request_seqs_follow_the_transfer_and_wrap_past_zero(rng):
    model = _small_model(rng)
    # an ACK on each request's seq, which echoes a VERIFY's digest
    peer = _ScriptedPeer(lambda frame: [Frame(
        Command.ACK, seq=frame.seq,
        payload=frame.payload if frame.command == Command.VERIFY_MEM else b"")])
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


def test_handle_frame_answers_every_command_byte_on_its_seq(rng):
    # a machine whose RESULT cannot be framed, loaded without the VERIFY
    # check, so RUN_INFERENCE and READ_RESULT raise in their handlers
    model = _wide_head_model(1023)
    device = DeviceEmulator()
    device.machine.load_model(model)
    device.machine.load_input(random_input(rng, model.to_network_spec(8)))
    # no transfer is open and no request carries a payload; the bytes go in
    # order, so READ_RESULT follows the RUN that set its result
    expected = {Command.LOAD_WEIGHTS: NackReason.BAD_SEQ,
                Command.VERIFY_MEM: Command.ACK,
                Command.LOAD_INPUT: NackReason.BAD_LENGTH,
                Command.RUN_INFERENCE: NackReason.LOAD_ERROR,
                Command.READ_RESULT: NackReason.LOAD_ERROR}
    for byte in range(256):
        seq = (byte * 37 + 1) % 256
        reply = device.handle_frame(Frame(byte, seq=seq))
        want = expected.get(byte, NackReason.UNKNOWN_CMD)
        assert reply.seq == seq, byte
        if isinstance(want, NackReason):
            assert (reply.command, reply.payload) == (Command.NACK, bytes([want]))
        else:
            assert reply.command == want


def test_serve_nacks_an_unknown_command_on_its_own_seq():
    host_end, thread = serve_in_thread(DeviceEmulator())
    try:
        host_end.send(encode_frame(Frame(0x06, seq=9)))
        reply = decode_frame(host_end.recv(timeout=5.0))
    finally:
        host_end.close()
    assert (reply.command, reply.seq, reply.payload) \
        == (Command.NACK, 9, bytes([NackReason.UNKNOWN_CMD]))
    thread.join(timeout=10.0)
    assert not thread.is_alive()


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
    assert device.machine.model is None
    # no transfer is open: a later chunk is out of sequence, a RUN needs a model
    for command, reason in ((Command.LOAD_WEIGHTS, NackReason.BAD_SEQ),
                            (Command.RUN_INFERENCE, NackReason.NO_MODEL)):
        reply = device.handle_frame(Frame(command, seq=1, payload=b"\x00"))
        assert (reply.command, reply.payload) == (Command.NACK, bytes([reason]))


def test_host_fails_at_once_when_the_device_closes_mid_request():
    # the device reads the request and hangs up: the host's wait ends on the
    # closed stream, and its retransmit fails to send, well inside a timeout
    host_end, device_end = memory_pair()

    def device():
        device_end.recv(timeout=10.0)
        device_end.close()
    thread = threading.Thread(target=device, daemon=True)
    thread.start()
    client = HostClient(host_end, timeout=10.0, retries=3)
    start = time.monotonic()
    try:
        with pytest.raises(TransportError):
            client.run(QuantTensor(np.zeros((1, 512), dtype=np.uint8)))
        assert time.monotonic() - start < client.timeout
    finally:
        client.close()
        thread.join(timeout=10.0)


def test_serve_returns_when_the_host_hangs_up_before_its_reply():
    # the request is still readable after the host closes; the reply is not
    # deliverable, and the loop ends and closes its end
    host_end, device_end = memory_pair()
    host_end.send(encode_frame(Frame(Command.READ_RESULT, seq=1)))
    host_end.close()
    thread = threading.Thread(target=DeviceEmulator().serve, args=(device_end,),
                              daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert device_end.sock.fileno() == -1


def test_serve_returns_when_the_host_resets_the_connection():
    # half a frame, then a TCP reset: the device's read fails with
    # ECONNRESET, which the transport reports as a closed stream
    with socket.create_server(("127.0.0.1", 0)) as server:
        host = socket.create_connection(server.getsockname())
        device_sock, _ = server.accept()
    device_end = SocketTransport(device_sock)
    thread = threading.Thread(target=DeviceEmulator().serve, args=(device_end,),
                              daemon=True)
    thread.start()
    frame = encode_frame(Frame(Command.READ_RESULT, seq=1))
    host.sendall(frame[:len(frame) // 2])
    host.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    host.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert device_sock.fileno() == -1
