"""Packet-based host/device link: framing, device emulator, host client.

The wire format is a minimal stop-and-wait protocol over a byte stream:

    SOF (0xA5) | command u8 | seq u8 | length u16 LE | payload | crc8

with CRC-8 (poly 0x07, init 0x00) computed over command..payload.  Payloads
are capped at 4 KB; model images are chunked into LOAD_WEIGHTS frames with
consecutive sequence numbers and the transfer is sealed by VERIFY_MEM, whose
payload is the host's SHA-256 digest of the canonical model bytes.  The
device answers with its own readback digest so either side can detect
corruption.  A RESULT payload is one i32 per class, then the u32 cycle count
and the u8 predicted class; the host derives the class count from its length.

Replies are matched to requests by seq, which the device echoes.  The chunks
of a transfer are numbered 0, 1, 2, ...; every other request takes the seq
one past the previous request's, counting 1 to 255 and then 1 again.  Seq 0
is skipped there: it names only the first chunk of a transfer and the
device's reply to a frame it could not read.  Consecutive requests thus
never share a seq.  The host takes as the answer to its outstanding request
only a frame with that request's seq and a kind the command returns (ACK,
or RESULT for RUN_INFERENCE and READ_RESULT, or a NACK), and drops any other
frame.  Such a frame is a late reply to an earlier request, one that was
retransmitted after a timeout or given up on; the device answers in order,
so every late reply is read and dropped while the host waits on the next
request, long before its seq comes round again.  The device answers a frame
it could not read with a seq-0 NACK: BAD_CRC if it fails its CRC, so its seq
cannot be trusted, or BAD_LENGTH if it declares a payload over the cap.  The
host retransmits on either, whatever request is outstanding; a BAD_LENGTH
on the request's own seq is a rejection.  The device rescans an unreadable
frame for the next SOF and may NACK many false ones, so once the host has
retransmitted on a seq-0 NACK it drops more as stale.  Each attempt waits at most
`timeout`, dropped frames included, so a request gives up after at most
(retries + 1) * timeout.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
import time
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (AccelError, CapacityError, CrcError, FramingError,
                     ProtocolError, TransportError, VerificationError)
from .modeltools import PackedModel
from .qnn import Logits, QuantTensor
from .sim import SimMachine

SOF = 0xA5
MAX_PAYLOAD = 4096
CHUNK_SIZE = 4096
HEADER_SIZE = 5          # sof, command, seq, length u16
FRAME_OVERHEAD = HEADER_SIZE + 1  # + crc


class Command(IntEnum):
    LOAD_WEIGHTS = 0x01
    LOAD_INPUT = 0x02
    RUN_INFERENCE = 0x03
    VERIFY_MEM = 0x04
    READ_RESULT = 0x05
    ACK = 0x80
    NACK = 0x81
    RESULT = 0x82


class NackReason(IntEnum):
    BAD_CRC = 0x01
    BAD_SEQ = 0x02
    BUSY = 0x03
    NO_MODEL = 0x04
    VERIFY_FAIL = 0x05
    UNKNOWN_CMD = 0x06
    BAD_LENGTH = 0x07
    LOAD_ERROR = 0x08
    NO_RESULT = 0x09


def _crc8_table() -> bytes:
    """CRC-8 (poly 0x07, init 0x00) of each single byte, by the bit-serial rule."""
    table = bytearray(256)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table[byte] = crc
    return bytes(table)


_CRC8_TABLE = _crc8_table()


def crc8(data: bytes) -> int:
    """CRC-8 (poly 0x07, init 0x00) by table look-up (Sarwate 1988).

    The register is as wide as a byte, so the 8 bit steps for one byte only
    depend on `crc ^ byte` and take one look-up.
    """
    crc = 0
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


@dataclass
class Frame:
    command: Command
    seq: int = 0
    payload: bytes = b""

    def __post_init__(self):
        if len(self.payload) > MAX_PAYLOAD:
            raise FramingError(f"payload {len(self.payload)} exceeds {MAX_PAYLOAD}")
        if not 0 <= self.seq <= 255:
            raise FramingError("seq must fit in u8")


def encode_frame(frame: Frame) -> bytes:
    body = struct.pack("<BBH", int(frame.command), frame.seq,
                       len(frame.payload)) + frame.payload
    return bytes([SOF]) + body + bytes([crc8(body)])


class FrameDecoder:
    """Streaming decoder that resynchronizes on SOF after garbage."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes):
        self._buf += data

    def next_frame(self):
        """Return the next Frame, or None if more bytes are needed.

        Raises CrcError / FramingError for a corrupted candidate frame; the
        decoder has already discarded its SOF so parsing can resume.
        """
        while True:
            sof = self._buf.find(bytes([SOF]))
            if sof < 0:
                self._buf.clear()
                return None
            if sof > 0:
                del self._buf[:sof]
            if len(self._buf) < HEADER_SIZE:
                return None
            command, seq, length = struct.unpack_from("<BBH", self._buf, 1)
            if length > MAX_PAYLOAD:
                del self._buf[:1]
                raise FramingError(f"declared payload {length} exceeds {MAX_PAYLOAD}")
            total = FRAME_OVERHEAD + length
            if len(self._buf) < total:
                return None
            body = bytes(self._buf[1:HEADER_SIZE + length])
            crc = self._buf[HEADER_SIZE + length]
            del self._buf[:total]
            if crc8(body) != crc:
                raise CrcError("frame CRC mismatch")
            try:
                cmd = Command(command)
            except ValueError:
                raise FramingError(f"unknown command 0x{command:02X}")
            return Frame(command=cmd, seq=seq,
                         payload=body[4:4 + length])


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class Transport:
    """Bidirectional byte stream endpoint."""

    def send(self, data: bytes):
        raise NotImplementedError

    def recv(self, timeout: float | None = None) -> bytes:
        """Receive some bytes; b'' means the peer closed."""
        raise NotImplementedError

    def close(self):
        raise NotImplementedError


class SocketTransport(Transport):
    def __init__(self, sock: socket.socket):
        self.sock = sock

    def send(self, data: bytes):
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise TransportError(str(exc)) from exc

    def recv(self, timeout: float | None = None) -> bytes:
        self.sock.settimeout(timeout)
        try:
            return self.sock.recv(65536)
        except socket.timeout as exc:
            raise TransportError("receive timeout") from exc
        except OSError:
            return b""

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def memory_pair() -> tuple[Transport, Transport]:
    """In-memory duplex transport pair (a connected socketpair)."""
    a, b = socket.socketpair()
    return SocketTransport(a), SocketTransport(b)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def model_digest(model: PackedModel) -> bytes:
    """Canonical digest over the deployable model content."""
    return hashlib.sha256(model.to_bytes()).digest()


def machine_digest(machine: SimMachine) -> bytes:
    """Digest of the model as read back from live device memory."""
    return hashlib.sha256(machine.export_model().to_bytes()).digest()


# ---------------------------------------------------------------------------
# Device emulator
# ---------------------------------------------------------------------------

class DeviceEmulator:
    """Single-session command loop wrapping a SimMachine."""

    def __init__(self, machine: SimMachine | None = None):
        self.machine = machine or SimMachine()
        self.loading = False     # a LOAD_WEIGHTS transfer is open
        self.model_loaded = False
        self.last_result: tuple[Logits, int] | None = None
        self._staging = bytearray()
        self._expected_seq = 0

    # -- request handling ---------------------------------------------------

    def handle_frame(self, frame: Frame) -> Frame:
        handler = {
            Command.LOAD_WEIGHTS: self._on_load_weights,
            Command.VERIFY_MEM: self._on_verify,
            Command.LOAD_INPUT: self._on_load_input,
            Command.RUN_INFERENCE: self._on_run,
            Command.READ_RESULT: self._on_read_result,
        }.get(frame.command)
        if handler is None:
            return self._nack(frame.seq, NackReason.UNKNOWN_CMD)
        return handler(frame)

    def _nack(self, seq: int, reason: NackReason) -> Frame:
        return Frame(Command.NACK, seq=seq, payload=bytes([reason]))

    def _on_load_weights(self, frame: Frame) -> Frame:
        if frame.seq == 0:
            # new transfer resets staging regardless of prior state
            self._staging = bytearray()
            self._expected_seq = 0
            self.loading = True
        if not self.loading:
            return self._nack(frame.seq, NackReason.BAD_SEQ)
        if frame.seq == (self._expected_seq - 1) % 256:
            return Frame(Command.ACK, seq=frame.seq)   # duplicate after lost ACK
        if frame.seq != self._expected_seq:
            return self._nack(frame.seq, NackReason.BAD_SEQ)
        self._staging += frame.payload
        self._expected_seq = (self._expected_seq + 1) % 256
        return Frame(Command.ACK, seq=frame.seq)

    def _on_verify(self, frame: Frame) -> Frame:
        if self.loading:
            try:
                model = PackedModel.from_bytes(bytes(self._staging))
                # RESULT names the class in a u8; 256 logits take 1029 bytes,
                # well inside the frame cap
                if model.layers[-1].c_out > 256:
                    raise CapacityError(f"{model.layers[-1].c_out} classes do not "
                                        "fit a RESULT frame")
                self.machine.load_model(model)
            except AccelError:
                self.loading = False
                return self._nack(frame.seq, NackReason.LOAD_ERROR)
            self.model_loaded = True
            self.loading = False
            self._staging = bytearray()
        if not self.model_loaded:
            return self._nack(frame.seq, NackReason.NO_MODEL)
        digest = machine_digest(self.machine)
        if frame.payload and frame.payload != digest:
            return self._nack(frame.seq, NackReason.VERIFY_FAIL)
        return Frame(Command.ACK, seq=frame.seq, payload=digest)

    def _on_load_input(self, frame: Frame) -> Frame:
        if self.loading:
            return self._nack(frame.seq, NackReason.BUSY)
        if not self.model_loaded:
            return self._nack(frame.seq, NackReason.NO_MODEL)
        if len(frame.payload) < 2:
            return self._nack(frame.seq, NackReason.BAD_LENGTH)
        zero_point = frame.payload[0]
        samples = np.frombuffer(frame.payload, dtype=np.uint8, offset=1)
        c_in = self.machine.model.layers[0].c_in
        if samples.size % c_in != 0:
            return self._nack(frame.seq, NackReason.BAD_LENGTH)
        try:
            self.machine.load_input(QuantTensor(
                samples.reshape(c_in, -1), zero_point=zero_point))
        except AccelError:
            return self._nack(frame.seq, NackReason.BAD_LENGTH)
        return Frame(Command.ACK, seq=frame.seq)

    def _on_run(self, frame: Frame) -> Frame:
        if self.loading:
            return self._nack(frame.seq, NackReason.BUSY)
        if not self.model_loaded:
            return self._nack(frame.seq, NackReason.NO_MODEL)
        try:
            logits, cycles, _ = self.machine.run_inference()
        except AccelError:
            return self._nack(frame.seq, NackReason.LOAD_ERROR)
        self.last_result = (logits, cycles)
        return self._result_frame(frame.seq)

    def _on_read_result(self, frame: Frame) -> Frame:
        if self.last_result is None:
            return self._nack(frame.seq, NackReason.NO_RESULT)
        return self._result_frame(frame.seq)

    def _result_frame(self, seq: int) -> Frame:
        logits, cycles = self.last_result
        payload = struct.pack(f"<{logits.values.size}iIB",
                              *(int(v) for v in logits.values),
                              cycles & 0xFFFFFFFF, logits.predicted_class)
        return Frame(Command.RESULT, seq=seq, payload=payload)

    # -- serving ------------------------------------------------------------

    def serve(self, transport: Transport):
        """Run the single-session command loop until the stream closes.

        Malformed traffic never crashes the loop: bad frames are NACKed and
        the decoder resynchronizes on the next SOF, and a request whose
        handler raises an `AccelError` (a model, input or result the machine
        cannot take) is NACKed with LOAD_ERROR.  Any other exception is a bug
        in the twin, not bad traffic, so it is not caught: it ends the loop,
        the transport is closed, and the error surfaces with its traceback.
        """
        decoder = FrameDecoder()
        try:
            while True:
                data = transport.recv(timeout=None)
                if not data:
                    break
                decoder.feed(data)
                while True:
                    try:
                        frame = decoder.next_frame()
                    except CrcError:
                        transport.send(encode_frame(
                            self._nack(0, NackReason.BAD_CRC)))
                        continue
                    except FramingError:
                        transport.send(encode_frame(
                            self._nack(0, NackReason.BAD_LENGTH)))
                        continue
                    if frame is None:
                        break
                    try:
                        reply = self.handle_frame(frame)
                    except AccelError:
                        reply = self._nack(frame.seq, NackReason.LOAD_ERROR)
                    transport.send(encode_frame(reply))
        except TransportError:
            pass
        finally:
            # clean teardown: an interrupted load leaves the device idle
            self.loading = False
            self._staging = bytearray()
            transport.close()


def serve_in_thread(device: DeviceEmulator) -> tuple[Transport, threading.Thread]:
    """Convenience for tests: device on a background thread, host endpoint back."""
    host_end, device_end = memory_pair()
    thread = threading.Thread(target=device.serve, args=(device_end,), daemon=True)
    thread.start()
    return host_end, thread


# ---------------------------------------------------------------------------
# Host client
# ---------------------------------------------------------------------------

# the kind of reply each request is answered with, besides a NACK
_REPLY_KIND = {
    Command.LOAD_WEIGHTS: Command.ACK,
    Command.LOAD_INPUT: Command.ACK,
    Command.VERIFY_MEM: Command.ACK,
    Command.RUN_INFERENCE: Command.RESULT,
    Command.READ_RESULT: Command.RESULT,
}


def _unread(reply: Frame) -> bool:
    """A NACK the device sends for a frame it could not read."""
    return reply.command == Command.NACK and reply.seq == 0 \
        and reply.payload in (bytes([NackReason.BAD_CRC]),
                              bytes([NackReason.BAD_LENGTH]))


class HostClient:
    """Blocking stop-and-wait client."""

    def __init__(self, transport: Transport, timeout: float = 5.0, retries: int = 3):
        self.transport = transport
        self.timeout = timeout
        self.retries = retries
        self._decoder = FrameDecoder()
        self._last_seq = 0

    def close(self):
        self.transport.close()

    def _next_seq(self) -> int:
        """Seq of a non-load request: one past the last request's, 1 to 255."""
        return self._last_seq % 255 + 1

    def _recv_frame(self, deadline: float) -> Frame:
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError("receive timeout")
            data = self.transport.recv(timeout=remaining)
            if not data:
                raise TransportError("connection closed by device")
            self._decoder.feed(data)

    def _recv_reply(self, request: Frame, deadline: float, stale: bool) -> Frame:
        """The next frame that answers `request`; late replies are dropped,
        and so are seq-0 NACKs if they are `stale`."""
        kinds = (_REPLY_KIND.get(request.command), Command.NACK)
        while True:
            reply = self._recv_frame(deadline)
            if _unread(reply):
                if not stale:
                    return reply
            elif reply.seq == request.seq and reply.command in kinds:
                return reply

    def request(self, frame: Frame) -> Frame:
        """Send one frame, wait for its reply, retrying on NACK/timeout.

        A corrupt reply counts as lost, and a timeout drops any partial
        reply, whose corrupted length would hold back later ones.  Repeated
        LOAD_WEIGHTS chunks are re-ACKed; the other commands are idempotent.
        """
        last_reason = None
        self._last_seq = frame.seq
        for _ in range(self.retries + 1):
            self.transport.send(encode_frame(frame))
            stale = last_reason in (NackReason.BAD_CRC, NackReason.BAD_LENGTH)
            try:
                reply = self._recv_reply(frame, time.monotonic() + self.timeout, stale)
            except TransportError:
                last_reason = "timeout"
                self._decoder = FrameDecoder()
                continue
            except FramingError as exc:    # CrcError included
                last_reason = exc
                continue
            if reply.command == Command.NACK:
                try:
                    reason = NackReason(reply.payload[0]) if reply.payload else None
                except ValueError:
                    raise ProtocolError(
                        f"device rejected {frame.command.name} with unknown "
                        f"NACK reason 0x{reply.payload[0]:02X}") from None
                last_reason = reason
                if reason == NackReason.BAD_SEQ or _unread(reply):
                    continue   # retransmit the same frame
                raise ProtocolError(f"device rejected {frame.command.name}: "
                                    f"{reason.name if reason else 'unknown'}")
            return reply
        raise ProtocolError(f"no valid response to {frame.command.name} "
                            f"after {self.retries + 1} attempts ({last_reason})")

    def load_model(self, model: PackedModel):
        blob = model.to_bytes()
        seq = 0
        for off in range(0, len(blob), CHUNK_SIZE):
            self.request(Frame(Command.LOAD_WEIGHTS, seq=seq,
                               payload=blob[off:off + CHUNK_SIZE]))
            seq = (seq + 1) % 256
        self.verify(model)

    def verify(self, model: PackedModel):
        """Re-check device memory against the host's model."""
        digest = model_digest(model)
        reply = self.request(Frame(Command.VERIFY_MEM, seq=self._next_seq(),
                                   payload=digest))
        if reply.payload != digest:
            raise VerificationError("device readback digest mismatch")

    def run(self, window: QuantTensor) -> tuple[Logits, int]:
        """Load a quantized input window and trigger inference."""
        payload = bytes([window.zero_point]) + window.data.tobytes()
        self.request(Frame(Command.LOAD_INPUT, seq=self._next_seq(), payload=payload))
        reply = self.request(Frame(Command.RUN_INFERENCE, seq=self._next_seq()))
        n_classes, tail = divmod(len(reply.payload) - 5, 4)
        if n_classes < 1 or tail:
            raise ProtocolError(f"RESULT payload of {len(reply.payload)} bytes")
        *values, cycles, _pred = struct.unpack(f"<{n_classes}iIB", reply.payload)
        return Logits(np.array(values, dtype=np.int32)), cycles
