"""Packet-based host/device link: framing, device emulator, host client.

The wire format is a minimal stop-and-wait protocol over a byte stream:

    SOF (0xA5) | command u8 | seq u8 | length u16 LE | payload | crc8

with CRC-8 (poly 0x07, init 0x00) computed over command..payload: by one
table look-up per byte for a body under 128 bytes, and for a longer one by
one masked XOR-reduce over all its byte positions at once (`crc8`).  Command
and seq are single bytes, and a Frame outside that range is refused.
Payloads are capped at 4 KB; model images are chunked into LOAD_WEIGHTS
frames with consecutive sequence numbers and the transfer is sealed by
VERIFY_MEM, whose payload is the host's SHA-256 digest of the canonical
model bytes.  The device answers with its own readback digest so either side
can detect corruption.  A RESULT payload is one i32 per class, then the u32
cycle count and the u8 predicted class; the host derives the class count
from its length.
READ_RESULT answers with the last RUN on the current model and input, and
with NO_RESULT otherwise: after a new model or input, or a failed RUN.
LOAD_INPUT NACKs BAD_LENGTH, on its seq, a window SimMachine.load_input
refuses (too long for the input buffer, an image over a ping-pong buffer, or
a length the model cannot run); the previous input and its RESULT stay.

Replies are matched to requests by seq, which the device echoes.  The chunks
of a transfer are numbered 0, 1, 2, ...; every other request takes the seq
one past the previous request's, counting 1 to 255 and then 1 again.  Seq 0
is skipped there: it names only the first chunk of a transfer and the
device's reply to a frame it could not read.  Consecutive requests thus
never share a seq.  A frame is readable if it declares a payload within the
cap and passes its CRC; the decoder checks only that.  The device gives one
reply to each readable frame, on its seq; a command byte that names no
request gets UNKNOWN_CMD.  It answers an unreadable frame with a seq-0 NACK:
BAD_CRC if it fails its CRC, so its seq cannot be trusted, or BAD_LENGTH if
it declares a payload over the cap.  The host takes as the answer to its
outstanding request only a frame with that request's seq and a kind the
command returns (ACK, or RESULT for RUN_INFERENCE and READ_RESULT, or a
NACK), and drops any other readable frame.  Such a frame is a late reply to
an earlier request, one that was retransmitted after a timeout or given up
on; the device answers in order, so every late reply is read and dropped
while the host waits on the next request, long before its seq comes round
again.  The host retransmits on a seq-0 NACK, whatever request is
outstanding; a BAD_LENGTH on the request's own seq is a rejection.  Either
decoder drops all it holds at an unreadable frame, since a false SOF in the
rest would wait for bytes and swallow the retransmit; but the rest of the
frame may still be in flight, and its false SOFs draw more NACKs, so once
the host has retransmitted on a seq-0 NACK it drops more as stale.  Each
attempt waits at most `timeout`, dropped frames included, so a request
gives up after at most (retries + 1) * timeout.
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


_COMMANDS = {int(c): c for c in Command}


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


def _crc8_masks() -> np.ndarray:
    """Per-output-bit byte masks for every position of a frame body.

    `P[j][b]`, the CRC of byte b followed by j zero bytes, is
    `_CRC8_TABLE` applied j + 1 times to b.  Row k, column -1 - j holds the
    byte whose bit t is bit k of `P[j][1 << t]`, so the last n columns line
    up with an n-byte body.
    """
    width = MAX_PAYLOAD + HEADER_SIZE - 1
    row = bytes(_CRC8_TABLE[1 << t] for t in range(8))   # P[0][1 << t]
    rows = bytearray()
    for _ in range(width):
        rows += row
        row = row.translate(_CRC8_TABLE)
    regs = np.frombuffer(rows, np.uint8)   # P[j][1 << t] at 8j + t
    masks = np.stack([np.packbits(regs >> k & 1, bitorder="little")
                      for k in range(8)])
    return np.ascontiguousarray(masks[:, ::-1])


_CRC8_MASKS = _crc8_masks()
_PARITY = bytes(byte.bit_count() & 1 for byte in range(256))
_CRC8_VECTOR_MIN = 128


def crc8(data: bytes) -> int:
    """CRC-8 (poly 0x07, init 0x00) of a bytes-like object.

    Short bodies go by table look-up (Sarwate 1988): the register is as
    wide as a byte, so the 8 bit steps for one byte only depend on
    `crc ^ byte` and take one look-up.  With init 0 the CRC is linear over
    GF(2), so a body of n bytes up to the largest frame body is instead
    taken at every position at once, as slicing-by-N does (Kounavis and
    Berry 2005): bit k of the CRC is the parity of the XOR, over positions
    i, of `data[i] & mask_k[n - 1 - i]` (`_crc8_masks`).  On one pinned CPU
    of a 2-vCPU VM (numpy 2.4) the look-up loop took 2 µs at 64 bytes
    against 4 for the masks, about as long at 128 to 160 bytes, and 115-175
    against 6-9 at 4,100 bytes, so bodies from 128 bytes take the masks.
    Bodies longer than the table covers take the loop.
    """
    n = len(data)
    if not _CRC8_VECTOR_MIN <= n <= _CRC8_MASKS.shape[1]:
        crc = 0
        for byte in data:
            crc = _CRC8_TABLE[crc ^ byte]
        return crc
    folded = np.bitwise_xor.reduce(
        _CRC8_MASKS[:, -n:] & np.frombuffer(data, np.uint8), axis=1)
    crc = 0
    for k, byte in enumerate(folded.tobytes()):
        crc |= _PARITY[byte] << k
    return crc


@dataclass
class Frame:
    command: Command | int   # a byte that names no Command stays an int
    seq: int = 0
    payload: bytes = b""

    def __post_init__(self):
        if len(self.payload) > MAX_PAYLOAD:
            raise FramingError(f"payload {len(self.payload)} exceeds {MAX_PAYLOAD}")
        if not 0 <= self.command <= 255:
            raise FramingError("command must fit in u8")
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
        """Return the next readable Frame, or None if more bytes are needed.

        Only framing is checked: a frame within the cap that passes its CRC
        is returned whatever its command byte, a known one as a Command and
        any other as an int.  A candidate it cannot read, one that declares
        a payload over the cap or fails its CRC, raises FramingError /
        CrcError after the decoder drops every byte it holds: a false SOF in
        the rest would wait for bytes and swallow the next frame.
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
                self._buf.clear()
                raise FramingError(f"declared payload {length} exceeds {MAX_PAYLOAD}")
            total = FRAME_OVERHEAD + length
            if len(self._buf) < total:
                return None
            body = bytes(self._buf[1:HEADER_SIZE + length])
            if crc8(body) != self._buf[HEADER_SIZE + length]:
                self._buf.clear()
                raise CrcError("frame CRC mismatch")
            del self._buf[:total]
            return Frame(_COMMANDS.get(command, command), seq, body[4:])


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
    return model_digest(machine.export_model())


# ---------------------------------------------------------------------------
# Device emulator
# ---------------------------------------------------------------------------

class DeviceEmulator:
    """Single-session command loop wrapping a SimMachine."""

    def __init__(self, machine: SimMachine | None = None):
        self.machine = machine or SimMachine()
        self._staging: list[bytes] | None = None   # the chunks of an open transfer

    # -- request handling ---------------------------------------------------

    def handle_frame(self, frame: Frame) -> Frame:
        """The one reply to a readable frame, on its seq: UNKNOWN_CMD for a
        command byte that names no request, and LOAD_ERROR where a handler
        raises an `AccelError` (a model VERIFY cannot load, or a RUN that
        faults); LOAD_INPUT NACKs a window it refuses BAD_LENGTH itself."""
        handler = self._HANDLERS.get(frame.command)
        if handler is None:
            return self._nack(frame.seq, NackReason.UNKNOWN_CMD)
        try:
            return handler(self, frame)
        except AccelError:
            return self._nack(frame.seq, NackReason.LOAD_ERROR)

    def _nack(self, seq: int, reason: NackReason) -> Frame:
        return Frame(Command.NACK, seq=seq, payload=bytes([reason]))

    def _on_load_weights(self, frame: Frame) -> Frame:
        if frame.seq == 0:
            # new transfer resets staging regardless of prior state
            self._staging = []
        if self._staging is None:
            return self._nack(frame.seq, NackReason.BAD_SEQ)
        expected = len(self._staging) % 256
        if frame.seq == expected:
            self._staging.append(frame.payload)
        elif frame.seq != (expected - 1) % 256:   # else a duplicate after a lost ACK
            return self._nack(frame.seq, NackReason.BAD_SEQ)
        return Frame(Command.ACK, seq=frame.seq)

    def _on_verify(self, frame: Frame) -> Frame:
        if self._staging is not None:
            blob, self._staging = b"".join(self._staging), None
            model = PackedModel.from_bytes(blob)
            # RESULT names the class in a u8; 256 logits take 1029 bytes,
            # well inside the frame cap
            if model.layers[-1].c_out > 256:
                raise CapacityError(f"{model.layers[-1].c_out} classes do not "
                                    "fit a RESULT frame")
            self.machine.load_model(model)
        if self.machine.model is None:
            return self._nack(frame.seq, NackReason.NO_MODEL)
        digest = machine_digest(self.machine)
        if frame.payload and frame.payload != digest:
            return self._nack(frame.seq, NackReason.VERIFY_FAIL)
        return Frame(Command.ACK, seq=frame.seq, payload=digest)

    def _on_load_input(self, frame: Frame) -> Frame:
        if self._staging is not None:
            return self._nack(frame.seq, NackReason.BUSY)
        if self.machine.model is None:
            return self._nack(frame.seq, NackReason.NO_MODEL)
        samples = np.frombuffer(frame.payload, dtype=np.uint8)[1:]
        c_in = self.machine.model.layers[0].c_in
        if samples.size == 0 or samples.size % c_in != 0:
            return self._nack(frame.seq, NackReason.BAD_LENGTH)
        try:
            self.machine.load_input(QuantTensor(
                samples.reshape(c_in, -1), zero_point=frame.payload[0]))
        except AccelError:
            return self._nack(frame.seq, NackReason.BAD_LENGTH)
        return Frame(Command.ACK, seq=frame.seq)

    def _on_run(self, frame: Frame) -> Frame:
        if self._staging is not None:
            return self._nack(frame.seq, NackReason.BUSY)
        if self.machine.model is None:
            return self._nack(frame.seq, NackReason.NO_MODEL)
        self.machine.run_inference()
        return self._on_read_result(frame)

    def _on_read_result(self, frame: Frame) -> Frame:
        """RESULT of the machine's last run, if it ran to its logits."""
        logits = self.machine.last_logits
        if logits is None:
            return self._nack(frame.seq, NackReason.NO_RESULT)
        payload = struct.pack(f"<{logits.values.size}iIB",
                              *(int(v) for v in logits.values),
                              self.machine.last_cycles & 0xFFFFFFFF,
                              logits.predicted_class)
        return Frame(Command.RESULT, seq=frame.seq, payload=payload)

    _HANDLERS = {Command.LOAD_WEIGHTS: _on_load_weights,
                 Command.VERIFY_MEM: _on_verify, Command.LOAD_INPUT: _on_load_input,
                 Command.RUN_INFERENCE: _on_run, Command.READ_RESULT: _on_read_result}

    # -- serving ------------------------------------------------------------

    def serve(self, transport: Transport):
        """Run the single-session command loop until the stream closes.

        Malformed traffic never crashes the loop.  An unreadable frame gets
        a seq-0 NACK, BAD_CRC or BAD_LENGTH, and the decoder resynchronizes
        on the next SOF; a readable one gets `handle_frame`'s reply on its
        own seq, UNKNOWN_CMD if its command byte names no request.  An error
        that escapes `handle_frame` is a bug in the twin, not bad traffic: it
        ends the loop, the transport is closed, and it surfaces with its
        traceback.
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
                        reply = self._nack(0, NackReason.BAD_CRC)
                    except FramingError:
                        reply = self._nack(0, NackReason.BAD_LENGTH)
                    else:
                        if frame is None:
                            break
                        reply = self.handle_frame(frame)
                    transport.send(encode_frame(reply))
        except TransportError:
            pass
        finally:
            # clean teardown: an interrupted load leaves the device idle
            self._staging = None
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
        for chunk, off in enumerate(range(0, len(blob), CHUNK_SIZE)):
            self.request(Frame(Command.LOAD_WEIGHTS, seq=chunk % 256,
                               payload=blob[off:off + CHUNK_SIZE]))
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
