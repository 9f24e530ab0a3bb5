"""Span recording for the traced benchmark run, and a link-counting transport.

Spans are recorded from the benchmark's own code around calls into the
package's public functions: either directly (``with tracer.span(...)``) or by
temporarily replacing a function with a timing wrapper (``tracer.patched``).
Nothing inside the package is instrumented.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from scgaccel.errors import CrcError, FramingError
from scgaccel.link import Command, FrameDecoder, NackReason, Transport


@dataclass
class Span:
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        record = Span(name, time.perf_counter(), 0.0, attrs)
        try:
            yield attrs
        finally:
            record.end = time.perf_counter()
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn, name, attrs=None):
        """Timing wrapper; `name` and `attrs` may be callables of the arguments."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            extra = attrs(*args, **kwargs) if attrs else {}
            with self.span(label, **extra):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, *targets):
        """Replace functions by timing wrappers for the duration of the block.

        Each target is ``(owner, attribute, span_name[, attrs])``.  A module
        function is replaced under every ``scgaccel`` module name bound to
        it, so callers that imported it by name are traced as well.
        """
        saved = []
        try:
            for owner, attr, name, *rest in targets:
                raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
                fn = getattr(owner, attr)
                traced = self.wrap(fn, name, rest[0] if rest else None)
                if isinstance(raw, staticmethod):
                    traced = staticmethod(traced)
                if inspect.ismodule(owner):
                    holders = [(mod, key) for mod_name, mod in list(sys.modules.items())
                               if mod_name.startswith("scgaccel")
                               for key, value in vars(mod).items() if value is fn]
                else:
                    holders = [(owner, attr)]    # class attribute or instance method
                for holder, key in holders:
                    saved.append((holder, key, holder.__dict__.get(key, _ABSENT)))
                    setattr(holder, key, traced)
            yield self
        finally:
            for holder, key, old in reversed(saved):
                if old is _ABSENT:
                    delattr(holder, key)
                else:
                    setattr(holder, key, old)

    # -- aggregation ----------------------------------------------------------

    def select(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.select(name))

    def mean(self, name: str) -> float:
        spans = self.select(name)
        return sum(s.seconds for s in spans) / len(spans) if spans else 0.0


_ABSENT = object()


class CountingTransport(Transport):
    """Host-side transport wrapper that tallies the frames of both directions.

    It only keeps the bytes while they pass; ``metrics`` decodes them with its
    own ``FrameDecoder``s afterwards, so the round trips it carries are not
    slowed by a second decode.  Counts frames and bytes each way, NACKs by
    reason, undecodable frames, and retransmits (a sent frame identical to the
    one sent before it).
    """

    def __init__(self, inner: Transport):
        self.inner = inner
        self.sent: list[bytes] = []
        self.received: list[bytes] = []

    def send(self, data: bytes):
        self.sent.append(data)
        self.inner.send(data)

    def recv(self, timeout: float | None = None) -> bytes:
        data = self.inner.recv(timeout)
        self.received.append(data)
        return data

    def close(self):
        self.inner.close()

    def metrics(self) -> dict[str, float]:
        """Decode everything carried so far and return the link counters."""
        bad = [0]

        def frames(chunks: list[bytes]):
            decoder = FrameDecoder()
            for data in chunks:
                decoder.feed(data)
                while True:
                    try:
                        frame = decoder.next_frame()
                    except (CrcError, FramingError):
                        bad[0] += 1
                        continue
                    if frame is None:
                        break
                    yield frame

        frames_tx = retransmits = 0
        last = None
        for frame in frames(self.sent):
            frames_tx += 1
            key = (frame.command, frame.seq, frame.payload)
            retransmits += key == last
            last = key
        frames_rx = 0
        nacks: Counter = Counter()
        for frame in frames(self.received):
            frames_rx += 1
            if frame.command == Command.NACK:
                reason = frame.payload[0] if frame.payload else 0
                try:
                    nacks[NackReason(reason).name] += 1
                except ValueError:
                    nacks["UNKNOWN"] += 1
        out = {
            "link.frames_tx": frames_tx,
            "link.bytes_tx": sum(map(len, self.sent)),
            "link.frames_rx": frames_rx,
            "link.bytes_rx": sum(map(len, self.received)),
            "link.bad_frames": bad[0],
            "link.nacks": sum(nacks.values()),
            "link.retransmits": retransmits,
            "link.useful_frame_ratio":
                (frames_tx - retransmits) / frames_tx if frames_tx else 0.0,
        }
        for reason in NackReason:
            out[f"link.nacks.{reason.name}"] = nacks[reason.name]
        return out
