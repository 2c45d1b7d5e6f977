"""Flat binary value container used for simulated IPC payloads.

A :class:`Parcel` is an untagged byte buffer plus an offsets table naming
the positions of object-reference slots (handles).  Readers must know the
value sequence; nothing in the buffer says what type comes next.  That
property is what makes the format interesting to fuzz: a mutated buffer is
re-interpreted by whatever read sequence the receiving service performs.

Wire encoding (little-endian throughout):

    I32     4 bytes, signed
    I64     8 bytes, signed
    F64     8 bytes, IEEE-754 double
    BOOL    encoded as I32 0 or 1 (any nonzero reads back as True)
    STRING  I32 byte length, UTF-8 bytes, zero padding to a 4-byte boundary
    BYTES   I32 byte length, raw bytes, zero padding to a 4-byte boundary
    HANDLE  4 bytes, non-negative; its position is appended to the offsets
            table so a router can find and rewrite reference slots

Every write keeps the buffer length a multiple of four.  Reads advance a
cursor and raise one of the error classes below instead of returning
garbage; the distinction between truncation, a bad declared length, and a
text-decoding failure is load-bearing for the services built on top.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from enum import Enum
from typing import Iterator

I32_MAX = 0x7FFFFFFF
I32_MIN = -0x80000000
I64_MAX = 0x7FFFFFFFFFFFFFFF
I64_MIN = -0x8000000000000000

HANDLE_BYTES = 4


class Kind(str, Enum):
    """Value tags accepted by write_value/read_value (HANDLE has its own pair)."""

    I32 = "I32"
    I64 = "I64"
    F64 = "F64"
    BOOL = "BOOL"
    STRING = "STRING"
    BYTES = "BYTES"
    HANDLE = "HANDLE"
    COMPOSITE = "COMPOSITE"


class ParcelError(Exception):
    """Base class for read/write failures on a parcel."""


class TruncationError(ParcelError):
    """A fixed-width read ran past the end of the buffer."""


class MalformedLengthError(ParcelError):
    """A declared STRING/BYTES length is negative or exceeds the remaining bytes."""


class EncodingError(ParcelError):
    """STRING content is not valid UTF-8."""


class CapacityError(ParcelError):
    """A written value does not fit its wire representation."""


def pad4(n: int) -> int:
    """Round n up to the next multiple of four."""
    return (n + 3) & ~3


# Read errors that a lenient reader may absorb.  CapacityError is write-side
# and deliberately not in this set.
_LENIENT = (TruncationError, MalformedLengthError, EncodingError)


class Parcel:
    """Byte buffer + handle-slot offsets table + read cursor.

    The buffer and offsets are the value; the cursor and the hook slot are
    transient reader state.  ``write_log`` records every leaf written as
    ``(Kind, start, end)`` tuples and is used by recording code as the
    writer-side ground truth for trace fidelity checks.
    """

    __slots__ = ("_buf", "offsets", "cursor", "write_log", "_hook")

    def __init__(self, data: bytes = b"", offsets: list[int] | None = None):
        offsets = list(offsets) if offsets else []
        _check_offsets(offsets, len(data))
        self._buf = bytearray(data)
        self.offsets = offsets
        self.cursor = 0
        self.write_log: list[tuple[Kind, int, int]] = []
        self._hook = None

    # -- construction / export ------------------------------------------------

    @classmethod
    def from_hex(cls, payload_hex: str, offsets: list[int] | None = None) -> "Parcel":
        return cls(bytes.fromhex(payload_hex), offsets)

    def to_hex(self) -> str:
        return self._buf.hex()

    @property
    def buffer(self) -> bytes:
        return bytes(self._buf)

    @property
    def size(self) -> int:
        return len(self._buf)

    def remaining(self) -> int:
        return len(self._buf) - self.cursor

    def __len__(self) -> int:
        return len(self._buf)

    def __repr__(self) -> str:
        return "Parcel(%d bytes, offsets=%r, cursor=%d)" % (
            len(self._buf),
            self.offsets,
            self.cursor,
        )

    # -- write side -----------------------------------------------------------

    def write_value(self, kind: Kind, value) -> "Parcel":
        """Append one value; returns self so writes chain."""
        start = len(self._buf)
        if kind is Kind.I32:
            self._buf += struct.pack("<i", _check_range(value, I32_MIN, I32_MAX))
        elif kind is Kind.I64:
            self._buf += struct.pack("<q", _check_range(value, I64_MIN, I64_MAX))
        elif kind is Kind.F64:
            self._buf += struct.pack("<d", float(value))
        elif kind is Kind.BOOL:
            self._buf += struct.pack("<i", 1 if value else 0)
        elif kind is Kind.STRING:
            if not isinstance(value, str):
                raise CapacityError("STRING write needs str, got %s" % type(value).__name__)
            self._append_sized(value.encode("utf-8"))
        elif kind is Kind.BYTES:
            if not isinstance(value, (bytes, bytearray)):
                raise CapacityError("BYTES write needs bytes, got %s" % type(value).__name__)
            self._append_sized(bytes(value))
        else:
            raise CapacityError("cannot write kind %s through write_value" % kind)
        self.write_log.append((kind, start, len(self._buf)))
        return self

    def write_handle(self, handle: int) -> "Parcel":
        """Append a handle and record its position in the offsets table."""
        if not isinstance(handle, int) or not 0 <= handle <= I32_MAX:
            raise CapacityError("handle out of range: %r" % (handle,))
        start = len(self._buf)
        self.offsets.append(start)
        self._buf += struct.pack("<i", handle)
        self.write_log.append((Kind.HANDLE, start, len(self._buf)))
        return self

    def _append_sized(self, raw: bytes) -> None:
        if len(raw) > I32_MAX:
            raise CapacityError("length %d exceeds declared-length capacity" % len(raw))
        self._buf += struct.pack("<i", len(raw))
        self._buf += raw
        self._buf += b"\x00" * (pad4(len(raw)) - len(raw))

    # -- read side ------------------------------------------------------------

    def read_value(self, kind: Kind):
        start = self.cursor
        if kind is Kind.I32:
            value = struct.unpack("<i", self._take(4, "I32"))[0]
        elif kind is Kind.I64:
            value = struct.unpack("<q", self._take(8, "I64"))[0]
        elif kind is Kind.F64:
            value = struct.unpack("<d", self._take(8, "F64"))[0]
        elif kind is Kind.BOOL:
            value = struct.unpack("<i", self._take(4, "BOOL"))[0] != 0
        elif kind is Kind.STRING:
            raw = self._take_sized("STRING")
            try:
                value = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                self.cursor = start
                raise EncodingError("STRING is not valid UTF-8 at %d: %s" % (start, exc)) from None
        elif kind is Kind.BYTES:
            value = self._take_sized("BYTES")
        else:
            raise TruncationError("cannot read kind %s through read_value" % kind)
        if self._hook is not None:
            self._hook.on_leaf(kind, start, self.cursor)
        return value

    def read_handle(self) -> tuple[int, bool]:
        """Read a handle; also reports whether the slot was declared in offsets.

        Consumers that care about tampering check the second element: a
        handle value sitting at a position the offsets table never declared
        was not written by write_handle.
        """
        start = self.cursor
        value = struct.unpack("<i", self._take(4, "HANDLE"))[0]
        slot_valid = start in self.offsets
        if self._hook is not None:
            self._hook.on_leaf(Kind.HANDLE, start, self.cursor)
        return value, slot_valid

    def read_lenient(self, kind: Kind):
        """Read a value, absorbing malformed input as None (missing-data style).

        Mirrors deserializers that hand back null/zero when the buffer runs
        dry instead of raising; services using this pattern are the ones
        that blow up later on the missing value.
        """
        try:
            return self.read_value(kind)
        except _LENIENT:
            return None

    def read_handle_lenient(self) -> tuple[int | None, bool]:
        try:
            return self.read_handle()
        except _LENIENT:
            return None, False

    def _take(self, n: int, what: str) -> bytes:
        if self.cursor + n > len(self._buf):
            raise TruncationError(
                "%s read needs %d bytes at %d, buffer has %d"
                % (what, n, self.cursor, len(self._buf))
            )
        chunk = bytes(self._buf[self.cursor : self.cursor + n])
        self.cursor += n
        return chunk

    def _take_sized(self, what: str) -> bytes:
        declared = struct.unpack("<i", self._take(4, what + " length"))[0]
        if declared < 0 or self.cursor + pad4(declared) > len(self._buf):
            self.cursor -= 4
            raise MalformedLengthError(
                "%s declares %d bytes at %d with %d remaining"
                % (what, declared, self.cursor, len(self._buf) - self.cursor - 4)
            )
        raw = bytes(self._buf[self.cursor : self.cursor + declared])
        self.cursor += pad4(declared)
        return raw

    # -- instrumentation ------------------------------------------------------

    def install_read_hook(self, hook) -> None:
        """Attach a trace hook; it receives on_leaf / enter_composite / exit_composite."""
        self._hook = hook

    def clear_read_hook(self) -> None:
        self._hook = None

    @contextmanager
    def composite(self, label: str) -> Iterator[None]:
        """Scope marker for decoders of nested structures; no-op without a hook."""
        if self._hook is None:
            yield
            return
        self._hook.enter_composite(label)
        try:
            yield
        finally:
            self._hook.exit_composite()


def _check_range(value, lo: int, hi: int) -> int:
    if not isinstance(value, int) or not lo <= value <= hi:
        raise CapacityError("integer out of range [%d, %d]: %r" % (lo, hi, value))
    return value


def _check_offsets(offsets: list[int], size: int) -> None:
    prev = -1
    for pos in offsets:
        if pos % 4 != 0:
            raise ValueError("offset %d is not 4-byte aligned" % pos)
        if pos <= prev:
            raise ValueError("offsets must be strictly increasing, got %r" % (offsets,))
        if pos > size - HANDLE_BYTES:
            raise ValueError("offset %d leaves no room for a handle in %d bytes" % (pos, size))
        prev = pos


def handle_at(buffer: bytes, pos: int) -> int:
    """Decode the handle value stored at a given offsets-table position."""
    return struct.unpack_from("<i", buffer, pos)[0]
