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
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Iterator

I32_MAX = 0x7FFFFFFF
I32_MIN = -0x80000000
I64_MAX = 0x7FFFFFFFFFFFFFFF
I64_MIN = -0x8000000000000000

HANDLE_BYTES = 4


# Value kinds accepted by write_value/read_value (HANDLE has its own pair,
# and COMPOSITE names a trace node, not a value), each the string a type
# trace names it by.  The read and write paths dispatch on identity, so a
# kind passed in must be one of these objects, not an equal string.
I32, I64, F64, BOOL, STRING, BYTES, HANDLE, COMPOSITE = "I32", "I64", "F64", "BOOL", "STRING", "BYTES", "HANDLE", "COMPOSITE"

_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


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

    The buffer and offsets are the value; the cursor, the hook slot and
    ``observed`` are transient reader state.  ``observed`` starts False
    and turns True the first time anything looks at the bytes through the
    public API: ``read_value`` or ``read_handle`` (and so the lenient
    reads, which go through them), even one that fails, ``len()`` (and
    so truth testing and ``repr``) or ``buffer``.  A parcel still
    unobserved after a dispatch was answered without its contents.
    """

    __slots__ = ("_buf", "offsets", "cursor", "_hook", "observed")

    def __init__(self, data: bytes = b"", offsets: list[int] | None = None):
        if offsets:
            offsets = list(offsets)
            _check_offsets(offsets, len(data))
        else:
            offsets = []
        self._buf = bytearray(data)
        self.offsets = offsets
        self.cursor = 0
        self._hook = None
        self.observed = False

    # -- construction / export ------------------------------------------------

    @property
    def buffer(self) -> bytes:
        self.observed = True
        return bytes(self._buf)

    def __len__(self) -> int:
        self.observed = True
        return len(self._buf)

    def __repr__(self) -> str:
        return "Parcel(%d bytes, offsets=%r, cursor=%d)" % (
            len(self),
            self.offsets,
            self.cursor,
        )

    # -- write side -----------------------------------------------------------

    def write_value(self, kind: str, value) -> "Parcel":
        """Append one value; returns self so writes chain."""
        if kind is I32:
            self._buf += _I32.pack(_check_range(value, I32_MIN, I32_MAX))
        elif kind is I64:
            self._buf += _I64.pack(_check_range(value, I64_MIN, I64_MAX))
        elif kind is F64:
            self._buf += _F64.pack(float(value))
        elif kind is BOOL:
            self._buf += _I32.pack(1 if value else 0)
        elif kind is STRING:
            if not isinstance(value, str):
                raise CapacityError("STRING write needs str, got %s" % type(value).__name__)
            self._append_sized(value.encode("utf-8"))
        elif kind is BYTES:
            if not isinstance(value, (bytes, bytearray)):
                raise CapacityError("BYTES write needs bytes, got %s" % type(value).__name__)
            self._append_sized(value)
        else:
            raise CapacityError("cannot write kind %s through write_value" % kind)
        return self

    def write_handle(self, handle: int) -> "Parcel":
        """Append a handle and record its position in the offsets table."""
        if not isinstance(handle, int) or not 0 <= handle <= I32_MAX:
            raise CapacityError("handle out of range: %r" % (handle,))
        self.offsets.append(len(self._buf))
        self._buf += _I32.pack(handle)
        return self

    def _append_sized(self, raw: bytes) -> None:
        if len(raw) > I32_MAX:
            raise CapacityError("length %d exceeds declared-length capacity" % len(raw))
        self._buf += _I32.pack(len(raw))
        self._buf += raw
        self._buf += b"\x00" * (pad4(len(raw)) - len(raw))

    # -- read side ------------------------------------------------------------
    #
    # Reads decode straight out of the buffer at the cursor; only the body
    # of a STRING or BYTES value is copied, once.  A failed read leaves the
    # cursor where the read began, and still marks the parcel observed: it
    # learnt something of the bytes.

    def read_value(self, kind: str):
        self.observed = True
        start = self.cursor
        if kind is STRING:
            end, body_end = self._sized_bounds("STRING")
            try:
                value = self._buf[start + 4 : body_end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError("STRING is not valid UTF-8 at %d: %s" % (start, exc)) from None
        elif kind is BYTES:
            end, body_end = self._sized_bounds("BYTES")
            value = memoryview(self._buf)[start + 4 : body_end].tobytes()
        else:
            if kind is I32 or kind is BOOL:
                codec = _I32
            elif kind is I64:
                codec = _I64
            elif kind is F64:
                codec = _F64
            else:
                raise TruncationError("cannot read kind %s through read_value" % kind)
            end = start + codec.size
            if end > len(self._buf):
                raise _truncated(kind, codec.size, start, len(self._buf))
            value = codec.unpack_from(self._buf, start)[0]
            if kind is BOOL:
                value = value != 0
        self.cursor = end
        if self._hook is not None:
            self._hook.on_leaf(kind, start, end)
        return value

    def read_handle(self) -> tuple[int, bool]:
        """Read a handle; also reports whether the slot was declared in offsets.

        Consumers that care about tampering check the second element: a
        handle value sitting at a position the offsets table never declared
        was not written by write_handle.
        """
        self.observed = True
        start = self.cursor
        end = start + 4
        if end > len(self._buf):
            raise _truncated("HANDLE", 4, start, len(self._buf))
        value = _I32.unpack_from(self._buf, start)[0]
        self.cursor = end
        slot_valid = start in self.offsets
        if self._hook is not None:
            self._hook.on_leaf(HANDLE, start, end)
        return value, slot_valid

    def read_lenient(self, kind: str):
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

    def _sized_bounds(self, what: str) -> tuple[int, int]:
        """(end of the padded value, end of its body) for the STRING or
        BYTES value at the cursor, from its declared length."""
        start = self.cursor
        size = len(self._buf)
        if start + 4 > size:
            raise _truncated(what + " length", 4, start, size)
        declared = _I32.unpack_from(self._buf, start)[0]
        end = start + 4 + pad4(declared)
        if declared < 0 or end > size:
            raise MalformedLengthError(
                "%s declares %d bytes at %d with %d remaining" % (what, declared, start, size - start - 4)
            )
        return end, start + 4 + declared

    # -- instrumentation ------------------------------------------------------

    def install_read_hook(self, hook) -> None:
        """Attach a trace hook; it receives on_leaf / enter_composite / exit_composite."""
        self._hook = hook

    def clear_read_hook(self) -> None:
        self._hook = None

    def composite(self, label: str) -> AbstractContextManager[None]:
        """Scope marker for decoders of nested structures.

        Without a hook this is one shared no-op: decoders open a scope per
        nested value, and untraced dispatch is the common case.
        """
        if self._hook is None:
            return _NO_SCOPE
        return _hooked_scope(self._hook, label)


_NO_SCOPE = nullcontext()


@contextmanager
def _hooked_scope(hook, label: str) -> Iterator[None]:
    hook.enter_composite(label)
    try:
        yield
    finally:
        hook.exit_composite()


def _truncated(what: str, n: int, at: int, size: int) -> TruncationError:
    return TruncationError("%s read needs %d bytes at %d, buffer has %d" % (what, n, at, size))


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
            raise ValueError("offset %d is negative or not above the offset before it" % pos)
        if pos > size - HANDLE_BYTES:
            raise ValueError("offset %d leaves no room for a handle in %d bytes" % (pos, size))
        prev = pos


def handle_at(buffer: bytes, pos: int) -> int:
    """Decode the handle value stored at a given offsets-table position."""
    return _I32.unpack_from(buffer, pos)[0]
