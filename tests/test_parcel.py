"""Wire-format tests for the parcel container.

The frozen hex constants were produced by hand from the encoding rules
(little-endian, length-prefixed strings, padding to four bytes) so they
check the implementation against the format, not against itself.
"""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parcelfuzz.parcel import (
    BOOL,
    BYTES,
    COMPOSITE,
    F64,
    HANDLE,
    I32,
    I32_MAX,
    I32_MIN,
    I64,
    I64_MAX,
    I64_MIN,
    STRING,
    CapacityError,
    EncodingError,
    MalformedLengthError,
    Parcel,
    TruncationError,
    handle_at,
    pad4,
)


# -- frozen encodings --------------------------------------------------------


def test_i32_encoding():
    assert Parcel().write_value(I32, 42).buffer.hex() == "2a000000"
    assert Parcel().write_value(I32, -1).buffer.hex() == "ffffffff"
    assert Parcel().write_value(I32, I32_MIN).buffer.hex() == "00000080"


def test_i64_encoding():
    assert Parcel().write_value(I64, -2).buffer.hex() == "feffffffffffffff"
    assert Parcel().write_value(I64, I64_MAX).buffer.hex() == "ffffffffffffff7f"


def test_f64_encoding():
    assert Parcel().write_value(F64, 1.5).buffer.hex() == "000000000000f83f"


def test_bool_rides_i32():
    assert Parcel().write_value(BOOL, True).buffer.hex() == "01000000"
    assert Parcel().write_value(BOOL, False).buffer.hex() == "00000000"
    nonzero = Parcel(bytes.fromhex("02000000"))
    assert nonzero.read_value(BOOL) is True


def test_string_encoding_with_padding():
    assert Parcel().write_value(STRING, "abcde").buffer.hex() == "050000006162636465000000"
    one = Parcel().write_value(STRING, "a")
    assert one.buffer.hex() == "0100000061000000"
    assert len(one) == 8


def test_empty_string_is_just_a_length():
    p = Parcel().write_value(STRING, "")
    assert p.buffer.hex() == "00000000"
    assert p.read_value(STRING) == ""


def test_bytes_encoding():
    assert Parcel().write_value(BYTES, b"\x01\x02").buffer.hex() == "0200000001020000"


def test_handle_write_updates_offsets():
    p = Parcel().write_value(I32, 1).write_handle(7)
    assert p.offsets == [4]
    assert handle_at(p.buffer, 4) == 7


# -- read-side errors --------------------------------------------------------


def test_truncated_i32_raises():
    p = Parcel(bytes.fromhex("2a00"))
    with pytest.raises(TruncationError):
        p.read_value(I32)


def test_huge_declared_length_raises_and_restores_cursor():
    p = Parcel(bytes.fromhex("ffffff7f"))
    with pytest.raises(MalformedLengthError):
        p.read_value(STRING)
    assert p.cursor == 0


def test_negative_declared_length_raises():
    p = Parcel(bytes.fromhex("fcffffff00000000"))
    with pytest.raises(MalformedLengthError):
        p.read_value(BYTES)


def test_invalid_utf8_raises_encoding_error():
    p = Parcel().write_value(BYTES, b"\xed\xa0\x80")
    reader = Parcel(p.buffer)
    with pytest.raises(EncodingError):
        reader.read_value(STRING)
    assert reader.cursor == 0


def _after_one_i32(tail: bytes) -> Parcel:
    """A parcel whose leading I32 has been read, so the next read starts at 4."""
    p = Parcel(struct.pack("<i", 7) + tail)
    assert p.read_value(I32) == 7
    return p


class _LeafLog:
    def __init__(self):
        self.leaves = []

    def on_leaf(self, kind, start, end):
        self.leaves.append((kind, start, end))


def _read_error(p: Parcel, read):
    """The error a failing read raises; the read must call no hook."""
    log = _LeafLog()
    p.install_read_hook(log)
    with pytest.raises(Exception) as info:
        read(p)
    assert log.leaves == []
    return info.value


def test_truncated_fixed_width_read_message_and_cursor():
    for kind, size in ((I32, 4), (BOOL, 4), (I64, 8), (F64, 8)):
        p = _after_one_i32(b"\x01\x02")
        err = _read_error(p, lambda p: p.read_value(kind))
        assert type(err) is TruncationError
        assert str(err) == "%s read needs %d bytes at 4, buffer has 6" % (kind, size)
        assert p.cursor == 4


def test_truncated_handle_read_message_and_cursor():
    p = _after_one_i32(b"\x01\x02\x03")
    err = _read_error(p, lambda p: p.read_handle())
    assert type(err) is TruncationError
    assert str(err) == "HANDLE read needs 4 bytes at 4, buffer has 7"
    assert p.cursor == 4


def test_truncated_length_prefix_message_and_cursor():
    for kind in (STRING, BYTES):
        p = _after_one_i32(b"\x05\x00")
        err = _read_error(p, lambda p: p.read_value(kind))
        assert type(err) is TruncationError
        assert str(err) == "%s length read needs 4 bytes at 4, buffer has 6" % kind
        assert p.cursor == 4


def test_bad_declared_length_message_returns_the_cursor_to_the_prefix():
    cases = (
        (BYTES, -4, "BYTES declares -4 bytes at 4 with 4 remaining"),
        (STRING, 5, "STRING declares 5 bytes at 4 with 4 remaining"),
        (BYTES, 0x7FFFFFFF, "BYTES declares 2147483647 bytes at 4 with 4 remaining"),
    )
    for kind, declared, message in cases:
        p = _after_one_i32(struct.pack("<i", declared) + b"abcd")
        err = _read_error(p, lambda p: p.read_value(kind))
        assert type(err) is MalformedLengthError
        assert str(err) == message
        assert p.cursor == 4


def test_invalid_utf8_message_returns_the_cursor_to_the_start():
    p = _after_one_i32(struct.pack("<i", 3) + b"\xed\xa0\x80\x00")
    err = _read_error(p, lambda p: p.read_value(STRING))
    assert type(err) is EncodingError
    assert str(err) == (
        "STRING is not valid UTF-8 at 4: 'utf-8' codec can't decode byte 0xed "
        "in position 0: invalid continuation byte"
    )
    assert p.cursor == 4
    assert p.read_value(BYTES) == b"\xed\xa0\x80"
    assert p.cursor == 12


def test_invalid_utf8_inside_a_later_string_names_its_place_in_the_body():
    body = b"ab\xc3(de"
    p = _after_one_i32(struct.pack("<i", 2) + b"hi\x00\x00" + struct.pack("<i", len(body)) + body + b"\x00\x00")
    assert p.read_value(STRING) == "hi"
    err = _read_error(p, lambda p: p.read_value(STRING))
    with pytest.raises(UnicodeDecodeError) as copied:
        bytes(body).decode("utf-8")
    assert type(err) is EncodingError
    assert str(err) == "STRING is not valid UTF-8 at 12: %s" % copied.value
    assert str(err) == (
        "STRING is not valid UTF-8 at 12: 'utf-8' codec can't decode byte 0xc3 "
        "in position 2: invalid continuation byte"
    )
    assert p.cursor == 12


def test_sized_reads_return_their_body_and_skip_the_padding():
    p = _after_one_i32(struct.pack("<i", 5) + b"hello\x00\x00\x00" + struct.pack("<i", 2) + b"\x01\x02\x00\x00")
    log = _LeafLog()
    p.install_read_hook(log)
    text = p.read_value(STRING)
    raw = p.read_value(BYTES)
    assert (text, raw, type(raw)) == ("hello", b"\x01\x02", bytes)
    assert log.leaves == [(STRING, 4, 16), (BYTES, 16, 24)]
    assert p.cursor == len(p) == 24


def test_lenient_reads_absorb_all_three_error_classes():
    assert Parcel(bytes.fromhex("2a00")).read_lenient(I32) is None
    assert Parcel(bytes.fromhex("ffffff7f")).read_lenient(STRING) is None
    bad_text = Parcel().write_value(BYTES, b"\xff\xfe\xfd")
    assert Parcel(bad_text.buffer).read_lenient(STRING) is None
    value, slot_valid = Parcel().read_handle_lenient()
    assert value is None and slot_valid is False


def test_handle_slot_validity_reflects_offsets_table():
    legit = Parcel().write_handle(3)
    assert Parcel(legit.buffer, legit.offsets).read_handle() == (3, True)
    # same bytes, no declared slot
    assert Parcel(legit.buffer).read_handle() == (3, False)


# -- write-side errors -------------------------------------------------------


def test_out_of_range_integers_are_refused():
    with pytest.raises(CapacityError):
        Parcel().write_value(I32, I32_MAX + 1)
    with pytest.raises(CapacityError):
        Parcel().write_value(I64, I64_MIN - 1)
    with pytest.raises(CapacityError):
        Parcel().write_handle(-1)


def test_wrong_python_type_is_refused():
    with pytest.raises(CapacityError):
        Parcel().write_value(STRING, b"bytes")
    with pytest.raises(CapacityError):
        Parcel().write_value(BYTES, "text")
    with pytest.raises(CapacityError):
        Parcel().write_value(I32, 1.5)


def test_a_kind_that_is_not_a_value_kind_is_refused_by_name():
    """COMPOSITE names a trace node, not a value.  The read and write
    paths dispatch on a kind's identity, so a string equal to I32 that is
    not parcel's own constant is refused as well."""
    with pytest.raises(CapacityError, match=r"^cannot write kind COMPOSITE through write_value$"):
        Parcel().write_value(COMPOSITE, 1)
    p = Parcel(b"\x00" * 4)
    err = _read_error(p, lambda p: p.read_value(COMPOSITE))
    assert type(err) is TruncationError and str(err) == "cannot read kind COMPOSITE through read_value"
    assert p.cursor == 0
    equal = "".join(["I", "32"])
    assert equal == I32 and equal is not I32
    with pytest.raises(CapacityError, match=r"^cannot write kind I32 through write_value$"):
        Parcel().write_value(equal, 1)


# -- construction invariants ---------------------------------------------------


def test_offsets_validation():
    Parcel(b"\x00" * 8, [4])
    with pytest.raises(ValueError):
        Parcel(b"\x00" * 8, [2])
    with pytest.raises(ValueError):
        Parcel(b"\x00" * 8, [4, 4])
    with pytest.raises(ValueError):
        Parcel(b"\x00" * 8, [8])


def test_from_hex_to_hex_round_trip():
    p = Parcel().write_value(STRING, "hi").write_handle(5)
    again = Parcel(bytes.fromhex(p.buffer.hex()), p.offsets)
    assert again.buffer == p.buffer
    assert again.offsets == p.offsets


# -- hook protocol -------------------------------------------------------------


class _Events:
    def __init__(self):
        self.log = []

    def on_leaf(self, kind, start, end):
        self.log.append(("leaf", kind, start, end))

    def enter_composite(self, label):
        self.log.append(("enter", label))

    def exit_composite(self):
        self.log.append(("exit",))


def test_read_hook_sees_leaves_and_scopes():
    p = Parcel().write_value(I32, 9).write_value(STRING, "x")
    reader = Parcel(p.buffer)
    events = _Events()
    reader.install_read_hook(events)
    with reader.composite("pair"):
        reader.read_value(I32)
        reader.read_value(STRING)
    reader.clear_read_hook()
    assert events.log == [
        ("enter", "pair"),
        ("leaf", I32, 0, 4),
        ("leaf", STRING, 4, 12),
        ("exit",),
    ]


def test_composite_without_a_hook_is_one_shared_no_op():
    first = Parcel().composite("a")
    assert Parcel(bytes.fromhex("2a000000")).composite("b") is first
    with first:
        pass
    with first:
        pass


def test_composite_exits_on_decoder_error():
    reader = Parcel(bytes.fromhex("2a00"))
    events = _Events()
    reader.install_read_hook(events)
    with pytest.raises(TruncationError):
        with reader.composite("broken"):
            reader.read_value(I32)
    assert events.log == [("enter", "broken"), ("exit",)]


# -- properties ----------------------------------------------------------------

_value_strategies = {
    I32: st.integers(I32_MIN, I32_MAX),
    I64: st.integers(I64_MIN, I64_MAX),
    F64: st.floats(allow_nan=False),
    BOOL: st.booleans(),
    STRING: st.text(max_size=64),
    BYTES: st.binary(max_size=64),
    HANDLE: st.integers(0, I32_MAX),
}


@st.composite
def value_sequences(draw):
    kinds = draw(
        st.lists(st.sampled_from(sorted(_value_strategies)), max_size=12)
    )
    return [(kind, draw(_value_strategies[kind])) for kind in kinds]


@given(value_sequences())
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
def test_round_trip_any_sequence(seq):
    writer = Parcel()
    for kind, value in seq:
        if kind is HANDLE:
            writer.write_handle(value)
        else:
            writer.write_value(kind, value)

    assert len(writer) % 4 == 0
    assert writer.offsets == sorted(set(writer.offsets))
    assert all(pos % 4 == 0 for pos in writer.offsets)

    reader = Parcel(writer.buffer, writer.offsets)
    for kind, value in seq:
        if kind is HANDLE:
            assert reader.read_handle() == (value, True)
        else:
            got = reader.read_value(kind)
            if kind is F64:
                assert struct.pack("<d", got) == struct.pack("<d", value)
            else:
                assert got == value
    assert reader.cursor == len(reader)


@given(st.binary(max_size=256))
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
def test_reads_never_return_garbage_on_arbitrary_bytes(data):
    """Any read either yields a typed value or raises a ParcelError subclass."""
    for kind in (I32, I64, F64, BOOL, STRING, BYTES):
        p = Parcel(data)
        try:
            p.read_value(kind)
        except (TruncationError, MalformedLengthError, EncodingError):
            continue
        assert p.cursor <= len(data)
        assert p.cursor % 4 == 0


def test_nan_survives_the_wire():
    p = Parcel().write_value(F64, math.nan)
    assert math.isnan(Parcel(p.buffer).read_value(F64))


def test_pad4():
    assert [pad4(n) for n in range(6)] == [0, 4, 4, 4, 4, 8]
