"""The corpus loader against a frozen copy of the loader it replaced.

The oracle below is the loader as it stood before records were checked in
one pass: each field in read order, the offsets by their own pass, the
leaves' tiling and HANDLE starts by their own passes, each line parsed by
json.loads.  Corrupted copies of recorded records must load to an equal
record with equal field types under both, or fail under both with the
same CorpusError text.  Do not edit the oracle to follow the loader.
Its two edits since it was frozen each mend a defect it shared with the
loader.  A line ends at "\n" alone, not at every character where
str.splitlines breaks, nor at a carriage return that universal-newline
reading turns into "\n".  And a record is refused, after every other
check on it, when a leaf would not re-encode to its own bytes: a
fixed-width leaf wider than its kind, a STRING or BYTES leaf with
nonzero padding, or a BOOL that holds neither 0 nor 1.
"""

import binascii
import copy
import json
import reprlib
import struct
from types import NoneType

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parcelfuzz.mutator import _encode_seed
from parcelfuzz.recorder import CorpusError, SeedRecord, TraceNode, corpus_text, load_corpus

# -- the oracle ------------------------------------------------------------------


def _excerpt(value) -> str:
    text = reprlib.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


_ABSENT = object()


def _field(obj, name, types, where, default=_ABSENT):
    try:
        value = obj[name]
    except KeyError:
        if default is _ABSENT:
            raise CorpusError("%s has no %r" % (where, name)) from None
        return default
    if type(value) in types:
        return value
    names = " or ".join("null" if t is NoneType else t.__name__ for t in types)
    raise CorpusError("%s %s must be %s, got %s" % (where, name, names, _excerpt(value)))


def _items(obj, name, types, where):
    values = obj.get(name)
    if type(values) is not list:
        _field(obj, name, (list,), where)
    for value in values:
        if type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise CorpusError("%s %s must hold only %s values, got %s" % (where, name, names, _excerpt(values)))
    return values


def _check_offsets(offsets, size):
    prev = -1
    for pos in offsets:
        if pos % 4 != 0:
            raise ValueError("offset %d is not 4-byte aligned" % pos)
        if pos <= prev:
            raise ValueError("offset %d is negative or not above the offset before it" % pos)
        if pos > size - 4:
            raise ValueError("offset %d leaves no room for a handle in %d bytes" % (pos, size))
        prev = pos


_FIXED_PART = {"I32": 4, "I64": 8, "F64": 8, "BOOL": 4, "STRING": 4, "BYTES": 4, "HANDLE": 4}
_I32 = struct.Struct("<i")


def oracle_trace(obj, payload, leaves):
    if type(obj) is not dict:
        raise CorpusError("trace node is not an object: %s" % _excerpt(obj))
    kind = obj.get("kind")
    label = obj.get("label", "")
    byte_range = obj.get("byte_range")
    if not (
        type(kind) is str
        and type(label) is str
        and type(byte_range) is list
        and len(byte_range) == 2
        and type(byte_range[0]) is int
        and type(byte_range[1]) is int
    ):
        _field(obj, "kind", (str,), "trace node")
        _field(obj, "label", (str,), "trace node", "")
        _items(obj, "byte_range", (int,), "trace node")
        raise CorpusError("trace node byte_range must be [start, end], got %s" % _excerpt(byte_range))
    start, end = byte_range
    if kind == "COMPOSITE":
        children = obj.get("children", [])
        if type(children) is not list:
            _field(obj, "children", (list,), "trace node")
        return TraceNode(kind, label, start, end, tuple([oracle_trace(c, payload, leaves) for c in children]))
    fixed_part = _FIXED_PART.get(kind)
    if fixed_part is None:
        raise CorpusError("unknown trace leaf kind %s" % _excerpt(kind))
    if obj.get("children"):
        raise CorpusError("trace leaf %r carries children" % kind)
    if not 0 <= start <= end - fixed_part or end > len(payload):
        raise CorpusError(
            "trace leaf %s at [%d, %d) does not fit the %d-byte payload" % (kind, start, end, len(payload))
        )
    if kind == "HANDLE":
        handle = _I32.unpack_from(payload, start)[0]
        if handle < 0:
            raise CorpusError(
                "trace leaf HANDLE at [%d, %d) holds handle %d, outside [0, %d]" % (start, end, handle, 0x7FFFFFFF)
            )
    elif kind == "STRING" or kind == "BYTES":
        declared = _I32.unpack_from(payload, start)[0]
        if declared < 0 or end != start + 4 + ((declared + 3) & ~3):
            raise CorpusError("trace leaf %s at [%d, %d) declares %d bytes" % (kind, start, end, declared))
        if kind == "STRING":
            try:
                payload[start + 4 : start + 4 + declared].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(
                    "trace leaf STRING at [%d, %d) is not UTF-8: %s" % (start, end, exc.reason)
                ) from None
    leaf = TraceNode(kind, label, start, end)
    leaves.append(leaf)
    return leaf


def oracle_record(obj, where="seed record"):
    if type(obj) is not dict:
        raise CorpusError("%s is not an object: %s" % (where, _excerpt(obj)))
    get = obj.get
    seq = get("seq")
    if type(seq) is not int:
        _field(obj, "seq", (int,), where)
    where = "record %d" % seq
    scenario, descriptor, code, target, payload_hex = (
        get("scenario", ""), get("descriptor"), get("code"), get("target"), get("payload_hex")
    )
    if not (
        type(scenario) is str
        and type(descriptor) is str
        and type(code) is int
        and type(target) is int
        and type(payload_hex) is str
    ):
        _field(obj, "scenario", (str,), where, "")
        _field(obj, "descriptor", (str,), where)
        _field(obj, "code", (int,), where)
        _field(obj, "target", (int,), where)
        _field(obj, "payload_hex", (str,), where)
    try:
        payload = binascii.unhexlify(payload_hex)
    except ValueError as exc:
        raise CorpusError("%s payload_hex is not hex: %s" % (where, exc)) from None
    offsets = get("offsets")
    if type(offsets) is not list or not all(type(offset) is int for offset in offsets):
        _items(obj, "offsets", (int,), where)
    offsets = tuple(offsets)
    try:
        _check_offsets(offsets, len(payload))
    except ValueError as exc:
        raise CorpusError("%s offsets: %s" % (where, exc)) from None
    trace_obj = get("trace")
    if type(trace_obj) is not dict:
        _field(obj, "trace", (dict,), where)
    leaves = []
    try:
        trace = oracle_trace(trace_obj, payload, leaves)
    except CorpusError as exc:
        raise CorpusError("%s trace: %s" % (where, exc)) from None
    handle_starts = [leaf.start for leaf in leaves if leaf.kind == "HANDLE"]
    if tuple(handle_starts) != offsets:
        raise CorpusError(
            "%s: HANDLE leaves start at %s, offsets are %s" % (where, _excerpt(handle_starts), _excerpt(offsets))
        )
    end = 0
    for leaf in leaves:
        if leaf.start != end:
            raise CorpusError(
                "%s trace: leaves do not tile the %d-byte payload: leaf %s at [%d, %d) does not start at %d"
                % (where, len(payload), leaf.kind, leaf.start, leaf.end, end)
            )
        end = leaf.end
    if end != len(payload):
        raise CorpusError("%s trace: leaves do not tile the %d-byte payload: they end at %d" % (where, len(payload), end))
    consumed = get("consumed_handles")
    if type(consumed) is not list:
        _items(obj, "consumed_handles", (list,), where)
    for pair in consumed:
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) is int
            and (type(pair[1]) is int or (type(pair[1]) is str and pair[1].startswith("STATIC:")))
        ):
            _items(obj, "consumed_handles", (list,), where)
            raise CorpusError(
                "%s consumed_handles must hold [int, int or 'STATIC:<descriptor>'] pairs, got %s" % (where, _excerpt(pair))
            )
    positions = [pair[0] for pair in consumed]
    if tuple(positions) != offsets:
        raise CorpusError(
            "%s: consumed_handles cover positions %s, offsets are %s" % (where, _excerpt(positions), _excerpt(offsets))
        )
    produced = get("produced_handles")
    if type(produced) is not list:
        _items(obj, "produced_handles", (list,), where)
    for pair in produced:
        if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int):
            _items(obj, "produced_handles", (list,), where)
            raise CorpusError("%s produced_handles must hold [int, int] pairs, got %s" % (where, _excerpt(pair)))
    reply_kind = get("reply_kind")
    if type(reply_kind) is not str:
        _field(obj, "reply_kind", (str,), where)
    for leaf in leaves:
        if leaf.kind in ("STRING", "BYTES"):
            padding = payload[leaf.start + 4 + _I32.unpack_from(payload, leaf.start)[0] : leaf.end]
            if padding != bytes(len(padding)):
                raise CorpusError(
                    "%s trace: trace leaf %s at [%d, %d) pads its value with nonzero bytes"
                    % (where, leaf.kind, leaf.start, leaf.end)
                )
        elif leaf.end - leaf.start != _FIXED_PART[leaf.kind]:
            raise CorpusError(
                "%s trace: trace leaf %s at [%d, %d) is %d bytes wide, not %d"
                % (where, leaf.kind, leaf.start, leaf.end, leaf.end - leaf.start, _FIXED_PART[leaf.kind])
            )
        elif leaf.kind == "BOOL" and _I32.unpack_from(payload, leaf.start)[0] not in (0, 1):
            raise CorpusError(
                "%s trace: trace leaf BOOL at [%d, %d) holds %d, not 0 or 1"
                % (where, leaf.start, leaf.end, _I32.unpack_from(payload, leaf.start)[0])
            )
    return SeedRecord(
        seq, scenario, descriptor, code, target, payload, offsets, trace,
        tuple(map(tuple, consumed)), tuple(map(tuple, produced)), reply_kind,
    )


def oracle_load(path):
    try:
        with open(path, encoding="utf-8", newline="") as source:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise CorpusError("corpus %s is not UTF-8: %s" % (path, exc)) from None
    lines = [(number, line) for number, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not lines:
        raise CorpusError("corpus file is empty")
    try:
        header = json.loads(lines[0][1])
    except json.JSONDecodeError:
        raise CorpusError("corpus header is not JSON") from None
    except RecursionError:
        raise CorpusError("corpus header nests too deeply") from None
    if type(header) is not dict or _field(header, "format_version", (int,), "corpus header") != 1:
        raise CorpusError("unsupported corpus header: %s" % _excerpt(header))
    records = []
    for number, line in lines[1:]:
        try:
            records.append(oracle_record(json.loads(line), "corpus line %d" % number))
        except json.JSONDecodeError:
            raise CorpusError("corpus line %d is not JSON: %r" % (number, line[:80])) from None
        except RecursionError:
            raise CorpusError("corpus line %d nests too deeply: %r" % (number, line[:80])) from None
    return records


# -- corruptions -------------------------------------------------------------------


def _nodes(trace, parent=None):
    """(node, parent's children list) for every dict in a trace, in tree order."""
    if type(trace) is not dict:
        return
    yield trace, parent
    children = trace.get("children")
    if type(children) is list:
        for child in children:
            yield from _nodes(child, children)


def _paths(value, path=()):
    """Every path to a value inside a JSON value, the value's own first."""
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def _drop_key(record, draw):
    holders = [record] + [node for node, _ in _nodes(record.get("trace"))]
    holder = draw(st.sampled_from(holders))
    if holder:
        del holder[draw(st.sampled_from(sorted(holder)))]


_WRONG_VALUES = [True, False, 3.0, None, "x", "STATIC:", [], {}, [0], -1, 0, 5, 2**31, float("inf")]


def _set_at(record, path, value):
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value


def _retype(record, draw):
    path = draw(st.sampled_from(list(_paths(record))[1:]))
    _set_at(record, path, copy.deepcopy(draw(st.sampled_from(_WRONG_VALUES))))


def _shift_range(record, draw):
    node = draw(st.sampled_from([node for node, _ in _nodes(record.get("trace"))] or [{}]))
    if type(node.get("byte_range")) is list and len(node["byte_range"]) == 2:
        for side in draw(st.sampled_from([(0,), (1,), (0, 1)])):
            if type(node["byte_range"][side]) is int:
                node["byte_range"][side] += draw(st.integers(-8, 8).filter(bool))


def _edit_nibble(record, draw):
    """Edit one hex digit of the payload: anywhere, or the high digit of a
    leaf's first word, where a handle or a length prefix turns negative."""
    text = record.get("payload_hex")
    if type(text) is not str or not text:
        return
    starts = [
        node["byte_range"][0] for node, _ in _nodes(record.get("trace"))
        if type(node.get("byte_range")) is list and node["byte_range"] and type(node["byte_range"][0]) is int
    ]
    high_digits = [2 * start + 6 for start in starts if 0 <= 2 * start + 6 < len(text)]
    at = draw(st.integers(0, len(text) - 1) | st.sampled_from(high_digits or [0]))
    record["payload_hex"] = text[:at] + draw(st.sampled_from("0123456789abcdefg")) + text[at + 1 :]


def _edit_offsets(record, draw):
    offsets = record.get("offsets")
    if type(offsets) is not list:
        return
    how = draw(st.sampled_from(["reverse", "append", "slot", "drop", "nudge", "repeat"]))
    if how == "reverse":
        offsets.reverse()
    elif how == "append" or not offsets:
        offsets.insert(draw(st.integers(0, len(offsets))), draw(st.integers(-4, 80)))
    elif how == "slot":
        # A handle slot no HANDLE leaf backs, with its pair: the offsets
        # and consumed_handles still agree.
        pos = draw(st.sampled_from([0, 4, 8, 12, 16]))
        offsets.append(pos)
        if type(record.get("consumed_handles")) is list:
            record["consumed_handles"].append([pos, 0])
    else:
        at = draw(st.integers(0, len(offsets) - 1))
        if how == "drop":
            del offsets[at]
        elif how == "nudge" and type(offsets[at]) is int:
            offsets[at] += draw(st.sampled_from([-4, -2, -1, 1, 2, 3, 4]))
        elif how == "repeat":
            offsets.insert(at, offsets[at])


def _break_pair(record, draw):
    pairs = record.get("consumed_handles")
    if type(pairs) is not list:
        return
    how = draw(st.sampled_from(["drop-pair", "add-pair", "shorten", "lengthen", "swap", "move", "origin"]))
    if how == "add-pair":
        pair = [draw(st.integers(0, 16)), draw(st.sampled_from([0, 8, "STATIC:svc.audio"]))]
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
        return
    if not pairs:
        return
    at = draw(st.integers(0, len(pairs) - 1))
    pair = pairs[at]
    if how == "drop-pair":
        del pairs[at]
    elif type(pair) is not list or len(pair) != 2:
        return
    elif how == "shorten":
        del pair[-1]
    elif how == "lengthen":
        pair.append(0)
    elif how == "swap":
        pair.reverse()
    elif how == "move" and type(pair[0]) is int:
        pair[0] += draw(st.sampled_from([-4, 1, 4]))
    elif how == "origin":
        pair[1] = draw(st.sampled_from(["nowhere", "STATIC:", True, None, 3.0, -1]))


def _wrap_trace(record, draw):
    for _ in range(draw(st.integers(1, 4))):
        inner = record.get("trace")
        byte_range = inner.get("byte_range", [0, 0]) if type(inner) is dict else [0, 0]
        record["trace"] = {"kind": "COMPOSITE", "label": "w", "byte_range": copy.copy(byte_range), "children": [inner]}


def _graft(record, draw):
    """Give a node the children of another node, or one more child: a leaf
    then carries children, a composite leaves its payload untiled."""
    nodes = [node for node, _ in _nodes(record.get("trace"))]
    if nodes:
        node, other = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        children = node.get("children")
        if type(children) is list and draw(st.booleans()):
            children.insert(draw(st.integers(0, len(children))), copy.deepcopy(other))
        else:
            node["children"] = copy.deepcopy(other.get("children", [other]))


def _insert_leaf(record, draw):
    """Insert a 4 + pad byte I32 leaf at a leaf boundary and shift all that
    follows: the offsets, HANDLE leaves and handle positions after it stay
    consistent, and are misaligned unless pad is a multiple of 4."""
    try:
        payload = bytes.fromhex(record["payload_hex"])
        leaves = [(node, parent) for node, parent in _nodes(record["trace"]) if node.get("kind") != "COMPOSITE"]
        at = draw(st.integers(0, len(leaves)))
        where = leaves[at][0]["byte_range"][0] if at < len(leaves) else len(payload)
        width = 4 + draw(st.integers(0, 4))
        for node, _ in leaves[at:]:
            node["byte_range"] = [node["byte_range"][0] + width, node["byte_range"][1] + width]
        leaf = {"kind": "I32", "label": "", "byte_range": [where, where + width]}
        if at < len(leaves):
            siblings = leaves[at][1]
            siblings.insert(next(i for i, node in enumerate(siblings) if node is leaves[at][0]), leaf)
        else:
            record["trace"]["children"].append(leaf)
        record["payload_hex"] = (payload[:where] + bytes(width) + payload[where:]).hex()
        record["offsets"] = [pos + width if pos >= where else pos for pos in record["offsets"]]
        for pair in record["consumed_handles"]:
            if pair[0] >= where:
                pair[0] += width
    except (KeyError, TypeError, IndexError, AttributeError, ValueError, StopIteration):
        pass  # an earlier corruption left nothing to shift consistently


def _misencode_leaf(record, draw):
    """A lie of the right type that keeps the leaves tiling the payload: a
    nonzero pad byte after a STRING or BYTES body, an I32 relabelled BOOL,
    or a fixed-width leaf widened over the leaf after it, which is dropped."""
    try:
        payload = bytearray.fromhex(record["payload_hex"])
        leaves = [(node, parent) for node, parent in _nodes(record["trace"]) if node.get("kind") != "COMPOSITE"]
        pads, ints, pairs = [], [], []
        for node, siblings in leaves:
            start, end = node["byte_range"]
            if node["kind"] in ("STRING", "BYTES"):
                declared = _I32.unpack_from(payload, start)[0]
                if 0 <= start and end <= len(payload) and 0 <= declared <= end - start - 4:  # else broken before
                    pads.extend(range(start + 4 + declared, end))
                continue
            if node["kind"] == "I32":
                ints.append(node)
            at = next(i for i, other in enumerate(siblings) if other is node)
            if at + 1 < len(siblings):
                pairs.append((siblings, at))
        how = draw(st.sampled_from(["pad", "bool", "widen"]))
        if how == "pad" and pads:
            payload[draw(st.sampled_from(pads))] = draw(st.sampled_from([0x01, 0x41, 0xFF]))
            record["payload_hex"] = payload.hex()
        elif how == "bool" and ints:
            draw(st.sampled_from(ints))["kind"] = "BOOL"
        elif how == "widen" and pairs:
            siblings, at = draw(st.sampled_from(pairs))
            siblings[at]["byte_range"] = [siblings[at]["byte_range"][0], siblings[at + 1]["byte_range"][1]]
            del siblings[at + 1]
    except (KeyError, TypeError, IndexError, ValueError, AttributeError, StopIteration, struct.error):
        pass  # an earlier corruption left no leaf to lie about


_CORRUPTIONS = [
    _drop_key, _retype, _shift_range, _edit_nibble, _edit_offsets, _break_pair, _wrap_trace, _graft, _insert_leaf,
    _misencode_leaf,
]


def _outcome(load, *args):
    """What a loader makes of its input: the repr of what it returns, which
    shows each field's type, or its CorpusError text."""
    try:
        return "loaded", repr(load(*args))
    except CorpusError as exc:
        return "refused", str(exc)


# -- the tests --------------------------------------------------------------------


def test_the_oracle_loads_the_recorded_corpora(corpus, shuffled_corpus):
    for record in list(corpus) + list(shuffled_corpus):
        obj = json.loads(json.dumps(record.to_json()))
        assert oracle_record(obj) == record == SeedRecord.from_json(obj)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_corrupted_record_loads_as_the_frozen_loader_loads_it(corpus, shuffled_corpus, data):
    records = list(corpus) + list(shuffled_corpus)
    # Few records carry handles, and most layout checks need one.
    with_handles = [record for record in records if record.offsets]
    record = data.draw(st.sampled_from(records) | st.sampled_from(with_handles))
    record = json.loads(json.dumps(record.to_json()))
    for corrupt in data.draw(st.lists(st.sampled_from(_CORRUPTIONS), min_size=1, max_size=3)):
        corrupt(record, data.draw)
    outcome = _outcome(SeedRecord.from_json, copy.deepcopy(record), "corpus line 2")
    assert outcome == _outcome(oracle_record, copy.deepcopy(record), "corpus line 2")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_corrupted_corpus_file_loads_as_the_frozen_loader_loads_it(corpus, tmp_path_factory, data):
    text = corpus_text(corpus)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        how = data.draw(st.sampled_from(["insert", "delete"]))
        if how == "insert":
            text = text[:at] + data.draw(st.sampled_from(" \t\r\n\xa0\ufeff{}[],:\"0x")) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load_corpus, path) == _outcome(oracle_load, path)


# -- the trace memo --------------------------------------------------------------
#
# The loader checks each distinct (payload, trace) once per load: a record
# whose payload an earlier record of the file had reuses that record's
# checked trace when its trace object is the same.  Each corrupted record
# below follows an intact copy of its original, so the memo has seen its
# payload.


def _deep_node(record, draw):
    """A node of the trace: a leaf, the deepest kind, or any node."""
    nodes = [node for node, _ in _nodes(record.get("trace"))] or [{}]
    leaves = [node for node in nodes if node.get("kind") != "COMPOSITE"]
    return draw(st.sampled_from(leaves or nodes) | st.sampled_from(nodes))


def _equal_retype(record, draw):
    """A byte_range int as the bool or float it equals: == takes them for
    the int, the walk does not."""
    node = _deep_node(record, draw)
    byte_range = node.get("byte_range")
    if type(byte_range) is list and byte_range:
        side = draw(st.integers(0, len(byte_range) - 1))
        value = byte_range[side]
        if type(value) is int:
            byte_range[side] = draw(st.sampled_from([float(value), bool(value)] if value in (0, 1) else [float(value)]))


def _retype_in_trace(record, draw):
    paths = [("trace",) + path for path in _paths(record.get("trace"))]
    _set_at(record, draw(st.sampled_from(paths[1:] or paths)), copy.deepcopy(draw(st.sampled_from(_WRONG_VALUES))))


def _relabel(record, draw):
    node = _deep_node(record, draw)
    how = draw(st.sampled_from(["drop", "empty", "other"]))
    if how == "drop":
        node.pop("label", None)
    else:
        node["label"] = "" if how == "empty" else "relabeled"


def _rekind(record, draw):
    """Another kind for a node; a leaf of the same width still tiles."""
    node = _deep_node(record, draw)
    node["kind"] = draw(st.sampled_from(["I32", "BOOL", "I64", "F64", "STRING", "BYTES", "HANDLE", "COMPOSITE"]))


def _edit_leaf_byte(record, draw):
    """Set one byte of a STRING, BYTES or HANDLE leaf: its length prefix,
    its handle's sign or its text's UTF-8 break."""
    try:
        payload = bytearray.fromhex(record["payload_hex"])
        spans = [
            node["byte_range"] for node, _ in _nodes(record["trace"])
            if node.get("kind") in ("STRING", "BYTES", "HANDLE") and node["byte_range"][0] < node["byte_range"][1]
        ]
        start, end = draw(st.sampled_from(spans))
        at = draw(st.integers(start, min(end, len(payload)) - 1) | st.sampled_from([start, start + 3]))
        payload[at] = draw(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xC3, 0xFF]))
        record["payload_hex"] = payload.hex()
    except (KeyError, TypeError, IndexError, ValueError, AttributeError):
        pass  # no such leaf in this record


_MEMO_CORRUPTIONS = [
    # A trace changed deep down, under the same payload.
    [_equal_retype, _retype_in_trace, _relabel, _rekind, _shift_range, _graft, _wrap_trace],
    # The payload changed in one byte, under the same trace.
    [_edit_leaf_byte, _edit_nibble],
    # The same payload and trace, with lying offsets or consumed_handles.
    [_edit_offsets, _break_pair],
]


def _corpus_file(path, *records):
    path.write_text("\n".join([json.dumps({"format_version": 1})] + [json.dumps(r) for r in records]) + "\n")
    return path


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_corrupted_record_after_an_intact_copy_loads_as_the_frozen_loader_loads_it(
    corpus, shuffled_corpus, tmp_path_factory, data
):
    records = list(corpus) + list(shuffled_corpus)
    with_handles = [record for record in records if record.offsets]
    intact = data.draw(st.sampled_from(records) | st.sampled_from(with_handles)).to_json()
    broken = copy.deepcopy(intact)
    for corrupt in data.draw(st.lists(st.sampled_from(data.draw(st.sampled_from(_MEMO_CORRUPTIONS))), min_size=1, max_size=3)):
        corrupt(broken, data.draw)
    path = _corpus_file(tmp_path_factory.mktemp("corpus") / "corpus.jsonl", intact, broken, intact)
    assert _outcome(load_corpus, path) == _outcome(oracle_load, path)


def test_a_range_equal_to_an_accepted_one_in_value_alone_is_refused(corpus, tmp_path):
    """true equals 1 and 12.0 equals 12, but the walk refuses both, so a
    trace that equals an accepted one only so is refused after it too."""
    intact = corpus[1].to_json()  # a root over one STRING leaf, both at [0, 12]
    for path, value in [
        (("trace", "byte_range", 0), False),
        (("trace", "byte_range", 1), 12.0),
        (("trace", "children", 0, "byte_range", 0), 0.0),
        (("trace", "children", 0, "byte_range", 1), 12.0),
    ]:
        broken = copy.deepcopy(intact)
        _set_at(broken, path, value)
        outcome = _outcome(load_corpus, _corpus_file(tmp_path / "corpus.jsonl", intact, broken))
        assert outcome == _outcome(oracle_load, tmp_path / "corpus.jsonl")
        assert outcome[0] == "refused" and outcome[1].startswith("record 1 trace: trace node byte_range must hold only int")


def test_the_deepest_trace_loads_twice_and_one_level_deeper_is_refused(corpus, tmp_path):
    """The memo compares a trace with the one it accepted in C, which
    recurses per level as the walk does.  The deepest trace a one-record
    file loads with, where the memo has nothing to reuse, loads twice
    over; one level deeper, two copies are refused with the text one copy
    is refused with, as the oracle refuses it.  Before Python 3.12 the
    oracle's comprehension adds a frame per level, so it may refuse a
    level sooner: at its own deepest, both loaders load two copies alike.
    Every load runs at one stack depth, and a loaded trace is compared by
    its depth and innermost node, which recurse no further."""
    record = corpus[1].to_json()
    leaf = json.dumps(record.pop("trace"))
    path = tmp_path / "corpus.jsonl"
    wrapper = '{"kind": "COMPOSITE", "label": "w", "byte_range": [0, 12], "children": ['

    def outcome(depth, copies, load=load_corpus):
        line = json.dumps(record)[:-1] + ', "trace": ' + wrapper * depth + leaf + "]}" * depth + "}"
        path.write_text(json.dumps({"format_version": 1}) + "\n" + (line + "\n") * copies)
        try:
            loaded = load(path)
        except CorpusError as exc:
            return "refused", str(exc)
        shapes = []
        for seed in loaded:
            node, levels = seed.trace, 0
            while node.kind == "COMPOSITE":
                node, levels = node.children[0], levels + 1
            shapes.append((seed._replace(trace=None), levels, node))
        return "loaded", shapes

    deepest = {}
    for load in (load_corpus, oracle_load):
        low, high = 0, 4096
        assert outcome(high, 1, load)[0] == "refused"
        while low + 1 < high:
            middle = (low + high) // 2
            if outcome(middle, 1, load)[0] == "loaded":
                low = middle
            else:
                high = middle
        deepest[load] = low
    depth = deepest[load_corpus]
    assert outcome(depth, 2) == ("loaded", outcome(depth, 1)[1] * 2)
    refused = outcome(depth + 1, 1)
    assert refused[0] == "refused" and refused[1].startswith("corpus line 2 nests too deeply: ")
    assert outcome(depth + 1, 1, oracle_load) == refused
    assert outcome(depth + 1, 2) == refused
    assert outcome(deepest[oracle_load], 2) == outcome(deepest[oracle_load], 2, oracle_load)


# -- re-encoding ----------------------------------------------------------------


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_record_the_loader_accepts_reencodes_to_itself(corpus, shuffled_corpus, tmp_path_factory, data):
    """The mutator makes a seed's cases from what its leaves re-encode
    to, and exactly one leaf gets one mutation only if that is the
    recorded payload.  So each record a corrupted file loads with must
    re-encode to its own payload and offsets."""
    # A record with an empty payload has no leaf to lie about.
    records = [record for record in list(corpus) + list(shuffled_corpus) if record.payload]
    with_handles = [record for record in records if record.offsets]
    record = data.draw(st.sampled_from(records) | st.sampled_from(with_handles)).to_json()
    corruptions = _CORRUPTIONS + [c for group in _MEMO_CORRUPTIONS for c in group if c not in _CORRUPTIONS]
    # Half the corruptions are lies of the right type, which nothing else refuses.
    for corrupt in data.draw(st.lists(st.sampled_from(corruptions) | st.just(_misencode_leaf), min_size=1, max_size=3)):
        corrupt(record, data.draw)
    try:
        loaded = load_corpus(_corpus_file(tmp_path_factory.mktemp("corpus") / "corpus.jsonl", record))
    except CorpusError:
        return
    for seed in loaded:
        encoded = _encode_seed(seed)
        assert (encoded.payload, encoded.offsets) == (seed.payload, seed.offsets)
