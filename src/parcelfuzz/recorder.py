"""Seed recording: scripted client sessions captured as a replayable corpus.

A RecordingClient wraps every transact call: it installs a trace hook on
the request parcel so the server's reads reconstruct the hierarchical type
structure of the payload, then stores the request bytes, handle-slot
origins, produced handles, and the reply disposition as one SeedRecord.

Handle bookkeeping is what makes replay possible later.  Handles obtained
from the service manager are static (re-resolvable by name any time);
handles received in any other reply are dynamic and exist only inside the
session that produced them, so records consuming them carry the producing
record's seq.  ``build_dependency_graph`` checks that bookkeeping and
turns it into an acyclic producer-before-consumer graph, naming each
static handle after the first service-manager lookup that produced it,
in one walk of the records in seq order.

Loading checks every record in full, in one pass over its fields in
read order: each field's JSON type, then one walk of the type trace that
checks every node, then one loop over the trace's leaves.  That loop
checks that the leaves, in tree order, tile the payload from its first
byte to its last, that the HANDLE leaves start at the offsets, each
4-aligned, and that consumed_handles pairs each offset with an origin.
Last, each leaf must re-encode to its own bytes, as the mutator's splices
need.  Each check runs once per record, except the walk and that last
check: a load makes both once per distinct payload and trace, and a
record that repeats both reuses the trace already walked.  An error is
worded only once a check fails, and names the first field that fails in
read order, a leaf that would not re-encode after every other field.

The corpus persists as JSON-lines: a header line, then one record per
line with sorted keys, so identical sessions serialize byte-identically.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import reprlib
import struct
from types import NoneType
from typing import NamedTuple

from .parcel import BOOL, BYTES, COMPOSITE, F64, HANDLE, I32, I32_MAX, I64, STRING, Parcel, _check_offsets, handle_at
from .router import OK, Reply, Router, Transaction, SERVICE_MANAGER_DESCRIPTOR, SERVICE_MANAGER_HANDLE
from .services import (
    ActivityClient,
    AudioClient,
    AudioSession,
    BluetoothClient,
    Client,
    GraphicsClient,
    QueueClient,
    TAG_BUNDLE,
    TAG_BYTES,
    TAG_I32,
    TAG_STRING,
    ViewClient,
    ViewNode,
    fresh_router,
)

CORPUS_FORMAT_VERSION = 1
CORPUS_MANIFEST_REF = "corpus-manifest-v1"

STATIC_PREFIX = "STATIC:"

# Each trace leaf kind by name: parcel's own constant, which a loaded leaf
# holds because parcel dispatches on identity, and the bytes a leaf of the
# kind holds, all of them or the length prefix of a STRING or BYTES.
_LEAF_KINDS = {I32: (I32, 4), I64: (I64, 8), F64: (F64, 8), BOOL: (BOOL, 4),
               STRING: (STRING, 4), BYTES: (BYTES, 4), HANDLE: (HANDLE, 4)}
_I32 = struct.Struct("<i")


class CorpusError(Exception):
    """A corpus file or record set is internally inconsistent."""


class RecordingError(Exception):
    """A session did something the recorder cannot account for."""


class RecordingAborted(RecordingError):
    """A scenario raised client-side; nothing was recorded for that call."""

    def __init__(self, scenario: str, records_kept: int, cause: Exception):
        super().__init__(
            "scenario %r aborted after %d records: %s" % (scenario, records_kept, cause)
        )
        self.scenario = scenario
        self.records_kept = records_kept
        self.cause = cause


def _excerpt(value) -> str:
    """A bounded repr of value for error messages, at most 80 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


_ABSENT = object()
# Type tuples for _field and _items.  The corpus loader tests each field
# inline and calls them only to name a field that fails.
_INT, _STR, _LIST, _DICT = (int,), (str,), (list,), (dict,)


def _field(obj: dict, name: str, types: tuple, where: str, error=CorpusError, default=_ABSENT):
    """obj[name], which must have exactly one of the given JSON types, as
    json.loads gives them: a bool is no int, 3.0 is no int and null
    (NoneType) is no str.  An absent field is an error unless a default
    is given.  Errors are of class error and name where and the field."""
    try:
        value = obj[name]
    except KeyError:
        if default is _ABSENT:
            raise error("%s has no %r" % (where, name)) from None
        return default
    if type(value) in types:
        return value
    names = " or ".join("null" if t is NoneType else t.__name__ for t in types)
    raise error("%s %s must be %s, got %s" % (where, name, names, _excerpt(value)))


def _items(obj: dict, name: str, types: tuple, where: str, error=CorpusError, container=list):
    """obj[name], a list (or an object, with container=dict) every item
    (or value) of which has exactly one of the given JSON types."""
    values = obj.get(name)
    if type(values) is not container:
        _field(obj, name, (container,), where, error)  # raises: absent, or not a container
    for value in values.values() if container is dict else values:
        if type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise error("%s %s must hold only %s values, got %s" % (where, name, names, _excerpt(values)))
    return values


# ---------------------------------------------------------------------------
# Type traces.
# ---------------------------------------------------------------------------


class TraceNode(NamedTuple):
    """One node of a type trace: a primitive leaf or a labeled composite,
    covering [start, end) of the payload, whose children are in read order."""

    kind: str
    label: str = ""
    start: int = 0
    end: int = 0
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return self.kind != COMPOSITE

    def to_json(self, max_depth: int | None = None) -> dict:
        """The tree as JSON.  With max_depth, composites max_depth levels
        below this node keep no children and are marked truncated: a
        runaway recursive decoder leaves a trace hundreds of levels deep,
        and a crash report keeps enough of it to read the failure."""
        node = {
            "kind": self.kind,
            "label": self.label,
            "byte_range": [self.start, self.end],
        }
        if self.is_leaf:
            return node
        if max_depth == 0:
            node["children"] = []
            node["truncated"] = True
        else:
            deeper = None if max_depth is None else max_depth - 1
            node["children"] = [c.to_json(deeper) for c in self.children]
        return node

    @classmethod
    def from_json(cls, obj, payload: bytes, leaves: list["TraceNode"]) -> "TraceNode":
        """Parse the trace tree of a record with the given payload.

        Every node must be an object with a str kind, an optional str
        label and a byte_range of two ints, a composite's children a list.
        Every leaf must fit inside the payload, its kind's fixed-width part
        included, a STRING or BYTES leaf must end where its length prefix
        says the padded value ends, a STRING leaf must hold UTF-8 (what a
        reader decodes it as), a HANDLE leaf must hold a handle in
        [0, I32_MAX] (the range write_handle accepts), and every leaf is
        appended to leaves in tree order.
        """
        return _trace_from_json(obj, payload, leaves)


def _trace_from_json(obj, payload: bytes, leaves: list) -> TraceNode:
    """TraceNode.from_json, in one Python frame per trace level.  A
    comprehension would add a frame per level before Python 3.12, and an
    iterative walk would load traces deeper than the recursion limit
    allows on 3.12 and later, so either would move the depth at which a
    corpus line is refused as nested too deeply."""
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
        # Name the first field that fails, in the order above.
        _field(obj, "kind", _STR, "trace node")
        _field(obj, "label", _STR, "trace node", CorpusError, "")
        _items(obj, "byte_range", _INT, "trace node")
        raise CorpusError("trace node byte_range must be [start, end], got %s" % _excerpt(byte_range))
    start, end = byte_range
    if kind == COMPOSITE:
        children = obj.get("children", [])
        if type(children) is not list:
            _field(obj, "children", _LIST, "trace node")  # raises
        nodes = []
        for child in children:
            nodes.append(_trace_from_json(child, payload, leaves))
        return tuple.__new__(TraceNode, (COMPOSITE, label, start, end, tuple(nodes)))
    return _trace_leaf(kind, label, start, end, obj.get("children"), payload, leaves)


def _trace_leaf(kind: str, label: str, start: int, end: int, children, payload: bytes, leaves: list) -> TraceNode:
    """Check a leaf of either walk of a trace, the JSON one and
    _refuse_noncanonical's (see TraceNode.from_json), and append it to
    leaves with parcel's own constant for its kind."""
    known = _LEAF_KINDS.get(kind)
    if known is None:
        raise CorpusError("unknown trace leaf kind %s" % _excerpt(kind))
    kind, fixed_part = known
    if children:
        raise CorpusError("trace leaf %r carries children" % kind)
    if not 0 <= start <= end - fixed_part or end > len(payload):
        raise CorpusError(
            "trace leaf %s at [%d, %d) does not fit the %d-byte payload" % (kind, start, end, len(payload))
        )
    if kind is HANDLE:
        handle = _I32.unpack_from(payload, start)[0]
        if handle < 0:
            raise CorpusError(
                "trace leaf HANDLE at [%d, %d) holds handle %d, outside [0, %d]" % (start, end, handle, I32_MAX)
            )
    elif kind is STRING or kind is BYTES:
        declared = _I32.unpack_from(payload, start)[0]
        # pad4(declared) inline: a call would deepen a walk's deepest frame.
        if declared < 0 or end != start + 4 + ((declared + 3) & ~3):
            raise CorpusError("trace leaf %s at [%d, %d) declares %d bytes" % (kind, start, end, declared))
        if kind is STRING:
            try:
                payload[start + 4 : start + 4 + declared].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(
                    "trace leaf STRING at [%d, %d) is not UTF-8: %s" % (start, end, exc.reason)
                ) from None
    leaf = tuple.__new__(TraceNode, (kind, label, start, end, ()))
    leaves.append(leaf)
    return leaf


class TraceBuilder:
    """Parcel read hook that reconstructs what a decoder consumed.

    Each node is built whole, with its final range, as the reads arrive.
    Parcel reads are contiguous, so a composite starts where the read
    before its enter ended and ends where the read before its exit ended.
    The stack holds a (label, start, children) entry per open composite.
    """

    def __init__(self):
        self._end = 0
        self._stack = [("request", 0, [])]

    def on_leaf(self, kind: str, start: int, end: int) -> None:
        self._stack[-1][2].append(TraceNode(kind, "", start, end))
        self._end = end

    def enter_composite(self, label: str) -> None:
        self._stack.append((label, self._end, []))

    def exit_composite(self) -> None:
        if len(self._stack) > 1:
            # Pop first: a build that hits the recursion limit loses only this node.
            label, start, children = self._stack.pop()
            self._stack[-1][2].append(TraceNode(COMPOSITE, label, start, self._end, tuple(children)))

    def finish(self) -> TraceNode:
        label, start, children = self._stack[0]
        return TraceNode(COMPOSITE, label, start, self._end, tuple(children))


# ---------------------------------------------------------------------------
# Seed records.
# ---------------------------------------------------------------------------


class SeedRecord(NamedTuple):
    """One recorded transaction, carrying everything replay needs.

    consumed_handles pairs each handle-slot byte position in the payload,
    in offsets order, with its origin: the producing record's seq for
    dynamic handles, or a "STATIC:<descriptor>" marker for
    service-manager results.  The target
    handle is kept alongside the resolved descriptor so replays can
    re-address transactions whose target was itself a dynamic handle.
    """

    seq: int
    scenario: str
    descriptor: str
    code: int
    target: int
    payload: bytes
    offsets: tuple[int, ...]
    trace: TraceNode
    consumed_handles: tuple[tuple[int, int | str], ...]
    produced_handles: tuple[tuple[int, int], ...]
    reply_kind: str

    def parcel(self) -> Parcel:
        return Parcel(self.payload, self.offsets)

    @property
    def content(self) -> tuple:
        """What the mutator makes this seed's semi-valid cases from, and
        all they depend on: descriptor, code, payload and trace."""
        return (self.descriptor, self.code, self.payload, self.trace)

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "scenario": self.scenario,
            "descriptor": self.descriptor,
            "code": self.code,
            "target": self.target,
            "payload_hex": self.payload.hex(),
            "offsets": list(self.offsets),
            "trace": self.trace.to_json(),
            "consumed_handles": [[pos, origin] for pos, origin in self.consumed_handles],
            "produced_handles": [[value, pos] for value, pos in self.produced_handles],
            "reply_kind": self.reply_kind,
        }

    @classmethod
    def from_json(cls, obj, where: str = "seed record", traces: dict | None = None) -> "SeedRecord":
        """Parse one corpus record.  An unusable record is a CorpusError
        naming the first field that fails, in the order the fields are
        read here, and the record: by its seq once that is read, by where
        until then.  The offsets are read before the trace, so a trace
        error is raised only once the offsets have passed _check_offsets.

        traces, when given, maps each payload whose trace was walked to
        (trace object, TraceNode, leaves), and is filled as records are
        read.  A record whose payload is in it and whose trace object is
        read exactly as the stored one (_accepted_before) reuses that
        TraceNode and its leaves; any other trace is walked, and stored
        if it passes.  That is exact because the walk's result, or its
        error, depends on the trace object and the payload alone.  The
        checks on the leaves, against this record's own offsets and
        consumed_handles, and on the fields after them, run on every
        record.  Last, the leaves of a walked trace must re-encode to
        their own bytes (_refuse_reencoding); a reused trace passed that
        on the record that walked it, since a record that fails it stops
        the load.
        """
        if type(obj) is not dict:
            raise CorpusError("%s is not an object: %s" % (where, _excerpt(obj)))
        get = obj.get
        seq = get("seq")
        if type(seq) is not int:
            _field(obj, "seq", _INT, where)  # raises
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
            # Name the first field that fails, in the order above.
            _field(obj, "scenario", _STR, where, CorpusError, "")
            _field(obj, "descriptor", _STR, where)
            _field(obj, "code", _INT, where)
            _field(obj, "target", _INT, where)
            _field(obj, "payload_hex", _STR, where)
        try:
            payload = binascii.unhexlify(payload_hex)
        except ValueError as exc:
            raise CorpusError("%s payload_hex is not hex: %s" % (where, exc)) from None
        offsets = get("offsets")
        if type(offsets) is not list:
            _items(obj, "offsets", _INT, where)  # raises
        for offset in offsets:
            if type(offset) is not int:
                _items(obj, "offsets", _INT, where)  # raises
        offsets = tuple(offsets)
        trace_obj = get("trace")
        if type(trace_obj) is not dict:
            _refuse_offsets(where, offsets, len(payload))
            _field(obj, "trace", _DICT, where)  # raises
        seen = traces.get(payload) if traces is not None else None
        walked = seen is None or not _accepted_before(trace_obj, seen[0])
        if not walked:
            trace, leaves = seen[1], seen[2]
        else:
            leaves = []
            try:
                trace = _trace_from_json(trace_obj, payload, leaves)
            except (CorpusError, RecursionError) as exc:
                _refuse_offsets(where, offsets, len(payload))
                if type(exc) is RecursionError:
                    raise
                raise CorpusError("%s trace: %s" % (where, exc)) from None
            if traces is not None:
                traces[payload] = (trace_obj, trace, leaves)
        consumed = get("consumed_handles")
        if not _layout_fits(leaves, len(payload), offsets, consumed):
            _refuse_layout(obj, where, len(payload), offsets, leaves)  # raises
        produced = get("produced_handles")
        if type(produced) is not list:
            _items(obj, "produced_handles", _LIST, where)  # raises
        for pair in produced:
            if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int):
                _items(obj, "produced_handles", _LIST, where)  # raises if any item is no list
                raise CorpusError("%s produced_handles must hold [int, int] pairs, got %s" % (where, _excerpt(pair)))
        reply_kind = get("reply_kind")
        if type(reply_kind) is not str:
            _field(obj, "reply_kind", _STR, where)  # raises
        if walked:
            _refuse_reencoding(where, payload, leaves)
        return tuple.__new__(cls, (
            seq, scenario, descriptor, code, target, payload, offsets, trace,
            tuple(map(tuple, consumed)), tuple(map(tuple, produced)), reply_kind,
        ))


def _accepted_before(obj, accepted) -> bool:
    """Whether _trace_from_json reads the trace object obj exactly as it
    read accepted, a trace object it accepted for the same payload.  Its
    result depends on nothing else.  The objects must be equal, compared
    in C, and each byte_range must hold ints: json.loads gives no other
    type that equals a str, list or dict, but true equals 1 and 4.0
    equals 4, and the walk refuses those.  A comparison too deep for the
    recursion limit counts as not equal, so the walk decides."""
    try:
        if obj != accepted:
            return False
    except RecursionError:
        return False
    # obj equals an accepted trace: every node is an object with a str
    # kind and a two-item byte_range, each composite's children a list.
    stack = [obj]
    while stack:
        node = stack.pop()
        start, end = node["byte_range"]
        if type(start) is not int or type(end) is not int:
            return False
        if node["kind"] == COMPOSITE:
            stack.extend(node.get("children", ()))
    return True


def _refuse_reencoding(where: str, payload: bytes, leaves: list) -> None:
    """Raise the CorpusError of the first leaf that would not re-encode to
    its own bytes, which the mutator's splices of its seed rely on: a
    fixed-width leaf wider than its kind, nonzero padding after a STRING
    or BYTES body, or a BOOL that holds neither 0 nor 1."""
    for kind, _label, start, end, _children in leaves:
        value = _I32.unpack_from(payload, start)[0]
        if kind is STRING or kind is BYTES:
            lie = any(payload[start + 4 + value : end]) and "pads its value with nonzero bytes"
        elif end - start != _LEAF_KINDS[kind][1]:
            lie = "is %d bytes wide, not %d" % (end - start, _LEAF_KINDS[kind][1])
        else:
            lie = kind is BOOL and value not in (0, 1) and "holds %d, not 0 or 1" % value
        if lie:
            raise CorpusError("%s trace: trace leaf %s at [%d, %d) %s" % (where, kind, start, end, lie))


def _consumed_pair_fits(pair) -> bool:
    """Whether pair is [position, origin]: an int, and a seq or STATIC:<descriptor>."""
    return (
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) is int
        and (type(pair[1]) is int or (type(pair[1]) is str and pair[1].startswith(STATIC_PREFIX)))
    )


def _layout_fits(leaves: list, size: int, offsets: tuple, consumed) -> bool:
    """Whether a record's trace leaves, in tree order, tile its size-byte
    payload (a leaf listed twice or left out would change what the mutator
    sweeps), its HANDLE leaves start at its offsets, each 4-aligned, and
    consumed is a list that pairs each offset, in order, with an origin.
    Leaves that fit and tile start in ascending order, so offsets that
    pass also pass the rest of _check_offsets."""
    if type(consumed) is not list or len(consumed) != len(offsets):
        return False
    end = handles = 0
    for leaf in leaves:
        start = leaf[2]
        if start != end:
            return False
        if leaf[0] is HANDLE:
            if handles == len(offsets) or offsets[handles] != start or start & 3:
                return False
            pair = consumed[handles]
            if not (_consumed_pair_fits(pair) and pair[0] == start):
                return False
            handles += 1
        end = leaf[3]
    return end == size and handles == len(offsets)


def _refuse_offsets(where: str, offsets: tuple, size: int) -> None:
    """Raise the CorpusError an offsets table fails with, if any."""
    try:
        _check_offsets(offsets, size)
    except ValueError as exc:
        raise CorpusError("%s offsets: %s" % (where, exc)) from None


def _refuse_layout(obj: dict, where: str, size: int, offsets: tuple, leaves: list) -> None:
    """Raise the CorpusError of a record that _layout_fits refuses: the
    first check that fails, in read order."""
    _refuse_offsets(where, offsets, size)
    handle_starts = [leaf.start for leaf in leaves if leaf.kind is HANDLE]
    if tuple(handle_starts) != offsets:
        raise CorpusError(
            "%s: HANDLE leaves start at %s, offsets are %s" % (where, _excerpt(handle_starts), _excerpt(offsets))
        )
    end = 0
    for leaf in leaves:
        if leaf.start != end:
            raise CorpusError(
                "%s trace: leaves do not tile the %d-byte payload: leaf %s at [%d, %d) does not start at %d"
                % (where, size, leaf.kind, leaf.start, leaf.end, end)
            )
        end = leaf.end
    if end != size:
        raise CorpusError("%s trace: leaves do not tile the %d-byte payload: they end at %d" % (where, size, end))
    consumed = obj.get("consumed_handles")
    if type(consumed) is not list:
        _items(obj, "consumed_handles", _LIST, where)  # raises
    for pair in consumed:
        if not _consumed_pair_fits(pair):
            _items(obj, "consumed_handles", _LIST, where)  # raises if any item is no list
            raise CorpusError(
                "%s consumed_handles must hold [int, int or '%s<descriptor>'] pairs, got %s"
                % (where, STATIC_PREFIX, _excerpt(pair))
            )
    raise CorpusError(
        "%s: consumed_handles cover positions %s, offsets are %s"
        % (where, _excerpt([pair[0] for pair in consumed]), _excerpt(offsets))
    )


def _refuse_noncanonical(record: SeedRecord) -> None:
    """Raise the CorpusError load_corpus gives for record as save_corpus
    writes it, if the loader's trace and layout checks refuse it, run in
    memory.  A record that passes is canonical (see mutator)."""
    where, payload, offsets = "record %d" % record.seq, record.payload, record.offsets
    leaves, stack = [], [record.trace]
    try:
        while stack:
            kind, label, start, end, children = stack.pop()
            if kind == COMPOSITE:
                stack.extend(reversed(children))
            else:
                _trace_leaf(kind, label, start, end, children, payload, leaves)
    except CorpusError as exc:
        _refuse_offsets(where, offsets, len(payload))
        raise CorpusError("%s trace: %s" % (where, exc)) from None
    consumed = [list(pair) for pair in record.consumed_handles]  # as the file holds them
    if not _layout_fits(leaves, len(payload), offsets, consumed):
        _refuse_layout({"consumed_handles": consumed}, where, len(payload), offsets, leaves)  # raises
    _refuse_reencoding(where, payload, leaves)


class RecordingClient(Client):
    """Client endpoint that captures every transaction it sends."""

    def __init__(self, router: Router, sender_id: str = "recorder"):
        super().__init__(router, sender_id)
        self.records: list[SeedRecord] = []
        self.scenario = "adhoc"
        # Live handle value -> origin assigned when the value first arrived.
        self._static_origin: dict[int, str] = {}
        self._dyn_origin: dict[int, int] = {}

    def transact(self, handle: int, code: int, data: Parcel) -> Reply:
        builder = TraceBuilder()
        txn = Transaction(handle, code, data, self.sender_id)
        reply = self.router.transact(txn, trace_hook=builder)
        seq = len(self.records)

        consumed = []
        for pos in data.offsets:
            value = handle_at(data.buffer, pos)
            consumed.append((pos, self._origin_of(value)))

        produced = []
        if reply.kind == OK and reply.payload is not None:
            payload = reply.payload
            for pos in payload.offsets:
                value = handle_at(payload.buffer, pos)
                produced.append((value, pos))
                if handle == SERVICE_MANAGER_HANDLE:
                    self._static_origin[value] = self.router.descriptor_of(value)
                else:
                    self._dyn_origin[value] = seq

        self.records.append(
            SeedRecord(
                seq=seq,
                scenario=self.scenario,
                descriptor=self.router.descriptor_of(handle),
                code=code,
                target=handle,
                payload=data.buffer,
                offsets=tuple(data.offsets),
                trace=builder.finish(),
                consumed_handles=tuple(consumed),
                produced_handles=tuple(produced),
                reply_kind=reply.kind,
            )
        )
        return reply

    def _origin_of(self, value: int) -> int | str:
        if value in self._dyn_origin:
            return self._dyn_origin[value]
        if value in self._static_origin:
            return STATIC_PREFIX + self._static_origin[value]
        if value == SERVICE_MANAGER_HANDLE:
            return STATIC_PREFIX + SERVICE_MANAGER_DESCRIPTOR
        raise RecordingError("payload carries handle %d with unknown origin" % value)


# ---------------------------------------------------------------------------
# Scripted scenarios.
# ---------------------------------------------------------------------------


def _queue_session(client: Client) -> None:
    queue = QueueClient(client)
    queue.add("alpha")
    queue.add("beta")
    queue.peek()
    queue.poll()
    queue.remove()


def _audio_callback(client: Client) -> None:
    audio = AudioClient(client)
    audio.play("track-one")
    session, _index = audio.open_session()
    reply = client.transact(session, AudioSession.PING, Parcel())
    if reply.kind != OK:
        raise RecordingError("session ping failed: %s" % reply.kind)
    audio._register_client(session, "monitor")


def _bluetooth_profile(client: Client) -> None:
    bluetooth = BluetoothClient(client)
    bluetooth.register_app_configuration(["hfp", "a2dp", "map"])


def _view_inflate(client: Client) -> None:
    view = ViewClient(client)
    tree = ViewNode.pair(ViewNode.leaf("header"), ViewNode.leaf("A" * 4096))
    view.inflate("card", tree)


def _graphics_alloc(client: Client) -> None:
    graphics = GraphicsClient(client)
    graphics.create_native_handle("framebuffer", 2, 3)


def _activity_launch(client: Client) -> None:
    activity = ActivityClient(client)
    activity.start_activity(
        "app.intent.MAIN",
        "content://item/1",
        [
            ("mode", TAG_I32, 7),
            ("label", TAG_STRING, "home"),
            ("blob", TAG_BYTES, b"\x01\x02\x03\x04"),
            ("meta", TAG_BUNDLE, [("origin", TAG_STRING, "launcher")]),
        ],
    )


SCENARIOS = {
    "queue_session": _queue_session,
    "audio_callback": _audio_callback,
    "bluetooth_profile": _bluetooth_profile,
    "view_inflate": _view_inflate,
    "graphics_alloc": _graphics_alloc,
    "activity_launch": _activity_launch,
}


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS) + ("all",)


def record_session(names) -> list[SeedRecord]:
    """Run the named scenarios against one fresh router and return their records.

    A client-side refusal (wrapper validation) aborts the whole session:
    the failed call leaves no partial record, by construction, and the
    caller gets a RecordingAborted naming the scenario.
    """
    if isinstance(names, str):
        names = [names]
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SCENARIOS)
        elif name in SCENARIOS:
            expanded.append(name)
        else:
            raise ValueError("unknown scenario %r (have: %s)" % (name, ", ".join(scenario_names())))
    client = RecordingClient(fresh_router())
    for name in expanded:
        client.scenario = name
        try:
            SCENARIOS[name](client)
        except Exception as exc:
            raise RecordingAborted(name, len(client.records), exc) from exc
    return client.records


# ---------------------------------------------------------------------------
# Dependency graph.
# ---------------------------------------------------------------------------


class DependencyEdge(NamedTuple):
    producer_seq: int
    consumer_seq: int


class DependencyGraph(NamedTuple):
    """nodes are the seqs, ascending; edges the dynamic flow, in ascending
    consumer order; static_names maps each static handle value to the
    service it names."""

    nodes: tuple[int, ...]
    edges: tuple[DependencyEdge, ...]
    static_names: dict[int, str]


def build_dependency_graph(records) -> DependencyGraph:
    """Derive the producer-before-consumer graph from recorded bookkeeping,
    in one walk of the records in seq order.

    Dynamic consumption appears two ways: a handle slot in the payload
    whose origin is a producing seq, and a transaction target that is
    itself a dynamically produced handle.  Static handles never make
    edges: replay re-resolves them by name.  Handle 0 names the service
    manager, and each OK service-manager lookup names the values it
    produced after the string it read; the first lookup to name a value
    keeps it.  A STATIC:<name> origin must name its value's lookup, and a
    record that targets a static handle must be for the service that
    handle names: replay resolves it by that name, so a record that names
    it otherwise would run against one service and be tallied under
    another.
    """
    ordered = sorted(records, key=lambda r: r.seq)
    if [r.seq for r in ordered] != list(range(len(ordered))):
        raise CorpusError("record seqs are not contiguous from 0")

    dyn_produced: dict[int, int] = {}
    static_names: dict[int, str] = {SERVICE_MANAGER_HANDLE: SERVICE_MANAGER_DESCRIPTOR}
    edges: list[DependencyEdge] = []

    for record in ordered:
        for pos, origin in record.consumed_handles:
            value = handle_at(record.payload, pos)
            if isinstance(origin, int):
                if dyn_produced.get(value) != origin:
                    raise CorpusError(
                        "record %d consumes handle %d attributed to record %d, "
                        "which did not produce it" % (record.seq, value, origin)
                    )
                edges.append(DependencyEdge(origin, record.seq))
                continue
            name = static_names.get(value)
            if name is None:
                raise CorpusError(
                    "record %d consumes handle %d as %s, but no service-manager lookup produced it"
                    % (record.seq, value, _excerpt(origin))
                )
            if origin != STATIC_PREFIX + name:
                raise CorpusError(
                    "record %d consumes handle %d as %s, but it was looked up as %s"
                    % (record.seq, value, _excerpt(origin), _excerpt(name))
                )

        name = static_names.get(record.target)
        if name is not None and record.descriptor != name:
            raise CorpusError(
                "record %d is for %s, but its target, handle %d, was looked up as %s"
                % (record.seq, _excerpt(record.descriptor), record.target, _excerpt(name))
            )
        if record.target in dyn_produced:
            edges.append(DependencyEdge(dyn_produced[record.target], record.seq))
        elif name is None:
            raise CorpusError(
                "record %d targets handle %d with no recorded origin" % (record.seq, record.target)
            )

        if record.target != SERVICE_MANAGER_HANDLE:
            for value, _pos in record.produced_handles:
                dyn_produced[value] = record.seq
        elif record.reply_kind == OK:
            name = record.parcel().read_lenient(STRING)
            if name is not None:
                for value, _pos in record.produced_handles:
                    static_names.setdefault(value, name)

    return DependencyGraph(tuple(r.seq for r in ordered), tuple(edges), static_names)


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii
_CORPUS_HEADER = json.dumps(
    {"format_version": CORPUS_FORMAT_VERSION, "corpus_manifest_ref": CORPUS_MANIFEST_REF}, sort_keys=True
)
# A record's line, its keys in sorted order.
_RECORD_LINE = (
    '{"code": %d, "consumed_handles": [%s], "descriptor": %s, "offsets": [%s], "payload_hex": "%s", '
    '"produced_handles": [%s], "reply_kind": %s, "scenario": %s, "seq": %d, "target": %d, "trace": %s}'
)


def corpus_text(records) -> str:
    """The exact text save_corpus writes, for hashing without a file: a
    header line, then json.dumps(record.to_json(), sort_keys=True) for
    each record, every line ended by "\n".

    Each line is written directly, by format strings, which hold for
    the records the loader accepts and those the recorder makes: each
    field an int where json.dumps would write an int and a str where it
    would write a str.  A payload's hex holds nothing to escape.
    """
    lines = [_CORPUS_HEADER]
    for r in records:
        lines.append(_RECORD_LINE % (
            r.code,
            ", ".join([
                "[%d, %s]" % (pos, origin if type(origin) is int else _encode_str(origin))
                for pos, origin in r.consumed_handles
            ]),
            _encode_str(r.descriptor),
            ", ".join(["%d" % offset for offset in r.offsets]),
            r.payload.hex(),
            ", ".join(["[%d, %d]" % (value, pos) for value, pos in r.produced_handles]),
            _encode_str(r.reply_kind),
            _encode_str(r.scenario),
            r.seq,
            r.target,
            _trace_text(r.trace),
        ))
    return "\n".join(lines) + "\n"


def _trace_text(node: TraceNode) -> str:
    """json.dumps(node.to_json(), sort_keys=True), written from a stack
    of the nodes and closing texts still to come, so a trace of any depth
    the loader accepts is written without recursion."""
    chunks = []
    stack = [node]
    while stack:
        item = stack.pop()
        if type(item) is str:
            chunks.append(item)
            continue
        kind, label, start, end, children = item
        if kind != COMPOSITE:
            chunks.append('{"byte_range": [%d, %d], "kind": %s, "label": %s}' % (
                start, end, _encode_str(kind), _encode_str(label)
            ))
            continue
        chunks.append('{"byte_range": [%d, %d], "children": [' % (start, end))
        stack.append('], "kind": "COMPOSITE", "label": %s}' % _encode_str(label))
        if children:
            # Popped in order: the first child, ", ", the second, ...
            for child in children[:0:-1]:
                stack.append(child)
                stack.append(", ")
            stack.append(children[0])
    return "".join(chunks)


def save_corpus(records, path) -> str:
    """Write corpus_text(records) to path; returns corpus_digest(records),
    hashed from the text written rather than from a second one."""
    text = corpus_text(records)
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
    return _text_digest(text)


_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(line: str):
    """json.loads(line) without its per-call set-up: raw_decode of the
    line less the JSON whitespace around its value.  It refuses what
    json.loads refuses, data after the value and a leading BOM alike."""
    text = line.strip(" \t\n\r")
    value, end = _raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def load_corpus(path) -> list[SeedRecord]:
    """The records of a corpus file, each fully checked by
    SeedRecord.from_json.  A record that has no usable seq is named by
    its 1-based line in the file, blank lines counted.  Lines end at
    "\n" alone: JSON allows U+2028 and the other characters at which
    str.splitlines also breaks raw inside a string, and a carriage
    return is whitespace to it.  The trace of each distinct payload and
    trace is walked once per call, through a dict that lives only for
    the call, so records that repeat a seed share one TraceNode."""
    try:
        with open(path, encoding="utf-8", newline="") as source:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise CorpusError("corpus %s is not UTF-8: %s" % (path, exc)) from None
    lines = [(number, line) for number, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not lines:
        raise CorpusError("corpus file is empty")
    try:
        header = _parse_line(lines[0][1])
    except json.JSONDecodeError:
        raise CorpusError("corpus header is not JSON") from None
    except RecursionError:
        raise CorpusError("corpus header nests too deeply") from None
    if type(header) is not dict or _field(header, "format_version", _INT, "corpus header") != CORPUS_FORMAT_VERSION:
        raise CorpusError("unsupported corpus header: %s" % _excerpt(header))
    records = []
    traces: dict = {}
    for number, line in lines[1:]:
        try:
            records.append(SeedRecord.from_json(_parse_line(line), "corpus line %d" % number, traces))
        except json.JSONDecodeError:
            raise CorpusError("corpus line %d is not JSON: %r" % (number, line[:80])) from None
        except RecursionError:
            raise CorpusError("corpus line %d nests too deeply: %r" % (number, line[:80])) from None
    return records


def corpus_digest(records) -> str:
    """Identity of a corpus: sha256 of the text save_corpus writes for
    its records, so a file loads under the same identity however it is
    spaced, and one saved file hashes to it byte for byte."""
    return _text_digest(corpus_text(records))


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
