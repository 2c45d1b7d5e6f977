"""Seed recording: scripted client sessions captured as a replayable corpus.

A RecordingClient wraps every transact call: it installs a trace hook on
the request parcel so the server's reads reconstruct the hierarchical type
structure of the payload, then stores the request bytes, handle-slot
origins, produced handles, and the reply disposition as one SeedRecord.

Handle bookkeeping is what makes replay possible later.  Handles obtained
from the service manager are static (re-resolvable by name any time);
handles received in any other reply are dynamic and exist only inside the
session that produced them, so records consuming them carry the producing
record's seq.  ``build_dependency_graph`` turns that bookkeeping into an
acyclic producer-before-consumer graph.

The corpus persists as JSON-lines: a header line, then one record per
line with sorted keys, so identical sessions serialize byte-identically.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import reprlib
import struct
from pathlib import Path
from types import NoneType
from typing import NamedTuple

from .parcel import I32_MAX, Kind, Parcel, handle_at, pad4
from .router import Reply, ReplyKind, Router, Transaction, SERVICE_MANAGER_DESCRIPTOR, SERVICE_MANAGER_HANDLE
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
    all_methods,
    fresh_router,
)

CORPUS_FORMAT_VERSION = 1
CORPUS_MANIFEST_REF = "corpus-manifest-v1"

COMPOSITE = Kind.COMPOSITE.value
STATIC_PREFIX = "STATIC:"

# Bytes a trace leaf of each kind holds at least: the value itself, or
# the length prefix of a STRING or BYTES.
_FIXED_PART = {"I32": 4, "I64": 8, "F64": 8, "BOOL": 4, "STRING": 4, "BYTES": 4, "HANDLE": 4}
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
# Type tuples for the corpus loader's checks, which run per trace node.
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


class TraceNode:
    """One node of a type trace: a primitive leaf or a labeled composite.
    Not a tuple: ``TraceBuilder.finish`` sets composite ranges later."""

    __slots__ = ("kind", "label", "start", "end", "children")

    def __init__(self, kind: str, label: str = "", start: int = 0, end: int = 0, children: list | None = None):
        self.kind = kind
        self.label = label
        self.start = start
        self.end = end
        self.children = [] if children is None else children

    def __eq__(self, other):
        if type(other) is not TraceNode:
            return NotImplemented
        return (self.kind, self.label, self.start, self.end, self.children) == (
            other.kind, other.label, other.start, other.end, other.children
        )

    @property
    def is_leaf(self) -> bool:
        return self.kind != COMPOSITE

    @property
    def byte_range(self) -> tuple[int, int]:
        return (self.start, self.end)

    def iter_leaves(self):
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.iter_leaves()

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
    def from_json(cls, obj, payload: bytes, handle_starts: list[int]) -> "TraceNode":
        """Parse the trace tree of a record with the given payload.

        Every node must be an object with a str kind, an optional str
        label and a byte_range of two ints, a composite's children a list.
        Every leaf must fit inside the payload, its kind's fixed-width part
        included, a STRING or BYTES leaf must end where its length prefix
        says the padded value ends, a STRING leaf must hold UTF-8 (what a
        reader decodes it as), a HANDLE leaf must hold a handle in
        [0, I32_MAX] (the range write_handle accepts, so every loaded seed
        re-encodes), and the start of every HANDLE leaf is appended to
        handle_starts in tree order.
        """
        if type(obj) is not dict:
            raise CorpusError("trace node is not an object: %s" % _excerpt(obj))
        kind = _field(obj, "kind", _STR, "trace node")
        label = _field(obj, "label", _STR, "trace node", CorpusError, "")
        byte_range = _items(obj, "byte_range", _INT, "trace node")
        if len(byte_range) != 2:
            raise CorpusError("trace node byte_range must be [start, end], got %s" % _excerpt(byte_range))
        start, end = byte_range
        if kind == COMPOSITE:
            children = _field(obj, "children", _LIST, "trace node", CorpusError, [])
            return cls(kind, label, start, end, [cls.from_json(c, payload, handle_starts) for c in children])
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
                    "trace leaf HANDLE at [%d, %d) holds handle %d, outside [0, %d]" % (start, end, handle, I32_MAX)
                )
            handle_starts.append(start)
        elif kind == "STRING" or kind == "BYTES":
            declared = _I32.unpack_from(payload, start)[0]
            if declared < 0 or end != start + 4 + pad4(declared):
                raise CorpusError("trace leaf %s at [%d, %d) declares %d bytes" % (kind, start, end, declared))
            if kind == "STRING":
                try:
                    payload[start + 4 : start + 4 + declared].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorpusError(
                        "trace leaf STRING at [%d, %d) is not UTF-8: %s" % (start, end, exc.reason)
                    ) from None
        return cls(kind, label, start, end)


class TraceBuilder:
    """Parcel read hook that reconstructs what a decoder consumed.

    Composite byte ranges are filled in at finish time.  Parcel reads
    are contiguous, so a composite starts where the read before it ended
    and ends where its last child ends; an empty one is a zero-width
    range there.
    """

    def __init__(self):
        self.root = TraceNode(COMPOSITE, "request")
        self._stack = [self.root]

    def on_leaf(self, kind: Kind, start: int, end: int) -> None:
        self._stack[-1].children.append(TraceNode(kind.value, "", start, end))

    def enter_composite(self, label: str) -> None:
        node = TraceNode(COMPOSITE, label)
        self._stack[-1].children.append(node)
        self._stack.append(node)

    def exit_composite(self) -> None:
        if len(self._stack) > 1:
            self._stack.pop()

    def finish(self) -> TraceNode:
        # Iterative on purpose: a trace of a runaway recursive decoder can
        # nest hundreds of composites, past the interpreter's stack budget.
        frames = [[self.root, 0, 0]]  # node, cursor, next child index
        while frames:
            frame = frames[-1]
            node, cursor, index = frame
            if node.is_leaf:
                frames.pop()
                frames[-1][1] = node.end
                continue
            if index == 0:
                node.start = cursor
            if index < len(node.children):
                frame[2] = index + 1
                frames.append([node.children[index], cursor, 0])
            else:
                node.end = cursor
                frames.pop()
                if frames:
                    frames[-1][1] = cursor
        return self.root


# ---------------------------------------------------------------------------
# Seed records.
# ---------------------------------------------------------------------------


class SeedRecord(NamedTuple):
    """One recorded transaction, carrying everything replay needs.

    consumed_handles pairs each handle-slot byte position in the payload
    with its origin: the producing record's seq for dynamic handles, or a
    "STATIC:<descriptor>" marker for service-manager results.  The target
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
    def from_json(cls, obj, where: str = "seed record") -> "SeedRecord":
        """Parse one corpus record.  An unusable record is a CorpusError
        naming the first field that fails and the record: by its seq once
        that is read, by where until then."""
        if type(obj) is not dict:
            raise CorpusError("%s is not an object: %s" % (where, _excerpt(obj)))
        seq = _field(obj, "seq", _INT, where)
        where = "record %d" % seq
        scenario = _field(obj, "scenario", _STR, where, CorpusError, "")
        descriptor = _field(obj, "descriptor", _STR, where)
        code = _field(obj, "code", _INT, where)
        target = _field(obj, "target", _INT, where)
        try:
            payload = binascii.unhexlify(_field(obj, "payload_hex", _STR, where))
        except ValueError as exc:
            raise CorpusError("%s payload_hex is not hex: %s" % (where, exc)) from None
        offsets = tuple(_items(obj, "offsets", _INT, where))
        trace_obj = _field(obj, "trace", _DICT, where)
        handle_starts: list[int] = []
        try:
            trace = TraceNode.from_json(trace_obj, payload, handle_starts)
        except CorpusError as exc:
            raise CorpusError("%s trace: %s" % (where, exc)) from None
        if tuple(handle_starts) != offsets:
            raise CorpusError(
                "%s: HANDLE leaves start at %s, offsets are %s" % (where, _excerpt(handle_starts), _excerpt(offsets))
            )
        consumed = _items(obj, "consumed_handles", _LIST, where)
        for pair in consumed:
            if not (
                len(pair) == 2
                and type(pair[0]) is int
                and (type(pair[1]) is int or (type(pair[1]) is str and pair[1].startswith(STATIC_PREFIX)))
            ):
                raise CorpusError(
                    "%s consumed_handles must hold [int, int or '%s<descriptor>'] pairs, got %s"
                    % (where, STATIC_PREFIX, _excerpt(pair))
                )
        produced = _items(obj, "produced_handles", _LIST, where)
        for pair in produced:
            if not (len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int):
                raise CorpusError("%s produced_handles must hold [int, int] pairs, got %s" % (where, _excerpt(pair)))
        reply_kind = _field(obj, "reply_kind", _STR, where)
        return cls(
            seq, scenario, descriptor, code, target, payload, offsets, trace,
            tuple(map(tuple, consumed)), tuple(map(tuple, produced)), reply_kind,
        )


class RecordingClient(Client):
    """Client endpoint that captures every transaction it sends."""

    def __init__(self, router: Router, sender_id: str = "recorder"):
        super().__init__(router, sender_id)
        self.records: list[SeedRecord] = []
        # Writer-side encoding log per record, index-aligned with records.
        # Kept so fidelity checks can compare what the reader's trace saw
        # against what the sender actually encoded.
        self.writer_logs: list[list[tuple[Kind, int, int]]] = []
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
        if reply.kind is ReplyKind.OK and reply.payload is not None:
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
                reply_kind=reply.kind.value,
            )
        )
        self.writer_logs.append(list(data.write_log))
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
    if reply.kind is not ReplyKind.OK:
        raise RecordingError("session ping failed: %s" % reply.kind.value)
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


def coverage_gaps(records) -> list[tuple[str, int, str]]:
    """Registry methods no record exercises; empty on the shipped corpus."""
    seen = {(r.descriptor, r.code) for r in records}
    return [m for m in all_methods() if (m[0], m[1]) not in seen]


# ---------------------------------------------------------------------------
# Dependency graph.
# ---------------------------------------------------------------------------


class DependencyEdge(NamedTuple):
    producer_seq: int
    consumer_seq: int


class DependencyGraph(NamedTuple):
    nodes: tuple[int, ...]
    edges: tuple[DependencyEdge, ...]


def build_dependency_graph(records) -> DependencyGraph:
    """Derive the producer-before-consumer graph from recorded bookkeeping.

    Dynamic consumption appears two ways: a handle slot in the payload
    whose origin is a producing seq, and a transaction target that is
    itself a dynamically produced handle.  Static handles never make
    edges: replay re-resolves them by descriptor.
    """
    ordered = sorted(records, key=lambda r: r.seq)
    if [r.seq for r in ordered] != list(range(len(ordered))):
        raise CorpusError("record seqs are not contiguous from 0")

    dyn_produced: dict[int, int] = {}
    static_values: set[int] = {SERVICE_MANAGER_HANDLE}
    edges: list[DependencyEdge] = []

    for record in ordered:
        for pos, origin in record.consumed_handles:
            if pos not in record.offsets:
                raise CorpusError(
                    "record %d consumes position %d outside its offsets" % (record.seq, pos)
                )
            value = handle_at(record.payload, pos)
            if isinstance(origin, int):
                if dyn_produced.get(value) != origin:
                    raise CorpusError(
                        "record %d consumes handle %d attributed to record %d, "
                        "which did not produce it" % (record.seq, value, origin)
                    )
                edges.append(DependencyEdge(origin, record.seq))

        if record.target in dyn_produced:
            edges.append(DependencyEdge(dyn_produced[record.target], record.seq))
        elif record.target not in static_values:
            raise CorpusError(
                "record %d targets handle %d with no recorded origin" % (record.seq, record.target)
            )

        for value, _pos in record.produced_handles:
            if record.target == SERVICE_MANAGER_HANDLE:
                static_values.add(value)
            else:
                dyn_produced[value] = record.seq

    return DependencyGraph(nodes=tuple(r.seq for r in ordered), edges=tuple(edges))


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def corpus_text(records) -> str:
    """The exact text save_corpus writes, for hashing without a file."""
    header = {
        "format_version": CORPUS_FORMAT_VERSION,
        "corpus_manifest_ref": CORPUS_MANIFEST_REF,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(r.to_json(), sort_keys=True) for r in records)
    return "\n".join(lines) + "\n"


def save_corpus(records, path) -> None:
    Path(path).write_text(corpus_text(records), encoding="utf-8")


def load_corpus(path) -> list[SeedRecord]:
    """The records of a corpus file.  A record that has no usable seq is
    named by its 1-based line in the file, blank lines counted."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise CorpusError("corpus file is empty")
    try:
        header = json.loads(lines[0][1])
    except json.JSONDecodeError:
        raise CorpusError("corpus header is not JSON") from None
    except RecursionError:
        raise CorpusError("corpus header nests too deeply") from None
    if type(header) is not dict or _field(header, "format_version", _INT, "corpus header") != CORPUS_FORMAT_VERSION:
        raise CorpusError("unsupported corpus header: %s" % _excerpt(header))
    records = []
    for number, line in lines[1:]:
        try:
            records.append(SeedRecord.from_json(json.loads(line), "corpus line %d" % number))
        except json.JSONDecodeError:
            raise CorpusError("corpus line %d is not JSON: %r" % (number, line[:80])) from None
        except RecursionError:
            raise CorpusError("corpus line %d nests too deeply: %r" % (number, line[:80])) from None
    return records


def corpus_digest(records) -> str:
    """Identity of a corpus: sha256 of the text save_corpus writes for
    its records, so a file loads under the same identity however it is
    spaced, and one saved file hashes to it byte for byte."""
    return hashlib.sha256(corpus_text(records).encode("utf-8")).hexdigest()
