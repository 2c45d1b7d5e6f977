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

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .parcel import Kind, Parcel, handle_at
from .router import Reply, ReplyKind, Router, Transaction, SERVICE_MANAGER_HANDLE
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

COMPOSITE = "COMPOSITE"
STATIC_PREFIX = "STATIC:"

# Descriptor reported for the service manager itself; targets recorded
# against it always materialize back to handle 0.
MANAGER_DESCRIPTOR = "service_manager"


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


# ---------------------------------------------------------------------------
# Type traces.
# ---------------------------------------------------------------------------


@dataclass
class TraceNode:
    """One node of a type trace: a primitive leaf or a labeled composite."""

    kind: str
    label: str = ""
    start: int = 0
    end: int = 0
    children: list["TraceNode"] = field(default_factory=list)

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

    def to_json(self) -> dict:
        node = {
            "kind": self.kind,
            "label": self.label,
            "byte_range": [self.start, self.end],
        }
        if not self.is_leaf:
            node["children"] = [c.to_json() for c in self.children]
        return node

    @classmethod
    def from_json(cls, obj) -> "TraceNode":
        try:
            kind = obj["kind"]
            label = obj.get("label", "")
            start, end = obj["byte_range"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError("malformed trace node: %r" % (obj,)) from None
        if kind != COMPOSITE and kind not in Kind.__members__:
            raise CorpusError("unknown trace leaf kind %r" % kind)
        children = [cls.from_json(c) for c in obj.get("children", ())]
        if kind != COMPOSITE and children:
            raise CorpusError("trace leaf %r carries children" % kind)
        return cls(kind, label, int(start), int(end), children)


class TraceBuilder:
    """Parcel read hook that reconstructs what a decoder consumed.

    Composite byte ranges are filled in at finish time as the union of
    the children; an empty composite collapses to a zero-width range at
    the position the decoder had reached when it opened the scope.
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
                node.start = node.children[0].start if node.children else cursor
                frame[1] = cursor = node.start
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


@dataclass(frozen=True)
class SeedRecord:
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
    payload_hex: str
    offsets: tuple[int, ...]
    trace: TraceNode
    consumed_handles: tuple[tuple[int, int | str], ...]
    produced_handles: tuple[tuple[int, int], ...]
    reply_kind: str

    def payload(self) -> Parcel:
        return Parcel.from_hex(self.payload_hex, self.offsets)

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "scenario": self.scenario,
            "descriptor": self.descriptor,
            "code": self.code,
            "target": self.target,
            "payload_hex": self.payload_hex,
            "offsets": list(self.offsets),
            "trace": self.trace.to_json(),
            "consumed_handles": [[pos, origin] for pos, origin in self.consumed_handles],
            "produced_handles": [[value, pos] for value, pos in self.produced_handles],
            "reply_kind": self.reply_kind,
        }

    @classmethod
    def from_json(cls, obj) -> "SeedRecord":
        try:
            consumed = []
            for pos, origin in obj["consumed_handles"]:
                if not isinstance(origin, int) and not (
                    isinstance(origin, str) and origin.startswith(STATIC_PREFIX)
                ):
                    raise CorpusError("bad handle origin %r" % (origin,))
                consumed.append((int(pos), origin))
            return cls(
                seq=int(obj["seq"]),
                scenario=str(obj.get("scenario", "")),
                descriptor=str(obj["descriptor"]),
                code=int(obj["code"]),
                target=int(obj["target"]),
                payload_hex=str(obj["payload_hex"]),
                offsets=tuple(int(p) for p in obj["offsets"]),
                trace=TraceNode.from_json(obj["trace"]),
                consumed_handles=tuple(consumed),
                produced_handles=tuple((int(v), int(p)) for v, p in obj["produced_handles"]),
                reply_kind=str(obj["reply_kind"]),
            )
        except CorpusError:
            raise
        except (KeyError, TypeError, ValueError):
            raise CorpusError("malformed seed record: %r" % (obj,)) from None


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
        txn = Transaction(handle, code, data, 0, self.sender_id)
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
                payload_hex=data.to_hex(),
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
            return STATIC_PREFIX + MANAGER_DESCRIPTOR
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


def record_session(names, router: Router | None = None) -> list[SeedRecord]:
    """Run the named scenarios against one router and return their records.

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
    if router is None:
        router = fresh_router()
    client = RecordingClient(router)
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


@dataclass(frozen=True)
class DependencyEdge:
    producer_seq: int
    consumer_seq: int
    handle_id: int


@dataclass(frozen=True)
class DependencyGraph:
    nodes: tuple[int, ...]
    edges: tuple[DependencyEdge, ...]
    static_prereqs: dict[int, tuple[str, ...]]

    def edges_into(self, seq: int) -> tuple[DependencyEdge, ...]:
        return tuple(e for e in self.edges if e.consumer_seq == seq)


def build_dependency_graph(records) -> DependencyGraph:
    """Derive the producer-before-consumer graph from recorded bookkeeping.

    Dynamic consumption appears two ways: a handle slot in the payload
    whose origin is a producing seq, and a transaction target that is
    itself a dynamically produced handle.  Static handles never make
    edges; they are listed as named prerequisites so replay re-resolves
    them by descriptor.
    """
    ordered = sorted(records, key=lambda r: r.seq)
    if [r.seq for r in ordered] != list(range(len(ordered))):
        raise CorpusError("record seqs are not contiguous from 0")

    dyn_produced: dict[int, int] = {}
    static_values: set[int] = {SERVICE_MANAGER_HANDLE}
    edges: list[DependencyEdge] = []
    prereqs: dict[int, list[str]] = {}

    for record in ordered:
        buf = bytes.fromhex(record.payload_hex)
        for pos, origin in record.consumed_handles:
            if pos not in record.offsets:
                raise CorpusError(
                    "record %d consumes position %d outside its offsets" % (record.seq, pos)
                )
            value = handle_at(buf, pos)
            if isinstance(origin, int):
                if dyn_produced.get(value) != origin:
                    raise CorpusError(
                        "record %d consumes handle %d attributed to record %d, "
                        "which did not produce it" % (record.seq, value, origin)
                    )
                edges.append(DependencyEdge(origin, record.seq, value))
            else:
                prereqs.setdefault(record.seq, []).append(origin[len(STATIC_PREFIX):])

        if record.target in dyn_produced:
            edges.append(DependencyEdge(dyn_produced[record.target], record.seq, record.target))
        elif record.target in static_values:
            if record.target != SERVICE_MANAGER_HANDLE:
                prereqs.setdefault(record.seq, []).append(record.descriptor)
        else:
            raise CorpusError(
                "record %d targets handle %d with no recorded origin" % (record.seq, record.target)
            )

        for value, _pos in record.produced_handles:
            if record.target == SERVICE_MANAGER_HANDLE:
                static_values.add(value)
            else:
                dyn_produced[value] = record.seq

    return DependencyGraph(
        nodes=tuple(r.seq for r in ordered),
        edges=tuple(edges),
        static_prereqs={seq: tuple(names) for seq, names in prereqs.items()},
    )


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
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise CorpusError("corpus file is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        raise CorpusError("corpus header is not JSON") from None
    if not isinstance(header, dict) or header.get("format_version") != CORPUS_FORMAT_VERSION:
        raise CorpusError("unsupported corpus header: %r" % (header,))
    records = []
    for line in lines[1:]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise CorpusError("corpus line is not JSON: %r" % line[:80]) from None
        records.append(SeedRecord.from_json(obj))
    return records


def corpus_id(path) -> str:
    """Stable identity of a corpus file: sha256 of its bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
